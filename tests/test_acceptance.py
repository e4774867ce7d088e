"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The slope criteria use the estimators documented in the README:
the analytic-curve exponent is extracted after dividing out the exactly
known slowly varying factor of the product-Rayleigh law, and the Monte
Carlo d_hat is calibrated against the analytic upper envelope fitted on
the same grid points (the raw log-log slope of either curve is biased low
at desk-scale SNR by that same factor).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from relaydiv import (
    Codebook,
    cyclic_delay_scheme,
    custom_scheme,
    dft_matrix,
    gaussian_codebook,
    gramian,
    jensen_mi,
    mc_exact_outage,
    mc_ml_error,
    min_gram_eigenvalue,
    phase_rolling_scheme,
    union_bound,
)
from relaydiv.channel_model import complex_gaussian, effective_channel, two_hop
from relaydiv.codebook import cdd_condition, phase_rolling_condition, difference_matrix
from relaydiv.information import mutual_information
from relaydiv.experiment_cli import (
    ExperimentConfig,
    duality_deviations,
    gramian_deviations,
    main,
    product_rayleigh_deviation,
    run_dm_slope,
)
from relaydiv.outage_analysis import bracket_log_correction, analytic_jensen_bracket


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Diversity-slope reproduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,r", [(1, 0.0), (2, 0.0), (3, 0.0), (2, 0.25)])
def test_criterion_1_diversity_slope(k, r):
    cfg = ExperimentConfig(
        experiment="dm-slope",
        scheme="cdd",
        k=k,
        n=8,
        r=r,
        snr_db=tuple(float(db) for db in range(20, 50, 5)),
        trials="adaptive",
        min_trials=2_000_000,
        max_trials=10_000_000,
        seed=4200 + k * 10 + int(r * 100),
    )
    cfg.validate()
    _, report = run_dm_slope(cfg)
    theory = k * (1.0 - 2.0 * r)
    ok = abs(report.d_hat - theory) <= 0.2 * theory
    _report(
        f"criterion 1 (K={k}, r={r})",
        ok,
        f"d_hat={report.d_hat:.3f} (raw {report.d_hat_raw:.3f}) vs {theory} +-20%",
    )


# ---------------------------------------------------------------------------
# 2. Analytic-bracket exponent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("r", [0.0, 0.25, 0.5])
def test_criterion_2_bracket_exponent(k, r):
    # minimal block length keeps the envelope inside the region where the
    # slowly varying factor is known accurately; the exponent itself does
    # not depend on N
    summary = gramian(cyclic_delay_scheme(k, k))
    rhos = np.logspace(3, 6, 13)
    upper = np.array([analytic_jensen_bracket(k, summary, r, rho)[1] for rho in rhos])
    x = np.log2(rhos)
    raw_slope = float(np.polyfit(x, np.log2(upper), 1)[0])
    if r == 0.5:
        ok = abs(raw_slope) < 0.05
        _report(f"criterion 2 (K={k}, r={r})", ok, f"|slope|={abs(raw_slope):.4f} < 0.05")
        return
    corrected = np.log2(upper) - bracket_log_correction(k, summary, r, rhos)
    slope = float(np.polyfit(x, corrected, 1)[0])
    theory = -k * (1.0 - 2.0 * r)
    ok = abs(slope - theory) <= 0.05 * abs(theory)
    _report(
        f"criterion 2 (K={k}, r={r})",
        ok,
        f"exponent={slope:.4f} vs {theory} +-5% (raw log-log slope {raw_slope:.3f})",
    )


# ---------------------------------------------------------------------------
# 3. Product-Rayleigh CDF
# ---------------------------------------------------------------------------

def test_criterion_3_product_rayleigh_cdf():
    sup_dist = product_rayleigh_deviation(1_000_000, 8.0, 1601, np.random.default_rng(31416))
    _report("criterion 3", sup_dist < 5e-3, f"sup-distance={sup_dist:.2e} < 5e-3")


# ---------------------------------------------------------------------------
# 4. Jensen dominance
# ---------------------------------------------------------------------------

def test_criterion_4_jensen_dominance():
    rng = np.random.default_rng(41)
    worst = -np.inf
    draws = 0
    while draws < 100_000:
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k, 9))
        kind = rng.integers(0, 3)
        if kind == 0:
            scheme = cyclic_delay_scheme(k, n)
        elif kind == 1:
            scheme = phase_rolling_scheme(k, n)
        else:
            mats = []
            for _ in range(k):
                q, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
                mats.append(q / np.sqrt(n))
            scheme = custom_scheme(mats)
        block = 1000
        f = complex_gaussian(rng, (block, k))
        h = complex_gaussian(rng, (block, k))
        rho = float(10 ** rng.uniform(0, 4))
        heffs = effective_channel(*two_hop(f, h), scheme.stacked())
        gap = mutual_information(heffs, rho) - jensen_mi(heffs, rho)
        worst = max(worst, float(gap.max()))
        draws += block
    _report("criterion 4", worst <= 1e-9, f"max(exact - jensen)={worst:.2e} over {draws} draws")


# ---------------------------------------------------------------------------
# 5. Gramian quadratic-form identity
# ---------------------------------------------------------------------------

def test_criterion_5_gramian_identity():
    rng = np.random.default_rng(51)
    schemes = []
    for k, n in [(1, 2), (2, 4), (3, 8), (4, 5)]:
        schemes.append(cyclic_delay_scheme(k, n))
        schemes.append(phase_rolling_scheme(k, n))
        q, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
        schemes.append(custom_scheme([q @ g for g in cyclic_delay_scheme(k, n).matrices]))
    worst, _ = gramian_deviations(schemes, 10_000, rng)
    _report("criterion 5", worst < 1e-10, f"max relative discrepancy={worst:.2e} over 10^4 draws")


# ---------------------------------------------------------------------------
# 6. Duality and DFT identities
# ---------------------------------------------------------------------------

def test_criterion_6_duality_identities():
    worst_dual, worst_diag, worst_inner = duality_deviations([(n, n) for n in range(1, 65)])
    ok = worst_dual <= 1e-12 and worst_diag <= 1e-12 and worst_inner <= 1e-12
    _report(
        "criterion 6",
        ok,
        f"duality={worst_dual:.2e}, diagonalization={worst_diag:.2e}, "
        f"inner products={worst_inner:.2e} (all <= 1e-12, N up to 64)",
    )


# ---------------------------------------------------------------------------
# 7. Rank-condition equivalence
# ---------------------------------------------------------------------------

def _svd_full_rank(phi: np.ndarray) -> bool:
    s = np.linalg.svd(phi, compute_uv=False)
    return bool(s[-1] > 1e-9 * max(s[0], 1e-300))


def test_criterion_7_rank_condition_equivalence():
    rng = np.random.default_rng(71)
    n = 8
    cdd = cyclic_delay_scheme(n, n)
    pr = phase_rolling_scheme(n, n)
    f = dft_matrix(n)
    vectors = [complex_gaussian(rng, n) for _ in range(10_000)]
    degenerate = []
    for _ in range(50):
        spec = complex_gaussian(rng, n)
        spec[rng.integers(0, n)] = 0.0
        degenerate.append(f.conj().T @ spec)  # zeroed DFT bin: breaks CDD rank
    for _ in range(50):
        vec = complex_gaussian(rng, n)
        vec[rng.integers(0, n)] = 0.0
        degenerate.append(vec)  # zeroed entry: breaks phase-rolling rank
    mismatches = 0
    total = 0
    for dx in vectors + degenerate:
        for scheme, condition in ((cdd, cdd_condition), (pr, phase_rolling_condition)):
            got = condition(dx)
            want = _svd_full_rank(difference_matrix(scheme, dx))
            mismatches += int(got != want)
            total += 1
    _report("criterion 7", mismatches == 0, f"{total - mismatches}/{total} verdicts agree")


# ---------------------------------------------------------------------------
# 8. Outage lower-bounds error
# ---------------------------------------------------------------------------

def test_criterion_8_outage_lower_bounds_error():
    # 16-codeword Gaussian book generated at (N=2, r=0.25, rho=16); over the
    # grid the outage threshold is matched to the book's actual rate of
    # log2(16)/(2N) = 1 bit per channel use
    scheme = cyclic_delay_scheme(2, 2)
    book = gaussian_codebook(2, 0.25, 16.0, np.random.default_rng(81))
    assert book.size == 16
    matched_rate = math.log2(book.size) / (2 * book.block_length)
    all_ok = True
    details = []
    for index, db in enumerate((25.0, 30.0, 35.0, 40.0)):
        rho = 10 ** (db / 10)
        err = mc_ml_error(scheme, book, rho, 500_000, seed=810 + index)
        out = mc_exact_outage(
            scheme, 0.25, rho, 2_000_000, seed=820 + index, rate_bits=matched_rate
        )
        slack = 2.0 * ((err.ci_high - err.ci_low) / 2 + (out.ci_high - out.ci_low) / 2)
        ok = err.probability >= out.probability - slack
        all_ok = all_ok and ok
        details.append(f"{db:.0f}dB err={err.probability:.2e} out={out.probability:.2e}")
    _report("criterion 8", all_ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. Union-bound decay
# ---------------------------------------------------------------------------

def test_criterion_9_union_bound_decay():
    scheme = cyclic_delay_scheme(2, 2)
    # user-supplied antipodal pair with orthogonal shifted difference; its
    # pair Gramian is 16 I so the bound decays fast enough to cross 1e-6
    words = np.array([[2.0, 2.0j], [-2.0, -2.0j]])
    book = Codebook(words, rate_multiplexing=0.1, snr=100.0)
    assert min_gram_eigenvalue(scheme, book) == pytest.approx(16.0, rel=1e-12)
    values = []
    for db in range(20, 65, 5):
        values.append(union_bound(scheme, book, 10 ** (db / 10), 0.1))
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    tail_ok = values[-1] < 1e-6
    _report(
        "criterion 9",
        decreasing and tail_ok,
        f"strictly decreasing={decreasing}, bound(60dB)={values[-1]:.2e} < 1e-6",
    )


# ---------------------------------------------------------------------------
# 10. Determinism across worker threads
# ---------------------------------------------------------------------------

def test_criterion_10_thread_determinism(tmp_path):
    outputs = []
    for threads in (1, 2, 8):
        out = str(tmp_path / f"sweep_t{threads}.csv")
        rc = main(
            [
                "outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4",
                "--r", "0.25", "--snr-db", "20,25,30", "--trials", "100000",
                "--seed", "101", "--threads", str(threads), "--out", out,
            ]
        )
        assert rc == 0
        outputs.append(Path(out).read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report("criterion 10", ok, "byte-identical CSVs for 1, 2, and 8 threads")
