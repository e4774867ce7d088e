"""Product-Rayleigh law, Monte Carlo estimators, bounds, and slope fits."""

import dataclasses
import math
import os
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, k1

from relaydiv import (
    Codebook,
    InsufficientDataError,
    InvalidParameterError,
    ProbEstimate,
    ResourceLimitError,
    analytic_jensen_bracket,
    custom_scheme,
    cyclic_delay_scheme,
    effective_channel,
    fit_diversity_slope,
    gaussian_codebook,
    gramian,
    jensen_form,
    jensen_mi,
    mc_exact_outage,
    mc_jensen_outage,
    mc_ml_error,
    min_gram_eigenvalue,
    outage_analysis,
    phase_rolling_scheme,
    product_rayleigh_cdf,
    simulate_normalized,
    simulate_two_hop,
    union_bound,
)
from relaydiv.channel_model import complex_gaussian
from relaydiv.codebook import DEFAULT_SIZE_CAP
from relaydiv.information import ldl_factors, mi_from_factors, spectral_factors
from relaydiv.outage_analysis import resolve_threads, wilson_interval
from relaydiv.relay_schemes import RelayScheme, common_spectra, pair_products

EULER_GAMMA = 0.5772156649015329


def k1_quadrature(x):
    # independent oracle: K1(x) = int_0^inf exp(-x cosh t) cosh t dt
    val, _ = quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
        0.0,
        60.0,
        limit=400,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def product_cdf_quadrature(t):
    # P(X E < t) for independent unit-mean exponentials X, E; the integrand
    # has a boundary layer near x ~ t, so integrate the two regimes apart
    split = max(50.0 * t, 1e-12)
    head, _ = quad(
        lambda x: math.exp(-x) * (1.0 - math.exp(-t / x)),
        0.0, split, limit=800, epsabs=1e-15, epsrel=1e-13,
    )
    tail, _ = quad(
        lambda x: math.exp(-x) * (1.0 - math.exp(-t / x)),
        split, np.inf, limit=800, epsabs=1e-15, epsrel=1e-13,
    )
    return head + tail


def product_rayleigh_reference(x):
    # F(x) = 1 - 2x K1(2x) from scipy's K1 where F >= 0.39, and below x = 0.5
    # the cancellation-free series F = x^2 sum_k x^2k / (k! (k+1)!)
    # (-2 ln x + psi(k+1) + psi(k+2)), whose terms are all positive there;
    # within 6.7e-16 relative of 40-digit mpmath on 5900 points in [1e-8, 20]
    if x >= 0.5:
        return 1.0 - 2.0 * x * k1(2.0 * x)
    q, term, harmonic, total = x * x, 1.0, 0.0, 0.0
    for k in range(40):
        total += term * (-2.0 * math.log(x) - 2.0 * EULER_GAMMA + 2.0 * harmonic + 1.0 / (k + 1))
        harmonic += 1.0 / (k + 1)
        term *= q / ((k + 1) * (k + 2))
    return q * total


# ---------------------------------------------------------------------------
# product_rayleigh_cdf
# ---------------------------------------------------------------------------

def test_product_rayleigh_cdf_boundaries():
    assert product_rayleigh_cdf(0.0) == 0.0
    # 1 - F(20) < 3.4e-17 is below half an ulp of 1, so F rounds to 1 there
    for x in (20.0, 1e200, math.inf):
        assert product_rayleigh_cdf(x) == 1.0
    assert 1.0 - 1e-15 < product_rayleigh_cdf(19.0) < 1.0
    # x^2 underflows: F < 1e-316 up to x = 1e-160
    assert product_rayleigh_cdf(1e-170) == 0.0 and 0.0 < product_rayleigh_cdf(1e-159) < 1e-315
    for bad in (-0.1, math.nan, -math.inf, [0.5, math.nan], np.array([1.0, -1e-300])):
        with pytest.raises(InvalidParameterError):
            product_rayleigh_cdf(bad)


def test_product_rayleigh_cdf_matches_an_independent_reference():
    grid = np.concatenate([np.geomspace(1e-8, 20.0, 2500), np.linspace(0.0, 20.0, 2501)[1:]])
    want = np.array([product_rayleigh_reference(x) for x in grid])
    assert np.max(np.abs(product_rayleigh_cdf(grid) / want - 1.0)) <= 1e-13


def test_product_rayleigh_cdf_of_an_array_is_its_scalar_values_bit_for_bit():
    # an array this long takes numpy's in-place paths for temporaries of
    # 256 KiB or more, which the scalar calls do not
    grid = np.concatenate([[0.0, 1e-170, 1e-9], np.linspace(1e-4, 20.0, 2000), [25.0, math.inf]])
    values = product_rayleigh_cdf(grid)
    picked = np.arange(0, grid.size, 10)
    scalars = [product_rayleigh_cdf(float(x)) for x in grid[picked]]
    assert all(type(v) is float for v in scalars)
    assert values[picked].tobytes() == np.array(scalars).tobytes()
    assert product_rayleigh_cdf(grid.reshape(5, -1)).tobytes() == values.tobytes()


def test_product_rayleigh_cdf_matches_the_k1_quadrature_on_both_branches():
    # F(x) = 1 - 2x K1(2x) against an independent quadrature of K1
    for x in [0.05, 1.0, 2.5, 4.0, 4.45, 4.55, 6.0, 10.0, 15.0]:
        assert abs(product_rayleigh_cdf(x) - (1.0 - 2.0 * x * k1_quadrature(2.0 * x))) <= 2e-13


@settings(max_examples=200, deadline=None, derandomize=True)
@given(offset=st.floats(1e-15, 1e-9))
def test_product_rayleigh_cdf_is_continuous_across_the_series_crossover(offset):
    # the contour has no branch at x = 4.5: F's slope there (~1e-3) moves it by
    # under 2e-12 over 2e-9, and the contour's own error is ~1e-14
    assert abs(product_rayleigh_cdf(4.5 - offset) - product_rayleigh_cdf(4.5 + offset)) <= 3e-12


def test_product_rayleigh_cdf_monotone_grid():
    # 1e5 points in chunks, each x's value being independent of the chunk;
    # past x ~ 13.7 the contour's rounding can step F down by a few ulps of 1
    grid = np.linspace(0.0, 10.0, 100_001)
    values = np.concatenate([product_rayleigh_cdf(part) for part in np.array_split(grid, 10)])
    assert np.all(np.diff(values) >= 0)
    assert np.all((values >= 0) & (values <= 1))


def test_product_rayleigh_cdf_equals_exponential_product_law():
    # |f h|^2 is a product of two unit-mean exponentials
    for x in [0.05, 0.3, 1.0, 2.5]:
        assert product_rayleigh_cdf(x) == pytest.approx(
            product_cdf_quadrature(x * x), abs=1e-13
        )


def test_product_rayleigh_cdf_small_argument_keeps_relative_precision():
    # the leading term's relative error at x = 1e-5 is ~x^2 = 1e-10
    x = 1e-5
    want = x * x * (2 * math.log(1 / x) + 1 - 2 * EULER_GAMMA)
    assert product_rayleigh_cdf(x) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def test_wilson_interval_contains_estimate():
    for events, trials in [(0, 100), (1, 100), (50, 100), (100, 100), (3, 10**6)]:
        lo, hi = wilson_interval(events, trials)
        assert 0.0 <= lo <= events / trials <= hi <= 1.0


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.data(), trials=st.integers(1, 10**12))
def test_wilson_interval_invariants(data, trials):
    events = data.draw(st.integers(0, trials))
    lo, hi = wilson_interval(events, trials)
    assert 0.0 <= lo <= events / trials <= hi <= 1.0
    if events == 0:
        assert lo == 0.0
    if events == trials:
        assert hi == 1.0


@pytest.mark.parametrize("trials,events", [(0, 0), (10, 11), (10, -1)])
def test_estimate_refuses_counts_outside_zero_to_trials(trials, events):
    with pytest.raises(InvalidParameterError, match="events must lie in"):
        ProbEstimate(snr_db=20.0, trials=trials, events=events)


def test_estimate_derives_probability_and_interval_from_its_counts():
    est = ProbEstimate(snr_db=20.0, trials=1000, events=7, mi_kernel="jensen")
    assert est.probability == 7 / 1000
    assert (est.ci_low, est.ci_high) == wilson_interval(7, 1000)
    assert [f.name for f in dataclasses.fields(est)] == ["snr_db", "trials", "events", "mi_kernel"]


def test_jensen_outage_rate_zero_is_exactly_zero():
    scheme = cyclic_delay_scheme(2, 4)
    est = mc_jensen_outage(scheme, 0.0, 100.0, 50_000, seed=1)
    assert est.probability == 0.0
    assert est.events == 0


def test_jensen_outage_matches_quadrature_oracle_single_relay():
    # At K = 1 every eigenvalue of H H^H is equal, so exact MI equals Jensen
    # MI and all three kernels share one closed form.  Each scheme runs the
    # Jensen and the exact estimator; CDD's exact kernel is spectral, the
    # Haar scheme's the LDL^H one.
    n = 4
    rho = 1000.0
    r = 0.25
    c = n * (rho ** (2 * r) - 1.0) / rho
    # the outage event is X E < c (1 + X) with X, E unit-mean exponentials
    want, _ = quad(
        lambda x: math.exp(-x) * (1.0 - math.exp(-c * (1.0 + x) / x)),
        0.0,
        np.inf,
        limit=400,
    )
    closed = 1.0 - math.exp(-c) * 2.0 * math.sqrt(c) * k1(2.0 * math.sqrt(c))
    assert closed == pytest.approx(want, rel=1e-12)
    haar = np.linalg.qr(complex_gaussian(np.random.default_rng(2025), (n, n)))[0]
    runs = [
        (cyclic_delay_scheme(1, n), mc_jensen_outage, "jensen"),
        (cyclic_delay_scheme(1, n), mc_exact_outage, "exact-spectral"),
        (custom_scheme([haar / 2.0]), mc_jensen_outage, "jensen"),
        (custom_scheme([haar / 2.0]), mc_exact_outage, "exact-products-ldl"),
    ]
    events = set()
    for scheme, estimator, kernel in runs:
        est = estimator(scheme, r, rho, 1_000_000, seed=2024)
        assert est.mi_kernel == kernel
        half_width = (est.ci_high - est.ci_low) / 2
        assert abs(est.probability - closed) <= 1.5 * half_width
        events.add(est.events)
    assert len(events) == 1


def test_outage_estimators_deterministic_and_thread_invariant():
    scheme = cyclic_delay_scheme(2, 4)
    a = mc_jensen_outage(scheme, 0.25, 1000.0, 200_000, seed=5, threads=1)
    b = mc_jensen_outage(scheme, 0.25, 1000.0, 200_000, seed=5, threads=4)
    c = mc_jensen_outage(scheme, 0.25, 1000.0, 200_000, seed=5)
    assert a == b == c
    d = mc_jensen_outage(scheme, 0.25, 1000.0, 200_000, seed=6)
    assert d.events != a.events  # different seed, different stream


def test_block_streams_are_sfc64_and_distinct_across_blocks_and_seeds():
    keys = [(seed, block) for seed in (0, 1, 7, 8) for block in (0, 1, 2, 225)]
    rngs = {key: outage_analysis._block_rng(*key) for key in keys}
    assert all(type(rng.bit_generator) is np.random.SFC64 for rng in rngs.values())
    heads = {key: rng.integers(0, 2**63, size=4).tobytes() for key, rng in rngs.items()}
    assert len(set(heads.values())) == len(keys)
    again = outage_analysis._block_rng(7, 225).integers(0, 2**63, size=4).tobytes()
    assert again == heads[(7, 225)]


def test_exact_outage_dominates_jensen_outage_on_shared_stream():
    scheme = cyclic_delay_scheme(2, 4)
    for seed in (1, 2, 3):
        jensen = mc_jensen_outage(scheme, 0.25, 316.23, 100_000, seed=seed)
        exact = mc_exact_outage(scheme, 0.25, 316.23, 100_000, seed=seed)
        assert exact.events >= jensen.events


def test_estimators_draw_once_per_block_and_share_the_pairs(monkeypatch):
    # one complex_gaussian call per block (the benchmark tracer counts draws
    # that way), and the Jensen and exact kernels see the same (u, b, noise)
    # bytes, those the draw returned; the draw is the thread's workspace,
    # which the next block draws over, so each kernel's inputs are copied
    # before it runs
    monkeypatch.setattr(outage_analysis, "BLOCK_TRIALS", 64)
    calls = []
    draw = outage_analysis.complex_gaussian
    monkeypatch.setattr(outage_analysis, "complex_gaussian",
                        lambda rng, shape, out=None: calls.append(shape) or draw(rng, shape, out))
    drawn, seen = [], {"jensen": [], "exact-spectral": []}
    sample = outage_analysis._sample_fading

    def sampling(rng, n, k):
        parts = sample(rng, n, k)
        drawn.append(tuple(x.copy() for x in parts))
        return parts

    make_kernel = outage_analysis._outage_kernel

    def kernel(*args):
        name, in_outage = make_kernel(*args)

        def recording(*parts):
            seen[name].append(tuple(x.copy() for x in parts))
            return in_outage(*parts)

        return name, recording

    monkeypatch.setattr(outage_analysis, "_sample_fading", sampling)
    monkeypatch.setattr(outage_analysis, "_outage_kernel", kernel)
    scheme = cyclic_delay_scheme(2, 4)
    mc_jensen_outage(scheme, 0.25, 100.0, 200, seed=4, threads=1)
    assert calls == [(64, 2)] * 3 + [(8, 2)]
    mc_exact_outage(scheme, 0.25, 100.0, 200, seed=4, threads=1)
    assert len(calls) == len(drawn) == 8
    assert len(seen["jensen"]) == len(seen["exact-spectral"]) == 4
    bytes_of = lambda parts: tuple(x.tobytes() for x in parts)
    for jensen, exact in zip(seen["jensen"], seen["exact-spectral"]):
        assert bytes_of(jensen) == bytes_of(exact)
    for parts, kernel_parts in zip(drawn, seen["jensen"] + seen["exact-spectral"]):
        assert bytes_of(parts) == bytes_of(kernel_parts)


def test_exact_outage_rate_zero_is_zero():
    scheme = cyclic_delay_scheme(2, 4)
    est = mc_exact_outage(scheme, 0.0, 100.0, 20_000, seed=9)
    assert est.probability == 0.0


def test_exact_and_jensen_outage_share_the_exponent_scale():
    # the two estimates differ by a bounded constant factor, never by an
    # SNR-dependent order of magnitude
    scheme = cyclic_delay_scheme(2, 4)
    rho = 10 ** 3.5
    jensen = mc_jensen_outage(scheme, 0.25, rho, 400_000, seed=12)
    exact = mc_exact_outage(scheme, 0.25, rho, 400_000, seed=12)
    assert exact.probability >= jensen.probability
    assert exact.probability <= 2.5 * jensen.probability


def _regression_custom_scheme():
    rng = np.random.default_rng(5)
    return custom_scheme([np.linalg.qr(complex_gaussian(rng, (4, 4)))[0] / 2 for _ in range(3)])


@pytest.mark.parametrize(
    "make_scheme,threads,jensen_events,exact_events",
    [
        (lambda: cyclic_delay_scheme(2, 4), 2, 16481, 19608),
        (lambda: phase_rolling_scheme(3, 4), 1, 11054, 16044),
        (_regression_custom_scheme, 1, 11312, 16641),
    ],
    ids=["cdd", "phase-rolling", "custom"],
)
def test_outage_event_counts_are_pinned_at_a_fixed_seed(
    make_scheme, threads, jensen_events, exact_events
):
    # Any change to the fading stream or to an MI kernel's bits moves these.
    # numpy 2.4.6: pinned on SFC64's normal/exponential draws and np.prod's order.
    scheme = make_scheme()
    jensen = mc_jensen_outage(scheme, 0.25, 100.0, 40_000, seed=11, threads=threads)
    exact = mc_exact_outage(scheme, 0.25, 100.0, 40_000, seed=11)
    assert (jensen.events, exact.events) == (jensen_events, exact_events)


def _haar_scheme(k, n, seed):
    rng = np.random.default_rng(seed)
    return custom_scheme([np.linalg.qr(complex_gaussian(rng, (n, n)))[0] / np.sqrt(n)
                          for _ in range(k)])


def test_outage_estimators_run_on_eight_relays():
    # K = 8 takes the draw's pairwise noise sum; the exact outage set holds
    # the Jensen one on the same draws (Jensen dominance)
    scheme = cyclic_delay_scheme(8, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jensen = mc_jensen_outage(scheme, 0.0, 100.0, 20_000, seed=3, rate_bits=1.0)
        exact = mc_exact_outage(scheme, 0.0, 100.0, 20_000, seed=3, rate_bits=1.0)
    assert (jensen.mi_kernel, exact.mi_kernel) == ("jensen", "exact-spectral")
    assert 0 < jensen.events <= exact.events < 20_000


def _assert_form_matches_einsum(gram, u, b):
    # the reference path: h~ = u sqrt(b), then h~^H gram h~ by einsum
    ht = u * np.sqrt(b)
    form = jensen_form(gram, u, b)
    ref = np.einsum("...k,kl,...l->...", ht.conj(), gram.gram, ht).real
    scale = np.sum(ht.real**2 + ht.imag**2, axis=-1) * gram.lambda_max
    assert np.all(np.abs(form - ref) <= 1e-12 * scale)


@given(k=st.integers(1, 8), extra_n=st.integers(0, 4),
       family=st.sampled_from(["cdd", "phase-rolling", "haar"]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_jensen_form_of_the_draw_matches_the_einsum_of_its_products(k, extra_n, family, seed):
    n = k + extra_n
    scheme = {"cdd": cyclic_delay_scheme, "phase-rolling": phase_rolling_scheme,
              "haar": lambda k, n: _haar_scheme(k, n, seed)}[family](k, n)
    u, b, _ = outage_analysis._sample_fading(np.random.default_rng(seed), 257, k)
    _assert_form_matches_einsum(gramian(scheme), u, b)


@pytest.mark.parametrize(
    "scheme",
    [cyclic_delay_scheme(2, 8), phase_rolling_scheme(3, 4), _haar_scheme(3, 4, 23)],
    ids=["cdd", "phase-rolling", "haar"],
)
def test_jensen_outage_test_agrees_with_the_logarithm(scheme):
    # the estimator decides jensen_form / noise < N (2^(2 R) - 1) / rho; on
    # every trial that must be the verdict of the Jensen MI itself, except
    # where the MI lies within rounding of the threshold
    gram = gramian(scheme)
    if scheme.name == "custom":
        assert np.all(np.abs(gram.gram.imag[~np.eye(3, dtype=bool)]) > 1e-3)
    u, b, noise = outage_analysis._sample_fading(np.random.default_rng(29), 100_000,
                                                 scheme.num_relays)
    heff = effective_channel(u * np.sqrt(b), noise, scheme.stacked())
    near = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_form_matches_einsum(gram, u, b)
        for rho in (1.01, 10.0, 100.0, 1e3, 1e8, 1e300):
            mi = jensen_mi(heff, rho)
            for rate_bits in (0.0, 1.0, 509.9, 600.0):
                name, in_outage = outage_analysis._outage_kernel(scheme, "jensen", rho, rate_bits)
                got = in_outage(u, b, noise)
                band = np.abs(mi - rate_bits) <= 1e-12 * rate_bits
                assert name == "jensen"
                assert np.array_equal(got[~band], (mi < rate_bits)[~band])
                near += int(np.count_nonzero(band))
    assert near == 0


@pytest.mark.parametrize(
    "scheme", [cyclic_delay_scheme(2, 8), phase_rolling_scheme(3, 8)], ids=["cdd", "phase-rolling"]
)
def test_one_jensen_block_stays_within_48k_bytes_per_trial(scheme):
    # the draw's (trials, K) arrays and the form's per-relay terms, no more
    def run():
        mc_jensen_outage(scheme, 0.25, 100.0, outage_analysis.BLOCK_TRIALS, seed=1, threads=1)

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / outage_analysis.BLOCK_TRIALS <= 48 * scheme.num_relays


@pytest.mark.parametrize(
    "scheme",
    [cyclic_delay_scheme(2, 8), phase_rolling_scheme(3, 8),
     custom_scheme(cyclic_delay_scheme(2, 8).matrices), _haar_scheme(3, 8, 43)],
    ids=["cdd", "phase-rolling", "custom-cdd", "haar"],
)
def test_spectral_outage_test_agrees_with_the_logarithm(scheme):
    # both exact kernels decide prod_n f_n < 2^(2 N R) on their factor rows
    # (eigenvalues, or LDL^H pivots for the Haar scheme), or on the
    # logarithm where that bound overflows (R >= 64 at N = 8); on every
    # trial that must be the verdict of the exact MI itself, except where
    # the MI lies within rounding of the threshold, and a trial decides
    # alike alone and inside the block.
    u, b, noise = outage_analysis._sample_fading(np.random.default_rng(37), 20_000,
                                                 scheme.num_relays)
    spectra = common_spectra(scheme)
    if spectra is None:
        kernel, table, factors = "exact-products-ldl", pair_products(scheme), ldl_factors
    else:
        kernel, table, factors = "exact-spectral", spectra, spectral_factors
    ht = u * np.sqrt(b)
    alone = range(0, 20_000, 1999)
    near = 0
    mixed = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho in (1.01, 10.0, 100.0, 1e3, 1e8, 1e300):
            mi = mi_from_factors(factors(table, ht, 1.0, rho / noise))
            rates = (0.0, 1.0, 63.9, 64.1, 509.9, 600.0, 0.5 * math.log2(rho), np.median(mi))
            for rate_bits in map(float, rates):
                name, in_outage = outage_analysis._outage_kernel(scheme, "exact", rho, rate_bits)
                got = in_outage(u, b, noise)
                band = np.abs(mi - rate_bits) <= 1e-12 * rate_bits
                assert name == kernel
                assert np.array_equal(got[~band], (mi < rate_bits)[~band]), (rho, rate_bits)
                near += int(np.count_nonzero(band))
                if 0 < np.count_nonzero(got) < got.size:
                    mixed.add(2.0 * scheme.block_length * rate_bits >= 1024)
                for t in alone:
                    one = in_outage(u[t:t + 1], b[t:t + 1], noise[t:t + 1])
                    assert one.shape == (1,) and one[0] == got[t], (rho, rate_bits, t)
    assert near == 0
    # the product test and the logarithm (2^(2 N R) past the float range)
    # each split some point's trials both ways, at least at the median MI
    assert mixed == {False, True}


def test_no_kernel_writes_into_the_draw(monkeypatch):
    # after one block of each exact kernel and one ML block, the draw's u
    # and b still hold the bytes of a twin draw
    drawn = []
    sample = outage_analysis._sample_fading
    monkeypatch.setattr(outage_analysis, "_sample_fading",
                        lambda rng, n, k: drawn.append(sample(rng, n, k)) or drawn[-1])
    book = gaussian_codebook(2, 0.25, 16.0, np.random.default_rng(81))
    runs = (
        lambda: mc_exact_outage(cyclic_delay_scheme(2, 4), 0.25, 100.0, 64, seed=5, threads=1),
        lambda: mc_exact_outage(_haar_scheme(2, 4, 47), 0.25, 100.0, 64, seed=5, threads=1),
        lambda: mc_ml_error(cyclic_delay_scheme(2, 2), book, 100.0, 64, seed=5, threads=1),
    )
    kernels = []
    for run in runs:
        kernels.append(run().mi_kernel)
        u, b, _ = drawn.pop()
        twin = outage_analysis._block_rng(5, 0)
        want_u = complex_gaussian(twin, (64, 2))
        want_b = twin.standard_exponential((64, 2))
        assert (u.tobytes(), b.tobytes()) == (want_u.tobytes(), want_b.tobytes()), kernels[-1]
    assert kernels == ["exact-spectral", "exact-products-ldl", ""]


@pytest.mark.parametrize("k,n", [(2, 8), (3, 8), (4, 4), (3, 16)])
def test_cdd_and_phase_rolling_decide_each_trial_alike(k, n):
    # the two families are DFT duals: the spectral kernel takes the same
    # eigenvalues from both, in another order and rounding, so on one block
    # their exact verdicts agree on every trial whose MI is not within
    # rounding of the target
    u, b, noise = outage_analysis._sample_fading(outage_analysis._block_rng(2113, 0),
                                                 outage_analysis.BLOCK_TRIALS, k)
    schemes = cyclic_delay_scheme(k, n), phase_rolling_scheme(k, n)
    for snr_db in (20.0, 30.0, 40.0):
        rho = 10.0 ** (snr_db / 10.0)
        rate = 0.25 * math.log2(rho)
        verdicts, band = [], np.zeros(u.shape[0], dtype=bool)
        for scheme in schemes:
            name, in_outage = outage_analysis._outage_kernel(scheme, "exact", rho, rate)
            assert name == "exact-spectral"
            verdicts.append(in_outage(u, b, noise))
            mi = mi_from_factors(spectral_factors(common_spectra(scheme), u, b, rho / noise))
            band |= np.abs(mi - rate) <= 1e-12 * rate
        assert np.array_equal(verdicts[0][~band], verdicts[1][~band]), snr_db
        assert 0 < np.count_nonzero(verdicts[0]) < u.shape[0]


@pytest.mark.parametrize("k,n", [(2, 8), (4, 16)])
def test_one_spectral_block_stays_within_24n_bytes_per_trial(k, n):
    # the verdict keeps a (K, T) copy of h~, the (N, T) eigenvalue rows and
    # their product in the thread's workspace, which the first block sizes;
    # a later block allocates its verdict, never an array of logarithms
    name, in_outage = outage_analysis._outage_kernel(cyclic_delay_scheme(k, n), "exact",
                                                     100.0, 0.25 * math.log2(100.0))

    def draw():
        return outage_analysis._sample_fading(outage_analysis._block_rng(1, 0),
                                              outage_analysis.BLOCK_TRIALS, k)

    in_outage(*draw())
    parts = draw()
    tracemalloc.start()
    try:
        in_outage(*parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert name == "exact-spectral"
    assert peak / outage_analysis.BLOCK_TRIALS <= 24 * n


@pytest.mark.parametrize("k,n", [(2, 4), (3, 8), (4, 16)])
def test_one_ldl_block_stays_within_48n_bytes_per_trial(k, n):
    # the verdict holds the block's (N, T) pivot rows, and per sub-block of
    # PRODUCTS_SUB_BLOCK trials its packed triangles; no (T, N, N) array
    name, in_outage = outage_analysis._outage_kernel(_haar_scheme(k, n, 47), "exact",
                                                     100.0, 0.25 * math.log2(100.0))

    def draw():
        return outage_analysis._sample_fading(outage_analysis._block_rng(1, 0),
                                              outage_analysis.BLOCK_TRIALS, k)

    in_outage(*draw())
    parts = draw()
    tracemalloc.start()
    try:
        in_outage(*parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert name == "exact-products-ldl"
    assert peak / outage_analysis.BLOCK_TRIALS <= 48 * n


@pytest.mark.parametrize(
    "scheme,bound",
    [(cyclic_delay_scheme(2, 8), 4), (phase_rolling_scheme(3, 8), 4), (_haar_scheme(2, 4, 47), 4),
     (_haar_scheme(3, 8, 47), 4), (_haar_scheme(4, 16, 47), 6)],
    ids=["cdd-2-8", "phase-rolling-3-8", "haar-2-4", "haar-3-8", "haar-4-16"],
)
def test_a_warm_exact_block_allocates_at_most_24_bytes_per_trial(scheme, bound):
    # after a thread's first block, its blocks draw into and compute in the
    # thread's workspace, and h~ is formed there from the draw's parts
    # without a cast buffer; LDL^H gathers its packed table there too,
    # scales by complex rows and takes no numpy operation that broadcasts a
    # row over a block, which would allocate a buffer of up to 8192
    # elements.  What is left is the verdict (1 B/trial) and each call's
    # (K^2, N^2) products, 5 B/trial at (4, 16).  Measured on a 2-vCPU Xeon
    # with numpy 2.4.6: 1.21-1.83 B/trial, and 5.27 at (4, 16).
    # numpy 2.4.6: the bounds rest on its 8192-element broadcast buffer.
    def run():
        mc_exact_outage(scheme, 0.25, 100.0, outage_analysis.BLOCK_TRIALS, seed=1, threads=1)

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / outage_analysis.BLOCK_TRIALS <= bound


@pytest.mark.parametrize(
    "scheme,bound", [(_haar_scheme(3, 8, 47), 24), (cyclic_delay_scheme(2, 8), 4)],
    ids=["haar-3-8", "cdd-2-8"],
)
def test_a_second_two_thread_exact_call_reuses_its_workspaces(scheme, bound):
    # one pool per worker count serves every call, so the second point of a
    # 2-thread sweep runs on threads whose workspaces the first one grew.
    # The peak is per trial of one block, as in the 1-thread test above.
    # Measured on a 2-vCPU Xeon with numpy 2.4.6: 3.0-3.5 (Haar) and 1.75
    # (CDD) B/trial; new pool threads would grow new workspaces, 5.5 and
    # 2.4 MiB each
    # numpy 2.4.6: the bounds rest on its 8192-element broadcast buffer.
    def run():
        mc_exact_outage(scheme, 0.25, 100.0, 4 * outage_analysis.BLOCK_TRIALS, seed=1, threads=2)

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / outage_analysis.BLOCK_TRIALS <= bound


def test_blocks_run_on_the_calling_thread_or_on_one_pool(monkeypatch):
    # one worker runs every block on the calling thread; two consecutive
    # 2-thread calls run theirs on the same two pool threads
    ran = []
    sample = outage_analysis._sample_fading
    monkeypatch.setattr(outage_analysis, "_sample_fading",
                        lambda *args: ran.append(threading.current_thread()) or sample(*args))
    scheme = _haar_scheme(3, 8, 47)
    trials = 4 * outage_analysis.BLOCK_TRIALS
    mc_exact_outage(scheme, 0.25, 100.0, trials, seed=1, threads=1)
    assert ran == [threading.current_thread()] * 4
    calls = []
    for _ in range(2):
        ran.clear()
        mc_exact_outage(scheme, 0.25, 100.0, trials, seed=1, threads=2)
        calls.append(set(ran))
    first, second = calls
    assert len(first) == 2 and threading.current_thread() not in first
    assert second <= first


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_a_two_thread_call_on_its_own_pool():
    # a forked child has none of its parent's pool threads; were the pool
    # kept across the fork, the child's blocks would wait for them forever
    def count():
        scheme = cyclic_delay_scheme(2, 8)
        trials = 4 * outage_analysis.BLOCK_TRIALS
        return mc_jensen_outage(scheme, 0.25, 100.0, trials, seed=1, threads=2).events

    want = count()
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns that a fork of a process with threads may deadlock
        warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(60)  # the child ends even if the parent is gone
            os.write(write, str(count()).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    deadline = time.monotonic() + 20
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
            pytest.fail("a 2-thread call in a forked child did not return within 20 s")
        time.sleep(0.02)
    with os.fdopen(read) as pipe:
        assert pipe.read() == str(want)


@pytest.mark.parametrize("threads", [2.5, True, "3.0", 2.0, False])
def test_a_thread_count_that_is_no_integer_is_refused_before_any_draw(monkeypatch, threads):
    # int() would turn 2.5 into 2 and True into 1; they are config errors
    draws = []
    sample = outage_analysis._sample_fading
    monkeypatch.setattr(outage_analysis, "_sample_fading",
                        lambda *args: draws.append(args) or sample(*args))
    with pytest.raises(InvalidParameterError, match="threads"):
        resolve_threads(threads)
    with pytest.raises(InvalidParameterError, match="threads"):
        mc_exact_outage(cyclic_delay_scheme(2, 4), 0.25, 100.0, 40_000, seed=1, threads=threads)
    assert draws == []
    assert resolve_threads(np.int64(3)) == 3


def test_rho_above_the_ceiling_is_rejected_before_any_draw(monkeypatch):
    # at rho = 1e308 the kernels' products overflow after drawing; the
    # ceiling is decided first, and at it every function runs clean
    cdd = cyclic_delay_scheme(2, 8)
    haar = _haar_scheme(3, 8, 6)
    book = gaussian_codebook(8, 0.1, 4.0, np.random.default_rng(3))
    calls = (
        lambda rho: mc_exact_outage(haar, 0.25, rho, 20_000, 1),
        lambda rho: mc_jensen_outage(cdd, 0.25, rho, 20_000, 1),
        lambda rho: analytic_jensen_bracket(gramian(cdd), 0.25, rho),
        lambda rho: union_bound(cdd, book, rho, 0.25),
        lambda rho: mc_ml_error(cdd, book, rho, 2000, 1),
    )
    blocks = []
    count = outage_analysis._mc_event_count
    monkeypatch.setattr(outage_analysis, "_mc_event_count",
                        lambda *args: blocks.append(args) or count(*args))
    for call in calls:
        with pytest.raises(InvalidParameterError, match="rho"):
            call(1e301)
    assert blocks == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            call(outage_analysis.RHO_MAX)
    assert len(blocks) == 3


def test_ml_error_event_count_is_pinned_at_a_fixed_seed():
    # numpy 2.4.6: pinned on SFC64's draws and einsum's summation order.
    book = gaussian_codebook(2, 0.25, 16.0, np.random.default_rng(81))
    est = mc_ml_error(cyclic_delay_scheme(2, 2), book, 10**2.5, 40_000, seed=810)
    assert est.events == 806


def test_outage_argument_validation():
    scheme = cyclic_delay_scheme(1, 2)
    with pytest.raises(InvalidParameterError):
        mc_jensen_outage(scheme, 0.7, 100.0, 1000, seed=0)
    with pytest.raises(InvalidParameterError):
        mc_jensen_outage(scheme, 0.1, 0.5, 1000, seed=0)
    with pytest.raises(InvalidParameterError):
        mc_jensen_outage(scheme, 0.1, 100.0, 0, seed=0)
    # a NaN rho (or rate) compares false to every bound, so each check must
    # be written to fail on it; an infinite rho or power scale would make the
    # simulators' output NaN
    nan, inf = math.nan, math.inf
    book = gaussian_codebook(2, 0.25, 16.0, np.random.default_rng(81))
    rng = np.random.default_rng(0)
    f, h = complex_gaussian(rng, (2, 1))
    x = np.ones(2, dtype=complex)
    for call in (
        lambda: mc_jensen_outage(scheme, 0.1, nan, 1000, seed=0),
        lambda: mc_exact_outage(scheme, 0.1, nan, 1000, seed=0),
        lambda: mc_jensen_outage(scheme, 0.1, 100.0, 1000, seed=0, rate_bits=nan),
        lambda: mc_jensen_outage(scheme, 0.1, 100.0, 1000, seed=0, rate_bits=inf),
        lambda: mc_exact_outage(scheme, 0.1, 100.0, 1000, seed=0, rate_bits=inf),
        lambda: mc_ml_error(cyclic_delay_scheme(2, 2), book, nan, 1000, seed=1),
        lambda: analytic_jensen_bracket(gramian(scheme), 0.1, nan),
        lambda: union_bound(cyclic_delay_scheme(2, 2), book, nan, 0.1),
        lambda: gaussian_codebook(2, 0.25, nan, rng),
        lambda: simulate_two_hop(scheme, f, h, x, nan, rng),
        lambda: simulate_two_hop(scheme, f, h, x, 10.0, rng, relay_power_scale=nan),
        lambda: simulate_normalized(scheme, f, h, x, nan, rng),
        lambda: simulate_two_hop(scheme, f, h, x, inf, rng),
        lambda: simulate_two_hop(scheme, f, h, x, 10.0, rng, relay_power_scale=inf),
        lambda: simulate_normalized(scheme, f, h, x, inf, rng),
        lambda: product_rayleigh_cdf(nan),
    ):
        with pytest.raises(InvalidParameterError):
            call()


@pytest.mark.parametrize("trials,seed", [(True, 1), (1000.5, 1), (1000.0, 1), ("1000", 1),
                                         (1000, -1), (1000, 1.0), (1000, False)])
def test_event_count_refuses_a_non_integer_trial_count_or_seed(trials, seed):
    # by resolve_threads' rule, and before any block runs
    def block(rng, n):
        raise AssertionError("a block ran")

    with pytest.raises(InvalidParameterError):
        outage_analysis._mc_event_count(trials, seed, 1, block)
    with pytest.raises(InvalidParameterError):
        mc_exact_outage(cyclic_delay_scheme(2, 4), 0.25, 100.0, trials, seed)


def test_point_seed_is_the_run_seed_plus_the_point_index():
    # fading stream 3's keying of a sweep's points; runs at adjacent seeds
    # share points until the stream is keyed by (point, block)
    assert [outage_analysis.point_seed(7, i) for i in range(4)] == [7, 8, 9, 10]
    assert outage_analysis.point_seed(301, 5) == 306
    assert outage_analysis.point_seed(0, 0) == 0


# ---------------------------------------------------------------------------
# Analytic bracket
# ---------------------------------------------------------------------------

def test_bracket_values_in_unit_interval_and_ordered():
    scheme = cyclic_delay_scheme(2, 4)
    summary = gramian(scheme)
    for db in (10, 20, 30, 40, 60):
        lower, upper = analytic_jensen_bracket(summary, 0.25, 10 ** (db / 10))
        assert 0.0 <= lower <= 1.0
        assert 0.0 <= upper <= 1.0
        assert lower <= upper


def test_bracket_upper_single_relay_matches_quadrature():
    # with a scalar unit Gramian the upper envelope is the product law at
    # threshold (1+K) N / rho^(1-2r)
    n = 4
    summary = gramian(cyclic_delay_scheme(1, n))
    for rho in (1e2, 1e4, 1e6):
        _, upper = analytic_jensen_bracket(summary, 0.0, rho)
        want = product_cdf_quadrature(2.0 * n / rho)
        assert upper == pytest.approx(want, rel=1e-7)


def test_bracket_requires_full_rank_gramian():
    g = np.eye(4) / 2.0
    summary = gramian(RelayScheme((g, g)))
    with pytest.raises(InvalidParameterError):
        analytic_jensen_bracket(summary, 0.1, 100.0)


def test_bracket_contains_monte_carlo_estimate_at_high_snr():
    # order-of-magnitude sandwich: the envelopes are exponent-tight only
    scheme = cyclic_delay_scheme(2, 4)
    summary = gramian(scheme)
    for db in (30, 35, 40):
        rho = 10 ** (db / 10)
        est = mc_jensen_outage(scheme, 0.25, rho, 400_000, seed=31)
        lower, upper = analytic_jensen_bracket(summary, 0.25, rho)
        assert lower / 10 <= est.probability <= upper * 10


# ---------------------------------------------------------------------------
# Jensen-outage interval
# ---------------------------------------------------------------------------

# 99.9% two-sided normal quantile.
Z_999 = 3.2905267314919255


def _wilson_999(events, trials):
    p = events / trials
    z2 = Z_999 * Z_999
    center = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = Z_999 * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / (1 + z2 / trials)
    return center - half, center + half


def _identity_gram(k, n):
    return gramian(cyclic_delay_scheme(k, n))


def _identity_curve(c, k):
    """P_I(c), the Jensen outage probability at Gramian I."""
    return outage_analysis.jensen_outage_interval(_identity_gram(k, k), c)[0]


def test_scaled_e1_agrees_with_scipy_on_the_contour():
    # z = c (1/w - 1) on the Jensen contour, and z = x^2 / w on the product law's
    from scipy.special import exp1

    jensen = 1.0 / outage_analysis._contour(0.5, 0.125, 0.05, 601)[0] - 1.0
    product = 1.0 / outage_analysis._contour(3.0, 0.1, 20.0 / 27.0, 28)[0]
    for c in np.geomspace(1e-8, 40.0, 61):
        for z in (c * jensen, c * c / 4.0 * product):
            want = np.exp(z) * exp1(z)
            got = outage_analysis._scaled_e1(z[None])[0]
            assert np.max(np.abs(got / want - 1)) <= 1e-12, c


@pytest.mark.parametrize("n", [1, 8])
def test_single_relay_interval_is_the_closed_form(n):
    # K = 1: P(ab < c (1 + b)) = 1 - e^-c 2 sqrt(c) K1(2 sqrt(c))
    gram = _identity_gram(1, n)
    for db in range(5, 85, 5):
        rho = 10 ** (db / 10)
        c = outage_analysis.outage_constant(n, 1.0, rho)
        want = 1 - math.exp(-c) * 2 * math.sqrt(c) * k1(2 * math.sqrt(c))
        lower, upper = outage_analysis.jensen_outage_interval(gram, c)
        assert lower == upper
        assert abs(lower / want - 1) <= 1e-9, db


def test_interval_ends_at_gramian_identity_are_the_identity_curve_bit_for_bit():
    c = np.array([outage_analysis.outage_constant(8, 1.0, 10 ** (db / 10)) for db in (20, 30, 45)])
    for make in (cyclic_delay_scheme, phase_rolling_scheme):
        for k in (1, 2, 3, 4):
            lower, upper = outage_analysis.jensen_outage_interval(gramian(make(k, 8)), c)
            want = _identity_curve(c, k)
            assert lower.tobytes() == upper.tobytes() == want.tobytes()


def _one_at_a_time(values, curve):
    return np.array([curve(values[i:i + 1])[0] for i in range(values.size)])


def test_identity_curve_of_a_grid_is_its_one_point_values_bit_for_bit():
    # each E1 sum stops on its own test, so no P_I(c) depends on the other
    # points of its grid (once c = 2.58 read 1 ulp lower inside this grid)
    c = np.array([0.0019180262492131505, 2.581119414364609, 10.586491453035901, 19.22872839635624])
    curve = lambda c: _identity_curve(c, 4)
    assert curve(c).tobytes() == _one_at_a_time(c, curve).tobytes()
    rng = np.random.default_rng(3200)
    for _ in range(300):
        k = int(rng.integers(1, 9))
        c = np.exp(rng.uniform(math.log(1e-9), math.log(40.0), int(rng.integers(1, 9))))
        curve = lambda c: _identity_curve(c, k)
        assert curve(c).tobytes() == _one_at_a_time(c, curve).tobytes(), (k, c)


def test_interval_of_a_grid_is_its_one_point_values_bit_for_bit():
    rng = np.random.default_rng(3201)
    for k, n in [(2, 4), (3, 8)]:
        gram = gramian(custom_scheme(
            [np.linalg.qr(complex_gaussian(rng, (n, n)))[0] / np.sqrt(n) for _ in range(k)]))
        assert gram.lambda_min < gram.lambda_max
        for _ in range(40):
            c = np.exp(rng.uniform(math.log(1e-9), math.log(40.0), int(rng.integers(2, 9))))
            for end in (0, 1):
                curve = lambda c: outage_analysis.jensen_outage_interval(gram, c)[end]
                assert curve(c).tobytes() == _one_at_a_time(c, curve).tobytes(), (k, end, c)


def test_interval_ends_are_the_identity_curve_at_c_over_each_extreme_bit_for_bit():
    # both ends come from one pass, each with the bits of its own curve
    rng = np.random.default_rng(3202)
    for k, n in [(2, 4), (3, 8)]:
        gram = gramian(custom_scheme(
            [np.linalg.qr(complex_gaussian(rng, (n, n)))[0] / np.sqrt(n) for _ in range(k)]))
        c = np.exp(rng.uniform(math.log(1e-9), math.log(40.0), 12))
        lower, upper = outage_analysis.jensen_outage_interval(gram, c)
        assert lower.tobytes() == _identity_curve(c / gram.lambda_max, k).tobytes()
        assert upper.tobytes() == _identity_curve(c / gram.lambda_min, k).tobytes()


def test_interval_limits():
    identity, twin = _identity_gram(2, 4), gramian(RelayScheme((np.eye(4) / 2.0,) * 2))
    assert twin.lambda_min == 0.0
    c = np.array([0.0, 1e-3, math.inf])
    lower, upper = outage_analysis.jensen_outage_interval(identity, c)
    assert lower[0] == upper[0] == 0.0 and lower[2] == upper[2] == 1.0
    lower, upper = outage_analysis.jensen_outage_interval(twin, c)
    assert lower[0] == 0.0 and 0.0 < lower[1] < 1e-3 and lower[2] == 1.0
    assert list(upper) == [1.0, 1.0, 1.0]
    for bad in (-1e-3, math.nan, [0.1, math.nan]):
        with pytest.raises(InvalidParameterError, match="outage constants"):
            outage_analysis.jensen_outage_interval(identity, bad)
    # 1 - P_I(c) <= K e^-c: past ln K + 38 the curve is 1 to the last bit
    assert outage_analysis.jensen_outage_interval(identity, 39.0)[0] == 1.0
    assert 1.0 - 2 * math.exp(-20.0) <= outage_analysis.jensen_outage_interval(identity, 20.0)[0] < 1.0
    # the K = 3 curve at 45 dB, N = 8, 1 bit
    c45 = outage_analysis.outage_constant(8, 1.0, 10 ** 4.5)
    assert outage_analysis.jensen_outage_interval(_identity_gram(3, 8), c45)[0] == pytest.approx(
        1.3332433e-7, rel=1e-7)


@pytest.mark.parametrize("make", [cyclic_delay_scheme, phase_rolling_scheme], ids=["cdd", "pr"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_jensen_monte_carlo_at_gramian_identity_agrees_with_the_exact_curve(make, k):
    scheme = make(k, 8)
    gram = gramian(scheme)
    for case, (r, rate_bits, db) in enumerate([(0.0, 1.0, 25), (0.0, None, 25),
                                                (0.25, 1.0, 20), (0.25, None, 30)]):
        rho = 10 ** (db / 10)
        thresh = r * math.log2(rho) if rate_bits is None else rate_bits
        p, _ = outage_analysis.jensen_outage_interval(gram, outage_analysis.outage_constant(8, thresh, rho))
        est = mc_jensen_outage(scheme, r, rho, 200_000, seed=2900 + 10 * k + case, rate_bits=rate_bits)
        if thresh == 0:
            assert p == 0.0 and est.events == 0
            continue
        lo, hi = _wilson_999(est.events, est.trials)
        assert lo <= p <= hi, (r, rate_bits, db, est.probability, p)


@pytest.mark.parametrize("k,n,seed", [(2, 4, 2911), (3, 8, 2912)])
def test_jensen_monte_carlo_on_a_haar_scheme_lies_inside_the_interval(k, n, seed):
    rng = np.random.default_rng(seed)
    scheme = custom_scheme(
        [np.linalg.qr(complex_gaussian(rng, (n, n)))[0] / np.sqrt(n) for _ in range(k)])
    gram = gramian(scheme)
    assert gram.lambda_min < 0.99 < 1.01 < gram.lambda_max
    for db in (20, 30, 40):
        rho = 10 ** (db / 10)
        lower, upper = outage_analysis.jensen_outage_interval(
            gram, outage_analysis.outage_constant(n, 0.25 * math.log2(rho), rho))
        assert lower < upper
        est = mc_jensen_outage(scheme, 0.25, rho, 400_000, seed=seed + db)
        assert est.ci_high >= lower and est.ci_low <= upper, (db, est.probability, lower, upper)


def test_bracket_and_mc_slopes_consistent():
    # raw log-log slopes of the analytic envelopes and the MC curve agree
    # to within 0.3 over a desk-scale grid
    scheme = cyclic_delay_scheme(2, 8)
    summary = gramian(scheme)
    dbs = [20, 25, 30, 35, 40]
    points, lowers, uppers = [], [], []
    for i, db in enumerate(dbs):
        rho = 10 ** (db / 10)
        points.append(mc_jensen_outage(scheme, 0.0, rho, 400_000, seed=60 + i, rate_bits=1.0))
        lo, up = analytic_jensen_bracket(summary, 0.0, rho)
        lowers.append(lo)
        uppers.append(up)
    x = np.array(dbs) / 10 * np.log2(10)
    mc_slope = np.polyfit(x, np.log2([p.probability for p in points]), 1)[0]
    up_slope = np.polyfit(x, np.log2(uppers), 1)[0]
    lo_slope = np.polyfit(x, np.log2(lowers), 1)[0]
    assert abs(mc_slope - up_slope) <= 0.3
    assert abs(mc_slope - lo_slope) <= 0.3


# ---------------------------------------------------------------------------
# Slope fitting
# ---------------------------------------------------------------------------

def _synthetic_curve(dbs, probs, trials=10**6):
    return tuple(
        ProbEstimate(snr_db=float(db), trials=trials, events=int(round(p * trials)))
        for db, p in zip(dbs, probs)
    )


def test_fit_recovers_exact_power_law():
    dbs = [10, 15, 20, 25, 30]
    rhos = [10 ** (db / 10) for db in dbs]
    curve = _synthetic_curve(dbs, [rho**-2.0 for rho in rhos], trials=10**12)
    fit = fit_diversity_slope(curve)
    assert fit.d_hat == pytest.approx(2.0, abs=1e-9)
    assert fit.used == (0, 1, 2, 3, 4)


def test_fit_absorbs_constant_prefactor():
    dbs = [10, 15, 20, 25]
    rhos = [10 ** (db / 10) for db in dbs]
    curve = _synthetic_curve(dbs, [7.0 * rho**-1.0 for rho in rhos], trials=10**12)
    fit = fit_diversity_slope(curve)
    assert fit.d_hat == pytest.approx(1.0, abs=1e-9)


def test_fit_excludes_starved_points_and_requires_two():
    dbs = [10, 20, 30]
    curve = _synthetic_curve(dbs, [1e-2, 1e-4, 1e-9], trials=10**6)
    fit = fit_diversity_slope(curve, min_events=20)
    assert fit.used == (0, 1)  # the 1e-9 point has ~0 events
    with pytest.raises(InsufficientDataError):
        fit_diversity_slope(curve, min_events=10**9)


def test_fit_refuses_points_that_share_one_snr():
    # two copies of one point leave the normal matrix singular
    same = [ProbEstimate(20.0, 1000, 100)] * 2
    with pytest.raises(InsufficientDataError, match="share one snr_db"):
        fit_diversity_slope(same)
    # a starved point at another SNR does not count
    with pytest.raises(InsufficientDataError, match="share one snr_db"):
        fit_diversity_slope(same + [ProbEstimate(30.0, 1000, 3)])
    assert fit_diversity_slope(same + [ProbEstimate(30.0, 1000, 30)]).used == (0, 1, 2)


def test_fit_end_to_end_on_jensen_outage():
    scheme = cyclic_delay_scheme(2, 8)
    points = []
    for i, db in enumerate(range(20, 50, 5)):
        rho = 10 ** (db / 10)
        points.append(mc_jensen_outage(scheme, 0.0, rho, 500_000, seed=90 + i, rate_bits=1.0))
    fit = fit_diversity_slope(points)
    assert 1.2 <= fit.d_hat <= 2.4  # raw finite-SNR slope sits below the limit 2


# ---------------------------------------------------------------------------
# Union bound
# ---------------------------------------------------------------------------

def test_union_bound_vacuous_for_duplicate_codewords():
    scheme = cyclic_delay_scheme(2, 2)
    word = np.ones(2, dtype=complex)
    book = Codebook(np.stack([word, word]), rate_multiplexing=0.1, snr=100.0)
    rho = 100.0
    want = rho ** (2 * 2 * 0.1)
    assert union_bound(scheme, book, rho, 0.1) == pytest.approx(want, rel=1e-12)


def test_union_bound_of_a_one_word_book_is_zero():
    # a single codeword has no pairs, so mu_min = inf and the bound is 0
    scheme = cyclic_delay_scheme(2, 2)
    book = Codebook(np.ones((1, 2)), rate_multiplexing=0.1, snr=100.0)
    assert min_gram_eigenvalue(scheme, book) == math.inf
    assert union_bound(scheme, book, 100.0, 0.1) == 0.0


def test_union_bound_past_exp_700_is_infinite():
    # duplicate codewords: mu_min = 0 and log bound = 2 N r ln(rho) = 921
    scheme = cyclic_delay_scheme(2, 2)
    word = np.ones(2, dtype=complex)
    book = Codebook(np.stack([word, word]), rate_multiplexing=0.5, snr=1e200)
    assert union_bound(scheme, book, 1e200, 0.5) == math.inf


def test_union_bound_decreases_and_matches_direct_evaluation():
    scheme = cyclic_delay_scheme(2, 2)
    words = np.array([[2.0, 2.0j], [-2.0, -2.0j]])
    book = Codebook(words, rate_multiplexing=0.1, snr=100.0)
    mu = min_gram_eigenvalue(scheme, book)
    values = []
    for db in range(20, 65, 5):
        rho = 10 ** (db / 10)
        got = union_bound(scheme, book, rho, 0.1)
        direct = rho ** (2 * 2 * 0.1) * math.exp(-mu * rho ** (2 * 0.1) / (4 * 3))
        assert got == pytest.approx(direct, rel=1e-10)
        values.append(got)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_ml_error_antipodal_pair_matches_q_average():
    rng = np.random.default_rng(3)
    n = 2
    scheme = cyclic_delay_scheme(1, n)
    x = np.array([1.0, 1.0j])
    book = Codebook(np.stack([x, -x]), rate_multiplexing=0.0, snr=10.0)
    rho = 10.0
    est = mc_ml_error(scheme, book, rho, 200_000, seed=4)
    # oracle: average the exact conditional pairwise error over fresh draws
    draws = 200_000
    f, h = (rng.standard_normal((2, draws)) + 1j * rng.standard_normal((2, draws))) / np.sqrt(2)
    hdx = np.abs(h * f) * np.linalg.norm(2 * x) / np.sqrt(n * (1 + np.abs(h) ** 2))
    want = float(np.mean(0.5 * erfc(np.sqrt(rho / 2) * hdx / np.sqrt(2))))
    assert est.probability == pytest.approx(want, abs=3e-3)


def test_ml_error_vanishes_at_high_snr_for_full_rank_book():
    scheme = cyclic_delay_scheme(2, 2)
    rng = np.random.default_rng(5)
    words = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    book = Codebook(words, rate_multiplexing=0.1, snr=1e6)
    est = mc_ml_error(scheme, book, 1e6, 50_000, seed=6)
    assert est.probability < 1e-3


def test_ml_error_validation(monkeypatch):
    scheme = cyclic_delay_scheme(1, 2)
    single = Codebook(np.ones((1, 2)), 0.0, 10.0)
    with pytest.raises(InvalidParameterError):
        mc_ml_error(scheme, single, 10.0, 100, seed=0)
    # one word over the cap, refused before any draw
    big = Codebook(np.ones((DEFAULT_SIZE_CAP + 1, 2)), 0.1, 10.0)
    with pytest.raises(ResourceLimitError) as excinfo:
        mc_ml_error(scheme, big, 10.0, 100, seed=0)
    assert excinfo.value.allowed == DEFAULT_SIZE_CAP
    # a book of 3-symbol words for an N = 4 scheme, refused before any draw
    draws = []
    sample = outage_analysis._sample_fading
    monkeypatch.setattr(outage_analysis, "_sample_fading",
                        lambda *args: draws.append(args) or sample(*args))
    with pytest.raises(InvalidParameterError, match="block lengths differ"):
        mc_ml_error(cyclic_delay_scheme(2, 4), Codebook(np.eye(3), 0.1, 10.0), 100.0, 1000, seed=1)
    assert len(draws) == 0
