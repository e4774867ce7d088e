"""Config grammar, scheme/codebook files, runners, and the CLI surface."""

import ast
import csv
import dataclasses
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from relaydiv import (
    Codebook,
    ConfigError,
    FileFormatError,
    InvalidParameterError,
    ResourceLimitError,
    SchemeInvalidError,
    custom_scheme,
    cyclic_delay_scheme,
    gaussian_codebook,
    min_gram_eigenvalue,
    phase_rolling_scheme,
)
from relaydiv.channel_model import complex_gaussian
from relaydiv.experiment_cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXPERIMENTS,
    SLOPE_CALIBRATION,
    SNR_DB_MAX,
    TRIAL_GUESS,
    ExperimentConfig,
    _grid_trials,
    _rho,
    build_scheme,
    config_from_mapping,
    load_codebook_file,
    load_scheme_file,
    main,
    parse_config_text,
    run_certify,
    run_dm_slope,
    run_outage_sweep,
    run_self_check,
    save_codebook_file,
    save_scheme_file,
)
from relaydiv.outage_analysis import (
    FADING_STREAM,
    MAX_THREADS,
    RHO_MAX,
    fit_points,
    jensen_outage_interval,
    mc_jensen_outage,
    outage_constant,
    point_seed,
    resolve_threads,
)
from relaydiv.relay_schemes import gramian


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Config grammar
# ---------------------------------------------------------------------------

def test_parse_config_basics():
    raw = parse_config_text(
        """
        # comment line
        experiment = outage-sweep
        scheme = cdd
        k = 2
        n = 4          # trailing comment
        r = 0.25
        snr_db = [20, 25, 30]
        seed = 7
        out = x.csv
        """
    )
    cfg = config_from_mapping(raw)
    assert cfg.experiment == "outage-sweep"
    assert cfg.snr_db == (20.0, 25.0, 30.0)
    assert cfg.k == 2 and cfg.n == 4 and cfg.seed == 7


def test_parse_config_rejects_garbage():
    with pytest.raises(FileFormatError):
        parse_config_text("just some words\n")
    with pytest.raises(FileFormatError):
        parse_config_text("snr_db = [1, 2\n")
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "outage-sweep", "bogus_key": "1"})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "no-such-thing"})
    with pytest.raises(ConfigError, match="missing 'experiment'"):
        config_from_mapping({"scheme": "cdd", "k": 2, "n": 4})


def test_config_validation_rules():
    base = dict(experiment="outage-sweep", scheme="cdd", snr_db=(20.0, 25.0), seed=1)
    with pytest.raises(ConfigError):
        config_from_mapping({**base, "k": 3, "n": 2})
    with pytest.raises(ConfigError):
        config_from_mapping({**base, "r": 0.7})
    with pytest.raises(ConfigError):
        config_from_mapping({**base, "snr_db": (25.0, 20.0)})
    with pytest.raises(ConfigError):
        config_from_mapping({**base, "trials": "sometimes"})


def test_config_decides_threads_itself():
    base = dict(experiment="outage-sweep", scheme="cdd", snr_db=(20.0,), seed=1)
    for threads in (0, 257):
        with pytest.raises(ConfigError, match="threads"):
            config_from_mapping({**base, "threads": threads})
    with pytest.raises(ConfigError, match="threads"):
        config_from_mapping({"experiment": "self-check", "threads": 0})
    assert config_from_mapping({**base, "threads": 256}).threads == 256


def test_config_reads_each_input_in_its_one_spelling(tmp_path, capsys):
    # a config key is the field name, and a built-in scheme is named as
    # --help names it: any other spelling is read as a scheme file path
    with pytest.raises(ConfigError, match="unknown config key 'snr-db'"):
        config_from_mapping(parse_config_text("experiment = outage-sweep\nsnr-db = [20]\n"))
    for name in ("CDD", "phase_rolling", "Phase-Rolling"):
        out = tmp_path / "o.csv"
        assert main(["outage-sweep", "--scheme", name, "--k", "2", "--n", "4", "--r", "0.25",
                     "--snr-db", "20", "--trials", "1000", "--out", str(out)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_a_block_length_too_large_to_build_is_refused_before_any_array(tmp_path, capsys):
    # the scheme alone would be 43 GB; the address space is capped 1 GiB
    # above its size, so that a build that is not refused fails fast
    # rather than exhausting the host's memory
    resource = pytest.importorskip("resource")
    if not Path("/proc/self/statm").exists():
        pytest.skip("needs Linux's /proc/self/statm")
    limits = resource.getrlimit(resource.RLIMIT_AS)
    hard = limits[1]
    cap = int(Path("/proc/self/statm").read_text().split()[0]) * os.sysconf("SC_PAGE_SIZE") + (1 << 30)
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        rc = main(["analytic-curve", "--k", "1", "--n", "30000", "--r", "0.25",
                   "--snr-db", "20", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        resource.setrlimit(resource.RLIMIT_AS, limits)
    assert rc == EXIT_RESOURCE
    assert "k=1, n=30000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert peak < 1 << 20


def test_the_array_cap_admits_every_size_the_fuzz_tests_draw_and_refuses_k_n_128():
    # the round-trip fuzz draws k <= 64 and n <= k + 64, either estimator
    base = dict(experiment="outage-sweep", snr_db=(20.0,), outage="exact")
    config_from_mapping({**base, "k": 64, "n": 128})
    with pytest.raises(ResourceLimitError):
        config_from_mapping({**base, "k": 128, "n": 128})


def test_the_array_cap_counts_exact_mi_tables_only_for_the_monte_carlo_experiments():
    # at k = n = 105 the products table and LDL^H sub-block pass 2 GiB, but
    # only outage-sweep and dm-slope build them
    base = dict(snr_db=(20.0, 30.0), outage="exact", k=105, n=105)
    for experiment in ("analytic-curve", "certify-code"):
        config_from_mapping({**base, "experiment": experiment})
    for experiment in ("outage-sweep", "dm-slope"):
        with pytest.raises(ResourceLimitError):
            config_from_mapping({**base, "experiment": experiment})
        config_from_mapping({**base, "experiment": experiment, "outage": "jensen"})


def test_canonical_text_round_trips():
    cfg = ExperimentConfig(
        experiment="dm-slope",
        scheme="phase-rolling",
        k=3,
        n=8,
        r=0.25,
        snr_db=(20.0, 25.0, 30.0),
        trials="12345",
        seed=99,
        out="slope.csv",
    )
    cfg.validate()
    again = config_from_mapping(parse_config_text(cfg.canonical_text()))
    assert again == cfg


def test_canonical_text_of_every_key_is_pinned():
    # manifests echo this text, so its bytes may not move
    cfg = ExperimentConfig(
        experiment="certify-code", scheme="phase-rolling", k=3, n=8, r=0.125,
        snr_db=(20.0, 22.5, 3000.0), trials="12345", min_trials=1000, max_trials=2**40,
        min_events=7, rate_bits=1e20, outage="exact", seed=2**64 - 1, out="dir/o.txt",
        codebook="dir/book.txt", threads=2,
    )
    cfg.validate()
    assert cfg.canonical_text() == (
        "experiment = certify-code\nscheme = phase-rolling\nk = 3\nn = 8\nr = 0.125\n"
        "snr_db = [20, 22.5, 3000]\ntrials = 12345\nmin_trials = 1000\n"
        "max_trials = 1099511627776\nmin_events = 7\nrate_bits = 1e+20\noutage = exact\n"
        "seed = 18446744073709551615\ncodebook = dir/book.txt\nout = dir/o.txt\n"
    )


# Config-file text: any characters, '#', brackets, blanks and line breaks
# included, so validate() decides what a config may hold.
_CONFIG_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
# NaN is left out only because it never equals itself.
_FLOAT = st.floats(allow_nan=False)
_BIG_INT = st.integers(-(2**70), 2**70)
_KEYS = sorted(f.name for f in dataclasses.fields(ExperimentConfig))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    experiment=st.sampled_from(sorted(EXPERIMENTS)),
    scheme=st.one_of(st.sampled_from(["cdd", "phase-rolling"]), _CONFIG_TEXT),
    k=st.integers(1, 64),
    extra_n=st.integers(0, 64),
    r=st.one_of(st.floats(0.0, 0.5), _FLOAT),
    # grids above 0 dB, valid for every experiment, as often as arbitrary ones
    snr_db=st.lists(st.one_of(st.floats(1e-3, 3000.0), _FLOAT), min_size=1, max_size=6,
                    unique=True).map(lambda v: tuple(sorted(v))),
    trials=st.one_of(st.just("adaptive"), st.integers(1, 2**63).map(str), _CONFIG_TEXT),
    # (min_trials, max_trials, min_events): valid ones (1 <= min_trials <=
    # max_trials, min_events >= 0) as often as arbitrary ones
    counts=st.one_of(
        st.tuples(st.integers(1, 2**70), st.integers(0, 2**70), st.integers(0, 2**70)).map(
            lambda c: (c[0], c[0] + c[1], c[2])
        ),
        st.tuples(_BIG_INT, _BIG_INT, _BIG_INT),
    ),
    rate_bits=st.one_of(st.floats(0.0, 1e300), _FLOAT),
    outage=st.one_of(st.sampled_from(["jensen", "exact"]), _CONFIG_TEXT),
    seed=st.integers(0, 2**64 - 1),
    codebook=st.one_of(st.just(""), _CONFIG_TEXT),
    out=st.one_of(st.just(""), _CONFIG_TEXT),
    threads=st.integers(1, 64),
)
def test_canonical_text_round_trips_every_valid_config(
    experiment, scheme, k, extra_n, r, snr_db, trials, counts, rate_bits, outage, seed,
    codebook, out, threads,
):
    # self-check validates none of the scheme keys, so they may be anything
    cfg = ExperimentConfig(
        experiment=experiment, scheme=scheme, k=k, n=k + extra_n, r=r, snr_db=snr_db,
        trials=trials, min_trials=counts[0], max_trials=counts[1], min_events=counts[2],
        rate_bits=rate_bits, outage=outage, seed=seed, codebook=codebook, out=out,
        threads=threads,
    )
    try:
        cfg.validate()
    except ConfigError:
        reject()
    # threads changes speed only and is not written
    again = config_from_mapping(parse_config_text(cfg.canonical_text()))
    assert again == dataclasses.replace(cfg, threads=1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    line=st.one_of(
        st.text(max_size=30),
        st.tuples(st.sampled_from(_KEYS + ["bogus"]), _CONFIG_TEXT).map(
            " = ".join
        ),
        st.tuples(st.sampled_from(_KEYS), st.lists(_CONFIG_TEXT)).map(
            lambda kv: f"{kv[0]} = [{', '.join(kv[1])}]"
        ),
    ),
    position=st.integers(0, 16),
)
def test_bad_config_lines_raise_config_errors_only(line, position):
    lines = ExperimentConfig(
        experiment="outage-sweep", snr_db=(20.0, 30.0), out="o.csv"
    ).canonical_text().splitlines()
    lines.insert(position, line)
    try:
        config_from_mapping(parse_config_text("\n".join(lines)))
    except (FileFormatError, ConfigError):
        pass


# ---------------------------------------------------------------------------
# Scheme and codebook files
# ---------------------------------------------------------------------------

def test_scheme_file_round_trip(tmp_path):
    scheme = phase_rolling_scheme(2, 3)
    path = str(tmp_path / "scheme.txt")
    save_scheme_file(path, scheme)
    loaded = load_scheme_file(path)
    for a, b in zip(loaded.matrices, scheme.matrices):
        np.testing.assert_array_equal(a, b)  # repr round-trip is bit exact


def test_scheme_file_rejects_unscaled_matrices(tmp_path):
    path = _write(
        tmp_path / "bad.txt",
        "N 2 K 1\n1 0 0 0\n0 0 1 0\n",  # identity, not identity/sqrt(2)
    )
    with pytest.raises(SchemeInvalidError):
        load_scheme_file(path)


def test_scheme_file_parse_error_carries_location(tmp_path):
    path = _write(tmp_path / "bad.txt", "N 2 K 1\n1 0 0\n0 0 1 0\n")
    with pytest.raises(FileFormatError) as excinfo:
        load_scheme_file(path)
    assert excinfo.value.line == 2


def test_codebook_file_round_trip(tmp_path):
    book = gaussian_codebook(3, 0.25, 4.0, np.random.default_rng(0))
    path = str(tmp_path / "book.txt")
    save_codebook_file(path, book)
    loaded = load_codebook_file(path)
    np.testing.assert_array_equal(loaded.codewords, book.codewords)


def test_codebook_file_count_mismatch(tmp_path):
    path = _write(tmp_path / "bad.txt", "N 2 COUNT 3\n1 0 0 0\n0 1 0 0\n")
    with pytest.raises(FileFormatError):
        load_codebook_file(path)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(1, 4), extra_n=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_scheme_file_round_trip_is_bit_exact(tmp_path_factory, k, extra_n, seed):
    n = k + extra_n
    rng = np.random.default_rng(seed)
    scheme = custom_scheme(
        [np.linalg.qr(complex_gaussian(rng, (n, n)))[0] / np.sqrt(n) for _ in range(k)]
    )
    path = str(tmp_path_factory.mktemp("scheme") / "s.txt")
    save_scheme_file(path, scheme)
    assert _bits(load_scheme_file(path).stacked()) == _bits(scheme.stacked())


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    words=st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.tuples(_FINITE, _FINITE), min_size=n, max_size=n),
            min_size=1, max_size=6,
        )
    )
)
def test_codebook_file_round_trip_is_bit_exact(tmp_path_factory, words):
    # any finite float, signed zeros and subnormals included
    arr = np.array([[complex(re, im) for re, im in row] for row in words])
    book = Codebook(arr, 0.1, 10.0)
    path = str(tmp_path_factory.mktemp("book") / "b.txt")
    save_codebook_file(path, book)
    assert _bits(load_codebook_file(path).codewords) == _bits(book.codewords)


def _is_finite_number(token):
    try:
        return np.isfinite(float(token))
    except ValueError:
        return False


# One whitespace-free token without '#': no separators, so it stays one token
# on its line.
_TOKEN = st.text(
    st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#"), min_size=1
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["scheme", "codebook"]),
    row=st.integers(0, 3),
    mutation=st.sampled_from(["drop", "extra", "replace"]),
    position=st.integers(0, 3),
    token=_TOKEN,
)
def test_bad_rows_raise_file_format_errors_only(tmp_path_factory, kind, row, mutation,
                                                position, token):
    # a K=2, N=2 scheme or a 4-word N=2 codebook, one row of which loses a
    # token, gains one, or has one replaced by anything but a finite number
    if kind == "scheme":
        g = repr(0.5**0.5)  # two copies of I/sqrt(2)
        lines = ["N 2 K 2"] + [f"{g} 0.0 0.0 0.0", f"0.0 0.0 {g} 0.0"] * 2
        load = load_scheme_file
    else:
        lines = ["N 2 COUNT 4"] + ["1.5 -2.0 0.25 3e-3"] * 4
        load = load_codebook_file
    parts = lines[1 + row].split()
    if mutation == "drop":
        del parts[position]
    elif mutation == "extra":
        parts.insert(position, token)
    else:
        if _is_finite_number(token):
            token = "nan"
        parts[position] = token
    lines[1 + row] = " ".join(parts)
    path = tmp_path_factory.mktemp("bad") / "f.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as excinfo:
        load(str(path))
    assert excinfo.value.line == 2 + row


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _sweep_config(**overrides):
    base = dict(
        experiment="outage-sweep",
        scheme="cdd",
        k=2,
        n=4,
        r=0.25,
        snr_db=(20.0, 25.0, 30.0),
        trials="50000",
        seed=13,
    )
    base.update(overrides)
    cfg = ExperimentConfig(**base)
    cfg.validate()
    return cfg


def test_outage_sweep_rate_zero_is_all_zero():
    curve = run_outage_sweep(_sweep_config(r=0.0))
    assert all(p.probability == 0.0 for p in curve)


def test_outage_sweep_deterministic():
    a = run_outage_sweep(_sweep_config())
    b = run_outage_sweep(_sweep_config())
    assert a == b


def test_outage_sweep_probability_nonincreasing_within_ci():
    cfg = _sweep_config(snr_db=tuple(float(db) for db in range(20, 50, 5)), trials="100000")
    curve = run_outage_sweep(cfg)
    for a, b in zip(curve, curve[1:]):
        assert b.probability <= a.ci_high


def test_outage_sweep_exact_kind_dominates_jensen():
    jensen = run_outage_sweep(_sweep_config())
    exact = run_outage_sweep(_sweep_config(outage="exact"))
    for pj, pe in zip(jensen, exact):
        assert pe.events >= pj.events


def test_dm_slope_reports_raw_calibrated_and_theory():
    cfg = _sweep_config(
        experiment="dm-slope",
        k=1,
        r=0.0,
        snr_db=tuple(float(db) for db in range(20, 45, 5)),
        trials="200000",
    )
    curve, report = run_dm_slope(cfg)
    assert report.d_theory == 1.0
    assert 0.5 < report.d_hat_raw < 1.0  # raw slope biased low at desk SNR
    assert abs(report.d_hat - 1.0) < 0.2
    assert report.points_used == len(curve)
    assert report.status == "ok"


def test_dm_slope_warns_on_insufficient_events():
    cfg = _sweep_config(experiment="dm-slope", min_events=10**9, trials="50000")
    curve, report = run_dm_slope(cfg)
    assert report.status.startswith("warning")
    assert len(curve) == 3  # partial output still present
    assert np.isnan(report.d_hat)


def test_certify_flags_duplicate_codewords(tmp_path):
    word = np.ones(4, dtype=complex)
    book = Codebook(np.stack([word, word, word + np.array([1, 0, 0, 0])]), 0.1, 100.0)
    path = str(tmp_path / "book.txt")
    save_codebook_file(path, book)
    cfg = _sweep_config(experiment="certify-code", n=4, codebook=path)
    report = run_certify(cfg)
    assert not report.certified
    assert "pair (0, 1)" in report.first_violation
    assert report.mu_min == pytest.approx(0.0, abs=1e-12)
    assert not any(ok for _, ok, _ in report.universal_verdicts)


def test_certify_passes_basis_difference_book(tmp_path):
    n = 4
    words = np.zeros((2, n), dtype=complex)
    words[1, 0] = 1.0
    path = str(tmp_path / "book.txt")
    save_codebook_file(path, Codebook(words, 0.25, 100.0))
    cfg = _sweep_config(experiment="certify-code", k=n, n=n, codebook=path)
    report = run_certify(cfg)
    assert report.certified
    assert report.mu_min == pytest.approx(1.0 / n, rel=1e-12)
    assert report.simplified_agreement == "1/1"
    assert all(ok for _, ok, _ in report.universal_verdicts)
    # at r = 0 the threshold rho^-2r is 1 at every SNR, above mu_min = 1/N
    cfg = _sweep_config(experiment="certify-code", k=n, n=n, r=0.0, codebook=path)
    verdicts = run_certify(cfg).universal_verdicts
    assert [(ok, threshold) for _, ok, threshold in verdicts] == [(False, 1.0)] * 3


def test_self_check_passes_on_fresh_build():
    results, text = run_self_check()
    assert all(r.passed for r in results)
    assert "PASS" in text and "FAIL" not in text
    assert [(r.name, r.tolerance) for r in results] == [
        ("unitary-scaling G G^H = I/N", 1e-12),
        ("DFT unitarity F F^H = I", 1e-12),
        ("circulant diagonalization P = F^H Lambda F", 1e-12),
        ("time-frequency duality G_pr = F P F^H / sqrt(N)", 1e-12),
        ("shift-matrix orthogonality tr(P_i P_j^H) = N delta", 1e-12),
        ("Gramian quadratic-form identity (relative)", 1e-10),
        ("Jensen dominance exact MI <= Jensen MI", 1e-9),
        ("product-Rayleigh CDF sup-distance (MC)", 5e-3),
    ]


def _certify_peak_bytes(tmp_path, words):
    path = str(tmp_path / f"book{len(words)}.txt")
    save_codebook_file(path, Codebook(words, 0.25, 100.0))
    cfg = _sweep_config(experiment="certify-code", k=4, n=4, codebook=path)
    tracemalloc.start()
    try:
        report = run_certify(cfg)
        return report.pairs_checked, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certify_memory_does_not_grow_with_the_pair_count(tmp_path, monkeypatch):
    # 64 and 96 words, 2016 and 4560 pairs at N = K = 4, with the pair
    # pass in blocks of 64 pairs.  Building all (P, N)
    # differences up front peaks near 150 B/pair; whole-book pair index
    # arrays add 16 B for every pair.
    from relaydiv import codebook

    monkeypatch.setattr(codebook, "PAIR_BLOCK", 64)
    words = complex_gaussian(np.random.default_rng(5), (96, 4))
    small_pairs, small_peak = _certify_peak_bytes(tmp_path, words[:64])
    pairs, peak = _certify_peak_bytes(tmp_path, words)
    assert (small_pairs, pairs) == (2016, 4560)
    assert peak < 64 * pairs
    assert (peak - small_peak) / (pairs - small_pairs) < 4


def test_certify_differences_each_pair_once(tmp_path, monkeypatch):
    # 40 words, 780 pairs: Phi is built once per pair, wherever
    # difference_matrix is looked up, and mu_min comes from the same pass
    from relaydiv import codebook, experiment_cli

    received, second_pass = [], []
    build, min_gram = codebook.difference_matrix, codebook.min_gram_eigenvalue

    def counting(scheme, dx):
        received.append(int(np.prod(np.shape(dx)[:-1])))
        return build(scheme, dx)

    def recording(scheme, book):
        second_pass.append(book.size)
        return min_gram(scheme, book)

    for module in (codebook, experiment_cli):
        monkeypatch.setattr(module, "difference_matrix", counting)
        monkeypatch.setattr(module, "min_gram_eigenvalue", recording, raising=False)
    path = str(tmp_path / "book.txt")
    save_codebook_file(path, Codebook(complex_gaussian(np.random.default_rng(40), (40, 4)),
                                      0.25, 100.0))
    report = run_certify(_sweep_config(experiment="certify-code", k=4, n=4, codebook=path))
    assert report.pairs_checked == sum(received) == 780
    assert second_pass == []


@pytest.mark.parametrize(
    "scheme,k,n",
    [("cdd", 4, 4), ("phase-rolling", 4, 4), ("cdd", 2, 4), ("haar", 4, 4)],
)
def test_certify_mu_min_is_min_gram_eigenvalue(tmp_path, monkeypatch, scheme, k, n):
    # the closed form at K = N, the eigenvalues elsewhere: the pass and
    # min_gram_eigenvalue take each block's minimum from one function
    from relaydiv import codebook

    monkeypatch.setattr(codebook, "PAIR_BLOCK", 50)
    rng = np.random.default_rng(43)
    if scheme == "haar":
        scheme = str(tmp_path / "haar.txt")
        save_scheme_file(scheme, custom_scheme(
            [np.linalg.qr(complex_gaussian(rng, (n, n)))[0] / np.sqrt(n) for _ in range(k)]))
    path = str(tmp_path / "book.txt")
    book = Codebook(complex_gaussian(rng, (30, n)), 0.25, 100.0)
    save_codebook_file(path, book)
    cfg = _sweep_config(experiment="certify-code", scheme=scheme, k=k, n=n, codebook=path)
    report = run_certify(cfg)
    assert report.mu_min == min_gram_eigenvalue(build_scheme(cfg), load_codebook_file(path))


def test_certify_and_min_gram_eigenvalue_decide_the_family_once(tmp_path, monkeypatch):
    # 30 words, 435 pairs in 63 blocks of 7: the family is the scheme's, so
    # each pass decides it once, not once per block
    from relaydiv import codebook, experiment_cli, relay_schemes

    decide, calls = relay_schemes.builtin_family, []

    def counting(scheme):
        calls.append(scheme)
        return decide(scheme)

    for module in (relay_schemes, codebook, experiment_cli):
        monkeypatch.setattr(module, "builtin_family", counting)
    monkeypatch.setattr(codebook, "PAIR_BLOCK", 7)
    path = str(tmp_path / "book.txt")
    book = Codebook(complex_gaussian(np.random.default_rng(44), (30, 4)), 0.25, 100.0)
    save_codebook_file(path, book)
    run_certify(_sweep_config(experiment="certify-code", k=4, n=4, codebook=path))
    assert len(calls) == 1
    calls.clear()
    min_gram_eigenvalue(cyclic_delay_scheme(4, 4), book)
    assert len(calls) == 1


def test_certify_report_does_not_depend_on_the_pair_block(tmp_path, monkeypatch):
    # 12 words, 66 pairs: in blocks of 7 the only duplicate pair, (4, 9), is
    # pair 42 in triu order, in the seventh block
    from relaydiv import codebook

    words = complex_gaussian(np.random.default_rng(41), (12, 4))
    words[9] = words[4]
    path = str(tmp_path / "book.txt")
    save_codebook_file(path, Codebook(words, 0.25, 100.0))
    cfg = _sweep_config(experiment="certify-code", k=4, n=4, codebook=path)
    whole = run_certify(cfg).text
    monkeypatch.setattr(codebook, "PAIR_BLOCK", 7)
    assert run_certify(cfg).text == whole
    assert "first violation: pair (4, 9): rank deficient" in whole
    assert "simplified-condition agreement (cdd): 66/66 pairs consistent" in whole


def test_certify_names_a_disagreeing_pair_in_a_later_block(tmp_path, monkeypatch, capsys):
    # the SVD oracle fails only pair (5, 8), pair 47 in triu order, in the
    # seventh block of 7; the CDD condition passes it, so the run exits 4
    from relaydiv import codebook, experiment_cli

    words = complex_gaussian(np.random.default_rng(42), (12, 4))
    path = str(tmp_path / "book.txt")
    save_codebook_file(path, Codebook(words, 0.25, 100.0))
    target = codebook.difference_matrix(cyclic_delay_scheme(4, 4), words[5] - words[8])
    oracle = experiment_cli.rank_full
    monkeypatch.setattr(experiment_cli, "rank_full",
                        lambda phi: oracle(phi) and not np.allclose(phi, target))
    monkeypatch.setattr(codebook, "PAIR_BLOCK", 7)
    out = tmp_path / "report.txt"
    rc = main(["certify-code", "--scheme", "cdd", "--k", "4", "--n", "4", "--r", "0.25",
               "--snr-db", "20", "--codebook", path, "--out", str(out)])
    assert rc == EXIT_INTERNAL
    assert "disagrees with SVD rank on pair (5, 8)" in capsys.readouterr().err
    assert not out.exists()


def test_cli_oversized_codebook_is_resource_error(tmp_path):
    rng = np.random.default_rng(0)
    words = rng.standard_normal((5000, 2)) + 1j * rng.standard_normal((5000, 2))
    path = str(tmp_path / "big.txt")
    save_codebook_file(path, Codebook(words, 0.1, 100.0))
    rc = main(["certify-code", "--scheme", "cdd", "--k", "2", "--n", "2",
               "--r", "0.1", "--snr-db", "20", "--seed", "1", "--codebook", path])
    assert rc == EXIT_RESOURCE


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_outage_sweep_writes_csv_and_manifest(tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    rc = main(
        [
            "outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
            "--snr-db", "20,25", "--trials", "20000", "--seed", "3", "--out", out,
        ]
    )
    assert rc == EXIT_OK
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "snr_db,probability,ci_low,ci_high,trials,events"
    assert len(lines) == 3
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert len(manifest["per_point_events"]) == 2


def test_cli_manifest_round_trip(tmp_path):
    out1 = str(tmp_path / "a.csv")
    rc = main(
        [
            "outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.2",
            "--snr-db", "20,25", "--trials", "30000", "--seed", "11", "--out", out1,
        ]
    )
    assert rc == EXIT_OK
    manifest = json.loads(Path(out1 + ".manifest.json").read_text())
    cfg_path = _write(tmp_path / "echo.cfg", manifest["config_text"])
    out2 = str(tmp_path / "b.csv")
    rc = main(["outage-sweep", "--config", cfg_path, "--out", out2])
    assert rc == EXIT_OK
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_cli_override_wins_over_config(tmp_path):
    cfg_path = _write(
        tmp_path / "c.cfg",
        "experiment = outage-sweep\nscheme = cdd\nk = 2\nn = 4\nr = 0\n"
        "snr_db = [20, 25]\ntrials = 10000\nseed = 1\n",
    )
    out = str(tmp_path / "o.csv")
    rc = main(["outage-sweep", "--config", cfg_path, "--r", "0.25", "--out", out])
    assert rc == EXIT_OK
    rows = Path(out).read_text().splitlines()[1:]
    assert any(float(row.split(",")[1]) > 0 for row in rows)  # r was overridden


def test_cli_config_error_exit_code(tmp_path, capsys):
    rc = main(["outage-sweep", "--scheme", "cdd", "--k", "5", "--n", "2",
               "--snr-db", "20", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    rc = main(["outage-sweep", "--config", str(tmp_path / "missing.cfg")])
    assert rc == EXIT_CONFIG
    # contradictory Monte Carlo settings name their key before any compute
    for experiment, flags, key in [
        ("outage-sweep", ["--min-trials", "100000", "--max-trials", "5000"], "max_trials"),
        ("outage-sweep", ["--min-trials", "0", "--max-trials", "0"], "min_trials"),
        ("dm-slope", ["--min-events", "-3"], "min_events"),
    ]:
        capsys.readouterr()
        rc = main([experiment, "--scheme", "cdd", "--k", "2", "--n", "8", "--r", "0.25",
                   "--snr-db", "20,30,40", *flags, "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_invalid_scheme_file_exit_code(tmp_path):
    bad = _write(tmp_path / "bad.txt", "N 2 K 1\n1 0 0 0\n0 0 1 0\n")
    rc = main(["outage-sweep", "--scheme", bad, "--k", "1", "--n", "2", "--r", "0.1",
               "--snr-db", "20", "--trials", "1000", "--seed", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG


def _exit_path_args(tmp_path, case):
    """CLI arguments of one documented failure, with its input files."""
    book2 = str(tmp_path / "book2.txt")
    save_codebook_file(book2, Codebook(np.array([[0, 0], [1, 0]]), 0.25, 100.0))
    grid = ["--r", "0.25", "--snr-db", "20,30,40", "--trials", "1000"]
    if case in ("seed=-1", "seed=18446744073709551616", "trials=0", "trials=-5"):
        return ["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4", *grid,
                f"--{case}", "--out", str(tmp_path / "o.csv")]
    if case == "scheme-file-k-n-mismatch":
        scheme = str(tmp_path / "cdd24.txt")
        save_scheme_file(scheme, cyclic_delay_scheme(2, 4))
        return ["outage-sweep", "--scheme", scheme, "--k", "1", "--n", "4", *grid,
                "--out", str(tmp_path / "o.csv")]
    if case == "csv-without-out":
        return ["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4", *grid]
    if case == "dm-slope-two-point-grid":
        return ["dm-slope", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
                "--snr-db", "20,30", "--out", str(tmp_path / "o.csv")]
    certify = ["certify-code", "--k", "2", "--r", "0.25", "--snr-db", "20",
               "--out", str(tmp_path / "report.txt")]
    if case == "certify-without-codebook":
        return certify + ["--scheme", "cdd", "--n", "2"]
    if case == "certify-codebook-n-mismatch":
        return certify + ["--scheme", "phase-rolling", "--n", "4", "--codebook", book2]
    if case == "certify-overflowing-snr":  # rho = 10^400 is no float
        return certify + ["--scheme", "cdd", "--n", "2", "--codebook", book2,
                          "--snr-db", "20,4000"]
    if case == "certify-underflowing-snr":  # rho = 10^-400 rounds to 0
        return certify + ["--scheme", "cdd", "--n", "2", "--codebook", book2,
                          "--snr-db=-4000,20"]
    assert case == "internal-consistency"
    return certify + ["--scheme", "cdd", "--n", "2", "--codebook", book2]


@pytest.mark.parametrize(
    "case,code",
    [("scheme-file-k-n-mismatch", EXIT_CONFIG), ("csv-without-out", EXIT_CONFIG),
     ("dm-slope-two-point-grid", EXIT_CONFIG), ("certify-without-codebook", EXIT_CONFIG),
     ("certify-codebook-n-mismatch", EXIT_CONFIG), ("certify-overflowing-snr", EXIT_CONFIG),
     ("certify-underflowing-snr", EXIT_CONFIG), ("internal-consistency", EXIT_INTERNAL),
     ("seed=-1", EXIT_CONFIG), ("seed=18446744073709551616", EXIT_CONFIG),
     ("trials=0", EXIT_CONFIG), ("trials=-5", EXIT_CONFIG)],
)
def test_cli_documented_exit_paths_write_nothing(tmp_path, monkeypatch, case, code):
    from relaydiv import experiment_cli

    if case == "internal-consistency":
        # the SVD oracle calls every pair rank deficient, so the exact CDD
        # condition (no zero DFT bin) disagrees with it on the first pair
        monkeypatch.setattr(experiment_cli, "rank_full", lambda phi: False)
    args = _exit_path_args(tmp_path, case)
    monkeypatch.chdir(tmp_path)
    inputs = sorted(p.name for p in tmp_path.iterdir())
    assert main(args) == code
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("experiment", ["dm-slope", "analytic-curve", "outage-sweep"])
def test_cli_singular_gramian_is_decided_before_monte_carlo(tmp_path, monkeypatch, capsys,
                                                            experiment):
    # two identical relays: Gramian [[1, 1], [1, 1]], lambda_min = 0, no bracket;
    # the Jensen-outage interval's lower end P_I(c / 2) still holds
    from relaydiv import outage_analysis

    scheme = str(tmp_path / "twin.txt")
    g = np.eye(2) / np.sqrt(2)
    save_scheme_file(scheme, custom_scheme([g, g]))
    counted = []
    count = outage_analysis._mc_event_count

    def counting(trials, seed, threads, block_events):
        counted.append(trials)
        return count(trials, seed, threads, block_events)

    monkeypatch.setattr(outage_analysis, "_mc_event_count", counting)
    out = tmp_path / "o.csv"
    rc = main([experiment, "--scheme", scheme, "--k", "2", "--n", "2", "--r", "0.25",
               "--snr-db", "10,15,20,25", "--min-trials", "1000", "--max-trials", "3000",
               "--out", str(out)])
    if experiment == "outage-sweep":
        # adaptive trials aim at 200 events at the interval's lower end
        # numpy 2.4.6: pinned on complex np.exp/np.log in the contour's E1.
        assert rc == EXIT_OK
        assert [int(row.split(",")[4]) for row in out.read_text().splitlines()[1:]] == [1000, 1340, 2579, 3000]
        assert counted == [1000, 1340, 2579, 3000]
    else:
        assert rc == EXIT_CONFIG
        assert "full-rank Gramian" in capsys.readouterr().err
        assert counted == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["twin.txt"]


def test_cli_unwritable_output_is_config_error(tmp_path):
    rc = main(["outage-sweep", "--scheme", "cdd", "--k", "1", "--n", "2", "--r", "0.1",
               "--snr-db", "20", "--trials", "1000", "--seed", "1",
               "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
    assert rc == EXIT_CONFIG


def test_cli_missing_output_directory_fails_before_compute(tmp_path, monkeypatch, capsys):
    from relaydiv import experiment_cli

    calls = []

    def estimator(*args, **kwargs):
        calls.append(args)
        raise AssertionError("estimator ran before the output path was checked")

    monkeypatch.setattr(experiment_cli, "mc_jensen_outage", estimator)
    monkeypatch.chdir(tmp_path)
    rc = main(["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "8", "--r", "0.25",
               "--snr-db", "20,30,40", "--trials", "2000000", "--out", "nodir/x.csv"])
    assert rc == EXIT_CONFIG
    assert "nodir" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("experiment,runner", [("self-check", "run_self_check"),
                                               ("certify-code", "run_certify")])
def test_cli_report_outputs_check_the_directory_first(tmp_path, monkeypatch, experiment, runner):
    from relaydiv import experiment_cli

    def refuse(*args, **kwargs):
        raise AssertionError("runner ran before the output path was checked")

    monkeypatch.setattr(experiment_cli, runner, refuse)
    args = [experiment, "--out", str(tmp_path / "nodir" / "report.txt")]
    if experiment == "certify-code":
        args += ["--scheme", "cdd", "--k", "2", "--n", "2", "--snr-db", "20",
                 "--codebook", "book.txt"]
    assert main(args) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


def test_cli_out_path_that_is_a_directory_is_config_error(tmp_path, capsys):
    (tmp_path / "d").mkdir()
    rc = main(["analytic-curve", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
               "--snr-db", "20", "--out", str(tmp_path / "d")])
    assert rc == EXIT_CONFIG
    assert "is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["d"]


def test_a_manifest_path_that_is_a_directory_is_refused_before_any_block(tmp_path, monkeypatch,
                                                                          capsys):
    # the CSV's path can be written but its manifest's cannot: the run exits
    # 2 before any Monte Carlo block and leaves no CSV without a manifest
    from relaydiv import outage_analysis

    (tmp_path / "out.csv.manifest.json").mkdir()
    blocks = []
    monkeypatch.setattr(outage_analysis, "_mc_event_count", lambda *args: blocks.append(args))
    rc = main(["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "8", "--r", "0.25",
               "--snr-db", "20", "--trials", "2000000", "--out", str(tmp_path / "out.csv")])
    assert rc == EXIT_CONFIG
    assert "is a directory" in capsys.readouterr().err
    assert blocks == []
    assert [p.name for p in tmp_path.rglob("*")] == ["out.csv.manifest.json"]


def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    from relaydiv import experiment_cli

    path = tmp_path / "report.txt"
    path.write_text("old\n", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        experiment_cli._write_atomic(str(path), "new\n")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


def test_cli_outputs_replace_old_files_and_leave_no_temp_files(tmp_path):
    out = tmp_path / "sweep.csv"
    out.write_text("stale\n", encoding="utf-8")
    (tmp_path / "sweep.csv.manifest.json").write_text("stale\n", encoding="utf-8")
    rc = main(["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
               "--snr-db", "20", "--trials", "1000", "--seed", "3", "--out", str(out)])
    assert rc == EXIT_OK
    assert out.read_text().startswith("snr_db,")
    assert json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["status"] == "ok"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", "sweep.csv.manifest.json"]


@pytest.mark.parametrize(
    "experiment,scheme,outage,kernel",
    [("outage-sweep", "cdd", "jensen", "jensen"),
     ("dm-slope", "cdd", "exact", "exact-spectral"),
     ("outage-sweep", "haar", "exact", "exact-products-ldl")],
)
def test_cli_manifest_records_the_mi_kernel(tmp_path, experiment, scheme, outage, kernel):
    if scheme == "haar":
        rng = np.random.default_rng(4)
        scheme = str(tmp_path / "haar.txt")
        save_scheme_file(scheme, custom_scheme(
            [np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0] / 2
             for _ in range(2)]))
    out = str(tmp_path / "o.csv")
    rc = main([experiment, "--scheme", scheme, "--k", "2", "--n", "4", "--r", "0.25",
               "--snr-db", "10,15,20", "--trials", "2000", "--seed", "3",
               "--outage", outage, "--out", out])
    assert rc == EXIT_OK
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["mi_kernel"] == kernel
    assert manifest["stream"] == FADING_STREAM == 3


def test_runtime_imports_only_numpy_and_the_standard_library():
    # numpy is the only runtime dependency: in a fresh interpreter, importing
    # the package and its CLI adds no other top-level module
    code = ("import json, sys; before = set(sys.modules); "
            "import relaydiv, relaydiv.experiment_cli; "
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    added = json.loads(run.stdout)
    assert "relaydiv" in added
    assert [m for m in added
            if m not in sys.stdlib_module_names and m not in ("numpy", "relaydiv")] == []


def test_cli_self_check_exit_zero(capsys):
    assert main(["self-check"]) == EXIT_OK
    assert "self-check report" in capsys.readouterr().out


@pytest.mark.parametrize("scale,want", [(1.001, 1e-3), (math.nan, math.nan)], ids=["0.1%", "nan"])
def test_self_check_fails_on_a_wrong_gramian(monkeypatch, capsys, scale, want):
    # the identity check compares the two forms themselves, so a Gramian
    # 0.1% off reads as a relative gap of 1e-3, and fails it; a NaN one
    # reads NaN, and fails it too
    from relaydiv import experiment_cli, relay_schemes

    def scaled(scheme):
        true = relay_schemes.gramian(scheme)
        return dataclasses.replace(true, gram=scale * true.gram)

    monkeypatch.setattr(experiment_cli, "gramian", scaled)
    schemes = [cyclic_delay_scheme(2, 4), phase_rolling_scheme(3, 8)]
    gap, _ = experiment_cli.gramian_deviations(schemes, 20, np.random.default_rng(0))
    assert gap == pytest.approx(want, rel=1e-9, nan_ok=True)
    assert main(["self-check"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] Gramian quadratic-form identity")


def test_cli_env_threads_default(tmp_path):
    out1 = str(tmp_path / "t1.csv")
    out8 = str(tmp_path / "t8.csv")
    args = ["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
            "--snr-db", "20,25", "--trials", "40000", "--seed", "5"]
    assert main(args + ["--threads", "1", "--out", out1]) == EXIT_OK
    assert main(args + ["--threads", "8", "--out", out8]) == EXIT_OK
    assert Path(out1).read_bytes() == Path(out8).read_bytes()


@pytest.mark.parametrize("snr_db,code", [("20,3080", EXIT_CONFIG), ("20,3000", EXIT_OK)])
def test_cli_snr_ceiling_is_decided_before_monte_carlo(tmp_path, monkeypatch, snr_db, code):
    # rho = 10^308 at 3080 dB is a finite float, but the exact kernel's
    # pivots overflow to NaN there (exit 4 after the Monte Carlo, with
    # overflow warnings, were it not rejected first); at the 3000 dB ceiling
    # the run is clean, and tier-1 turns any RuntimeWarning into an error
    from relaydiv import outage_analysis

    rng = np.random.default_rng(6)
    scheme = str(tmp_path / "haar.txt")
    save_scheme_file(scheme, custom_scheme(
        [np.linalg.qr(complex_gaussian(rng, (8, 8)))[0] / np.sqrt(8) for _ in range(3)]))
    blocks = []
    count = outage_analysis._mc_event_count
    monkeypatch.setattr(outage_analysis, "_mc_event_count",
                        lambda *args: blocks.append(args) or count(*args))
    out = tmp_path / "o.csv"
    rc = main(["outage-sweep", "--outage", "exact", "--scheme", scheme, "--k", "3", "--n", "8",
               "--r", "0.25", "--snr-db", snr_db, "--trials", "20000", "--seed", "1",
               "--out", str(out)])
    assert rc == code
    assert len(blocks) == (2 if code == EXIT_OK else 0)
    assert out.exists() == (code == EXIT_OK)


def test_snr_ceiling_is_the_library_rho_ceiling():
    assert _rho(SNR_DB_MAX) == RHO_MAX


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_a_failed_slope_fit_writes_null_not_nan_to_the_manifest(tmp_path):
    # no point has an event at 60-80 dB, so the fit fails and d_hat is NaN:
    # the CSV keeps its nan cells, the manifest writes null
    out = tmp_path / "s.csv"
    rc = main(["dm-slope", "--scheme", "cdd", "--k", "2", "--n", "8", "--r", "0",
               "--snr-db", "60,70,80", "--trials", "20000", "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(row["d_hat"], row["d_hat_raw"]) for row in rows] == [("nan", "nan")] * 3
    manifest = _strict_json(Path(str(out) + ".manifest.json").read_text())
    assert manifest["status"].startswith("warning")
    assert manifest["d_hat"] is None and manifest["d_hat_raw"] is None
    assert manifest["d_theory"] == 2.0


def test_a_fitted_slope_manifest_keeps_its_numbers(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["dm-slope", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
               "--snr-db", "20,25,30", "--trials", "20000", "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    text = Path(str(out) + ".manifest.json").read_text()
    manifest = _strict_json(text)
    assert math.isfinite(manifest["d_hat"]) and math.isfinite(manifest["d_hat_raw"])
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def test_a_slope_fit_that_excludes_a_starved_point_warns_and_fits_the_rest(tmp_path, capsys):
    # 35 dB sees 10 events, below min_events = 20: the fit runs on the other
    # four points, and the run says so on stderr and in the manifest
    out = tmp_path / "s.csv"
    rc = main(["dm-slope", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0",
               "--snr-db", "15,20,25,30,35", "--trials", "20000", "--seed", "5",
               "--out", str(out)])
    assert rc == EXIT_OK
    warning = "warning: 1 grid points below min_events=20 were excluded from the fit"
    assert capsys.readouterr().err == warning + "\n"
    manifest = _strict_json(Path(str(out) + ".manifest.json").read_text())
    assert manifest["status"] == warning and manifest["points_used"] == 4
    assert math.isfinite(manifest["d_hat"])


def test_dm_slope_above_the_largest_float_rate_puts_every_trial_in_outage(tmp_path):
    # 2^(2 * 600) overflows a float, so the Jensen threshold is infinite
    out = tmp_path / "s.csv"
    rc = main(["dm-slope", "--scheme", "cdd", "--k", "2", "--n", "8", "--r", "0",
               "--snr-db", "20,30,40", "--trials", "20000", "--rate-bits", "600",
               "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3
    assert all(row.split(",")[4] == row.split(",")[5] == "20000" for row in rows)


def test_an_adaptive_point_that_cannot_be_in_outage_runs_min_trials(tmp_path):
    # at r = 0 the threshold r log2(rho) is 0 and c = 0: no MI is below 0, so
    # every point is an exact zero; its interval's lower end is 0 as well,
    # which must not send it to max_trials
    out = tmp_path / "o.csv"
    rc = main(["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "8", "--r", "0",
               "--snr-db", "20,30,40", "--min-trials", "1000", "--max-trials", "50000",
               "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(row["probability"], row["trials"], row["events"]) for row in rows] == [("0.0", "1000", "0")] * 3
    assert _strict_json(Path(str(out) + ".manifest.json").read_text())["trial_guess"] == TRIAL_GUESS == 3


def test_an_adaptive_point_always_in_outage_runs_min_trials(tmp_path):
    # 2^(2 * 600) overflows, so c = inf: every trial is in outage, and the
    # point takes min_trials even below the 200 events the guess aims at
    out = tmp_path / "s.csv"
    rc = main(["dm-slope", "--scheme", "cdd", "--k", "2", "--n", "8", "--r", "0",
               "--snr-db", "20,30,40", "--rate-bits", "600", "--min-trials", "150",
               "--max-trials", "5000", "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(row["trials"], row["events"]) for row in rows] == [("150", "150")] * 3


def _slope_cdd_config(**overrides):
    base = dict(experiment="dm-slope", scheme="cdd", k=2, n=8, r=0.0,
                snr_db=(20.0, 25.0, 30.0, 35.0, 40.0, 45.0), trials="adaptive",
                max_trials=1_000_000, seed=7)
    base.update(overrides)
    cfg = ExperimentConfig(**base)
    cfg.validate()
    return cfg


def _adaptive_trials_of(cfg):
    # c and the interval's lower end taken here, not from the sweep's code
    rhos = [_rho(db) for db in cfg.snr_db]
    c = np.array([outage_constant(cfg.n, cfg.rate_bits if cfg.r == 0 else cfg.r * math.log2(rho), rho)
                  for rho in rhos])
    lower, _ = jensen_outage_interval(gramian(build_scheme(cfg)), c)
    return _grid_trials(cfg, c, lower)


def test_adaptive_trials_policy():
    # 200 events at the interval's lower end, clamped to [min, max]_trials;
    # a lower end of 0 runs max_trials, and so does a subnormal one, whose
    # 200 / p overflows without a RuntimeWarning; c = 0 or inf runs min_trials
    cfg = _slope_cdd_config(snr_db=(20.0, 25.0, 30.0, 35.0, 40.0), min_trials=100_000,
                            max_trials=10_000_000)
    assert _grid_trials(cfg, np.ones(5), np.array([0.5, 1e-6, 2e-4, 0.0, 1e-320])) == [
        100_000, 10_000_000, 1_000_000, 10_000_000, 10_000_000]
    few = _slope_cdd_config(snr_db=(20.0, 25.0, 30.0), min_trials=150, max_trials=5000)
    assert _grid_trials(few, np.array([math.inf, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])) == [
        150, 150, 5000]


def test_a_sweep_point_runs_at_its_point_seed(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
                 "--snr-db", "10,15", "--trials", "3000", "--seed", "7", "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    scheme = cyclic_delay_scheme(2, 4)
    expected = [mc_jensen_outage(scheme, 0.25, _rho(db), 3000, point_seed(7, i)).events
                for i, db in enumerate((10.0, 15.0))]
    assert [int(row["events"]) for row in rows] == expected


def test_adaptive_trial_counts_are_pinned():
    # 200 events at the exact Gramian-I curve, clamped to [min, max]_trials
    # numpy 2.4.6: pinned on complex np.exp/np.log in the contour's E1.
    assert _adaptive_trials_of(_slope_cdd_config()) == [100000, 100000, 100000, 128344, 931761, 1000000]
    criterion_1_k3 = _slope_cdd_config(k=3, min_trials=2_000_000, max_trials=10_000_000)
    assert sum(_adaptive_trials_of(criterion_1_k3)) == 29423092
    assert _adaptive_trials_of(_slope_cdd_config(trials="1234")) == [1234] * 6


def test_dm_slope_and_outage_sweep_share_one_curve(tmp_path):
    # at r > 0 both run the same grid at the same adaptive trials and seeds
    args = ["--scheme", "cdd", "--k", "2", "--n", "8", "--r", "0.25", "--snr-db", "20,25,30,35",
            "--min-trials", "20000", "--max-trials", "300000", "--seed", "11"]
    columns = []
    for experiment in ("outage-sweep", "dm-slope"):
        out = tmp_path / f"{experiment}.csv"
        assert main([experiment, *args, "--out", str(out)]) == EXIT_OK
        columns.append([row.split(",")[:6] for row in out.read_text().splitlines()])
    assert columns[0] == columns[1]


def test_dm_slope_manifest_records_the_bias_of_its_slope_correction(tmp_path):
    # d_hat = d_hat_raw + d_theory - d_curve, with d_curve an independent
    # weighted fit of log2 P_I, the exact Gramian-I curve, on the run's points
    args = ["dm-slope", "--k", "2", "--n", "4", "--r", "0.25", "--snr-db", "20,25,30",
            "--trials", "20000", "--seed", "1"]
    out = tmp_path / "s.csv"
    assert main(args + ["--scheme", "cdd", "--out", str(out)]) == EXIT_OK
    manifest = _strict_json(Path(str(out) + ".manifest.json").read_text())
    assert "trial_guess" not in manifest  # fixed trials take no guess
    assert manifest["slope_calibration"] == SLOPE_CALIBRATION == 3 and "d_hat_bias" not in manifest
    cfg = _sweep_config(experiment="dm-slope", snr_db=(20.0, 25.0, 30.0), trials="20000", seed=1)
    curve, report = run_dm_slope(cfg)
    x, _, w = fit_points(curve)
    rhos = [_rho(db) for db in cfg.snr_db]
    exact, _ = jensen_outage_interval(gramian(build_scheme(cfg)),
                                      [outage_constant(4, 0.25 * math.log2(rho), rho) for rho in rhos])
    d_curve = -np.polyfit(x, np.log2(exact), 1, w=np.sqrt(w))[0]
    assert report.points_used == 3
    assert manifest["d_hat"] == report.d_hat
    assert report.d_hat == pytest.approx(report.d_hat_raw + 1.0 - d_curve, abs=1e-12)
    # a Gramian other than I calibrates on the interval's upper end
    rng = np.random.default_rng(2913)
    scheme = str(tmp_path / "haar.txt")
    save_scheme_file(scheme, custom_scheme(
        [np.linalg.qr(complex_gaussian(rng, (4, 4)))[0] / 2.0 for _ in range(2)]))
    assert main(args + ["--scheme", scheme, "--out", str(out)]) == EXIT_OK
    manifest = _strict_json(Path(str(out) + ".manifest.json").read_text())
    assert "d_hat_bias" not in manifest and math.isfinite(manifest["d_hat"])


def test_dm_slope_takes_no_bracket(tmp_path, monkeypatch):
    from relaydiv import experiment_cli

    def refuse(*args):
        raise AssertionError("dm-slope took the bracket")

    monkeypatch.setattr(experiment_cli, "analytic_jensen_bracket", refuse)
    out = tmp_path / "s.csv"
    assert main(["dm-slope", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
                 "--snr-db", "20,25,30", "--trials", "20000", "--seed", "1",
                 "--out", str(out)]) == EXIT_OK
    assert math.isfinite(_strict_json(Path(str(out) + ".manifest.json").read_text())["d_hat"])


def _near_singular_scheme(tmp_path):
    # G2 = diag(1, e^(i 1e-7)) / sqrt(2) beside G1 = I / sqrt(2): K = N = 2,
    # lambda_min = 1.6e-15, so c / lambda_min puts P_I at 1 on every grid
    g = np.eye(2) / np.sqrt(2)
    path = str(tmp_path / "near.txt")
    save_scheme_file(path, custom_scheme([g, g @ np.diag([1.0, np.exp(1e-7j)])]))
    return path


def test_a_near_singular_gramian_brackets_to_an_upper_end_of_1(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["analytic-curve", "--scheme", _near_singular_scheme(tmp_path), "--k", "2",
                 "--n", "2", "--r", "0.25", "--snr-db", "20", "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["upper"] for row in rows] == ["1.0"] and 0.0 < float(rows[0]["lower"]) < 1.0
    assert _strict_json(Path(str(out) + ".manifest.json").read_text())["bracket_law"] == 3


def test_a_near_singular_gramian_leaves_d_hat_uncalibrated(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["dm-slope", "--scheme", _near_singular_scheme(tmp_path), "--k", "2", "--n", "2",
                 "--r", "0.25", "--snr-db", "20,25,30", "--min-trials", "1000",
                 "--max-trials", "2000", "--out", str(out)]) == EXIT_OK
    warning = "warning: the Jensen-outage interval's upper end is 1 at a fit point, so d_hat cannot be calibrated"
    assert capsys.readouterr().err == warning + "\n"
    manifest = _strict_json(Path(str(out) + ".manifest.json").read_text())
    assert manifest["status"] == warning and manifest["d_hat"] is None
    assert math.isfinite(manifest["d_hat_raw"]) and manifest["points_used"] == 3


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    experiment=st.sampled_from(["outage-sweep", "dm-slope"]),
    scheme=st.sampled_from(["cdd", "phase-rolling"]),
    k=st.integers(1, 3),
    extra_n=st.integers(0, 3),
    r=st.floats(0.0, 0.5),
    # a grid of desk and far SNRs, topped at times by the ceiling or just above it
    snr_db=st.tuples(
        st.lists(st.one_of(st.floats(1.0, 60.0), st.floats(-10.0, SNR_DB_MAX)),
                 min_size=2, max_size=4),
        st.sampled_from([(), (SNR_DB_MAX,), (math.nextafter(SNR_DB_MAX, math.inf),), (3000.5,)]),
    ).map(lambda grid: tuple(sorted(set(grid[0]) | set(grid[1])))),
    trials=st.one_of(st.just("adaptive"), st.integers(1, 3000).map(str)),
    max_trials=st.integers(1, 3000),
    rate_bits=st.floats(0.0, 1e4),
    outage=st.sampled_from(["jensen", "exact"]),
)
def test_every_small_config_runs_or_fails_before_monte_carlo(
    tmp_path_factory, experiment, scheme, k, extra_n, r, snr_db, trials, max_trials, rate_bits,
    outage,
):
    from relaydiv import outage_analysis

    work = tmp_path_factory.mktemp("fuzz")
    out = work / "o.csv"
    blocks = []
    count = outage_analysis._mc_event_count
    # "--key=value", since a negative value would read as a flag
    args = [experiment] + [f"--{key}={value}" for key, value in (
        ("scheme", scheme), ("k", k), ("n", k + extra_n), ("r", r),
        ("snr-db", ",".join(map(repr, snr_db))), ("trials", trials), ("min-trials", 1),
        ("max-trials", max_trials), ("rate-bits", rate_bits), ("outage", outage),
        ("seed", 3), ("threads", 1), ("out", out))]
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.setattr(outage_analysis, "_mc_event_count",
                   lambda *a: blocks.append(a) or count(*a))
        rc = main(args)
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_RESOURCE)
    if rc == EXIT_CONFIG:
        assert blocks == []
        assert list(work.iterdir()) == []
    elif rc == EXIT_OK:
        assert out.exists()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    experiment=st.sampled_from(["certify-code", "analytic-curve"]),
    scheme=st.sampled_from(["cdd", "phase-rolling"]),
    n_k=st.sampled_from([(n, k) for n in (1, 2, 4) for k in range(1, n + 1)]),
    # small Gaussian-integer books, so that duplicate words and zero DFT bins occur
    size=st.integers(1, 6),
    book_seed=st.integers(0, 2**32 - 1),
    # at r = 1/2 certify's threshold rho^-2r is 1/rho, the first to overflow
    r=st.one_of(st.floats(0.0, 0.5), st.just(0.5)),
    # desk SNRs and far ones, past both ends of the [-3000, 3000] dB range
    snr_db=st.lists(st.one_of(st.floats(-60.0, 60.0), st.floats(-3100.0, 3100.0),
                              st.sampled_from([-SNR_DB_MAX, SNR_DB_MAX, -3000.5, 3000.5,
                                               -3100.0])),
                    min_size=1, max_size=3).map(lambda grid: tuple(sorted(set(grid)))),
)
def test_every_small_certify_or_curve_config_runs_or_fails_before_any_pair(
    tmp_path_factory, experiment, scheme, n_k, size, book_seed, r, snr_db,
):
    from relaydiv import experiment_cli

    work = tmp_path_factory.mktemp("fuzz")
    n, k = n_k
    rng = np.random.default_rng(book_seed)
    book = work / "book.txt"
    save_codebook_file(str(book), Codebook(
        rng.integers(-1, 2, (size, n)) + 1j * rng.integers(-1, 2, (size, n)), r, 1.0))
    out = work / "o.txt"
    pairs = []
    oracle = experiment_cli.rank_full
    args = [experiment] + [f"--{key}={value}" for key, value in (
        ("scheme", scheme), ("k", k), ("n", n), ("r", r), ("snr-db", ",".join(map(repr, snr_db))),
        ("codebook", book), ("out", out))]
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(experiment_cli, "rank_full", lambda phi: pairs.append(1) or oracle(phi))
        rc = main(args)
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_RESOURCE)
    if rc == EXIT_CONFIG:
        assert pairs == []
        assert [p.name for p in work.iterdir()] == ["book.txt"]
    elif rc == EXIT_OK:
        assert out.exists()


def test_thread_count_is_capped_before_any_compute(tmp_path, monkeypatch, capsys):
    # resolving a count starts no thread, so the cap itself is checked
    # without starting a pool near it
    from relaydiv import outage_analysis

    assert resolve_threads(MAX_THREADS) == MAX_THREADS == 256
    with pytest.raises(InvalidParameterError, match="threads"):
        resolve_threads(257)
    blocks = []
    monkeypatch.setattr(outage_analysis, "_mc_event_count", lambda *args: blocks.append(args))
    rc = main(["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
               "--snr-db", "20", "--trials", "1000", "--seed", "5", "--threads", "257",
               "--out", str(tmp_path / "t.csv")])
    assert rc == EXIT_CONFIG
    assert "threads" in capsys.readouterr().err
    assert blocks == []
    assert list(tmp_path.iterdir()) == []


def test_exact_sweep_bytes_hold_across_threads_and_workspace_sizes(tmp_path):
    # every thread reuses one workspace across blocks and runs: on both
    # exact kernels the CSV is the same at 1, 2 and 8 threads, and a
    # 1-thread (3, 8) run after a (2, 4) one, which leaves the main thread's
    # arrays resized and dirty, repeats the first (3, 8) run byte for byte
    rng = np.random.default_rng(88)
    for kind, kernel in (("cdd", "exact-spectral"), ("haar", "exact-products-ldl")):
        outputs = {}
        for run, (k, n, threads) in enumerate(
                ((3, 8, 1), (3, 8, 2), (3, 8, 8), (2, 4, 1), (2, 4, 2), (3, 8, 1))):
            scheme = "cdd"
            if kind == "haar":
                scheme = str(tmp_path / f"haar-{k}-{n}.txt")
                if not os.path.exists(scheme):
                    save_scheme_file(scheme, custom_scheme(
                        [np.linalg.qr(complex_gaussian(rng, (n, n)))[0] / np.sqrt(n)
                         for _ in range(k)]))
            out = tmp_path / f"{kind}-{run}.csv"
            rc = main(["outage-sweep", "--outage", "exact", "--scheme", scheme, "--k", str(k),
                       "--n", str(n), "--r", "0.25", "--snr-db", "20,30", "--trials", "40000",
                       "--seed", "5", "--threads", str(threads), "--out", str(out)])
            assert rc == EXIT_OK
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            assert manifest["mi_kernel"] == kernel
            outputs.setdefault((k, n), []).append(out.read_bytes())
        assert [len(runs) for runs in outputs.values()] == [4, 2]
        assert all(len(set(runs)) == 1 for runs in outputs.values())


@pytest.mark.parametrize("value", ["abc", "0", "257"])
def test_cli_bad_env_threads_is_config_error(tmp_path, monkeypatch, capsys, value):
    # the thread count comes from the flag or key alone: a bad one is a
    # config error, and an environment variable of the old name is ignored
    out = tmp_path / "t.csv"
    args = ["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
            "--snr-db", "20", "--trials", "1000", "--seed", "5", "--out", str(out)]
    assert main(args + ["--threads", value]) == EXIT_CONFIG
    assert "threads" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setenv("RELAYDIV_THREADS", value)
    assert main(args) == EXIT_OK
    assert out.exists()


@pytest.mark.parametrize(
    "experiment,snr_db,rate_bits",
    [("outage-sweep", "nan", "1"), ("outage-sweep", "10,inf", "1"),
     ("outage-sweep", "20,4000", "1"), ("outage-sweep", "20,3001", "1"),
     ("dm-slope", "10,20,30", "nan")],
)
def test_cli_non_finite_numbers_are_config_errors(tmp_path, monkeypatch, experiment, snr_db,
                                                  rate_bits):
    # 4000 dB is finite, but its rho = 10^400 is not a float; 3001 dB is
    # above the SNR_DB_MAX ceiling
    from relaydiv import outage_analysis

    blocks = []
    monkeypatch.setattr(outage_analysis, "_mc_event_count", lambda *args: blocks.append(args))
    rc = main([experiment, "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0",
               "--snr-db", snr_db, "--rate-bits", rate_bits, "--trials", "1000",
               "--seed", "5", "--out", str(tmp_path / "s.csv")])
    assert rc == EXIT_CONFIG
    assert blocks == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_non_finite_codebook_entries_are_config_errors(tmp_path, capsys, bad):
    book = _write(tmp_path / "book.txt", f"N 2 COUNT 2\n1 0 0 1\n0 1 {bad} 0\n")
    out = tmp_path / "report.txt"
    rc = main(["certify-code", "--scheme", "cdd", "--k", "2", "--n", "2", "--r", "0.1",
               "--snr-db", "20", "--seed", "1", "--codebook", book, "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert f"{book}:3:3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("outage", ["jensen", "exact"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_non_finite_scheme_entries_are_config_errors(tmp_path, capsys, outage, bad):
    scheme = _write(tmp_path / "scheme.txt", f"N 2 K 1\n{bad} 0 0 0\n0 0 0.7 0\n")
    out = tmp_path / "s.csv"
    rc = main(["outage-sweep", "--scheme", scheme, "--k", "1", "--n", "2", "--r", "0.25",
               "--snr-db", "20", "--trials", "1000", "--seed", "1", "--outage", outage,
               "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert f"{scheme}:2:1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scheme.txt"]


@pytest.mark.parametrize("header", ["N 0 K 1", "N 1 K 0", "N -2 K 1"])
def test_cli_non_positive_scheme_header_sizes_are_config_errors(tmp_path, capsys, header):
    scheme = _write(tmp_path / "z.txt", header + "\n")
    out = tmp_path / "o.csv"
    rc = main(["outage-sweep", "--scheme", scheme, "--k", "1", "--n", "1", "--snr-db", "20",
               "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert f"{scheme}:1:1: header sizes must be positive" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["z.txt"]


@pytest.mark.parametrize("header", ["N 2 COUNT 0", "N 0 COUNT 0", "N 0 COUNT 1"])
def test_cli_non_positive_codebook_header_sizes_are_config_errors(tmp_path, capsys, header):
    book = _write(tmp_path / "book.txt", header + "\n")
    out = tmp_path / "report.txt"
    rc = main(["certify-code", "--scheme", "cdd", "--k", "2", "--n", "2", "--r", "0.1",
               "--snr-db", "20", "--seed", "1", "--codebook", book, "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert f"{book}:1:1: header sizes must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind,text,message",
    [("codebook", "", "empty file"), ("codebook", "# a comment only\n", "empty file"),
     ("codebook", "N 2 K 2\n1 0 0 1\n", "header must read 'N <int> COUNT <int>'"),
     ("codebook", "N 2.5 COUNT 1\n1 0 0 1\n", "header sizes must be integers"),
     ("scheme", "N 2 COUNT 1\n", "header must read 'N <int> K <int>'"),
     ("scheme", "N 2 K one\n", "header sizes must be integers")],
)
def test_cli_file_header_errors_name_line_1(tmp_path, capsys, kind, text, message):
    path = _write(tmp_path / "in.txt", text)
    out = tmp_path / "o.txt"
    if kind == "codebook":
        args = ["certify-code", "--scheme", "cdd", "--codebook", path]
    else:
        args = ["analytic-curve", "--scheme", path]
    rc = main(args + ["--k", "1", "--n", "2", "--r", "0.25", "--snr-db", "20", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert f"{path}:1:1: {message}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["in.txt"]


@pytest.mark.parametrize("k,snr_db", [(1, "-3100,-10,0"), (4, "-3233,20"), (1, "-3000.5,0")])
def test_certify_below_the_snr_floor_checks_no_pair(tmp_path, monkeypatch, capsys, k, snr_db):
    # rho = 1e-310 is a float, but rho^-2r at r = 1/2 is not; -3000 dB is the
    # floor, the mirror of the ceiling
    from relaydiv import experiment_cli

    calls = []
    oracle = experiment_cli.rank_full
    monkeypatch.setattr(experiment_cli, "rank_full", lambda phi: calls.append(1) or oracle(phi))
    book = str(tmp_path / "book.txt")
    save_codebook_file(book, Codebook(complex_gaussian(np.random.default_rng(9), (3, k)), 0.5, 1.0))
    rc = main(["certify-code", "--scheme", "cdd", "--k", str(k), "--n", str(k), "--r", "0.5",
               f"--snr-db={snr_db}", "--codebook", book, "--out", str(tmp_path / "r.txt")])
    assert rc == EXIT_CONFIG
    assert "[-3000, 3000] dB" in capsys.readouterr().err
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["book.txt"]


def test_certify_at_the_snr_floor_reports_the_largest_threshold(tmp_path, capsys):
    book = str(tmp_path / "book.txt")
    save_codebook_file(book, Codebook(np.array([[1.0], [-1.0]]), 0.5, 1.0))
    rc = main(["certify-code", "--scheme", "cdd", "--k", "1", "--n", "1", "--r", "0.5",
               "--snr-db=-3000,0", "--codebook", book])
    assert rc == EXIT_OK
    assert "approximately-universal @ snr_db=-3000 r=0.5: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "experiment,snr_db",
    [("outage-sweep", "-10,20"), ("dm-slope", "0,20,30"), ("analytic-curve", "1e-17,20")],
)
def test_grid_point_with_rho_at_most_one_is_a_config_error_naming_it(
    tmp_path, monkeypatch, capsys, experiment, snr_db
):
    # the outage threshold r log2(rho) and the bracket need rho > 1; 1e-17 dB
    # is above 0 dB, but its rho rounds to 1.0
    from relaydiv import outage_analysis

    blocks = []
    monkeypatch.setattr(outage_analysis, "_mc_event_count", lambda *args: blocks.append(args))
    rc = main([experiment, "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
               f"--snr-db={snr_db}", "--trials", "1000", "--out", str(tmp_path / "o.csv")])
    assert rc == EXIT_CONFIG
    assert f"snr_db entry {snr_db.split(',')[0]} gives rho" in capsys.readouterr().err
    assert blocks == []
    assert list(tmp_path.iterdir()) == []


def test_cli_analytic_curve(tmp_path):
    out = str(tmp_path / "ac.csv")
    rc = main(["analytic-curve", "--scheme", "cdd", "--k", "2", "--n", "4",
               "--r", "0.25", "--snr-db", "20,30,40", "--seed", "1", "--out", out])
    assert rc == EXIT_OK
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "snr_db,lower,upper,theory_exponent"
    rows = [line.split(",") for line in lines[1:]]
    uppers = [float(r[2]) for r in rows]
    assert uppers == sorted(uppers, reverse=True)
    assert all(float(r[3]) == 1.0 for r in rows)


@pytest.mark.parametrize(
    "family,file_name,verdict",
    [(phase_rolling_scheme, "cdd", "FAIL"), (cyclic_delay_scheme, "pr", "PASS (all pairs)")],
)
def test_cli_certify_picks_the_simplified_condition_by_structure(tmp_path, capsys, family,
                                                                 file_name, verdict):
    # the file's name must not choose the shortcut: [1, 1, 1, 0] has a zero
    # entry (phase rolling rank deficient) and no zero DFT bin (CDD full rank)
    (tmp_path / "dir").mkdir()
    scheme = str(tmp_path / "dir" / file_name)
    save_scheme_file(scheme, family(4, 4))
    book = str(tmp_path / "book.txt")
    save_codebook_file(book, Codebook(np.array([[1, 1, 1, 0], [0, 0, 0, 0]]), 0.25, 100.0))
    rc = main(["certify-code", "--scheme", scheme, "--k", "4", "--n", "4", "--r", "0.25",
               "--snr-db", "20", "--codebook", book])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert f"full-rank condition: {verdict}" in out
    name = "phase-rolling" if family is phase_rolling_scheme else "cdd"
    assert f"simplified-condition agreement ({name}): 1/1 pairs consistent" in out


def test_cli_certify_code(tmp_path):
    n = 4
    words = np.zeros((2, n), dtype=complex)
    words[1, 0] = 1.0
    book_path = str(tmp_path / "book.txt")
    save_codebook_file(book_path, Codebook(words, 0.25, 100.0))
    out = str(tmp_path / "report.txt")
    rc = main(["certify-code", "--scheme", "cdd", "--k", str(n), "--n", str(n),
               "--r", "0.25", "--snr-db", "20,30", "--seed", "1",
               "--codebook", book_path, "--out", out])
    assert rc == EXIT_OK
    text = Path(out).read_text()
    assert "PASS (all pairs)" in text
    assert "mu_min" in text


def test_the_benchmark_tracer_finds_the_functions_it_wraps_by_name():
    # benchmarks/tracer.py wraps package functions by module and name, and
    # skips a name it cannot find, so that layer's metrics read 0 without
    # notice.  Two names are gone already and read 0; any other that stops
    # resolving, or a new signature of the block runner it wraps, fails here
    source = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    missing = {(module, attr) for module, attr, _ in wrapped
               if not hasattr(importlib.import_module(module), attr)}
    assert missing == {("relaydiv.experiment_cli", "pair_differences"),
                       ("relaydiv.experiment_cli", "min_gram_eigenvalue")}
    from relaydiv import outage_analysis

    assert list(inspect.signature(outage_analysis._mc_event_count).parameters) == [
        "trials", "seed", "threads", "block_events"]
