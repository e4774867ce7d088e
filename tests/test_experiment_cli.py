"""Config grammar, scheme/codebook files, runners, and the CLI surface."""

import dataclasses
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from relaydiv import (
    Codebook,
    ConfigError,
    FileFormatError,
    SchemeInvalidError,
    custom_scheme,
    cyclic_delay_scheme,
    gaussian_codebook,
    phase_rolling_scheme,
)
from relaydiv.channel_model import complex_gaussian
from relaydiv.experiment_cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXPERIMENTS,
    ExperimentConfig,
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
        snr_db=(20.0, 22.5, 1e20), trials="12345", min_trials=1000, max_trials=2**40,
        min_events=7, rate_bits=1.5, outage="exact", seed=2**64 - 1, out="dir/o.txt",
        codebook="dir/book.txt", threads=2,
    )
    cfg.validate()
    assert cfg.canonical_text() == (
        "experiment = certify-code\nscheme = phase-rolling\nk = 3\nn = 8\nr = 0.125\n"
        "snr_db = [20, 22.5, 1e+20]\ntrials = 12345\nmin_trials = 1000\n"
        "max_trials = 1099511627776\nmin_events = 7\nrate_bits = 1.5\noutage = exact\n"
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
    snr_db=st.lists(_FLOAT, min_size=1, max_size=6, unique=True).map(
        lambda v: tuple(sorted(v))
    ),
    trials=st.one_of(st.just("adaptive"), st.integers(1, 2**63).map(str), _CONFIG_TEXT),
    counts=st.tuples(_BIG_INT, _BIG_INT, _BIG_INT),
    rate_bits=st.one_of(st.floats(0.0, 1e300), _FLOAT),
    outage=st.one_of(st.sampled_from(["jensen", "exact"]), _CONFIG_TEXT),
    seed=st.integers(0, 2**64 - 1),
    codebook=st.one_of(st.just(""), _CONFIG_TEXT),
    out=st.one_of(st.just(""), _CONFIG_TEXT),
    threads=st.one_of(st.none(), st.integers(1, 64)),
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
    assert again == dataclasses.replace(cfg, threads=None)


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
    assert all(p.probability == 0.0 for p in curve.points)


def test_outage_sweep_deterministic():
    a = run_outage_sweep(_sweep_config())
    b = run_outage_sweep(_sweep_config())
    assert a.points == b.points


def test_outage_sweep_probability_nonincreasing_within_ci():
    cfg = _sweep_config(snr_db=tuple(float(db) for db in range(20, 50, 5)), trials="100000")
    curve = run_outage_sweep(cfg)
    for a, b in zip(curve.points, curve.points[1:]):
        assert b.probability <= a.ci_high


def test_outage_sweep_exact_kind_dominates_jensen():
    jensen = run_outage_sweep(_sweep_config())
    exact = run_outage_sweep(_sweep_config(outage="exact"))
    for pj, pe in zip(jensen.points, exact.points):
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
    assert report.points_used == len(curve.points)
    assert report.status == "ok"


def test_dm_slope_warns_on_insufficient_events():
    cfg = _sweep_config(experiment="dm-slope", min_events=10**9, trials="50000")
    curve, report = run_dm_slope(cfg)
    assert report.status.startswith("warning")
    assert len(curve.points) == 3  # partial output still present
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
    # 64 and 96 words, 2016 and 4560 pairs at N = K = 4, with
    # min_gram_eigenvalue in blocks of 64 pairs.  Building all (P, N)
    # differences up front peaks near 150 B/pair; whole-book pair index
    # arrays add 16 B for every pair.
    from relaydiv import codebook

    monkeypatch.setattr(codebook, "MIN_GRAM_PAIR_BLOCK", 64)
    words = complex_gaussian(np.random.default_rng(5), (96, 4))
    small_pairs, small_peak = _certify_peak_bytes(tmp_path, words[:64])
    pairs, peak = _certify_peak_bytes(tmp_path, words)
    assert (small_pairs, pairs) == (2016, 4560)
    assert peak < 64 * pairs
    assert (peak - small_peak) / (pairs - small_pairs) < 4


def test_cli_oversized_codebook_is_resource_error(tmp_path):
    from relaydiv.experiment_cli import EXIT_RESOURCE

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


def test_cli_config_error_exit_code(tmp_path):
    rc = main(["outage-sweep", "--scheme", "cdd", "--k", "5", "--n", "2",
               "--snr-db", "20", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    rc = main(["outage-sweep", "--config", str(tmp_path / "missing.cfg")])
    assert rc == EXIT_CONFIG


def test_cli_invalid_scheme_file_exit_code(tmp_path):
    bad = _write(tmp_path / "bad.txt", "N 2 K 1\n1 0 0 0\n0 0 1 0\n")
    rc = main(["outage-sweep", "--scheme", bad, "--k", "1", "--n", "2", "--r", "0.1",
               "--snr-db", "20", "--trials", "1000", "--seed", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG


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
    assert json.loads(Path(out + ".manifest.json").read_text())["mi_kernel"] == kernel


def test_cli_self_check_exit_zero(capsys):
    assert main(["self-check"]) == EXIT_OK
    assert "self-check report" in capsys.readouterr().out


def test_cli_env_threads_default(tmp_path, monkeypatch):
    out1 = str(tmp_path / "t1.csv")
    out8 = str(tmp_path / "t8.csv")
    args = ["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
            "--snr-db", "20,25", "--trials", "40000", "--seed", "5"]
    monkeypatch.setenv("RELAYDIV_THREADS", "1")
    assert main(args + ["--out", out1]) == EXIT_OK
    monkeypatch.setenv("RELAYDIV_THREADS", "8")
    assert main(args + ["--out", out8]) == EXIT_OK
    assert Path(out1).read_bytes() == Path(out8).read_bytes()


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_bad_env_threads_is_config_error(tmp_path, monkeypatch, capsys, value):
    out = tmp_path / "t.csv"
    monkeypatch.setenv("RELAYDIV_THREADS", value)
    rc = main(["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
               "--snr-db", "20", "--trials", "1000", "--seed", "5", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "RELAYDIV_THREADS" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "experiment,snr_db,rate_bits",
    [("outage-sweep", "nan", "1"), ("outage-sweep", "10,inf", "1"),
     ("dm-slope", "10,20,30", "nan")],
)
def test_cli_non_finite_numbers_are_config_errors(tmp_path, experiment, snr_db, rate_bits):
    rc = main([experiment, "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0",
               "--snr-db", snr_db, "--rate-bits", rate_bits, "--trials", "1000",
               "--seed", "5", "--out", str(tmp_path / "s.csv")])
    assert rc == EXIT_CONFIG
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
