"""Tests of the benchmark harness itself: generators, checks, span analysis,
and a smoke run of every workload at tiny sizes.

    python3 -m pytest benchmarks/test_harness.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs
import run
import tracer

sys.path.insert(0, str(run.SRC))


def test_generators_are_deterministic_per_seed():
    assert inputs.scheme_text(inputs.scheme_matrices(5, 3, 8)) == inputs.scheme_text(
        inputs.scheme_matrices(5, 3, 8)
    )
    assert inputs.codebook_text(inputs.codebook_words(5, 16, 4)) == inputs.codebook_text(
        inputs.codebook_words(5, 16, 4)
    )
    assert not np.array_equal(inputs.scheme_matrices(5, 3, 8), inputs.scheme_matrices(6, 3, 8))
    assert not np.array_equal(inputs.codebook_words(5, 16, 4), inputs.codebook_words(6, 16, 4))


def test_generated_files_round_trip_through_the_program_parsers(tmp_path):
    from relaydiv.experiment_cli import load_codebook_file, load_scheme_file

    mats = inputs.scheme_matrices(11, 3, 8)
    text = inputs.scheme_text(mats)
    scheme = inputs.load_scheme_text(text)  # custom_scheme validation
    (tmp_path / "s.txt").write_text(text)
    assert np.array_equal(load_scheme_file(str(tmp_path / "s.txt")).stacked(), mats)
    assert np.array_equal(scheme.stacked(), mats)
    # Gram != I and not circulant: the general path, not a built-in family.
    from relaydiv.relay_schemes import gramian

    gram = gramian(scheme).gram
    assert np.abs(gram - np.eye(3)).max() > 1e-3

    words = inputs.codebook_words(11, 20, 4)
    (tmp_path / "b.txt").write_text(inputs.codebook_text(words))
    assert np.array_equal(load_codebook_file(str(tmp_path / "b.txt")).codewords, words)


def _slope_csv(d_hat: float) -> str:
    return (
        "snr_db,probability,ci_low,ci_high,trials,events,d_hat,d_hat_raw,d_hat_stderr,d_theory\n"
        f"20.0,0.2,0.19,0.21,1000,200,{d_hat!r},1.5,0.01,2.0\n"
    )


def test_corrupted_slope_output_fails_its_check():
    good = _slope_csv(2.1)
    assert inputs.check_slope(good, json.dumps({"d_hat": 2.1}), 2.0) == []
    assert inputs.check_slope(_slope_csv(2.5), json.dumps({"d_hat": 2.5}), 2.0)
    assert inputs.check_slope(good, None, 2.0) == ["manifest missing"]
    assert inputs.check_slope(good, json.dumps({"d_hat": 2.0}), 2.0)


def test_corrupted_exact_csv_fails_jensen_dominance():
    from relaydiv.relay_schemes import cyclic_delay_scheme

    header = "snr_db,probability,ci_low,ci_high,trials,events\n"
    zero_events = header + "20.0,0.0,0.0,0.01,16384,0\n"
    assert inputs.check_sweep_csv(zero_events, [20], 16384) == []
    problems = inputs.check_jensen_dominance(zero_events, cyclic_delay_scheme(2, 8), 0.25, 3)
    assert problems and "< Jensen" in problems[0]
    assert inputs.check_sweep_csv(header + "20.0,0.5,0.4,0.6,10,11\n", [20], 10)
    assert inputs.check_sweep_csv(zero_events, [25], 16384)


def test_certify_check_uses_an_independent_reference():
    words = inputs.codebook_words(2, 12, 4)
    mu, lam_max = inputs.reference_mu_min(words, 4)
    a, b = np.triu_indices(12, k=1)
    dft_bins = np.abs(np.fft.fft(words[a] - words[b], axis=1)) ** 2 / 4
    assert mu == pytest.approx(dft_bins.min(), rel=1e-12)  # circulant: DFT duality
    report = (
        "pairs checked: 66\nfull-rank condition: PASS (all pairs)\n"
        f"mu_min: {mu!r}\nsimplified-condition agreement (cdd): 66/66 pairs consistent\n"
    )
    assert inputs.check_certify(report, 12, mu, lam_max) == []
    assert inputs.check_certify(report.replace(repr(mu), repr(mu * 1.01)), 12, mu, lam_max)
    assert inputs.check_certify(report.replace("66/66", "65/66"), 12, mu, lam_max)


def test_self_time_subtracts_the_union_of_children_across_threads():
    spans = [
        tracer.Span(1, "outage_analysis.jensen", 0.0, 10.0, 0, 1, 100),
        tracer.Span(2, "outage_analysis.block", 1.0, 5.0, 1, 2, 0),
        tracer.Span(3, "outage_analysis.block", 2.0, 6.0, 1, 3, 0),
        tracer.Span(4, "channel_model.draw", 1.0, 4.0, 2, 2, 0),
    ]
    self_t = tracer.self_times(spans)
    assert self_t == {1: 5.0, 2: 1.0, 3: 4.0, 4: 3.0}
    layers = tracer.layer_metrics(spans, wall_s=12.0)
    assert layers["outage_analysis.jensen_s"] == 10.0
    assert layers["channel_model.draw_s"] == 3.0
    assert layers["outage_analysis.blocks"] == 2
    assert layers["outage_analysis.trials"] == 100
    assert layers["experiment_cli.other_s"] == 2.0


TINY = {
    "slope-cdd": {"snr_db": [20, 25, 30, 35], "max_trials": 200_000},
    "exact-cdd": {"trials": 16384},
    "exact-custom": {"trials": 16384},
    "certify-cdd": {},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_of_each_workload(name, tmp_path):
    base = run.WORKLOADS[name]
    workload = dataclasses.replace(
        base, config={**base.config, **TINY[name]}, book_size=min(base.book_size, 24)
    )
    bench = run.Bench(workload, seed=4, work_dir=tmp_path)
    metrics, _ = bench.end_to_end(seconds=0)
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    layers, _ = bench.per_layer(seconds=0)
    assert set(layers) == set(run.LAYERS)
    assert bench.failures == [] and bench.failed == 0
    assert bench.attempted == 2 + 3 * run.MIN_REPS + 2 + (workload.config.get("threads", 1) > 1)
    if name == "certify-cdd":
        assert layers["codebook.pairs"] == 24 * 23 // 2
    else:
        assert layers["outage_analysis.trials"] == bench.work_units() > 0
        assert layers["channel_model.draw_calls"] == layers["outage_analysis.blocks"] > 0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "exact-cdd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_the_harness_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.LAYERS.items()
    }
