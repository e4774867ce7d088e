"""The console script's end-to-end checks, each run in a child process
through ``python -m relaydiv.experiment_cli``, the module whose ``main`` the
installed ``relaydiv`` script calls."""

import csv
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import relaydiv
from relaydiv import custom_scheme, gaussian_codebook
from relaydiv.experiment_cli import load_codebook_file, save_codebook_file, save_scheme_file

ROOT = Path(__file__).resolve().parents[1]

# Child processes at once; each is mostly interpreter and numpy start-up.
WORKERS = 2


def _runs(tmp):
    """Name -> (CLI arguments, extra environment) of every run below."""
    book, haar = str(tmp / "book.txt"), str(tmp / "haar.txt")
    exact = ["outage-sweep", "--outage", "exact", "--k", "2", "--seed", "1"]
    runs = {
        "sweep": ["outage-sweep", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
                  "--snr-db", "20,30", "--trials", "20000", "--seed", "1", "--out", tmp / "o.csv"],
        "certify-cdd": ["certify-code", "--scheme", "cdd", "--k", "4", "--n", "4", "--r", "0.25",
                        "--snr-db", "20", "--codebook", book],
        "certify-phase-rolling": ["certify-code", "--scheme", "phase-rolling", "--k", "4",
                                  "--n", "4", "--r", "0.25", "--snr-db", "20", "--codebook", book],
        "curve": ["analytic-curve", "--scheme", "cdd", "--k", "2", "--n", "8", "--r", "0.25",
                  "--snr-db", "20,30,40", "--out", tmp / "a.csv"],
        "haar": exact + ["--scheme", haar, "--n", "4", "--r", "0.25", "--snr-db", "20,30",
                         "--trials", "20000", "--out", tmp / "x.csv"],
        "p2990": exact + ["--scheme", "phase-rolling", "--n", "8", "--r", "0.5",
                          "--snr-db", "20,2990", "--trials", "20000", "--out", tmp / "p2990.csv"],
        "h2990": exact + ["--scheme", haar, "--n", "4", "--r", "0.5", "--snr-db", "20,2990",
                          "--trials", "20000", "--out", tmp / "h2990.csv"],
    }
    for name, scheme in (("cdd", "cdd"), ("haar", haar)):
        for threads in (1, 2):
            runs[f"threads-{name}-{threads}"] = exact + [
                "--scheme", scheme, "--n", "4", "--r", "0.25", "--snr-db", "20,30",
                "--trials", "40000", "--threads", str(threads),
                "--out", tmp / f"w-{name}-{threads}.csv"]
    for threads in (1, 2):
        runs[f"threads-slope-cdd-{threads}"] = [
            "dm-slope", "--outage", "exact", "--scheme", "cdd", "--k", "2", "--n", "8", "--r", "0",
            "--snr-db", "10,15,20,25", "--trials", "40000", "--seed", "1",
            "--threads", str(threads), "--out", tmp / f"w-slope-cdd-{threads}.csv"]
    return {name: (list(map(str, args)), {"PYTHONWARNINGS": "error"} if name == "h2990" else {})
            for name, args in runs.items()}


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    """Runs every CLI call of this module, WORKERS at a time, on a
    generated codebook and Haar scheme file; returns the tmp directory and
    each run's completed process by name."""
    tmp = tmp_path_factory.mktemp("cli")
    save_codebook_file(str(tmp / "book.txt"),
                       gaussian_codebook(4, 0.25, 4.0, np.random.default_rng(1)))
    rng = np.random.default_rng(2)
    save_scheme_file(str(tmp / "haar.txt"), custom_scheme(
        [np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0] / 2
         for _ in range(2)]))
    path = os.pathsep.join(filter(None, [str(Path(relaydiv.__file__).resolve().parents[1]),
                                         os.environ.get("PYTHONPATH")]))

    def run(item):
        name, (args, env) = item
        return name, subprocess.run(
            [sys.executable, "-m", "relaydiv.experiment_cli", *args], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": path, **env}, timeout=300)

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        done = dict(pool.map(run, _runs(tmp).items()))
    return tmp, done


def _ok(cli, name):
    proc = cli[1][name]
    assert proc.returncode == 0, (name, proc.stderr)
    return proc


def _manifest(path):
    return json.loads(Path(str(path) + ".manifest.json").read_text())


def _rows(path):
    return list(csv.DictReader(Path(path).read_text().splitlines()))


def test_a_sweep_manifest_names_its_stream_and_kernel(cli):
    _ok(cli, "sweep")
    manifest = _manifest(cli[0] / "o.csv")
    assert manifest["stream"] == 3 and manifest["mi_kernel"], manifest


def test_certify_runs_on_a_generated_codebook(cli):
    _ok(cli, "certify-cdd")


def test_phase_rolling_certify_takes_mu_min_from_the_entries_of_the_differences(cli):
    # at K = N, mu_min is min over pairs a < b of min_m |x_a,m - x_b,m|^2
    out = _ok(cli, "certify-phase-rolling").stdout
    x = load_codebook_file(str(cli[0] / "book.txt")).codewords
    a, b = np.triu_indices(len(x), k=1)
    want = float((np.abs(x[a] - x[b]) ** 2).min())
    got = float(re.search(r"^mu_min: (\S+)$", out, re.M).group(1))
    assert abs(got - want) <= 1e-12 * want, (got, want)


def test_analytic_curve_writes_ordered_bounds(cli):
    _ok(cli, "curve")
    rows = list(csv.reader((cli[0] / "a.csv").read_text().splitlines()))
    assert rows[0] == ["snr_db", "lower", "upper", "theory_exponent"], rows
    assert len(rows) == 4
    assert all(0 <= float(r[1]) <= float(r[2]) <= 1 for r in rows[1:]), rows


def test_a_haar_scheme_takes_the_ldl_kernel(cli):
    _ok(cli, "haar")
    manifest = _manifest(cli[0] / "x.csv")
    assert manifest["mi_kernel"] == "exact-products-ldl", manifest


@pytest.mark.parametrize("scheme", ["cdd", "haar", "slope-cdd"])
def test_one_and_two_threads_write_the_same_exact_sweep(cli, scheme):
    # each thread reuses one workspace across blocks; on both exact kernels
    # a 1-thread and a 2-thread run write the same bytes, and so does a
    # dm-slope run, whose 2-thread points all run on one pool
    for threads in (1, 2):
        _ok(cli, f"threads-{scheme}-{threads}")
    one, two = (cli[0] / f"w-{scheme}-{t}.csv" for t in (1, 2))
    assert one.read_bytes() == two.read_bytes()


def test_the_spectral_kernel_decides_2990_db_on_the_logarithm(cli):
    # at 2990 dB, r = 0.5, 2^(2 N R) overflows a float: every trial is in
    # outage (a product against an infinite bound would count none)
    _ok(cli, "p2990")
    rows = _rows(cli[0] / "p2990.csv")
    assert float(rows[-1]["snr_db"]) == 2990 and rows[-1]["events"] == rows[-1]["trials"], rows
    manifest = _manifest(cli[0] / "p2990.csv")
    assert manifest["mi_kernel"] == "exact-spectral", manifest


def test_the_ldl_kernel_decides_2990_db_without_a_warning(cli):
    # the LDL^H kernel's bound overflows as well, and the point is decided
    # on the MI of its pivots; the run has PYTHONWARNINGS=error
    _ok(cli, "h2990")
    rows = _rows(cli[0] / "h2990.csv")
    assert float(rows[-1]["snr_db"]) == 2990, rows
    manifest = _manifest(cli[0] / "h2990.csv")
    assert manifest["mi_kernel"] == "exact-products-ldl", manifest


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_console_script_is_the_cli_main():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"relaydiv": "relaydiv.experiment_cli:main"}
