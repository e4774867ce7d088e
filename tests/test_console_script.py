"""The console script's end-to-end checks, each run in a child process
through ``python -m relaydiv.experiment_cli``, the module whose ``main`` the
installed ``relaydiv`` script calls, and the checks of how such a process
imports and exits, each in a fresh interpreter."""

import csv
import dataclasses
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
from relaydiv.experiment_cli import (
    EXPERIMENTS,
    ExperimentConfig,
    load_codebook_file,
    save_codebook_file,
    save_scheme_file,
)

ROOT = Path(__file__).resolve().parents[1]

# Child processes at once; each is mostly interpreter and numpy start-up.
WORKERS = 2


def _child_env(**extra):
    """The environment of a child that imports the package under test."""
    path = os.pathsep.join(filter(None, [str(Path(relaydiv.__file__).resolve().parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def _cli(*args, cwd=None, **env):
    """A child's run of ``python -m relaydiv.experiment_cli args`` in ``cwd``
    with ``env`` added to its environment."""
    return subprocess.run([sys.executable, "-m", "relaydiv.experiment_cli", *args], cwd=cwd,
                          capture_output=True, text=True, env=_child_env(**env), timeout=300)


def _runs(tmp):
    """Name -> (CLI arguments, extra environment) of every run below."""
    book, haar, near = str(tmp / "book.txt"), str(tmp / "haar.txt"), str(tmp / "near.txt")
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
        "near-curve": ["analytic-curve", "--scheme", near, "--k", "2", "--n", "2", "--r", "0.25",
                       "--snr-db", "20", "--out", tmp / "near.csv"],
        "slope": ["dm-slope", "--scheme", "cdd", "--k", "2", "--n", "4", "--r", "0.25",
                  "--snr-db", "20,25,30", "--trials", "20000", "--seed", "1", "--out", tmp / "s.csv"],
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
    runs["self-check-flag"] = ["self-check", "--k", "3"]
    runs["self-check-file"] = ["self-check", "--config", tmp / "k3.cfg"]
    return {name: (list(map(str, args)),
                   {"PYTHONWARNINGS": "error"} if name in ("h2990", "near-curve") else {})
            for name, args in runs.items()}


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    """Runs every CLI call of this module, WORKERS at a time, on a
    generated codebook, Haar and near-singular scheme files and config file;
    returns the tmp directory and each run's completed process by name."""
    tmp = tmp_path_factory.mktemp("cli")
    (tmp / "k3.cfg").write_text("experiment = self-check\nk = 3\n")
    save_codebook_file(str(tmp / "book.txt"),
                       gaussian_codebook(4, 0.25, 4.0, np.random.default_rng(1)))
    rng = np.random.default_rng(2)
    save_scheme_file(str(tmp / "haar.txt"), custom_scheme(
        [np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0] / 2
         for _ in range(2)]))
    # K = N = 2 with lambda_min = 1.6e-15: G2 = diag(1, e^(i 1e-7)) / sqrt(2)
    save_scheme_file(str(tmp / "near.txt"), custom_scheme(
        [np.eye(2) / np.sqrt(2), np.diag([1.0, np.exp(1e-7j)]) / np.sqrt(2)]))

    def run(item):
        name, (args, env) = item
        return name, _cli(*args, **env)

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


def test_the_manifests_name_the_versions_of_the_closed_form_code(cli):
    _ok(cli, "curve")
    _ok(cli, "slope")
    assert _manifest(cli[0] / "a.csv")["bracket_law"] == 3
    slope = _manifest(cli[0] / "s.csv")
    assert slope["slope_calibration"] == 3 and "d_hat_bias" not in slope, slope
    assert slope["status"] == "ok" and slope["d_hat"] is not None, slope


def test_a_near_singular_scheme_brackets_to_an_upper_end_of_1(cli):
    # the run has PYTHONWARNINGS=error
    _ok(cli, "near-curve")
    rows = _rows(cli[0] / "near.csv")
    assert [row["upper"] for row in rows] == ["1.0"], rows


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


def test_self_check_takes_a_key_from_a_flag_as_from_a_config_file(cli):
    # every experiment takes every key; self-check uses no k, from either
    flag, file = _ok(cli, "self-check-flag"), _ok(cli, "self-check-file")
    assert flag.stdout == file.stdout and flag.stdout.startswith("self-check report"), flag.stdout


@pytest.mark.parametrize("args,message", [
    (["no-such-experiment"],
     r"relaydiv: error: argument experiment: invalid choice: .no-such-experiment"),
    (["outage-sweep", "--snr-db", "20,30", "--seed"],
     r"relaydiv: error: argument --seed: expected one argument"),
    # argparse releases differ on whether "-10,0,10" looks like a negative
    # number: Python 3.11's reads a flag with no value, and one that reads a
    # value passes it on to the outage-grid rule, which refuses -10 dB
    (["outage-sweep", "--snr-db", "-10,0,10"],
     r"relaydiv: error: argument --snr-db: expected one argument"
     r"|config error: outage-sweep needs rho .* snr_db entry -10 "),
])
def test_a_refused_command_line_exits_2_and_writes_nothing(tmp_path, args, message):
    run = _cli(*args, "--out", "out.csv", cwd=tmp_path)
    assert run.returncode == 2 and run.stdout == "", (run.returncode, run.stdout)
    assert re.match(message, run.stderr.splitlines()[-1]), run.stderr
    assert list(tmp_path.iterdir()) == []


def test_help_names_every_experiment_and_every_key_flag_once():
    run = _cli("--help")
    assert run.returncode == 0, run.stderr
    # past the usage block, each argument is listed once
    listing = run.stdout.split("\n\n", 1)[1]
    assert all(listing.count(name) == 1 for name in EXPERIMENTS), listing
    keys = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "experiment"]
    flags = ["--help", "--config"] + ["--" + key.replace("_", "-") for key in keys]
    assert re.findall(r"--[a-z][a-z-]*", listing) == flags, listing
    # each flag that takes a value is described, on its own line or the next
    described = re.findall(r"^  (--[a-z][a-z-]*) [A-Z_]+\s+(?!--)\S", listing, re.M)
    assert described == flags[1:], listing


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_console_script_is_the_cli_main():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"relaydiv": "relaydiv.experiment_cli:main"}


def _python(code, *args, flags=()):
    """A fresh interpreter's run of ``python [flags] -c code args``."""
    return subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True,
                          text=True, env=_child_env(), timeout=300)


def test_the_cli_module_alone_freezes_the_heap_at_exit():
    # importing the CLI module registers gc.freeze as an exit handler, so the
    # final collections skip the heap; importing only the library does not
    code = "import atexit, gc, {}; atexit._run_exitfuncs(); print(gc.get_freeze_count())"
    cli, library = (_python(code.format(module))
                    for module in ("relaydiv.experiment_cli", "relaydiv"))
    assert cli.returncode == 0 and int(cli.stdout) > 0, (cli.stdout, cli.stderr)
    assert library.returncode == 0 and int(library.stdout) == 0, (library.stdout, library.stderr)


def test_the_pool_module_is_imported_with_the_first_pool():
    # a one-thread call runs its blocks on the calling thread and loads no
    # concurrent.futures; a two-thread call of two blocks makes the pool
    code = ("import sys; from relaydiv import cyclic_delay_scheme; "
            "from relaydiv.outage_analysis import BLOCK_TRIALS, mc_exact_outage; "
            "s = cyclic_delay_scheme(2, 4); "
            "mc_exact_outage(s, 0.25, 100.0, 2 * BLOCK_TRIALS, 1, threads=1); "
            "print('concurrent.futures' in sys.modules); "
            "mc_exact_outage(s, 0.25, 100.0, 2 * BLOCK_TRIALS, 1, threads=2); "
            "print('concurrent.futures' in sys.modules)")
    run = _python(code)
    assert run.returncode == 0 and run.stdout.split() == ["False", "True"], (run.stdout, run.stderr)


def test_a_two_thread_run_joins_its_pool_before_the_heap_is_frozen(tmp_path):
    # exit handlers run last registered first, so the handler registered here,
    # before the CLI module's import, runs after gc.freeze: by then threading's
    # shutdown has joined the pool's workers, and every warning is an error
    code = ("import atexit, gc, sys, threading; "
            "atexit.register(lambda: print('exit', gc.get_freeze_count() > 0, "
            "threading.active_count())); "
            "from relaydiv.experiment_cli import main; sys.exit(main(sys.argv[1:]))")
    run = _python(code, "dm-slope", "--scheme", "cdd", "--k", "2", "--n", "8", "--r", "0",
                  "--snr-db", "10,15,20,25", "--trials", "40000", "--seed", "1", "--threads", "2",
                  "--out", str(tmp_path / "s.csv"), flags=("-W", "error"))
    assert run.returncode == 0 and run.stderr == "", (run.returncode, run.stderr)
    assert run.stdout.splitlines()[-1] == "exit True 1", run.stdout
    assert (tmp_path / "s.csv").exists()
