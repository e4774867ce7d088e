"""relaydiv benchmark: whole CLI experiments, timed end to end and traced by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a relaydiv source checkout; the package is taken
from ``src/`` of the checkout this file sits in, and all inputs and outputs
go to ``.bench_work/`` there.  Every workload runs as fresh ``relaydiv`` CLI
processes pinned to ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``, so the
``--threads`` value counts every compute thread.  Inputs (the CLI seed, a
custom scheme file, a codebook file) are generated from ``--seed``.

``--trace 0`` repeats, for ``--seconds``, a host-speed probe, a set-up probe
and a full CLI run, each a fresh process, and reports each end-to-end metric:

- ``wall_s``: launch to exit of a CLI run whose output passes its checks.
- ``setup_s``: launch to exit of a process that only imports the package,
  validates the config, builds the scheme, loads the codebook and computes
  the Gramian (``setup_probe.py``).
- ``work_per_s``: units of work over (wall_s - setup_s); a unit is one
  Monte Carlo trial, or one codeword pair on certify-cdd.
- ``peak_rss_mb``: the CLI process's maximum resident set size.

Each metric is the median over the repetitions.  Times are first scaled to
the reference host's speed: each by HOST_PROBE_REF_S over the time of the
``host_probe.py`` run just before it, a fixed job that does not use relaydiv
(see ``end_to_end``).  Every raw sample is kept in ``result.json``.

``--trace 1`` alternates untraced and traced CLI runs (``tracer.py``) for
``--seconds``, plus a traced 1-thread run on multi-threaded workloads, and
reports the median of each per-layer metric; times are thread-seconds of
self time.  A metric whose layer does not run on the workload reads 0.  The
map below says which end-to-end metric each layer metric should move, and
on which workload.

Every CLI run and probe is one operation; it fails on a non-zero
exit or a failed output check.  Every output of a run, traced or not and at
any thread count, must equal the first byte for byte.  The last line of standard output is the
result as JSON; the line before it is the environment record.  Exit code 0
means every check passed, 1 that some failed, 2 that the checkout holds no
relaydiv sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# The console script ``relaydiv`` does exactly this.
CLI_ENTRY = "import sys; from relaydiv.experiment_cli import main; sys.exit(main())"

MIN_REPS = 3
CHILD_TIMEOUT_S = 120.0

# End-to-end times are reported at the host speed at which host_probe.py
# takes this long: its fastest time on a quiet 2-vCPU Intel Xeon with
# Python 3.11.7 and numpy 2.4.6.  Only the unit depends on it.
HOST_PROBE_REF_S = 0.15


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # CLI config mapping; the seed is added per run
    scheme_file: bool = False  # generate a custom K x N scheme file
    book_size: int = 0  # generate a Gaussian codebook of this many words


# Why each workload exists is recorded in BENCHMARK.json.  Sizes are scaled
# so that one CLI run takes 0.6-1.2 s on a 2-CPU Xeon, giving ~20
# repetitions in a 30 s measurement, each scaled by its own host probe.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "slope-cdd",
            {"experiment": "dm-slope", "scheme": "cdd", "k": 2, "n": 8, "r": 0,
             "snr_db": [20, 25, 30, 35, 40, 45], "trials": "adaptive",
             "max_trials": 1_000_000, "threads": 2, "out": "out.csv"},
        ),
        Workload(
            "exact-cdd",
            {"experiment": "outage-sweep", "outage": "exact", "scheme": "cdd", "k": 2, "n": 8,
             "r": 0.25, "snr_db": [20, 30, 40], "trials": 24576, "threads": 1,
             "out": "out.csv"},
        ),
        Workload(
            "exact-custom",
            {"experiment": "outage-sweep", "outage": "exact", "scheme": "scheme.txt", "k": 3,
             "n": 8, "r": 0.25, "snr_db": [20, 30, 40], "trials": 24576, "threads": 1,
             "out": "out.csv"},
            scheme_file=True,
        ),
        Workload(
            "certify-cdd",
            {"experiment": "certify-code", "scheme": "cdd", "k": 4, "n": 4, "r": 0.25,
             "snr_db": [20, 30], "codebook": "book.txt"},
            book_size=128,
        ),
    )
}

# Metric -> (unit, which direction is better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metric -> (unit, better, the end-to-end metric it should move and
# on which workloads).  Times are thread-seconds of self time in the traced
# run; "computed" sizes come from array shapes, not from a measurement.
LAYERS = {
    "channel_model.draw_s": ("s", "lower", "work_per_s on slope-cdd (~70% of compute); ~3% on exact-*"),
    "channel_model.draw_calls": ("count", "lower", "work_per_s on slope-cdd, exact-*"),
    "outage_analysis.jensen_s": ("s", "lower", "work_per_s on slope-cdd"),
    "outage_analysis.exact_s": ("s", "lower", "work_per_s on exact-cdd, exact-custom"),
    "outage_analysis.blocks": ("count", "lower", "work_per_s on slope-cdd, exact-*"),
    "outage_analysis.trials": ("count", "higher", "work_per_s on slope-cdd, exact-*"),
    "outage_analysis.exact_bytes_per_trial": ("B/trial", "lower", "peak_rss_mb on exact-* (computed)"),
    "outage_analysis.parallel_efficiency": ("ratio", "higher", "wall_s on slope-cdd"),
    "outage_analysis.bracket_s": ("s", "lower", "wall_s on slope-cdd"),
    "outage_analysis.fit_s": ("s", "lower", "wall_s on slope-cdd"),
    "relay_schemes.gramian_s": ("s", "lower", "setup_s on all; once per grid point on slope-cdd"),
    "relay_schemes.gramian_calls": ("count", "lower", "setup_s on slope-cdd"),
    "experiment_cli.build_scheme_s": ("s", "lower", "setup_s on exact-custom (scheme-file parse)"),
    "experiment_cli.load_codebook_s": ("s", "lower", "setup_s on certify-cdd"),
    "experiment_cli.write_s": ("s", "lower", "wall_s on slope-cdd, exact-* (CSV and manifest)"),
    "experiment_cli.other_s": ("s", "lower", "wall_s on all (wall minus traced spans)"),
    "codebook.difference_matrix_s": ("s", "lower", "work_per_s on certify-cdd"),
    "codebook.rank_full_s": ("s", "lower", "work_per_s on certify-cdd"),
    "codebook.cdd_condition_s": ("s", "lower", "work_per_s on certify-cdd"),
    "codebook.pairs": ("count", "higher", "work_per_s on certify-cdd"),
    "codebook.pair_loop_self_s": ("s", "lower", "work_per_s on certify-cdd"),
    "codebook.min_gram_s": ("s", "lower", "work_per_s on certify-cdd"),
    "codebook.min_gram_bytes_computed": ("B", "lower", "peak_rss_mb on certify-cdd (computed)"),
    "trace.overhead_s": ("s", "lower", "none (traced wall minus untraced wall)"),
}


@dataclasses.dataclass
class Launch:
    wall_s: float
    exit_code: int
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RELAYDIV_THREADS")}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    return env


def launch(cmd: list[str], cwd: Path) -> Launch:
    """Run one child to completion; time it from launch to exit and read its
    peak RSS from wait4.  A child still running after CHILD_TIMEOUT_S is
    killed."""
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    lock = threading.Lock()
    reaped = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)

        def expire():
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, expire)
        timer.start()
        try:
            # Wait without reaping, so the timer can never signal a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                reaped = True
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(
        wall_s=wall,
        exit_code=proc.returncode,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def _past_deadline(start: float, seconds: float, reps: int) -> bool:
    """True once another repetition, as long as the average one so far,
    would end after ``seconds``; so a measurement takes about ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + (elapsed / reps if reps else 0.0) > seconds


def cli_args(config: dict) -> list[str]:
    args = [config["experiment"]]
    for key, val in config.items():
        if key == "experiment":
            continue
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        args += ["--" + key.replace("_", "-"), str(val)]
    return args


class Bench:
    """One workload at one seed: generated inputs, child launches, checks."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.dir = work_dir
        self.config = dict(workload.config, seed=seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference_output: str | None = None
        self.reference_problems: list[str] = []
        self.scheme = None
        self.mu_ref = None
        cfg = self.config
        if workload.scheme_file:
            text = inputs.scheme_text(inputs.scheme_matrices(seed, cfg["k"], cfg["n"]))
            (work_dir / cfg["scheme"]).write_text(text, encoding="utf-8")
            self.scheme = inputs.load_scheme_text(text)
        elif cfg["scheme"] == "cdd":
            from relaydiv.relay_schemes import cyclic_delay_scheme

            self.scheme = cyclic_delay_scheme(cfg["k"], cfg["n"])
        if workload.book_size:
            words = inputs.codebook_words(seed, workload.book_size, cfg["n"])
            (work_dir / cfg["codebook"]).write_text(inputs.codebook_text(words), encoding="utf-8")
            self.mu_ref = inputs.reference_mu_min(words, cfg["k"])

    # -- operations ---------------------------------------------------------

    def _record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{what}: {p}" for p in problems]

    def setup_probe(self) -> Launch:
        return self._probe("setup probe", "setup_probe.py", json.dumps(self.config))

    def host_probe(self) -> Launch:
        return self._probe("host probe", "host_probe.py")

    def _probe(self, what: str, script: str, *args: str) -> Launch:
        res = launch([sys.executable, str(HERE / script), *args], self.dir)
        problems = [] if res.exit_code == 0 else [f"exit {res.exit_code}: {res.stderr[-500:]}"]
        self._record(what, problems)
        return res

    def cli(self, traced: bool = False, threads: int | None = None, tag: str = "cli"):
        """One CLI run; returns (launch, output text, spans or None).  The
        first output is checked; every later one must equal it byte for
        byte, and shares its check result."""
        config = dict(self.config) if threads is None else dict(self.config, threads=threads)
        spans_path = self.dir / "spans.json"
        for stale in (spans_path, self.dir / "out.csv", self.dir / "out.csv.manifest.json"):
            stale.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path)]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY]
        res = launch(cmd + cli_args(config), self.dir)
        output, problems = self._output(res)
        spans = None
        if traced and spans_path.exists():
            spans, serialize_s = tracer.load_spans(str(spans_path))
            res.wall_s -= serialize_s
        elif traced:
            problems.append("traced run wrote no spans")
        if output is not None and not problems:
            if self.reference_output is None:
                self.reference_output = output
                self.reference_problems = self.check(output)
            if output != self.reference_output:
                problems.append("output differs from the first run's output")
            problems += self.reference_problems
        self._record(tag, problems)
        return res, output, spans

    def _output(self, res: Launch) -> tuple[str | None, list[str]]:
        if res.exit_code != 0:
            return None, [f"exit {res.exit_code}: {res.stderr[-500:]}"]
        if self.workload.book_size:
            return res.stdout, []
        csv_path = self.dir / self.config["out"]
        if not csv_path.exists():
            return None, ["no CSV written"]
        return csv_path.read_text(encoding="utf-8"), []

    def check(self, output: str) -> list[str]:
        cfg = self.config
        if self.workload.book_size:
            return inputs.check_certify(output, self.workload.book_size, *self.mu_ref)
        trials = None if cfg["trials"] == "adaptive" else int(cfg["trials"])
        problems = inputs.check_sweep_csv(output, cfg["snr_db"], trials)
        manifest = self.dir / (cfg["out"] + ".manifest.json")
        manifest_text = manifest.read_text(encoding="utf-8") if manifest.exists() else None
        if cfg["experiment"] == "dm-slope":
            d_theory = cfg["k"] * (1.0 - 2.0 * cfg["r"])
            problems += inputs.check_slope(output, manifest_text, d_theory)
        elif manifest_text is None:
            problems.append("manifest missing")
        if cfg.get("outage") == "exact":
            problems += inputs.check_jensen_dominance(output, self.scheme, cfg["r"], self.seed)
        return problems

    def work_units(self) -> int:
        out = self.reference_output or ""
        if self.workload.book_size:
            m = re.search(r"^pairs checked: (\d+)$", out, re.MULTILINE)
            return int(m.group(1)) if m else 0
        return sum(int(row["trials"]) for row in inputs.read_csv(out))

    # -- measurements -------------------------------------------------------

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        # Warm-up: byte-compiles the package, fills file caches.
        self.host_probe()
        self.setup_probe()
        host, setup, wall, rss = [], [], [], []
        start = time.perf_counter()
        while len(wall) < MIN_REPS or not _past_deadline(start, seconds, len(wall)):
            host.append(self.host_probe().wall_s)
            setup.append(self.setup_probe().wall_s)
            res, _, _ = self.cli()
            wall.append(res.wall_s)
            rss.append(res.rss_mb)
        # The host's neighbours slow a vCPU by up to 2x, in stretches of
        # seconds to minutes, so raw medians of two runs can differ by 30%.
        # Each repetition's times are scaled by the host probe run just
        # before them, which the program cannot change; the median of the
        # scaled times then varies a few percent from run to run.
        scales = [HOST_PROBE_REF_S / h for h in host]
        wall_s = statistics.median(w * s for w, s in zip(wall, scales))
        setup_s = statistics.median(t * s for t, s in zip(setup, scales))
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "work_per_s": self.work_units() / (wall_s - setup_s),
            "peak_rss_mb": statistics.median(rss),
        }
        return metrics, {"wall_s": wall, "setup_s": setup, "host_probe_s": host,
                         "peak_rss_mb": rss, "work_units": self.work_units()}

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        untraced, traced, layers, est_1, est_n = [], [], [], [], []
        also_one_thread = self.config.get("threads", 1) > 1
        start = time.perf_counter()
        while not traced or not _past_deadline(start, seconds, len(traced)):
            res, _, _ = self.cli(tag="untraced cli")
            untraced_s = res.wall_s
            res, _, spans = self.cli(traced=True, tag="traced cli")
            if spans is None:
                break
            untraced.append(untraced_s)
            traced.append(res.wall_s)
            layers.append(tracer.layer_metrics(spans, res.wall_s))
            est_n.append(tracer.estimator_seconds(spans))
            if also_one_thread:
                # Determinism across thread counts, and the 1-thread time.
                res, _, spans = self.cli(traced=True, threads=1, tag="traced 1-thread cli")
                if spans is not None:
                    est_1.append(tracer.estimator_seconds(spans))
        metrics = {name: 0.0 for name in LAYERS}
        for name in layers[0] if layers else ():
            metrics[name] = statistics.median(row[name] for row in layers)
        cfg = self.config
        if cfg.get("outage") == "exact":
            metrics["outage_analysis.exact_bytes_per_trial"] = tracer.exact_bytes_per_trial(
                cfg["k"], cfg["n"]
            )
        if self.workload.book_size:
            pairs = self.workload.book_size * (self.workload.book_size - 1) // 2
            metrics["codebook.min_gram_bytes_computed"] = tracer.min_gram_bytes(
                pairs, cfg["k"], cfg["n"]
            )
        if est_1 and est_n:
            metrics["outage_analysis.parallel_efficiency"] = statistics.median(est_1) / (
                cfg["threads"] * statistics.median(est_n)
            )
        if traced:
            # Paired runs, so that host drift between them mostly cancels.
            metrics["trace.overhead_s"] = statistics.median(
                t - u for t, u in zip(traced, untraced)
            )
        return metrics, {"untraced_wall_s": untraced, "traced_wall_s": traced,
                         "layers": layers, "estimator_s_1_thread": est_1,
                         "estimator_s": est_n}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text(encoding="utf-8").strip()
        packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
        for line in packed.splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        return {"config": "unavailable"}


def environment(seed: int) -> dict:
    import numpy as np

    sources = hashlib.sha256()
    for path in sorted((SRC / "relaydiv").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version,
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": THREAD_ENV,
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "relaydiv" / "__init__.py").is_file():
        sys.stderr.write(f"no relaydiv sources under {SRC}\n")
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work_dir = WORK_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    bench = Bench(workload, args.seed, work_dir)
    if args.trace:
        values, samples = bench.per_layer(args.seconds)
        units = {name: unit for name, (unit, _, _) in LAYERS.items()}
    else:
        values, samples = bench.end_to_end(args.seconds)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    record = environment(args.seed)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (work_dir / "result.json").write_text(
        json.dumps({"workload": workload.name, "config": bench.config,
                    "record": record, "layers": LAYERS, "samples": samples,
                    "failures": bench.failures, "result": result}, indent=2),
        encoding="utf-8",
    )
    for failure in bench.failures:
        sys.stderr.write(f"FAILED {failure}\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
