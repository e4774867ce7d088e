"""Span tracing for one relaydiv CLI process, and the per-layer analysis.

Run as a script, this is the traced CLI:

    python3 benchmarks/tracer.py SPANS.json <relaydiv CLI arguments...>

It installs wrappers around public functions at the names their callers
look up, runs ``relaydiv.experiment_cli.main`` on the arguments, writes the
recorded spans to SPANS.json and exits with the CLI's exit code.  Spans stay
in memory until the CLI returns.  A wrapped name that does not exist in the
program is skipped, so the layers it measures read zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# (module, attribute looked up by the caller, span name).  The fading draw is
# wrapped where the estimators find it, in outage_analysis, not in
# channel_model; the estimators and codebook functions are wrapped as the
# globals of experiment_cli that the runners call.
WRAPPED = (
    ("relaydiv.outage_analysis", "complex_gaussian", "channel_model.draw"),
    ("relaydiv.outage_analysis", "gramian", "relay_schemes.gramian"),
    ("relaydiv.experiment_cli", "gramian", "relay_schemes.gramian"),
    ("relaydiv.experiment_cli", "mc_jensen_outage", "outage_analysis.jensen"),
    ("relaydiv.experiment_cli", "mc_exact_outage", "outage_analysis.exact"),
    ("relaydiv.experiment_cli", "analytic_jensen_bracket", "outage_analysis.bracket"),
    ("relaydiv.experiment_cli", "fit_diversity_slope", "outage_analysis.fit"),
    ("relaydiv.experiment_cli", "fit_points", "outage_analysis.fit"),
    ("relaydiv.experiment_cli", "weighted_line_fit", "outage_analysis.fit"),
    ("relaydiv.experiment_cli", "build_scheme", "experiment_cli.build_scheme"),
    ("relaydiv.experiment_cli", "load_codebook_file", "experiment_cli.load_codebook"),
    ("relaydiv.experiment_cli", "write_csv", "experiment_cli.write"),
    ("relaydiv.experiment_cli", "write_manifest", "experiment_cli.write"),
    ("relaydiv.experiment_cli", "run_certify", "experiment_cli.run_certify"),
    ("relaydiv.experiment_cli", "pair_differences", "codebook.pair_differences"),
    ("relaydiv.experiment_cli", "difference_matrix", "codebook.difference_matrix"),
    ("relaydiv.experiment_cli", "rank_full", "codebook.rank_full"),
    ("relaydiv.experiment_cli", "cdd_condition", "codebook.cdd_condition"),
    ("relaydiv.experiment_cli", "min_gram_eigenvalue", "codebook.min_gram"),
)

# Estimator spans record their ``trials`` argument as work.
_TRIALS_ARG = {"outage_analysis.jensen": 3, "outage_analysis.exact": 3}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a root span
    thread: int
    work: int


class Recorder:
    """Collects spans in memory.  A span's parent is the innermost open span
    of its thread; a worker thread with no open span takes the innermost
    open span of the main thread, which is the call that started it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn, trials_arg: int | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            work = 0
            if trials_arg is not None:
                work = int(args[trials_arg] if len(args) > trials_arg else kwargs["trials"])
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), work)
                )

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPPED plus the Monte Carlo block function."""
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(span_name, fn, _TRIALS_ARG.get(span_name)))
        outage = importlib.import_module("relaydiv.outage_analysis")
        count = getattr(outage, "_mc_event_count", None)
        if count is not None:
            # Each Monte Carlo block becomes a span, in whichever worker
            # thread runs it, so kernel time is counted per thread.
            def traced_count(trials, seed, threads, block_events):
                return count(trials, seed, threads, self.wrap("outage_analysis.block", block_events))

            outage._mc_event_count = traced_count


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = (s.end - s.start) - _union_length([iv for iv in covered if iv[1] > iv[0]])
    return out


def exact_bytes_per_trial(k: int, n: int) -> int:
    """Bytes of the arrays the exact-MI path materialises per trial,
    computed from their shapes, not measured: the fading draw (two real
    normal arrays, then three complex temporaries, 2K entries each), h*f and
    ||h||^2 terms, H_eff and H H^H (N x N complex each, plus the conjugate
    copy), and the N eigenvalues with the log2 temporaries."""
    draw = 2 * (2 * k) * 8 + 3 * (2 * k) * 16
    per_relay = k * 16 + 2 * k * 8 + 8
    matrices = 3 * n * n * 16
    eig = 4 * n * 8 + 8
    return draw + per_relay + matrices + eig


def min_gram_bytes(pairs: int, k: int, n: int) -> int:
    """Bytes of the arrays ``min_gram_eigenvalue`` materialises, computed
    from their shapes: the pair indices, both codeword gathers and their
    difference (P, N), Phi and its conjugate (P, N, K), the Gramians
    (P, K, K) with the eigensolver's copy, and the eigenvalues (P, K)."""
    return pairs * (2 * 8 + 3 * n * 16 + 2 * n * k * 16 + 2 * k * k * 16 + k * 8)


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer times (thread-seconds of self time) and counts of one
    traced CLI process; ``wall_s`` excludes the tracer's own output."""
    self_t = self_times(spans)
    by_id = {s.id: s for s in spans}
    total = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for s in spans:
        name = s.name
        if name == "outage_analysis.block":
            # A block's kernel and reduction belong to its estimator.
            parent = by_id.get(s.parent)
            name = parent.name if parent is not None else name
        total[name] += self_t[s.id]
        calls[s.name] += 1
        work[s.name] += s.work
    roots = sum(s.end - s.start for s in spans if s.parent == 0)
    return {
        "channel_model.draw_s": total["channel_model.draw"],
        "channel_model.draw_calls": calls["channel_model.draw"],
        "outage_analysis.jensen_s": total["outage_analysis.jensen"],
        "outage_analysis.exact_s": total["outage_analysis.exact"],
        "outage_analysis.blocks": calls["outage_analysis.block"],
        "outage_analysis.trials": work["outage_analysis.jensen"] + work["outage_analysis.exact"],
        "outage_analysis.bracket_s": total["outage_analysis.bracket"],
        "outage_analysis.fit_s": total["outage_analysis.fit"],
        "relay_schemes.gramian_s": total["relay_schemes.gramian"],
        "relay_schemes.gramian_calls": calls["relay_schemes.gramian"],
        "experiment_cli.build_scheme_s": total["experiment_cli.build_scheme"],
        "experiment_cli.load_codebook_s": total["experiment_cli.load_codebook"],
        "experiment_cli.write_s": total["experiment_cli.write"],
        "experiment_cli.other_s": wall_s - roots,
        "codebook.difference_matrix_s": total["codebook.difference_matrix"],
        "codebook.rank_full_s": total["codebook.rank_full"],
        "codebook.cdd_condition_s": total["codebook.cdd_condition"],
        "codebook.pairs": calls["codebook.rank_full"],
        "codebook.pair_loop_self_s": total["experiment_cli.run_certify"],
        "codebook.min_gram_s": total["codebook.min_gram"],
    }


def estimator_seconds(spans: list[Span]) -> float:
    """Wall time spent inside the Monte Carlo estimators."""
    return sum(
        s.end - s.start
        for s in spans
        if s.name in ("outage_analysis.jensen", "outage_analysis.exact")
    )


def load_spans(path: str) -> tuple[list[Span], float]:
    """Spans of a traced run and the time the run spent serialising them."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [Span(*row) for row in doc["spans"]], doc["serialize_s"]


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from relaydiv.experiment_cli import main as cli_main

    try:
        code = cli_main(cli_args)
    finally:
        start = time.perf_counter()
        spans = json.dumps(recorder.spans)
        serialize_s = time.perf_counter() - start
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"serialize_s": {serialize_s!r}, "spans": {spans}}}')
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
