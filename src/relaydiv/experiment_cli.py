"""Batch experiment front end.

Experiments are described by flat ``key = value`` config files (lists in
brackets, ``#`` comments) so a run is fully reproducible from the manifest
emitted next to every CSV.  Command-line flags override config keys.

Exit codes: 0 success, 1 identity check failure, 2 config error, 3 resource
limit, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .channel_model import complex_gaussian, effective_channel, two_hop
from .codebook import (
    Codebook,
    block_min_gram,
    cdd_condition,
    difference_matrix,
    pair_blocks,
    phase_rolling_condition,
    rank_full,
)
from .errors import (
    ConfigError,
    FileFormatError,
    InsufficientDataError,
    InternalConsistencyError,
    InvalidParameterError,
    ResourceLimitError,
)
from .information import jensen_form, jensen_mi, mutual_information
from .outage_analysis import (
    FADING_STREAM,
    MAX_THREADS,
    RHO_MAX,
    ProbEstimate,
    analytic_jensen_bracket,
    fit_diversity_slope,
    fit_points,
    jensen_outage_interval,
    mc_exact_outage,
    mc_jensen_outage,
    outage_constant,
    point_seed,
    product_rayleigh_cdf,
    resolve_threads,
    weighted_line_fit,
)
from .relay_schemes import (
    GramianSummary,
    RelayScheme,
    builtin_family,
    custom_scheme,
    cyclic_delay_scheme,
    dft_matrix,
    gramian,
    phase_rolling_scheme,
    unitary_scaling_deviations,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

_SELF_CHECK_SEED = 20240

# Versions of the closed-form code under a run, in its manifest: the
# adaptive trials' "trial_guess" (1 was the analytic bracket's lower
# envelope, 2 and 3 the Jensen-outage interval's lower end), dm-slope's
# "slope_calibration" of d_hat (1 was the bracket's upper envelope, 2 and 3
# the interval's upper end) and analytic-curve's "bracket_law", its
# product-Rayleigh code (1 was a K1 series, 2 and 3 a Bromwich contour sum).
# Each 2 stopped the E1 sums of a grid, or in F of an x, together.
TRIAL_GUESS = 3
SLOPE_CALIBRATION = 3
BRACKET_LAW = 3

# At interpreter exit CPython's final collections traverse every GC-tracked
# object (~22k once numpy is imported): 20-30 ms of a 25-40 ms exit on a
# 2-vCPU Xeon.  Outputs are written and renamed before then, and threading's
# shutdown (which joins the pool's workers) runs before atexit handlers, so
# moving every object into the permanent generation, which those collections
# skip, loses only the finalizers of objects in reference cycles, which
# CPython never promised to run at exit.  Registered at import, so a process
# that imports this module without calling main(), such as a set-up timing
# probe, exits alike.
atexit.register(gc.freeze)

# Highest snr_db entry, the outage functions' RHO_MAX in dB: exactly 3000.0.
# The lowest is its mirror, -3000 dB (rho = 1e-300), so that every rho^-2r
# with r <= 1/2 stays a float.
SNR_DB_MAX = 10.0 * math.log10(RHO_MAX)

OUTAGE_CSV_COLUMNS = ("snr_db", "probability", "ci_low", "ci_high", "trials", "events")
DM_SLOPE_EXTRA_COLUMNS = ("d_hat", "d_hat_raw", "d_hat_stderr", "d_theory")
ANALYTIC_CSV_COLUMNS = ("snr_db", "lower", "upper", "theory_exponent")


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

def _key(default, help: str):
    return field(default=default, metadata={"help": help})


@dataclass
class ExperimentConfig:
    """One run's settings.  Every field is a config key and, as
    ``--min-trials`` for ``min_trials``, a CLI flag with the help below."""

    experiment: str
    scheme: str = _key("cdd", "cdd, phase-rolling, or a scheme file path")
    k: int = _key(2, "relay count")
    n: int = _key(8, "block length")
    r: float = _key(0.0, "multiplexing gain in [0, 1/2]")
    snr_db: tuple[float, ...] = _key((), "comma-separated dB grid")
    trials: str = _key("adaptive", "'adaptive' or a fixed per-point count")
    min_trials: int = _key(100_000, "fewest trials of an adaptive point")
    max_trials: int = _key(10_000_000, "most trials of an adaptive point")
    min_events: int = _key(20, "fewest outage events of a point that a slope fit takes")
    rate_bits: float = _key(1.0, "fixed rate target of a slope fit at r = 0")
    outage: str = _key("jensen", "jensen or exact")
    seed: int = _key(1, "64-bit seed")
    codebook: str = _key("", "codebook file to certify")
    out: str = _key("", "output path")
    threads: int = _key(1, f"worker threads, 1 to {MAX_THREADS}; changes speed only, never results")

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "str" and not _writable(value, f.default):
                raise ConfigError(
                    f"{f.name} = {value!r} cannot be written to a config file: it must be "
                    "one line with no '#', no leading '[' and no surrounding blanks"
                )
        if not EXPERIMENTS[self.experiment].scheme:
            return
        if self.k < 1 or self.n < self.k:
            raise ConfigError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not 0.0 <= self.r <= 0.5:
            raise ConfigError(f"r must lie in [0, 1/2], got {self.r}")
        if not self.snr_db:
            raise ConfigError("snr_db grid must be nonempty")
        if not all(abs(v) <= SNR_DB_MAX for v in self.snr_db):
            raise ConfigError(f"snr_db entries must lie in [-{SNR_DB_MAX:g}, {SNR_DB_MAX:g}] dB, got {self.snr_db}")
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ConfigError("snr_db grid must be strictly increasing")
        # decided on rho, not dB: 1e-17 dB is above 0 but its rho rounds to 1
        low = [v for v in self.snr_db if not _rho(v) > 1.0]
        if EXPERIMENTS[self.experiment].outage_grid and low:
            raise ConfigError(
                f"{self.experiment} needs rho = 10^(snr_db/10) > 1 at every grid point; "
                f"snr_db entry {_fmt_number(low[0])} gives rho = {_rho(low[0])!r}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.min_trials < 1:
            raise ConfigError(f"min_trials must be >= 1, got {self.min_trials}")
        if self.max_trials < self.min_trials:
            raise ConfigError(
                f"max_trials = {self.max_trials} is below min_trials = {self.min_trials}"
            )
        if self.min_events < 0:
            raise ConfigError(f"min_events must be >= 0, got {self.min_events}")
        if self.trials != "adaptive":
            try:
                if int(self.trials) < 1:
                    raise ValueError
            except ValueError:
                raise ConfigError(f"trials must be 'adaptive' or a positive integer, got {self.trials!r}") from None
        if self.outage not in ("jensen", "exact"):
            raise ConfigError(f"outage must be 'jensen' or 'exact', got {self.outage!r}")
        if not (math.isfinite(self.rate_bits) and self.rate_bits >= 0):
            raise ConfigError(f"rate_bits must be a finite number >= 0, got {self.rate_bits}")

    def canonical_text(self) -> str:
        """Config serialized in the same grammar parse_config_text accepts:
        every key in field order except threads, which changes speed only,
        and unset strings."""
        lines = [
            f"{f.name} = {_FIELD_TYPES[f.type][1](getattr(self, f.name))}"
            for f in dataclasses.fields(self)
            if f.name != "threads" and getattr(self, f.name) != ""
        ]
        return "\n".join(lines) + "\n"


def _writable(value: str, default) -> bool:
    """Whether parse_config_text reads ``value`` back from canonical_text,
    which omits an empty string, so that only a default may be empty."""
    if not value:
        return default == ""
    return (value == value.strip() and "#" not in value and not value.startswith("[")
            and value.splitlines() == [value])


def _fmt_number(v) -> str:
    f = float(v)
    if math.isfinite(f) and f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _parse_grid(val) -> tuple[float, ...]:
    return tuple(float(v) for v in (val.split(",") if isinstance(val, str) else val))


def _grid_text(grid) -> str:
    return "[" + ", ".join(_fmt_number(v) for v in grid) + "]"


# Annotation of an ExperimentConfig field -> (parse a raw value, write a
# value for canonical_text).
_FIELD_TYPES = {
    "str": (str, str),
    "int": (lambda v: int(str(v)), str),
    "float": (lambda v: float(str(v)), _fmt_number),
    "tuple[float, ...]": (_parse_grid, _grid_text),
}

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Parse ``key = value`` lines into a raw dict; lists live in brackets."""
    values: dict = {}
    for lineno, line in _content_lines(text):
        if "=" not in line:
            raise FileFormatError(origin, lineno, 1, "expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if not key or not val:
            raise FileFormatError(origin, lineno, 1, "empty key or value")
        if val.startswith("["):
            if not val.endswith("]"):
                raise FileFormatError(origin, lineno, len(line), "unterminated list")
            items = [v.strip() for v in val[1:-1].split(",") if v.strip()]
            try:
                values[key] = tuple(float(v) for v in items)
            except ValueError:
                raise FileFormatError(origin, lineno, 1, f"bad list entry in {key}") from None
        else:
            values[key] = val
    return values


def config_from_mapping(raw: dict, origin: str = "<config>") -> ExperimentConfig:
    cfg_kwargs: dict = {}
    for key, val in raw.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{origin}: unknown config key {key!r}")
        kind = _CONFIG_FIELDS[key].type
        try:
            cfg_kwargs[key] = _FIELD_TYPES[kind][0](val)
        except (TypeError, ValueError):
            raise ConfigError(f"{origin}: key {key} needs {kind}, got {val!r}") from None
    if "experiment" not in cfg_kwargs:
        raise ConfigError(f"{origin}: missing 'experiment'")
    cfg = ExperimentConfig(**cfg_kwargs)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Scheme and codebook files
# ---------------------------------------------------------------------------

def _parse_matrix_rows(path: str, lines, count: int, width: int):
    """``count`` rows of ``2*width`` finite decimals (re, im interleaved)."""
    rows = np.empty((count, 2 * width))
    for idx in range(count):
        lineno, text = lines[idx]
        parts = text.split()
        if len(parts) != 2 * width:
            raise FileFormatError(
                path, lineno, 1, f"expected {2 * width} numbers, found {len(parts)}"
            )
        for col, token in enumerate(parts):
            try:
                value = float(token)
            except ValueError:
                raise FileFormatError(path, lineno, col + 1, f"bad number {token!r}") from None
            if not math.isfinite(value):
                raise FileFormatError(path, lineno, col + 1, f"non-finite number {token!r}")
            rows[idx, col] = value
    return rows.view(complex)  # (re, im) pairs are complex128's memory layout


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, text) of every line left once ``#`` comments and
    surrounding blanks are stripped; the grammar of all three file kinds."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _load_rows(path: str, second_key: str, rows_per_entry) -> tuple[int, int, np.ndarray]:
    """Header ``N <int> <second_key> <int>``, then the entries' rows of 2N
    decimals; returns N, the entry count and the (rows, N) complex array."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _content_lines(fh.read())
    if not lines:
        raise FileFormatError(path, 1, 1, "empty file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0].upper() != "N" or parts[2].upper() != second_key:
        raise FileFormatError(path, lineno, 1, f"header must read 'N <int> {second_key} <int>'")
    try:
        n, count = int(parts[1]), int(parts[3])
    except ValueError:
        raise FileFormatError(path, lineno, 1, "header sizes must be integers") from None
    if n < 1 or count < 1:
        raise FileFormatError(path, lineno, 1, f"header sizes must be positive, got {n} and {count}")
    rows = count * rows_per_entry(n)
    if len(lines) - 1 != rows:
        raise FileFormatError(path, lines[-1][0], 1, f"expected {rows} rows, found {len(lines) - 1}")
    return n, count, _parse_matrix_rows(path, lines[1:], rows, n)


def _save_rows(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(" ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row) + "\n")


def load_scheme_file(path: str) -> RelayScheme:
    """Scheme file: header ``N <int> K <int>``, then K*N matrix rows of
    2N whitespace-separated decimals (re, im interleaved)."""
    n, k, rows = _load_rows(path, "K", lambda n: n)
    return custom_scheme(rows.reshape(k, n, n), name=os.path.basename(path))


def load_codebook_file(path: str, r: float = 0.0, rho: float = 2.0) -> Codebook:
    """Codebook file: header ``N <int> COUNT <int>``, then COUNT codeword
    rows of 2N decimals.  Rate/SNR metadata comes from the caller."""
    _, _, words = _load_rows(path, "COUNT", lambda n: 1)
    return Codebook(words, rate_multiplexing=r, snr=rho)


def save_scheme_file(path: str, scheme: RelayScheme) -> None:
    n = scheme.block_length
    _save_rows(path, f"N {n} K {scheme.num_relays}", scheme.stacked().reshape(-1, n))


def save_codebook_file(path: str, book: Codebook) -> None:
    _save_rows(path, f"N {book.block_length} COUNT {book.size}", book.codewords)


def build_scheme(cfg: ExperimentConfig) -> RelayScheme:
    name = cfg.scheme.lower()
    if name == "cdd":
        return cyclic_delay_scheme(cfg.k, cfg.n)
    if name in ("phase-rolling", "phase_rolling"):
        return phase_rolling_scheme(cfg.k, cfg.n)
    scheme = load_scheme_file(cfg.scheme)
    if scheme.num_relays != cfg.k or scheme.block_length != cfg.n:
        raise ConfigError(
            f"scheme file is K={scheme.num_relays}, N={scheme.block_length}; "
            f"config says k={cfg.k}, n={cfg.n}"
        )
    return scheme


# ---------------------------------------------------------------------------
# CSV + manifest output
# ---------------------------------------------------------------------------

def _csv_cell(v) -> str:
    if isinstance(v, (int, np.integer)):  # bool included
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _check_out_path(path: str) -> None:
    """ConfigError unless ``path`` can be written: its directory must exist
    and be writable, and the path itself must not be a directory."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory} does not exist")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {directory} is not writable")
    if os.path.isdir(path):
        raise ConfigError(f"output path {path} is a directory")


def _write_atomic(path: str, text: str) -> None:
    """Write to a temp file in the target's directory, then os.replace it
    into place, so ``path`` is either absent, the old file or complete."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, columns, rows) -> None:
    lines = [",".join(columns)] + [",".join(_csv_cell(v) for v in row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def write_manifest(csv_path: str, cfg: ExperimentConfig, wall_time: float,
                   per_point_events, status: str = "ok", extra: dict | None = None) -> None:
    manifest = {
        "toolkit_version": __version__,
        "experiment": cfg.experiment,
        "config_text": cfg.canonical_text(),
        "wall_time_s": wall_time,
        "per_point_events": list(per_point_events),
        "status": status,
    }
    if extra:
        manifest.update(extra)
    # strict JSON has no NaN or Infinity: a failed fit's d_hat is written as null
    manifest = {key: None if isinstance(v, float) and not math.isfinite(v) else v
                for key, v in manifest.items()}
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    _write_atomic(csv_path + ".manifest.json", text + "\n")


def _curve_rows(curve: tuple[ProbEstimate, ...], extra: tuple = ()):
    for p in curve:
        yield (p.snr_db, p.probability, p.ci_low, p.ci_high, p.trials, p.events) + extra


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

@dataclass
class Output:
    """What main() prints (``text``) and writes: the CSV ``rows`` and the
    manifest fields, or for a report experiment ``text`` again."""

    text: str
    rows: Iterable = ()
    events: Sequence[int] = ()
    status: str = "ok"
    extra: dict | None = None
    code: int = EXIT_OK


def _rho(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _grid_guess(cfg: ExperimentConfig, gram: GramianSummary, rate_bits: float | None):
    """Each grid point's outage constant c and the lower and upper ends of
    its Jensen-outage interval, as arrays over the grid, from the one
    Gramian."""
    rhos = [_rho(db) for db in cfg.snr_db]
    rates = [cfg.r * math.log2(rho) if rate_bits is None else rate_bits for rho in rhos]
    c = np.array([outage_constant(gram.block_length, rate, rho) for rate, rho in zip(rates, rhos)])
    return (c, *jensen_outage_interval(gram, c))


def _grid_trials(cfg: ExperimentConfig, c, lower) -> list[int]:
    """Each grid point's trials: fixed, or adaptive ones aimed at 200 events
    at ``lower``, the lower end of the point's Jensen-outage interval, and
    clamped to [min_trials, max_trials]; a lower end of 0 takes max_trials,
    and c = 0 (never in outage) or c = inf (always) takes min_trials."""
    if cfg.trials != "adaptive":
        return [int(cfg.trials)] * len(cfg.snr_db)
    # a float quotient, unlike a numpy one, overflows to inf without a warning
    return [cfg.min_trials if point_c in (0.0, math.inf)
            else cfg.max_trials if p <= 0
            else int(min(cfg.max_trials, max(cfg.min_trials, 200.0 / float(p))))
            for point_c, p in zip(c, lower)]


def _sweep_curve(cfg: ExperimentConfig, scheme: RelayScheme, trials: list, *,
                 rate_bits: float | None) -> tuple[ProbEstimate, ...]:
    estimator = mc_jensen_outage if cfg.outage == "jensen" else mc_exact_outage
    points = []
    for index, (db, count) in enumerate(zip(cfg.snr_db, trials)):
        est = estimator(
            scheme, cfg.r, _rho(db), count, point_seed(cfg.seed, index),
            rate_bits=rate_bits, threads=cfg.threads,
        )
        points.append(dataclasses.replace(est, snr_db=float(db)))
    return tuple(points)


def run_outage_sweep(cfg: ExperimentConfig) -> tuple[ProbEstimate, ...]:
    """One outage estimate per grid point; threshold is r log2(rho) per the
    outage definition, so an r = 0 sweep reports exact zeros.  Only adaptive
    trials need the Gramian, for the Jensen-outage interval."""
    scheme = build_scheme(cfg)
    c = lower = None
    if cfg.trials == "adaptive":
        c, lower, _ = _grid_guess(cfg, gramian(scheme), None)
    return _sweep_curve(cfg, scheme, _grid_trials(cfg, c, lower), rate_bits=None)


@dataclass
class SlopeReport:
    d_hat: float = math.nan
    d_hat_raw: float = math.nan
    stderr: float = math.nan
    d_theory: float = math.nan
    points_used: int = 0
    status: str = "ok"


def run_dm_slope(cfg: ExperimentConfig) -> tuple[tuple[ProbEstimate, ...], SlopeReport]:
    """Jensen-outage sweep plus diversity-slope extraction.

    At r = 0 the outage threshold is held at ``rate_bits`` (rate fixed in
    SNR), the convention under which the fixed-rate outage slope measures
    the r -> 0 diversity K.  The raw log-log slope is biased low at desk
    SNR by the slowly varying factor of the outage law, so the headline
    d_hat = d_hat_raw + d_theory - d_curve, with d_curve the same weighted
    fit of log2 P_I(c / lambda_min), the Jensen-outage interval's upper end
    (exponent K(1-2r)); at Gramian I that is the exact Jensen-outage curve,
    which ``outage = exact`` runs are calibrated on too.  Where it is 1 at a
    fit point (a near-singular Gramian) it has no slope, and d_hat is NaN
    with a warning; a singular Gramian is refused before any Monte Carlo.
    """
    if len(cfg.snr_db) < 3:
        raise ConfigError("a slope fit needs a grid of at least 3 points")
    scheme = build_scheme(cfg)
    gram = gramian(scheme)
    if gram.lambda_min <= 0:
        raise ConfigError("dm-slope calibrates d_hat on P_I(c / lambda_min), which needs "
                          "a full-rank Gramian (lambda_min > 0)")
    rate_bits = cfg.rate_bits if cfg.r == 0 else None
    c, lower, upper = _grid_guess(cfg, gram, rate_bits)
    curve = _sweep_curve(cfg, scheme, _grid_trials(cfg, c, lower), rate_bits=rate_bits)
    report = SlopeReport(d_theory=cfg.k * (1.0 - 2.0 * cfg.r))
    try:
        fit = fit_diversity_slope(curve, min_events=cfg.min_events)
    except InsufficientDataError as exc:
        report.status = f"warning: insufficient events for a slope fit ({exc})"
        return curve, report
    report.d_hat_raw = fit.d_hat
    report.stderr = fit.stderr
    report.points_used = len(fit.used)
    calibration = upper[list(fit.used)]
    if not np.all(calibration < 1.0):
        report.status = ("warning: the Jensen-outage interval's upper end is 1 at a fit point, "
                         "so d_hat cannot be calibrated")
        return curve, report
    x, _, w = fit_points([curve[i] for i in fit.used])
    _, slope, _ = weighted_line_fit(x, np.log2(calibration), w)
    report.d_hat = fit.d_hat + report.d_theory + slope
    if report.points_used < len(curve):
        report.status = (
            f"warning: {len(curve) - report.points_used} grid points below "
            f"min_events={cfg.min_events} were excluded from the fit"
        )
    return curve, report


def _analytic_curve(cfg: ExperimentConfig) -> Output:
    """Analytic Jensen-outage bracket over the SNR grid, from the one
    Gramian; a singular Gramian is a config error, raised by the first
    bracket."""
    gram = gramian(build_scheme(cfg))
    theory = cfg.k * (1.0 - 2.0 * cfg.r)
    rows = [(float(db), *analytic_jensen_bracket(gram, cfg.r, _rho(db)), theory) for db in cfg.snr_db]
    return Output(f"wrote {cfg.out} ({len(rows)} points)\n", rows,
                  extra={"bracket_law": BRACKET_LAW})


@dataclass
class CertificationReport:
    certified: bool
    pairs_checked: int
    mu_min: float
    first_violation: str = ""
    universal_verdicts: tuple = ()
    simplified_agreement: str = "n/a"
    text: str = ""


CERTIFY_BOOK_CAP = 4096  # pair enumeration is quadratic in the book size


def run_certify(cfg: ExperimentConfig) -> CertificationReport:
    """Check every codeword pair of a codebook against the full-rank
    condition, report the minimum Gramian eigenvalue and per-SNR
    approximate-universality verdicts, and, when the scheme holds exactly
    the CDD or phase-rolling matrices, cross-check that family's simplified
    condition against the SVD rank oracle."""
    if not cfg.codebook:
        raise ConfigError("certification needs a codebook path")
    scheme = build_scheme(cfg)
    book = load_codebook_file(cfg.codebook)
    if book.size > CERTIFY_BOOK_CAP:
        raise ResourceLimitError("codebook too large to certify", book.size, CERTIFY_BOOK_CAP)
    if book.block_length != scheme.block_length:
        raise ConfigError(
            f"codebook N={book.block_length} does not match scheme N={scheme.block_length}"
        )
    k, n = scheme.num_relays, scheme.block_length
    family = builtin_family(scheme)
    simplified = {"cdd": cdd_condition, "phase-rolling": phase_rolling_condition}.get(family)
    first_violation = ""
    mu = math.inf
    # One pass over the pairs, in blocks: no array grows with the pair count.
    for idx_a, idx_b, dx in pair_blocks(book):
        phi = difference_matrix(scheme, dx)
        full = np.array([rank_full(p) for p in phi])
        if simplified is not None:
            wrong = simplified(dx, k) != full
            if wrong.any():
                i = np.argmax(wrong)
                raise InternalConsistencyError(
                    f"simplified condition disagrees with SVD rank on pair ({idx_a[i]}, {idx_b[i]})"
                )
        if not first_violation and not full.all():
            i = np.argmin(full)
            sv = [float(f"{v:.3e}") for v in np.linalg.svd(phi[i], compute_uv=False)]
            first_violation = f"pair ({idx_a[i]}, {idx_b[i]}): rank deficient, singular values {sv}"
        mu = min(mu, block_min_gram(scheme, dx, phi))
    certified = not first_violation
    pairs = book.size * (book.size - 1) // 2
    lines = [
        "codebook certification report",
        f"scheme: {scheme.name} K={k} N={n}",
        f"codebook: {cfg.codebook} ({book.size} codewords)",
        f"pairs checked: {pairs}",
        f"full-rank condition: {'PASS (all pairs)' if certified else 'FAIL'}",
    ]
    if first_violation:
        lines.append(f"first violation: {first_violation}")
    lines.append(f"mu_min: {mu!r}")
    verdicts = []
    for db in cfg.snr_db:
        threshold = _rho(db) ** (-2.0 * cfg.r)
        verdicts.append((float(db), mu > threshold, threshold))
        lines.append(
            f"approximately-universal @ snr_db={_fmt_number(db)} r={_fmt_number(cfg.r)}: "
            f"{'PASS' if mu > threshold else 'FAIL'} (threshold rho^-2r = {threshold!r})"
        )
    agreement = "n/a"
    if simplified is not None:
        agreement = f"{pairs}/{pairs}"  # a disagreement raised above
        lines.append(f"simplified-condition agreement ({family}): {agreement} pairs consistent")
    return CertificationReport(
        certified=certified, pairs_checked=pairs, mu_min=mu, first_violation=first_violation,
        universal_verdicts=tuple(verdicts), simplified_agreement=agreement,
        text="\n".join(lines) + "\n",
    )


# ---------------------------------------------------------------------------
# Self check: the paper's identities, each measured by one function that the
# self check and the acceptance tests share
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    tolerance: float
    measured: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


def duality_deviations(sizes) -> tuple[float, float, float]:
    """Worst deviations over the (K, N) in ``sizes`` of Lambda_i = F P_i F^H,
    P_i = F^H Lambda_i F and tr(P_i P_j^H) = N delta_ij, where P_i and
    Lambda_i are sqrt(N) G_i of CDD and of phase rolling."""
    dual = diag = orth = 0.0
    for k, n in sizes:
        f = dft_matrix(n)
        perms = cyclic_delay_scheme(k, n).stacked() * np.sqrt(n)
        lams = phase_rolling_scheme(k, n).stacked() * np.sqrt(n)
        recon = np.einsum("ab,ibc,cd->iad", f, perms, f.conj().T, optimize=True)
        dual = max(dual, float(np.abs(recon - lams).max()))
        recon = np.einsum("ab,ibc,cd->iad", f.conj().T, lams, f, optimize=True)
        diag = max(diag, float(np.abs(recon - perms).max()))
        inner = perms.reshape(k, -1) @ perms.reshape(k, -1).conj().T
        orth = max(orth, float(np.abs(inner - n * np.eye(k)).max()))
    return dual, diag, orth


def gramian_deviations(schemes, draws: int, rng: np.random.Generator) -> tuple[float, float]:
    """Over ``draws`` draws dealt to ``schemes`` in turn at SNRs log-uniform
    in [1, 10^4]: the worst relative gap between ||H_eff||_F^2 and the
    Gramian quadratic form h~^H gram h~ / (1 + ||h||^2), and the worst excess
    of exact over Jensen MI.  Each scheme's draws are one stack: its f and h,
    then its rho."""
    dev_gram = dev_jensen = 0.0
    for i, scheme in enumerate(schemes):
        count = len(range(i, draws, len(schemes)))
        if not count:
            continue
        f, h = complex_gaussian(rng, (2, count, scheme.num_relays))
        rho = 10.0 ** rng.uniform(0, 4, count)
        ht, noise = two_hop(f, h)
        heff = effective_channel(ht, noise, scheme.stacked())
        fro2 = np.sum(np.abs(heff) ** 2, axis=(-2, -1))
        form = jensen_form(gramian(scheme), ht, 1.0) / noise
        jm = jensen_mi(heff, rho)
        # np.maximum, unlike max(), keeps a NaN, and a NaN fails the check
        dev_gram = np.maximum(dev_gram, np.max(np.abs(fro2 - form) / fro2))
        dev_jensen = np.maximum(dev_jensen, np.max(mutual_information(heff, rho) - jm))
    return float(dev_gram), float(dev_jensen)


def product_rayleigh_deviation(draws: int, x_max: float, points: int,
                               rng: np.random.Generator) -> float:
    """Sup-distance on ``points`` grid points in [0, x_max] between the
    product-Rayleigh CDF and the empirical CDF of ``draws`` draws of |a||b|."""
    magnitudes = np.abs(complex_gaussian(rng, draws)) * np.abs(complex_gaussian(rng, draws))
    magnitudes.sort()
    grid = np.linspace(0.0, x_max, points)
    analytic = product_rayleigh_cdf(grid)
    empirical = np.searchsorted(magnitudes, grid, side="right") / draws
    return float(np.abs(analytic - empirical).max())


def run_self_check() -> tuple[list[CheckResult], str]:
    """Named identity checks with tolerances and measured deviations."""
    rng = np.random.default_rng(_SELF_CHECK_SEED)
    sizes = [(1, 1), (1, 4), (2, 2), (2, 8), (3, 8), (4, 16), (8, 8)]
    schemes = [make(k, n) for k, n in sizes for make in (cyclic_delay_scheme, phase_rolling_scheme)]

    unitary = max(float(unitary_scaling_deviations(s.stacked()).max()) for s in schemes)

    dft = 0.0
    for n in (1, 2, 3, 4, 8, 16, 64):
        f = dft_matrix(n)
        dft = max(dft, float(np.abs(f @ f.conj().T - np.eye(n)).max()))

    dual, diag, orth = duality_deviations(sizes)
    dev_gram, dev_jensen = gramian_deviations(schemes, 200, rng)
    sup_dist = product_rayleigh_deviation(1_000_000, 6.0, 1201, rng)
    results = [
        CheckResult("unitary-scaling G G^H = I/N", 1e-12, unitary),
        CheckResult("DFT unitarity F F^H = I", 1e-12, dft),
        CheckResult("circulant diagonalization P = F^H Lambda F", 1e-12, diag),
        CheckResult("time-frequency duality G_pr = F P F^H / sqrt(N)", 1e-12, dual),
        CheckResult("shift-matrix orthogonality tr(P_i P_j^H) = N delta", 1e-12, orth),
        CheckResult("Gramian quadratic-form identity (relative)", 1e-10, dev_gram),
        CheckResult("Jensen dominance exact MI <= Jensen MI", 1e-9, dev_jensen),
        CheckResult("product-Rayleigh CDF sup-distance (MC)", 5e-3, sup_dist),
    ]
    lines = ["self-check report"]
    for res in results:
        lines.append(
            f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: "
            f"measured {res.measured:.3e}, tolerance {res.tolerance:.0e}"
        )
    return results, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Experiment table
# ---------------------------------------------------------------------------

def _outage_sweep(cfg: ExperimentConfig) -> Output:
    curve = run_outage_sweep(cfg)
    return Output(f"wrote {cfg.out} ({len(curve)} points)\n", _curve_rows(curve),
                  [p.events for p in curve], extra=_monte_carlo_fields(cfg, curve))


def _dm_slope(cfg: ExperimentConfig) -> Output:
    curve, report = run_dm_slope(cfg)
    extra = (report.d_hat, report.d_hat_raw, report.stderr, report.d_theory)
    return Output(
        f"wrote {cfg.out}: d_hat={report.d_hat!r} (raw {report.d_hat_raw!r}, "
        f"theory {report.d_theory!r})\n",
        _curve_rows(curve, extra), [p.events for p in curve], status=report.status,
        extra={"d_hat": report.d_hat, "d_hat_raw": report.d_hat_raw,
               "d_theory": report.d_theory, "points_used": report.points_used,
               "slope_calibration": SLOPE_CALIBRATION, **_monte_carlo_fields(cfg, curve)},
    )


def _monte_carlo_fields(cfg: ExperimentConfig, curve: tuple[ProbEstimate, ...]) -> dict:
    """Manifest fields that name what produced a Monte Carlo curve's bits:
    the MI kernel its estimates report, the version of the fading stream
    and, for adaptive trials, the version of their guess."""
    guess = {"trial_guess": TRIAL_GUESS} if cfg.trials == "adaptive" else {}
    return {"mi_kernel": curve[0].mi_kernel, "stream": FADING_STREAM, **guess}


def _certify_code(cfg: ExperimentConfig) -> Output:
    return Output(run_certify(cfg).text)


def _self_check(cfg: ExperimentConfig) -> Output:
    results, text = run_self_check()
    return Output(text, code=EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED)


class Experiment(NamedTuple):
    run: Callable[[ExperimentConfig], Output]
    columns: tuple = ()  # CSV header; a CSV experiment requires out= and writes a manifest
    scheme: bool = True  # validates the scheme, grid and estimator keys
    outage_grid: bool = True  # evaluates outage at each grid point, which needs rho > 1


EXPERIMENTS = {
    "outage-sweep": Experiment(_outage_sweep, OUTAGE_CSV_COLUMNS),
    "dm-slope": Experiment(_dm_slope, OUTAGE_CSV_COLUMNS + DM_SLOPE_EXTRA_COLUMNS),
    "certify-code": Experiment(_certify_code, outage_grid=False),
    "analytic-curve": Experiment(_analytic_curve, ANALYTIC_CSV_COLUMNS),
    "self-check": Experiment(_self_check, scheme=False),
}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaydiv",
        description="Two-hop relay diversity experiments (outage Monte Carlo, "
        "diversity slopes, code certification, analytic curves).  Flags "
        "override config-file keys; every experiment takes every key and "
        "ignores those it does not use.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="experiment config file (key = value lines)")
    for key, f in _CONFIG_FIELDS.items():
        if key != "experiment":
            parser.add_argument("--" + key.replace("_", "-"), help=f.metadata["help"])
    return parser


def _effective_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw.update(parse_config_text(fh.read(), origin=args.config))
    for key in _CONFIG_FIELDS:
        val = getattr(args, key)
        if val is not None:
            raw[key] = val
    return config_from_mapping(raw, origin=args.config or "<cli>")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        resolve_threads(cfg.threads)
        experiment = EXPERIMENTS[cfg.experiment]
        if experiment.columns and not cfg.out:
            raise ConfigError(f"{cfg.experiment} writes a CSV; set out= or --out")
        if cfg.out:
            _check_out_path(cfg.out)
        started = time.monotonic()
        result = experiment.run(cfg)
        if experiment.columns:
            write_csv(cfg.out, experiment.columns, result.rows)
            write_manifest(cfg.out, cfg, time.monotonic() - started, result.events,
                           status=result.status, extra=result.extra)
        elif cfg.out:
            _write_atomic(cfg.out, result.text)
        sys.stdout.write(result.text)
        if result.status != "ok":
            sys.stderr.write(result.status + "\n")
        return result.code
    except (ConfigError, FileFormatError, InvalidParameterError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
