"""Batch experiment front end.

Experiments are described by flat ``key = value`` config files (lists in
brackets, ``#`` comments) so a run is fully reproducible from the manifest
emitted next to every CSV.  Command-line flags override config keys.

Exit codes: 0 success, 1 self-check failure, 2 config error, 3 resource
limit, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel_model import effective_channel, sample_channel
from .codebook import (
    Codebook,
    cdd_condition,
    difference_matrix,
    min_gram_eigenvalue,
    pair_differences,
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
from .information import jensen_mi, jensen_mi_via_gramian, mutual_information
from .outage_analysis import (
    OutageCurve,
    ProbEstimate,
    adaptive_trials,
    analytic_jensen_bracket,
    exact_mi_kernel,
    fit_diversity_slope,
    fit_points,
    mc_exact_outage,
    mc_jensen_outage,
    product_rayleigh_cdf,
    resolve_threads,
    weighted_line_fit,
)
from .relay_schemes import (
    RelayScheme,
    custom_scheme,
    cyclic_delay_scheme,
    dft_matrix,
    gramian,
    phase_rolling_scheme,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

EXPERIMENTS = ("outage-sweep", "dm-slope", "certify-code", "analytic-curve", "self-check")

_SELF_CHECK_SEED = 20240

OUTAGE_CSV_COLUMNS = ("snr_db", "probability", "ci_low", "ci_high", "trials", "events")
DM_SLOPE_EXTRA_COLUMNS = ("d_hat", "d_hat_raw", "d_hat_stderr", "d_theory")
ANALYTIC_CSV_COLUMNS = ("snr_db", "lower", "upper", "theory_exponent")


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    experiment: str
    scheme: str = "cdd"
    k: int = 2
    n: int = 8
    r: float = 0.0
    snr_db: tuple[float, ...] = ()
    trials: str = "adaptive"  # "adaptive" or a decimal trial count
    min_trials: int = 100_000
    max_trials: int = 10_000_000
    min_events: int = 20
    rate_bits: float = 1.0
    outage: str = "jensen"
    seed: int = 1
    out: str = ""
    codebook: str = ""
    threads: int | None = None

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.experiment == "self-check":
            return
        if self.k < 1 or self.n < self.k:
            raise ConfigError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not 0.0 <= self.r <= 0.5:
            raise ConfigError(f"r must lie in [0, 1/2], got {self.r}")
        if not self.snr_db:
            raise ConfigError("snr_db grid must be nonempty")
        if not all(math.isfinite(v) for v in self.snr_db):
            raise ConfigError(f"snr_db entries must be finite numbers, got {self.snr_db}")
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ConfigError("snr_db grid must be strictly increasing")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
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
        if self.experiment == "certify-code" and not self.codebook:
            raise ConfigError("certify-code needs a codebook path")

    def canonical_text(self) -> str:
        """Config serialized in the same grammar parse_config_text accepts."""
        lines = [f"experiment = {self.experiment}"]
        if self.experiment != "self-check":
            grid = ", ".join(_fmt_number(v) for v in self.snr_db)
            lines += [
                f"scheme = {self.scheme}",
                f"k = {self.k}",
                f"n = {self.n}",
                f"r = {_fmt_number(self.r)}",
                f"snr_db = [{grid}]",
                f"trials = {self.trials}",
                f"min_trials = {self.min_trials}",
                f"max_trials = {self.max_trials}",
                f"min_events = {self.min_events}",
                f"rate_bits = {_fmt_number(self.rate_bits)}",
                f"outage = {self.outage}",
                f"seed = {self.seed}",
            ]
            if self.codebook:
                lines.append(f"codebook = {self.codebook}")
        if self.out:
            lines.append(f"out = {self.out}")
        return "\n".join(lines) + "\n"


_INT_KEYS = {"k", "n", "min_trials", "max_trials", "min_events", "seed", "threads"}
_FLOAT_KEYS = {"r", "rate_bits"}
_STR_KEYS = {"experiment", "scheme", "trials", "outage", "out", "codebook"}


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Parse ``key = value`` lines into a raw dict; lists live in brackets."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
        if key == "snr_db":
            if isinstance(val, str):
                try:
                    val = tuple(float(v) for v in val.split(","))
                except ValueError:
                    raise ConfigError(f"{origin}: bad snr_db value {val!r}") from None
            cfg_kwargs[key] = tuple(float(v) for v in val)
        elif key in _INT_KEYS:
            try:
                cfg_kwargs[key] = int(str(val))
            except ValueError:
                raise ConfigError(f"{origin}: key {key} needs an integer, got {val!r}") from None
        elif key in _FLOAT_KEYS:
            try:
                cfg_kwargs[key] = float(str(val))
            except ValueError:
                raise ConfigError(f"{origin}: key {key} needs a number, got {val!r}") from None
        elif key in _STR_KEYS:
            cfg_kwargs[key] = str(val)
        else:
            raise ConfigError(f"{origin}: unknown config key {key!r}")
    if "experiment" not in cfg_kwargs:
        raise ConfigError(f"{origin}: missing 'experiment'")
    cfg = ExperimentConfig(**cfg_kwargs)
    cfg.validate()
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read(), origin=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


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


def _content_lines(path: str, text: str):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    if not out:
        raise FileFormatError(path, 1, 1, "empty file")
    return out


def _parse_header(path: str, lineno: int, line: str, second_key: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 4 or parts[0].upper() != "N" or parts[2].upper() != second_key:
        raise FileFormatError(path, lineno, 1, f"header must read 'N <int> {second_key} <int>'")
    try:
        return int(parts[1]), int(parts[3])
    except ValueError:
        raise FileFormatError(path, lineno, 1, "header sizes must be integers") from None


def load_scheme_file(path: str) -> RelayScheme:
    """Scheme file: header ``N <int> K <int>``, then K*N matrix rows of
    2N whitespace-separated decimals (re, im interleaved)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _content_lines(path, fh.read())
    n, k = _parse_header(path, lines[0][0], lines[0][1], "K")
    body = lines[1:]
    if len(body) != k * n:
        raise FileFormatError(
            path, lines[-1][0], 1, f"expected {k * n} matrix rows, found {len(body)}"
        )
    mats = []
    for i in range(k):
        mats.append(_parse_matrix_rows(path, body[i * n : (i + 1) * n], n, n))
    return custom_scheme(mats, name=os.path.basename(path))


def load_codebook_file(path: str, r: float = 0.0, rho: float = 2.0) -> Codebook:
    """Codebook file: header ``N <int> COUNT <int>``, then COUNT codeword
    rows of 2N decimals.  Rate/SNR metadata comes from the caller."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _content_lines(path, fh.read())
    n, count = _parse_header(path, lines[0][0], lines[0][1], "COUNT")
    body = lines[1:]
    if len(body) != count:
        raise FileFormatError(
            path, lines[-1][0], 1, f"expected {count} codeword rows, found {len(body)}"
        )
    words = _parse_matrix_rows(path, body, count, n)
    return Codebook(words, rate_multiplexing=r, snr=rho)


def save_scheme_file(path: str, scheme: RelayScheme) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"N {scheme.block_length} K {scheme.num_relays}\n")
        for g in scheme.matrices:
            for row in g:
                fh.write(" ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row) + "\n")


def save_codebook_file(path: str, book: Codebook) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"N {book.block_length} COUNT {book.size}\n")
        for word in book.codewords:
            fh.write(" ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in word) + "\n")


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

def _fmt_number(v) -> str:
    if isinstance(v, str):
        return v
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
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
                   per_point_events, status: str = "ok", extra: dict | None = None) -> str:
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
    path = csv_path + ".manifest.json"
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _curve_rows(curve: OutageCurve, extra: tuple = ()):
    for p in curve.points:
        yield (p.snr_db, p.probability, p.ci_low, p.ci_high, p.trials, p.events) + extra


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def _point_trials(cfg: ExperimentConfig, scheme: RelayScheme, rho: float) -> int:
    if cfg.trials != "adaptive":
        return int(cfg.trials)
    gram = gramian(scheme)
    if gram.lambda_min > 0:
        lower, upper = analytic_jensen_bracket(cfg.k, gram, cfg.r, rho)
        guess = lower if lower > 0 else upper
    else:
        guess = 0.0
    return adaptive_trials(guess, floor=cfg.min_trials, cap=cfg.max_trials)


def _sweep_curve(cfg: ExperimentConfig, scheme: RelayScheme, *, rate_bits: float | None) -> OutageCurve:
    if cfg.outage == "jensen":
        estimator, kernel = mc_jensen_outage, "jensen"
    else:
        estimator, kernel = mc_exact_outage, exact_mi_kernel(scheme)[0]
    points = []
    for index, db in enumerate(cfg.snr_db):
        rho = 10.0 ** (db / 10.0)
        trials = _point_trials(cfg, scheme, rho)
        est = estimator(
            scheme, cfg.r, rho, trials, cfg.seed + index,
            rate_bits=rate_bits, threads=cfg.threads,
        )
        points.append(dataclasses.replace(est, snr_db=float(db)))
    fingerprint = (
        f"{cfg.experiment}|{cfg.scheme}|K={cfg.k}|N={cfg.n}|r={cfg.r}|seed={cfg.seed}"
    )
    return OutageCurve(tuple(points), fingerprint=fingerprint, mi_kernel=kernel)


def run_outage_sweep(cfg: ExperimentConfig) -> OutageCurve:
    """One outage estimate per grid point; threshold is r log2(rho) per the
    outage definition, so an r = 0 sweep reports exact zeros."""
    scheme = build_scheme(cfg)
    return _sweep_curve(cfg, scheme, rate_bits=None)


@dataclass
class SlopeReport:
    d_hat: float = math.nan
    d_hat_raw: float = math.nan
    stderr: float = math.nan
    d_theory: float = math.nan
    points_used: int = 0
    status: str = "ok"


def run_dm_slope(cfg: ExperimentConfig) -> tuple[OutageCurve, SlopeReport]:
    """Jensen-outage sweep plus diversity-slope extraction.

    At r = 0 the outage threshold is held at ``rate_bits`` (rate fixed in
    SNR), the convention under which the fixed-rate outage slope measures
    the r -> 0 diversity K.  The raw log-log slope is biased low at desk
    SNR by the slowly varying factor of the outage law, so the headline
    d_hat subtracts the same fit applied to the analytic upper envelope on
    the same grid points (whose true exponent is exactly K(1-2r)); both
    values are reported.
    """
    if len(cfg.snr_db) < 3:
        raise ConfigError("dm-slope needs a grid of at least 3 points")
    scheme = build_scheme(cfg)
    rate_bits = cfg.rate_bits if cfg.r == 0 else None
    curve = _sweep_curve(cfg, scheme, rate_bits=rate_bits)
    report = SlopeReport(d_theory=cfg.k * (1.0 - 2.0 * cfg.r))
    try:
        fit = fit_diversity_slope(curve, min_events=cfg.min_events)
    except InsufficientDataError as exc:
        report.status = f"warning: insufficient events for a slope fit ({exc})"
        return curve, report
    report.d_hat_raw = fit.d_hat
    report.stderr = fit.stderr
    report.points_used = fit.points_used
    usable = [p for p in curve.points if p.events >= cfg.min_events and p.probability > 0]
    x, _, w = fit_points(usable)
    gram = gramian(scheme)
    upper = np.array(
        [analytic_jensen_bracket(cfg.k, gram, cfg.r, 10.0 ** (p.snr_db / 10.0))[1] for p in usable]
    )
    _, slope_u, _ = weighted_line_fit(x, np.log2(upper), w)
    report.d_hat = fit.d_hat + report.d_theory - (-slope_u)
    if len(usable) < len(curve.points):
        report.status = (
            f"warning: {len(curve.points) - len(usable)} grid points below "
            f"min_events={cfg.min_events} were excluded from the fit"
        )
    return curve, report


def run_analytic_curve(cfg: ExperimentConfig):
    """Analytic Jensen-outage bracket over the SNR grid."""
    scheme = build_scheme(cfg)
    gram = gramian(scheme)
    theory = cfg.k * (1.0 - 2.0 * cfg.r)
    rows = []
    for db in cfg.snr_db:
        lower, upper = analytic_jensen_bracket(cfg.k, gram, cfg.r, 10.0 ** (db / 10.0))
        rows.append((float(db), lower, upper, theory))
    return rows


@dataclass
class CertificationReport:
    certified: bool
    pairs_checked: int
    mu_min: float
    first_violation: str = ""
    universal_verdicts: tuple = ()
    simplified_agreement: str = "n/a"
    lines: list = field(default_factory=list)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


CERTIFY_BOOK_CAP = 4096  # pair enumeration is quadratic in the book size


def run_certify(cfg: ExperimentConfig) -> CertificationReport:
    """Check every codeword pair of a codebook against the full-rank
    condition, report the minimum Gramian eigenvalue and per-SNR
    approximate-universality verdicts, and cross-check the scheme's
    simplified condition against the SVD rank oracle."""
    scheme = build_scheme(cfg)
    book = load_codebook_file(cfg.codebook, r=cfg.r, rho=10.0 ** (cfg.snr_db[0] / 10.0))
    if book.size > CERTIFY_BOOK_CAP:
        raise ResourceLimitError("codebook too large to certify", book.size, CERTIFY_BOOK_CAP)
    if book.block_length != scheme.block_length:
        raise ConfigError(
            f"codebook N={book.block_length} does not match scheme N={scheme.block_length}"
        )
    diffs = pair_differences(book)
    certified = True
    first_violation = ""
    simplified = None
    if scheme.name == "cdd":
        simplified = cdd_condition
    elif scheme.name == "phase-rolling":
        simplified = phase_rolling_condition
    agree = 0
    idx_a, idx_b = np.triu_indices(book.size, k=1)
    for p, dx in enumerate(diffs):
        phi = difference_matrix(scheme, dx)
        full = rank_full(phi)
        if not full and certified:
            certified = False
            sv = np.linalg.svd(phi.phi, compute_uv=False)
            first_violation = (
                f"pair ({int(idx_a[p])}, {int(idx_b[p])}): rank deficient, "
                f"singular values {[float(f'{v:.3e}') for v in sv]}"
            )
        if simplified is not None:
            verdict = simplified(dx)
            if scheme.num_relays == scheme.block_length:
                ok = verdict == full
            else:
                ok = (not verdict) or full  # sufficiency direction only
            if not ok:
                raise InternalConsistencyError(
                    f"simplified condition disagrees with SVD rank on pair "
                    f"({int(idx_a[p])}, {int(idx_b[p])})"
                )
            agree += 1
    mu = min_gram_eigenvalue(scheme, book)
    verdicts = []
    for db in cfg.snr_db:
        rho = 10.0 ** (db / 10.0)
        threshold = rho ** (-2.0 * cfg.r)
        verdicts.append((float(db), mu > threshold, threshold))

    lines = [
        "codebook certification report",
        f"scheme: {scheme.name} K={scheme.num_relays} N={scheme.block_length}",
        f"codebook: {cfg.codebook} ({book.size} codewords)",
        f"pairs checked: {len(diffs)}",
        f"full-rank condition: {'PASS (all pairs)' if certified else 'FAIL'}",
    ]
    if first_violation:
        lines.append(f"first violation: {first_violation}")
    lines.append(f"mu_min: {mu!r}")
    for db, ok, threshold in verdicts:
        lines.append(
            f"approximately-universal @ snr_db={_fmt_number(db)} r={_fmt_number(cfg.r)}: "
            f"{'PASS' if ok else 'FAIL'} (threshold rho^-2r = {threshold!r})"
        )
    if simplified is not None:
        lines.append(
            f"simplified-condition agreement ({scheme.name}): {agree}/{len(diffs)} pairs consistent"
        )
        agreement = f"{agree}/{len(diffs)}"
    else:
        agreement = "n/a"
    return CertificationReport(
        certified=certified,
        pairs_checked=len(diffs),
        mu_min=mu,
        first_violation=first_violation,
        universal_verdicts=tuple(verdicts),
        simplified_agreement=agreement,
        lines=lines,
    )


# ---------------------------------------------------------------------------
# Self check
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    tolerance: float
    measured: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


def run_self_check() -> tuple[list[CheckResult], str]:
    """Named identity checks with tolerances and measured deviations."""
    rng = np.random.default_rng(_SELF_CHECK_SEED)
    results: list[CheckResult] = []
    pairs = [(1, 1), (1, 4), (2, 2), (2, 8), (3, 8), (4, 16), (8, 8)]

    dev = 0.0
    for k, n in pairs:
        for scheme in (cyclic_delay_scheme(k, n), phase_rolling_scheme(k, n)):
            eye = np.eye(n) / n
            for g in scheme.matrices:
                dev = max(dev, float(np.abs(g @ g.conj().T - eye).max()))
    results.append(CheckResult("unitary-scaling G G^H = I/N", 1e-12, dev))

    dev = 0.0
    for n in (1, 2, 3, 4, 8, 16, 64):
        f = dft_matrix(n)
        dev = max(dev, float(np.abs(f @ f.conj().T - np.eye(n)).max()))
    results.append(CheckResult("DFT unitarity F F^H = I", 1e-12, dev))

    dev_diag = 0.0
    dev_dual = 0.0
    dev_orth = 0.0
    for k, n in pairs:
        f = dft_matrix(n)
        cdd = cyclic_delay_scheme(k, n)
        pr = phase_rolling_scheme(k, n)
        for gc, gp in zip(cdd.matrices, pr.matrices):
            p_i = gc * np.sqrt(n)
            lam_i = gp * np.sqrt(n)
            dev_diag = max(dev_diag, float(np.abs(p_i - f.conj().T @ lam_i @ f).max()))
            dev_dual = max(dev_dual, float(np.abs(gp - f @ gc @ f.conj().T).max()))
        for i, gi in enumerate(cdd.matrices):
            for j, gj in enumerate(cdd.matrices):
                inner = np.trace((gi * np.sqrt(n)) @ (gj * np.sqrt(n)).conj().T)
                want = n if i == j else 0.0
                dev_orth = max(dev_orth, float(abs(inner - want)))
    results.append(CheckResult("circulant diagonalization P = F^H Lambda F", 1e-12, dev_diag))
    results.append(CheckResult("time-frequency duality G_pr = F P F^H / sqrt(N)", 1e-12, dev_dual))
    results.append(CheckResult("shift-matrix orthogonality tr(P_i P_j^H) = N delta", 1e-12, dev_orth))

    dev_gram = 0.0
    dev_jensen = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k, 9))
        scheme = cyclic_delay_scheme(k, n) if rng.random() < 0.5 else phase_rolling_scheme(k, n)
        gram = gramian(scheme)
        ch = sample_channel(k, rng)
        rho = float(10.0 ** rng.uniform(0, 4))
        heff = effective_channel(scheme, ch)
        jm = jensen_mi(heff, rho)
        jg = jensen_mi_via_gramian(gram, ch, rho)
        dev_gram = max(dev_gram, abs(jm - jg) / max(jm, 1e-12))
        dev_jensen = max(dev_jensen, mutual_information(heff, rho) - jm)
    results.append(CheckResult("Gramian quadratic-form identity (relative)", 1e-10, dev_gram))
    results.append(CheckResult("Jensen dominance exact MI <= Jensen MI", 1e-9, dev_jensen))

    samples = np.abs(
        (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)) / np.sqrt(2)
    ) * np.abs(
        (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)) / np.sqrt(2)
    )
    samples.sort()
    grid = np.linspace(0.0, 6.0, 1201)
    analytic = np.array([product_rayleigh_cdf(x) for x in grid])
    empirical = np.searchsorted(samples, grid, side="right") / samples.size
    sup_dist = float(np.abs(analytic - empirical).max())
    results.append(CheckResult("product-Rayleigh CDF sup-distance (MC)", 5e-3, sup_dist))

    lines = ["self-check report"]
    for res in results:
        lines.append(
            f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: "
            f"measured {res.measured:.3e}, tolerance {res.tolerance:.0e}"
        )
    return results, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaydiv",
        description="Two-hop relay diversity experiments (outage Monte Carlo, "
        "diversity slopes, code certification, analytic curves).",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config file (key = value lines)")
        p.add_argument("--seed", type=int, help="64-bit seed; overrides the config")
        p.add_argument("--out", help="output CSV path; overrides the config")
        p.add_argument(
            "--threads",
            type=int,
            help="worker threads (affects speed only, never results); "
            "default from RELAYDIV_THREADS or 1",
        )
        if name in ("outage-sweep", "dm-slope", "certify-code", "analytic-curve"):
            p.add_argument("--scheme", help="cdd, phase-rolling, or a scheme file path")
            p.add_argument("--k", type=int, help="relay count")
            p.add_argument("--n", type=int, help="block length")
            p.add_argument("--r", type=float, help="multiplexing gain in [0, 1/2]")
            p.add_argument("--snr-db", dest="snr_db", help="comma-separated dB grid")
            p.add_argument("--trials", help="'adaptive' or a fixed per-point count")
            p.add_argument("--min-trials", dest="min_trials", type=int)
            p.add_argument("--max-trials", dest="max_trials", type=int)
            p.add_argument("--min-events", dest="min_events", type=int)
            p.add_argument("--rate-bits", dest="rate_bits", type=float,
                           help="fixed rate target used when r = 0 (dm-slope)")
            p.add_argument("--outage", choices=("jensen", "exact"))
            p.add_argument("--codebook", help="codebook file (certify-code)")
    return parser


def _effective_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = {}
    if getattr(args, "config", None):
        raw.update(load_config(args.config))
    raw["experiment"] = args.experiment
    for key in (
        "scheme", "k", "n", "r", "snr_db", "trials", "min_trials", "max_trials",
        "min_events", "rate_bits", "outage", "seed", "out", "codebook", "threads",
    ):
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    return config_from_mapping(raw, origin=args.config or "<cli>")


def _require_out(cfg: ExperimentConfig) -> str:
    if not cfg.out:
        raise ConfigError("this experiment writes a CSV; set out= or --out")
    return cfg.out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        resolve_threads(cfg.threads)
        if cfg.out:
            _check_out_path(cfg.out)

        if cfg.experiment == "self-check":
            results, text = run_self_check()
            sys.stdout.write(text)
            if cfg.out:
                _write_atomic(cfg.out, text)
            return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED

        started = time.monotonic()
        if cfg.experiment == "outage-sweep":
            out = _require_out(cfg)
            curve = run_outage_sweep(cfg)
            write_csv(out, OUTAGE_CSV_COLUMNS, _curve_rows(curve))
            write_manifest(out, cfg, time.monotonic() - started,
                           [p.events for p in curve.points],
                           extra={"mi_kernel": curve.mi_kernel})
            sys.stdout.write(f"wrote {out} ({len(curve.points)} points)\n")
            return EXIT_OK

        if cfg.experiment == "dm-slope":
            out = _require_out(cfg)
            curve, report = run_dm_slope(cfg)
            extra = (report.d_hat, report.d_hat_raw, report.stderr, report.d_theory)
            write_csv(out, OUTAGE_CSV_COLUMNS + DM_SLOPE_EXTRA_COLUMNS,
                      _curve_rows(curve, extra))
            write_manifest(out, cfg, time.monotonic() - started,
                           [p.events for p in curve.points], status=report.status,
                           extra={"d_hat": report.d_hat, "d_hat_raw": report.d_hat_raw,
                                  "d_theory": report.d_theory,
                                  "mi_kernel": curve.mi_kernel,
                                  "points_used": report.points_used})
            sys.stdout.write(
                f"wrote {out}: d_hat={report.d_hat!r} (raw {report.d_hat_raw!r}, "
                f"theory {report.d_theory!r})\n"
            )
            if report.status != "ok":
                sys.stderr.write(report.status + "\n")
            return EXIT_OK

        if cfg.experiment == "analytic-curve":
            out = _require_out(cfg)
            rows = run_analytic_curve(cfg)
            write_csv(out, ANALYTIC_CSV_COLUMNS, rows)
            write_manifest(out, cfg, time.monotonic() - started, [])
            sys.stdout.write(f"wrote {out} ({len(rows)} points)\n")
            return EXIT_OK

        if cfg.experiment == "certify-code":
            report = run_certify(cfg)
            sys.stdout.write(report.text())
            if cfg.out:
                _write_atomic(cfg.out, report.text())
            return EXIT_OK

        raise ConfigError(f"unhandled experiment {cfg.experiment}")
    except (ConfigError, FileFormatError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return EXIT_INTERNAL
    except InvalidParameterError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
