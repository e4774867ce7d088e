"""Outage and error-probability estimation, analytic bounds, slope fitting.

Monte Carlo estimators are deterministic for a given (seed, config): trials
are processed in fixed-size blocks, each block drawing from its own
substream keyed by (seed, block index).  Event counts reduce by integer
summation, so results are invariant to how blocks are partitioned across
worker threads.  Each block samples the two-hop law channel_model.two_hop
states, as the parts (u, b, 1 + ||h||^2) of h~ = u sqrt(b), in one shared
draw (_sample_fading, FADING_STREAM), so every estimator sees the same
draw for the same (seed, block); each kernel forms only what it needs.

Blocks run on the calling thread or, with 2 or more workers, on the
process's one pool of that many threads (_pool), which live as long as the
process.  Each thread keeps one Workspace (_workspace) for the arrays of
its blocks' draws and exact kernels; it grows to the largest block the
thread has run, so blocks after a thread's first allocate no large array.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel_model import complex_gaussian, effective_channel
from .codebook import DEFAULT_SIZE_CAP, Codebook, min_gram_eigenvalue
from .errors import InsufficientDataError, InvalidParameterError, ResourceLimitError
from .information import Workspace, jensen_form, ldl_factors, mi_from_factors, spectral_factors
from .relay_schemes import (
    GramianSummary,
    RelayScheme,
    common_spectra,
    gramian,
    pair_products,
)

EULER_GAMMA = 0.5772156649015328606

# Trials per Monte Carlo block; fixed so that results depend only on
# (seed, block index), never on the worker count.
BLOCK_TRIALS = 1 << 14

# Version of _sample_fading's draw; CLI manifests record it as "stream".
FADING_STREAM = 3

# Highest SNR the outage and ML-error functions take: rho = 1e300 leaves the
# MI kernels ~1e8 of float headroom; above it their products overflow.
RHO_MAX = 1e300

# 95% normal quantile used by the Wilson interval.
Z_95 = 1.959963984540054

# Crossover between the ascending series and the asymptotic expansion.
_K1_CROSSOVER = 9.0

# Most worker threads one Monte Carlo pool may start.
MAX_THREADS = 256

# Each thread's Workspace, made by its first call to _workspace.
_THREAD = threading.local()


# ---------------------------------------------------------------------------
# Modified Bessel function K1 and the product-Rayleigh CDF
# ---------------------------------------------------------------------------

def bessel_k1(x: float) -> float:
    """First-order modified Bessel function of the second kind.

    Ascending series below x = 9, asymptotic expansion with optimal
    truncation above; absolute error stays below 1e-12 on [1e-6, 700].
    Underflows gracefully to 0 for very large arguments.
    """
    if not x > 0:
        raise InvalidParameterError("bessel_k1 requires x > 0")
    if x < _K1_CROSSOVER:
        log_i1, series = _k1_series_parts(x)
        return math.log(0.5 * x) * log_i1 + 1.0 / x - 0.25 * x * series
    return _k1_asymptotic(x)


def _k1_series_parts(x: float) -> tuple[float, float]:
    """I1(x) and sum_k [psi(k+1)+psi(k+2)] (x^2/4)^k / (k! (k+1)!)."""
    q = 0.25 * x * x
    i1 = 0.0
    s = 0.0
    term = 1.0  # (x^2/4)^k / (k! (k+1)!)
    hk = 0.0  # harmonic number H_k
    for k in range(60):
        psi_sum = 2.0 * (hk - EULER_GAMMA) + 1.0 / (k + 1)
        i1 += term
        s += psi_sum * term
        if term * (1.0 + abs(psi_sum)) < 1e-20 * max(i1, 1.0):
            break
        hk += 1.0 / (k + 1)
        term *= q / ((k + 1) * (k + 2))
    return 0.5 * x * i1, s


def _k1_asymptotic(x: float) -> float:
    """sqrt(pi/2x) e^-x [1 + sum a_k/x^k], truncated at the smallest term."""
    s = 1.0
    a = 1.0
    prev = math.inf
    for k in range(1, 60):
        a *= (4.0 - (2.0 * k - 1.0) ** 2) / (8.0 * k)
        t = a / x**k
        if abs(t) >= prev:
            break
        s += t
        prev = abs(t)
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * s


def product_rayleigh_cdf(x: float) -> float:
    """CDF of the product of two unit-power Rayleigh magnitudes,
    F(x) = 1 - 2x K1(2x), with a cancellation-free series branch so small
    arguments keep full relative precision."""
    if not x >= 0:
        raise InvalidParameterError("product_rayleigh_cdf requires x >= 0")
    if x == 0.0:
        return 0.0
    z = 2.0 * x
    if z < _K1_CROSSOVER:
        # 1 - z K1(z) = -z ln(z/2) I1(z) + (z^2/4) S(z); no subtraction from 1.
        i1, series = _k1_series_parts(z)
        val = -math.log(0.5 * z) * z * i1 + 0.25 * z * z * series
        return min(max(val, 0.0), 1.0)
    return min(max(1.0 - z * _k1_asymptotic(z), 0.0), 1.0)


# ---------------------------------------------------------------------------
# Estimate containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbEstimate:
    """One Monte Carlo probability estimate, ``events`` out of ``trials``,
    and the name of the MI kernel that produced it (empty for ML error).
    The estimate and its Wilson 95% interval follow from the counts."""

    snr_db: float
    trials: int
    events: int
    mi_kernel: str = ""

    def __post_init__(self):
        if self.trials < 1 or not 0 <= self.events <= self.trials:
            raise InvalidParameterError("events must lie in [0, trials]")

    @property
    def probability(self) -> float:
        return self.events / self.trials

    @property
    def ci_low(self) -> float:
        return wilson_interval(self.events, self.trials)[0]

    @property
    def ci_high(self) -> float:
        return wilson_interval(self.events, self.trials)[1]


@dataclass(frozen=True)
class SlopeEstimate:
    """Fitted diversity exponent from a log-log weighted least squares;
    ``used`` holds the indices of the curve points the fit took."""

    d_hat: float
    stderr: float
    used: tuple[int, ...]


def wilson_interval(events: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; always contains events/trials."""
    p = events / trials
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = Z_95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    lo = 0.0 if events == 0 else max(0.0, center - half)
    hi = 1.0 if events == trials else min(1.0, center + half)
    return lo, hi


def resolve_threads(threads: int) -> int:
    """``threads`` once it is an integer in [1, MAX_THREADS]; any other value
    (a bool, a float even if integral, a string) raises InvalidParameterError."""
    if not (isinstance(threads, numbers.Integral) and not isinstance(threads, bool)
            and 1 <= threads <= MAX_THREADS):
        raise InvalidParameterError(f"threads must be an integer in [1, {MAX_THREADS}], got {threads!r}")
    return int(threads)


# ---------------------------------------------------------------------------
# Deterministic blockwise Monte Carlo
# ---------------------------------------------------------------------------

def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(ss))


@functools.lru_cache(maxsize=None)
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` threads, made on first use."""
    return ThreadPoolExecutor(max_workers=workers)


if hasattr(os, "register_at_fork"):  # a forked child has no pool threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _mc_event_count(
    trials: int,
    seed: int,
    threads: int,
    block_events: Callable[[np.random.Generator, int], int],
) -> int:
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    workers = resolve_threads(threads)
    nblocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS

    def one(block: int) -> int:
        n = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
        return block_events(_block_rng(seed, block), n)

    run = map if workers == 1 or nblocks == 1 else _pool(workers).map
    return int(sum(run(one, range(nblocks))))


def _workspace() -> Workspace:
    """The calling thread's Workspace, made on its first call."""
    if not hasattr(_THREAD, "workspace"):
        _THREAD.workspace = Workspace()
    return _THREAD.workspace


def _sample_fading(rng: np.random.Generator, n: int, k: int):
    """n trials of the two-hop law of channel_model.two_hop as its parts
    (u, b, 1 + ||h||^2), shapes (n, k), (n, k) and (n,): the products are
    h~ = u sqrt(b), drawn from their law rather than through (f, h).  The
    three are the calling thread's workspace arrays "u", "b" and "noise",
    valid until its next draw.

    Stream 3 (FADING_STREAM): u ~ CN(0, 1) first, then b ~ Exp(1), both
    (n, k), and 1 + ||h||^2 = 1 + sum_k b.  With b = |h|^2 and
    a = |u|^2 = |f|^2 this is two_hop's law: |h~|^2 = ab with a, b iid
    Exp(1), and a uniform phase independent of both.

    numpy sums fewer than 8 terms in order, so below K = 8 adding b's
    columns in relay order gives b.sum(axis=-1)'s bits at a fraction of its
    cost; from K = 8 numpy's pairwise order differs, and the sum stays.
    """
    workspace = _workspace()
    u = complex_gaussian(rng, (n, k), out=workspace.take("u", (n, k), complex))
    b = rng.standard_exponential(out=workspace.take("b", (n, k)))
    noise = workspace.take("noise", (n,))
    if k < 8:
        np.copyto(noise, b[:, 0])
        for j in range(1, k):
            noise += b[:, j]
    else:
        b.sum(axis=-1, out=noise)
    noise += 1.0
    return u, b, noise


def mc_jensen_outage(
    scheme: RelayScheme,
    r: float,
    rho: float,
    trials: int,
    seed: int,
    *,
    rate_bits: float | None = None,
    threads: int = 1,
) -> ProbEstimate:
    """Fraction of fading draws whose Jensen mutual information falls below
    the rate target r log2(rho) (or the fixed ``rate_bits`` override used by
    fixed-rate diversity experiments)."""
    return _mc_outage(scheme, "jensen", r, rho, trials, seed, rate_bits, threads)


def mc_exact_outage(
    scheme: RelayScheme,
    r: float,
    rho: float,
    trials: int,
    seed: int,
    *,
    rate_bits: float | None = None,
    threads: int = 1,
) -> ProbEstimate:
    """As mc_jensen_outage but with the exact mutual information; shares
    the fading draw order with the Jensen estimator so both can be compared
    on identical realization streams."""
    return _mc_outage(scheme, "exact", r, rho, trials, seed, rate_bits, threads)


def _outage_kernel(
    scheme: RelayScheme, outage: str, rho: float, thresh: float
) -> tuple[str, Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]]:
    """Name and batched ``in_outage(u, b, noise)``, taking a fading draw as
    _sample_fading returns it, of the test the ``outage`` estimator runs on a
    scheme: whether the MI falls below ``thresh`` at SNR ``rho``.  No kernel
    writes into the draw; the exact kernels keep h~ and their temporaries
    in the calling thread's workspace.

    "jensen" decides on the Gramian form of (u, b), without h~ or a
    logarithm: the bound
    (1/2) log2(1 + (rho/N) x), x = jensen_form / (1 + ||h||^2), is below
    thresh iff x < c = N (2^(2 thresh) - 1) / rho, and c = inf when
    2^(2 thresh) overflows.  For "exact" the kernel is "exact-spectral"
    when the matrices share an eigenbasis by exact equality (all diagonal
    or all circulant, whatever the scheme's name or source), else
    "exact-products-ldl"; their factor sources (information) yield N rows
    f_n >= 1 whose product is det(I + rho H H^H).  One rule decides both,
    without a logarithm: the MI (1/2N) sum_n log2 f_n is below thresh iff
    prod_n f_n < 2^(2N thresh), a bound taken once per grid point.  A
    product that overflows to inf is rightly not in outage; when the bound
    itself overflows, the one closure decides on mi_from_factors of the rows."""
    if outage == "jensen":
        gram = gramian(scheme)
        try:
            c = gram.block_length * math.expm1(2.0 * thresh * math.log(2.0)) / rho
        except OverflowError:
            c = math.inf
        return "jensen", lambda u, b, noise: jensen_form(gram, u, b) / noise < c
    spectra = common_spectra(scheme)
    if spectra is None:
        name, factors, table = "exact-products-ldl", ldl_factors, pair_products(scheme)
    else:
        name, factors, table = "exact-spectral", spectral_factors, spectra
    try:
        bound = 2.0 ** (2 * scheme.block_length * thresh)
    except OverflowError:
        bound = None

    def in_outage(u, b, noise):
        workspace = _workspace()
        scale = np.divide(rho, noise, out=workspace.take("scale", noise.shape))
        rows = iter(factors(table, u, b, scale, workspace))
        if bound is None:
            return mi_from_factors(rows) < thresh
        det = workspace.take("det", noise.shape)
        np.copyto(det, next(rows))
        with np.errstate(over="ignore"):
            for row in rows:
                det *= row
        return det < bound

    return name, in_outage


def _mc_outage(
    scheme: RelayScheme,
    outage: str,
    r: float,
    rho: float,
    trials: int,
    seed: int,
    rate_bits: float | None,
    threads: int,
) -> ProbEstimate:
    """Count draws whose MI under the ``outage`` kernel falls below
    r log2(rho), or below ``rate_bits`` when given."""
    _check_outage_args(r, rho)
    if rate_bits is not None and not rate_bits >= 0:
        raise InvalidParameterError("rate_bits must be >= 0")
    thresh = r * math.log2(rho) if rate_bits is None else float(rate_bits)
    name, in_outage = _outage_kernel(scheme, outage, rho, thresh)
    k = scheme.num_relays

    def block(rng: np.random.Generator, n: int) -> int:
        return int(np.count_nonzero(in_outage(*_sample_fading(rng, n, k))))

    events = _mc_event_count(trials, seed, threads, block)
    return _estimate(rho, events, trials, name)


def mc_ml_error(
    scheme: RelayScheme,
    book: Codebook,
    rho: float,
    trials: int,
    seed: int,
    *,
    threads: int = 1,
) -> ProbEstimate:
    """Block error rate of exhaustive maximum-likelihood decoding over the
    normalized channel y = sqrt(rho) H x + z with perfect receiver CSI;
    books over DEFAULT_SIZE_CAP words are refused."""
    if book.size < 2:
        raise InvalidParameterError("ML simulation needs at least 2 codewords")
    if book.size > DEFAULT_SIZE_CAP:
        raise ResourceLimitError("codebook too large for ML decoding", book.size, DEFAULT_SIZE_CAP)
    if not 0 < rho <= RHO_MAX:
        raise InvalidParameterError(f"rho must lie in (0, {RHO_MAX:g}]")
    if book.block_length != scheme.block_length:
        raise InvalidParameterError("codebook and scheme block lengths differ")
    g_stack = scheme.stacked()
    words = book.codewords
    m, n_block = words.shape
    k = scheme.num_relays
    sqrt_rho = math.sqrt(rho)
    # Trial chunk for the (chunk, M, N) candidate tensor; randomness is drawn
    # per block before chunking, so the chunk size cannot affect results.
    chunk = max(1, int(4_000_000 / (m * n_block)))

    def block(rng: np.random.Generator, n: int) -> int:
        u, b, noise = _sample_fading(rng, n, k)
        sent = rng.integers(0, m, size=n)
        z = complex_gaussian(rng, (n, n_block))
        heff = effective_channel(u * np.sqrt(b), noise, g_stack)
        errors = 0
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            hx = sqrt_rho * np.einsum("nab,mb->nma", heff[lo:hi], words)
            y = hx[np.arange(hi - lo), sent[lo:hi]] + z[lo:hi]
            d2 = np.sum(np.abs(y[:, None, :] - hx) ** 2, axis=2)
            decoded = np.argmin(d2, axis=1)
            errors += int(np.count_nonzero(decoded != sent[lo:hi]))
        return errors

    events = _mc_event_count(trials, seed, threads, block)
    return _estimate(rho, events, trials)


def _estimate(rho: float, events: int, trials: int, mi_kernel: str = "") -> ProbEstimate:
    return ProbEstimate(10.0 * math.log10(rho), trials, events, mi_kernel)


def _check_outage_args(r: float, rho: float) -> None:
    if not 0.0 <= r <= 0.5:
        raise InvalidParameterError("multiplexing gain r must lie in [0, 1/2]")
    if not 1 < rho <= RHO_MAX:
        raise InvalidParameterError(f"rho must lie in (1, {RHO_MAX:g}]")


def adaptive_trials(
    p_guess: float, floor: int = 100_000, cap: int = 10_000_000
) -> int:
    """Trial count targeting ~200 events at probability ``p_guess``,
    clamped to [floor, cap]."""
    if p_guess <= 0:
        return cap
    want = 200.0 / p_guess
    return int(min(cap, max(floor, want)))


# ---------------------------------------------------------------------------
# Analytic Jensen-outage bracket
# ---------------------------------------------------------------------------

def analytic_jensen_bracket(gram: GramianSummary, r: float, rho: float) -> tuple[float, float]:
    """Closed-form lower/upper envelopes of the Jensen-outage probability of
    the K-relay scheme whose K x K Gramian is ``gram``.

    With F(x) the product-Rayleigh CDF and s = rho^-((1-2r)/2):
      upper = F(s sqrt((1+K) N / lambda_min))^K
      lower = F(s sqrt(N / (K lambda_max)))^K - F(rho^-1/2)^K, clamped at 0.
    The N/lambda terms are the eigenvalue extremes of the Jensen quadratic
    form (the Gramian here carries a unit diagonal, so the 1/N of the
    Jensen bound reappears explicitly).  Both envelopes decay with SNR
    exponent K(1-2r) up to a slowly varying factor.  The lower expression
    can go negative at small rho (the bracket is an asymptotic statement);
    the clamp records that explicitly.
    """
    k = gram.gram.shape[0]
    if gram.lambda_min <= 0:
        raise InvalidParameterError("bracket needs a full-rank Gramian (lambda_min > 0)")
    _check_outage_args(r, rho)
    n = gram.block_length
    s = float(rho) ** (-(1.0 - 2.0 * r) / 2.0)
    upper = product_rayleigh_cdf(s * math.sqrt((1.0 + k) * n / gram.lambda_min)) ** k
    lower = (
        product_rayleigh_cdf(s * math.sqrt(n / (k * gram.lambda_max))) ** k
        - product_rayleigh_cdf(rho**-0.5) ** k
    )
    return max(0.0, lower), min(1.0, upper)


def bracket_log_correction(gram: GramianSummary, r: float, rho) -> np.ndarray:
    """The slowly varying factor of the bracket's upper envelope, in log2.

    The product-Rayleigh law expands as
        F(u) = u^2 (2 ln(1/u) + 1 - 2 gamma)
             + u^4 (ln(1/u) + 5/4 - gamma) + O(u^6 ln u),
    so the upper envelope equals rho^-K(1-2r) times a known slowly varying
    factor; subtracting this correction from log2(upper) leaves the pure
    SNR exponent, which slope tests can then measure without the
    finite-SNR bias of a raw log-log fit.
    """
    k = gram.gram.shape[0]
    rho = np.asarray(rho, dtype=float)
    scale = (1.0 + k) * gram.block_length / gram.lambda_min
    u = rho ** (-(1.0 - 2.0 * r) / 2.0) * math.sqrt(scale)
    log_u_inv = np.log(1.0 / u)
    ell = 2.0 * log_u_inv + 1.0 - 2.0 * EULER_GAMMA
    ell = ell + u * u * (log_u_inv + 1.25 - EULER_GAMMA)
    return k * np.log2(ell * scale)


# ---------------------------------------------------------------------------
# Diversity slope fitting
# ---------------------------------------------------------------------------

def fit_points(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log2 rho, log2 p, weights) for a weighted log-log fit.

    Weights are inverse variances of log2(p_hat) from the delta method,
    var = (1-p)/(events ln^2 2).
    """
    x = np.array([p.snr_db / 10.0 * math.log2(10.0) for p in points])
    prob = np.array([p.probability for p in points])
    events = np.array([p.events for p in points], dtype=float)
    trials = np.array([p.trials for p in points], dtype=float)
    surv = np.maximum(1.0 - prob, 0.5 / trials)
    var = surv / (events * math.log(2.0) ** 2)
    return x, np.log2(prob), 1.0 / var


def weighted_line_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least squares of y = a + b x; returns (a, b, stderr_b)."""
    a_mat = np.vstack([np.ones_like(x), x]).T
    awa = a_mat.T @ (w[:, None] * a_mat)
    cov = np.linalg.inv(awa)
    coef = cov @ (a_mat.T @ (w * y))
    return float(coef[0]), float(coef[1]), float(math.sqrt(max(cov[1, 1], 0.0)))


def fit_diversity_slope(points, min_events: int = 20) -> SlopeEstimate:
    """Weighted least-squares slope of log2(probability) vs log2(rho) over a
    sequence of estimates, in any order; d_hat is the negated slope.  Points
    with fewer than ``min_events`` events are excluded; at least two usable
    points are required."""
    used = tuple(i for i, p in enumerate(points) if p.events >= min_events and p.probability > 0)
    if len(used) < 2:
        raise InsufficientDataError(
            f"need >= 2 points with >= {min_events} events, have {len(used)}"
        )
    x, y, w = fit_points([points[i] for i in used])
    _, slope, stderr = weighted_line_fit(x, y, w)
    return SlopeEstimate(d_hat=-slope, stderr=stderr, used=used)


# ---------------------------------------------------------------------------
# Union bound
# ---------------------------------------------------------------------------

def union_bound(scheme: RelayScheme, book: Codebook, rho: float, r: float) -> float:
    """rho^(2Nr) exp(-mu_min rho^(2r) / (4(1+K))), evaluated in log space.

    Vacuous (>1) values are reported as-is; a zero mu_min yields exactly
    rho^(2Nr)."""
    _check_outage_args(r, rho)
    mu = min_gram_eigenvalue(scheme, book)
    n = book.block_length
    k = scheme.num_relays
    if math.isinf(mu):
        return 0.0
    log_bound = 2.0 * n * r * math.log(rho) - mu * rho ** (2.0 * r) / (4.0 * (1.0 + k))
    if log_bound > 700.0:
        return math.inf
    return math.exp(log_bound)

