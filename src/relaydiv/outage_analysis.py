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

# Most worker threads one Monte Carlo pool may start.
MAX_THREADS = 256

# Each thread's Workspace, made by its first call to _workspace.
_THREAD = threading.local()


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


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer: a bool, a float even if integral or a
    string is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def resolve_threads(threads: int) -> int:
    """``threads`` once it is an integer in [1, MAX_THREADS]; any other value
    raises InvalidParameterError."""
    if not (_is_integer(threads) and 1 <= threads <= MAX_THREADS):
        raise InvalidParameterError(f"threads must be an integer in [1, {MAX_THREADS}], got {threads!r}")
    return int(threads)


# ---------------------------------------------------------------------------
# Deterministic blockwise Monte Carlo
# ---------------------------------------------------------------------------

def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(ss))


def point_seed(seed: int, index: int) -> int:
    """Point ``index``'s seed in a sweep at ``seed``; adjacent seeds share points."""
    return seed + index


@functools.lru_cache(maxsize=None)
def _pool(workers: int) -> "ThreadPoolExecutor":
    """The process's pool of ``workers`` threads, made on first use.  The
    pool module is imported here, so a one-thread process never loads it."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers)


if hasattr(os, "register_at_fork"):  # a forked child has no pool threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _mc_event_count(
    trials: int,
    seed: int,
    threads: int,
    block_events: Callable[[np.random.Generator, int], int],
) -> int:
    if not (_is_integer(trials) and trials >= 1):
        raise InvalidParameterError(f"trials must be an integer >= 1, got {trials!r}")
    if not (_is_integer(seed) and seed >= 0):
        raise InvalidParameterError(f"seed must be an integer >= 0, got {seed!r}")
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


def outage_constant(n: int, thresh: float, rho: float) -> float:
    """c = N (2^(2 thresh) - 1) / rho, inf when 2^(2 thresh) overflows: the
    Jensen MI at SNR rho is below thresh iff jensen_form / (1 + ||h||^2) < c."""
    try:
        return n * math.expm1(2.0 * thresh * math.log(2.0)) / rho
    except OverflowError:
        return math.inf


def _outage_kernel(
    scheme: RelayScheme, outage: str, rho: float, thresh: float
) -> tuple[str, Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]]:
    """Name and batched ``in_outage(u, b, noise)``, taking a fading draw as
    _sample_fading returns it, of the test the ``outage`` estimator runs on a
    scheme: whether the MI falls below ``thresh`` at SNR ``rho``.  No kernel
    writes into the draw; the exact kernels keep h~ and their temporaries
    in the calling thread's workspace.

    "jensen" decides on the Gramian form of (u, b), without h~ or a
    logarithm: the bound (1/2) log2(1 + (rho/N) x),
    x = jensen_form / (1 + ||h||^2), is below thresh iff x < c, the
    outage_constant.  For "exact" the kernel is "exact-spectral" when the
    matrices share an eigenbasis by exact equality (all diagonal
    or all circulant, whatever the scheme's name or source), else
    "exact-products-ldl"; their factor sources (information) return (N, T)
    rows f_n >= 1 whose product is det(I + rho H H^H).  One rule decides
    both, without a logarithm: the MI (1/2N) sum_n log2 f_n is below thresh
    iff prod_n f_n < 2^(2N thresh), a bound taken once per grid point.  A
    product that overflows to inf is rightly not in outage; when the bound
    itself overflows, the one closure decides on mi_from_factors of the rows."""
    if outage == "jensen":
        gram = gramian(scheme)
        c = outage_constant(gram.block_length, thresh, rho)
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
        rows = factors(table, u, b, scale, workspace)
        if bound is None:
            return mi_from_factors(rows) < thresh
        with np.errstate(over="ignore"):
            return np.prod(rows, axis=0, out=workspace.take("det", noise.shape)) < bound

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
    if rate_bits is not None and not (math.isfinite(rate_bits) and rate_bits >= 0):
        raise InvalidParameterError("rate_bits must be finite and >= 0")
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
    x = [s * math.sqrt((1.0 + k) * n / gram.lambda_min), s * math.sqrt(n / (k * gram.lambda_max)), rho**-0.5]
    upper, lower, floor = (float(f) ** k for f in product_rayleigh_cdf(np.array(x)))
    return max(0.0, lower - floor), min(1.0, upper)


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
# Bromwich contour sums: the product-Rayleigh law and the Jensen-outage interval
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _contour(s0: float, mu: float, step: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, weight) at the nodes of Weideman & Trefethen's parabolic Bromwich
    contour (Math. Comp. 76, 2007) w(v) = s0 + iv - mu v^2, by the
    trapezoid rule with ``step`` on |v| < nodes * step.  The integrands
    here take conjugate values at -v and v, so the nodes are v >= 0 with the
    step doubled past v = 0; a weight is e^w (dw/dv) / w times that over
    2 pi i.  Made on first use, so a run that takes no law touches none."""
    v = np.arange(nodes) * step
    w = s0 + 1j * v - mu * v**2
    return w, np.exp(w) * (1j - 2 * mu * v) / w * np.where(v > 0, 2 * step, step) / (2j * math.pi)


def _bromwich(t: np.ndarray, g: float, k: int) -> np.ndarray:
    """P(sum_k a_k b_k < t (1 + g sum_k b_k)) for a, b iid Exp(1), K = k,
    at each t > 0 of the array ``t``: (1/2 pi i) int e^(theta t)
    M(theta)^K / theta dtheta, with M(theta) = E_a[1 / (1 + theta (a - g t))]
    = e^z E1(z) / theta, z = 1/theta - g t, on the contour theta = w / t.
    For g > 0 the integrand has a branch point at w = 1 / g, so the contour
    crosses the real axis at w = 0.5 and takes 601 nodes (step 0.05,
    mu = 1/8); for g = 0 it has none, and 28 nodes on w = 3 + iv - v^2/10,
    0 <= v <= 20, suffice.  ``t`` takes any shape, and each E1 sum stops on
    its own test, so each value's bits are those of its one-point call."""
    w, weight = _contour(0.5, 0.125, 0.05, 601) if g else _contour(3.0, 0.1, 20.0 / 27.0, 28)
    t = t[..., None]
    return np.sum((t * _scaled_e1(t * (1.0 / w - g)) / w) ** k * weight, axis=-1).real


def _scaled_e1(z: np.ndarray) -> np.ndarray:
    """e^z E1(z) for complex z off the cut (-inf, 0]: the power series
    (Abramowitz & Stegun 5.1.11) for |z| <= 5 with Re z <= 2, past which it
    loses digits to cancellation, and up to |z| = 40 in the wedge
    Re z < -2 |Im z| about the cut, where the continued fraction (A&S
    5.1.22) converges slowly; that fraction elsewhere.  Each element's sum
    stops on its own last term (_running_sums), so its value does not
    depend on the other elements of z."""
    out = np.empty_like(z)
    near = ((abs(z) <= 5.0) & (z.real <= 2.0)) | ((z.real < -2.0 * abs(z.imag)) & (abs(z) < 40.0))
    s = z[near]  # E1 = -gamma - ln z + z total
    total = _running_sums(_series_step, (np.ones_like(s), np.ones_like(s), s))
    out[near] = np.exp(s) * (s * total - np.log(s) - EULER_GAMMA)
    s = z[~near]
    start = 1.0 / s  # forward sum of 1/(z+ 1/(1+ 1/(z+ 2/(1+ ...
    out[~near] = _running_sums(_fraction_step, (start, start, start, s))
    return out


def _series_step(n: int, total, term, s):
    """Adds the series' term n, term_(n-1) (-n z / (n + 1)^2), in place."""
    term *= -n * s / (n + 1.0) ** 2
    total += term
    return total, term, s


def _fraction_step(n: int, fraction, step, ratio, s):
    """Adds the continued fraction's next two levels, n/(1+ and n/(z+."""
    for a in (1.0, s):
        ratio = 1.0 / (ratio * n + a)
        # named, so that numpy cannot multiply into it in place with the
        # operands swapped, which moves the last bit of a complex product
        factor = a * ratio - 1.0
        step = step * factor
        fraction = fraction + step
    return fraction, step, ratio, s


def _running_sums(advance: Callable, state: tuple) -> np.ndarray:
    """The running sums state[0] after ``state = advance(n, *state)`` for
    n = 1, 2, ..., 499, where state[1] holds the sums' last terms, all 1-D.
    Each sum stops once its own last term moves it by at most 1e-16
    relative, so no sum depends on the others."""
    out = np.empty_like(state[0])
    index = np.arange(out.size)
    for n in range(1, 500):
        state = advance(n, *state)
        keep = ~(abs(state[1]) <= 1e-16 * abs(state[0]))
        if not keep.all():
            out[index[~keep]] = state[0][~keep]
            index, state = index[keep], tuple(part[keep] for part in state)
        if not index.size:
            break
    out[index] = state[0]
    return out


def product_rayleigh_cdf(x):
    """CDF of the product of two unit-power Rayleigh magnitudes at x >= 0, a
    float or an array of them: F(x) = P(ab < x^2) = 1 - 2x K1(2x) for a, b
    iid Exp(1), the law _bromwich sums at K = 1, g = 0, t = x^2.  Against
    40-digit mpmath on 5900 points in [1e-8, 20] it is within 1.9e-14
    relative.  F is 0 up to x = 1e-160, where F < 1e-316, and 1 from
    x = 20 on, where 1 - F < 3.4e-17 is below half an ulp of 1.  An
    array's values have the bits of their scalar calls.  F is
    monotone on [0, 10]; past x ~ 13.7 the contour's rounding can step it
    down by a few ulps of 1 (up to 2.3e-15 on a 2e5-point grid)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise InvalidParameterError("product_rayleigh_cdf requires x >= 0")
    p = np.where(x >= 20.0, 1.0, 0.0)
    live = (x > 1e-160) & (x < 20.0)
    p[live] = np.clip(_bromwich(x[live] ** 2, 0.0, 1), 0.0, 1.0)
    return p if p.ndim else float(p)


def _identity_outage(c: np.ndarray, k: int) -> np.ndarray:
    """P_I(c) = P(sum_k a_k b_k < c (1 + sum_k b_k)) for a, b iid Exp(1),
    the Jensen outage probability of a K-relay scheme with Gramian I, at
    each c >= 0: _bromwich at g = 1, t = c, so each value in a grid has the
    bits of its one-point call.  c = 0 is never in outage, and from
    c = ln K + 38 on, 1 - P_I <= K e^-c is below half an ulp of 1."""
    p = np.where(c > 0, 1.0, 0.0)
    live = (c > 0) & (c < math.log(k) + 38.0)
    p[live] = _bromwich(c[live], 1.0, k)
    return np.clip(p, 0.0, 1.0)


def jensen_outage_interval(gram: GramianSummary, c) -> tuple[np.ndarray, np.ndarray]:
    """(P_I(c / lambda_max), P_I(c / lambda_min)) over the outage constants
    ``c`` (outage_constant, broadcast), bounds of the Jensen outage
    probability at Gramian ``gram``, whose Jensen form lies between
    lambda_min and lambda_max times the form at Gramian I.  Both ends are
    P_I(c) at Gramian I; a singular Gramian's upper end is 1."""
    c = np.asarray(c, dtype=float)
    if not np.all(c >= 0):
        raise InvalidParameterError("outage constants must be >= 0")
    k = gram.gram.shape[0]
    lower = _identity_outage(c / gram.lambda_max, k)
    if gram.lambda_min == gram.lambda_max:
        return lower, lower
    if gram.lambda_min <= 0:
        return lower, np.ones_like(c)
    return lower, _identity_outage(c / gram.lambda_min, k)


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

