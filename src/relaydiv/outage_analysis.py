"""Outage and error-probability estimation, analytic bounds, slope fitting.

Monte Carlo estimators are deterministic for a given (seed, config): trials
are processed in fixed-size blocks, each block drawing from its own
counter-based substream keyed by (seed, block index).  Event counts reduce
by integer summation, so results are invariant to how blocks are
partitioned across worker threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel_model import complex_gaussian, effective_channel, two_hop
from .codebook import Codebook, min_gram_eigenvalue
from .errors import InsufficientDataError, InvalidParameterError, ResourceLimitError
from .information import (
    jensen_mi_via_gramian,
    mutual_information_products,
    mutual_information_spectral,
)
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

# 95% normal quantile used by the Wilson interval.
Z_95 = 1.959963984540054

# Crossover between the ascending series and the asymptotic expansion.
_K1_CROSSOVER = 9.0

ENV_THREADS = "RELAYDIV_THREADS"


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
    """One Monte Carlo probability estimate with its Wilson 95% interval."""

    snr_db: float
    probability: float
    ci_low: float
    ci_high: float
    trials: int
    events: int

    def __post_init__(self):
        if self.trials < 1 or not 0 <= self.events <= self.trials:
            raise InvalidParameterError("events must lie in [0, trials]")
        if not 0.0 <= self.probability <= 1.0:
            raise InvalidParameterError("probability must lie in [0, 1]")
        if not (self.ci_low - 1e-12 <= self.probability <= self.ci_high + 1e-12):
            raise InvalidParameterError("interval must contain the estimate")


@dataclass(frozen=True)
class OutageCurve:
    """Estimates ordered by strictly increasing SNR and the name of the MI
    kernel that produced them."""

    points: tuple[ProbEstimate, ...]
    mi_kernel: str = ""

    def __post_init__(self):
        pts = tuple(self.points)
        snrs = [p.snr_db for p in pts]
        if any(b <= a for a, b in zip(snrs, snrs[1:])):
            raise InvalidParameterError("snr_db values must be strictly increasing")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class SlopeEstimate:
    """Fitted diversity exponent from a log-log weighted least squares."""

    d_hat: float
    stderr: float
    points_used: int


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


def resolve_threads(threads: int | None) -> int:
    """Explicit argument, else RELAYDIV_THREADS, else 1; anything but a
    positive integer raises InvalidParameterError naming its source."""
    name, raw = "threads", threads
    if threads is None:
        name, raw = ENV_THREADS, os.environ.get(ENV_THREADS, "1")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {raw!r}")
    return value


# ---------------------------------------------------------------------------
# Deterministic blockwise Monte Carlo
# ---------------------------------------------------------------------------

def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(ss))


def _mc_event_count(
    trials: int,
    seed: int,
    threads: int | None,
    block_events: Callable[[np.random.Generator, int], int],
) -> int:
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    workers = resolve_threads(threads)
    nblocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS

    def one(block: int) -> int:
        n = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
        return block_events(_block_rng(seed, block), n)

    if workers == 1 or nblocks == 1:
        counts = [one(b) for b in range(nblocks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(one, range(nblocks)))
    return int(sum(counts))


def _sample_fading(rng: np.random.Generator, n: int, k: int):
    """Shared draw order for all outage estimators: f first, then h; returns
    the draw's two-hop pair (h~, 1 + ||h||^2), shapes (n, k) and (n,)."""
    fh = complex_gaussian(rng, (2, n, k))
    return two_hop(fh[0], fh[1])


def _rate_threshold(r: float, rho: float, rate_bits: float | None) -> float:
    if rate_bits is not None:
        if not rate_bits >= 0:
            raise InvalidParameterError("rate_bits must be >= 0")
        return float(rate_bits)
    return r * math.log2(rho)


def mc_jensen_outage(
    scheme: RelayScheme,
    r: float,
    rho: float,
    trials: int,
    seed: int,
    *,
    rate_bits: float | None = None,
    threads: int | None = None,
) -> ProbEstimate:
    """Fraction of fading draws whose Jensen mutual information falls below
    the rate target r log2(rho) (or the fixed ``rate_bits`` override used by
    fixed-rate diversity experiments)."""
    _check_outage_args(r, rho)
    gram = gramian(scheme)
    return _mc_outage(
        scheme, r, rho, trials, seed, rate_bits, threads,
        lambda ht, noise: jensen_mi_via_gramian(gram, ht, noise, rho),
    )


def mc_exact_outage(
    scheme: RelayScheme,
    r: float,
    rho: float,
    trials: int,
    seed: int,
    *,
    rate_bits: float | None = None,
    threads: int | None = None,
) -> ProbEstimate:
    """As mc_jensen_outage but with the exact mutual information; shares
    the fading draw order with the Jensen estimator so both can be compared
    on identical realization streams.  The kernel is exact_mi_kernel's."""
    _check_outage_args(r, rho)
    _, mi = exact_mi_kernel(scheme)
    return _mc_outage(
        scheme, r, rho, trials, seed, rate_bits, threads,
        lambda ht, noise: mi(ht, noise, rho),
    )


def exact_mi_kernel(scheme: RelayScheme) -> tuple[str, Callable[..., np.ndarray]]:
    """Name and batched ``mi(ht, noise, rho)`` of the exact-MI kernel for a
    scheme, taking the two-hop pair of a fading draw.

    "exact-spectral" when the matrices share an eigenbasis by exact equality
    (all diagonal or all circulant, whatever the scheme's name or source),
    else "exact-products-ldl", an LDL^H log-det of I + rho H H^H built from
    the G_i G_j^H table.  Neither forms H_eff.
    """
    spectra = common_spectra(scheme)
    if spectra is not None:
        return "exact-spectral", lambda ht, noise, rho: mutual_information_spectral(
            spectra, ht, noise, rho
        )
    products = pair_products(scheme)
    return "exact-products-ldl", lambda ht, noise, rho: mutual_information_products(
        products, ht, noise, rho
    )


def _mc_outage(
    scheme: RelayScheme,
    r: float,
    rho: float,
    trials: int,
    seed: int,
    rate_bits: float | None,
    threads: int | None,
    mi: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> ProbEstimate:
    """Count draws whose per-trial MI ``mi(ht, noise)`` falls below the target."""
    thresh = _rate_threshold(r, rho, rate_bits)
    k = scheme.num_relays

    def block(rng: np.random.Generator, n: int) -> int:
        return int(np.count_nonzero(mi(*_sample_fading(rng, n, k)) < thresh))

    events = _mc_event_count(trials, seed, threads, block)
    return _estimate(rho, events, trials)


def mc_ml_error(
    scheme: RelayScheme,
    book: Codebook,
    rho: float,
    trials: int,
    seed: int,
    *,
    size_cap: int = 65536,
    threads: int | None = None,
) -> ProbEstimate:
    """Block error rate of exhaustive maximum-likelihood decoding over the
    normalized channel y = sqrt(rho) H x + z with perfect receiver CSI."""
    if book.size < 2:
        raise InvalidParameterError("ML simulation needs at least 2 codewords")
    if book.size > size_cap:
        raise ResourceLimitError("codebook too large for ML decoding", book.size, size_cap)
    if not rho > 0:
        raise InvalidParameterError("rho must be positive")
    g_stack = scheme.stacked()
    words = book.codewords
    m, n_block = words.shape
    k = scheme.num_relays
    sqrt_rho = math.sqrt(rho)
    # Trial chunk for the (chunk, M, N) candidate tensor; randomness is drawn
    # per block before chunking, so the chunk size cannot affect results.
    chunk = max(1, int(4_000_000 / (m * n_block)))

    def block(rng: np.random.Generator, n: int) -> int:
        ht, noise = _sample_fading(rng, n, k)
        sent = rng.integers(0, m, size=n)
        z = complex_gaussian(rng, (n, n_block))
        heff = effective_channel(ht, noise, g_stack)
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


def _estimate(rho: float, events: int, trials: int) -> ProbEstimate:
    lo, hi = wilson_interval(events, trials)
    return ProbEstimate(
        snr_db=10.0 * math.log10(rho),
        probability=events / trials,
        ci_low=lo,
        ci_high=hi,
        trials=trials,
        events=events,
    )


def _check_outage_args(r: float, rho: float) -> None:
    if not 0.0 <= r <= 0.5:
        raise InvalidParameterError("multiplexing gain r must lie in [0, 1/2]")
    if not rho > 1:
        raise InvalidParameterError("rho must exceed 1")


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

def analytic_jensen_bracket(
    num_relays: int, gram: GramianSummary, r: float, rho: float
) -> tuple[float, float]:
    """Closed-form lower/upper envelopes of the Jensen-outage probability.

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
    k = num_relays
    if gram.gram.shape != (k, k):
        raise InvalidParameterError("Gramian size does not match relay count")
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


def bracket_log_correction(num_relays: int, gram: GramianSummary, r: float, rho) -> np.ndarray:
    """The slowly varying factor of the bracket's upper envelope, in log2.

    The product-Rayleigh law expands as
        F(u) = u^2 (2 ln(1/u) + 1 - 2 gamma)
             + u^4 (ln(1/u) + 5/4 - gamma) + O(u^6 ln u),
    so the upper envelope equals rho^-K(1-2r) times a known slowly varying
    factor; subtracting this correction from log2(upper) leaves the pure
    SNR exponent, which slope tests can then measure without the
    finite-SNR bias of a raw log-log fit.
    """
    rho = np.asarray(rho, dtype=float)
    scale = (1.0 + num_relays) * gram.block_length / gram.lambda_min
    u = rho ** (-(1.0 - 2.0 * r) / 2.0) * math.sqrt(scale)
    log_u_inv = np.log(1.0 / u)
    ell = 2.0 * log_u_inv + 1.0 - 2.0 * EULER_GAMMA
    ell = ell + u * u * (log_u_inv + 1.25 - EULER_GAMMA)
    return num_relays * np.log2(ell * scale)


# ---------------------------------------------------------------------------
# Diversity slope fitting
# ---------------------------------------------------------------------------

def fit_points(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log2 rho, log2 p, weights) for a weighted log-log fit.

    Weights are inverse variances of log2(p_hat) from the delta method,
    var = (1-p)/(events ln^2 2).
    """
    x = np.array([p.snr_db / 10.0 * math.log2(10.0) for p in points])
    y = np.log2(np.array([p.probability for p in points]))
    prob = np.array([p.probability for p in points])
    events = np.array([p.events for p in points], dtype=float)
    trials = np.array([p.trials for p in points], dtype=float)
    surv = np.maximum(1.0 - prob, 0.5 / trials)
    var = surv / (events * math.log(2.0) ** 2)
    return x, y, 1.0 / var


def weighted_line_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least squares of y = a + b x; returns (a, b, stderr_b)."""
    a_mat = np.vstack([np.ones_like(x), x]).T
    awa = a_mat.T @ (w[:, None] * a_mat)
    cov = np.linalg.inv(awa)
    coef = cov @ (a_mat.T @ (w * y))
    return float(coef[0]), float(coef[1]), float(math.sqrt(max(cov[1, 1], 0.0)))


def fit_diversity_slope(curve: OutageCurve, min_events: int = 20) -> SlopeEstimate:
    """Weighted least-squares slope of log2(probability) vs log2(rho);
    d_hat is the negated slope.  Points with fewer than ``min_events``
    events are excluded; at least two usable points are required."""
    pts = [p for p in curve.points if p.events >= min_events and p.probability > 0]
    if len(pts) < 2:
        raise InsufficientDataError(
            f"need >= 2 points with >= {min_events} events, have {len(pts)}"
        )
    x, y, w = fit_points(pts)
    _, slope, stderr = weighted_line_fit(x, y, w)
    return SlopeEstimate(d_hat=-slope, stderr=stderr, points_used=len(pts))


# ---------------------------------------------------------------------------
# Union bound
# ---------------------------------------------------------------------------

def union_bound(scheme: RelayScheme, book: Codebook, rho: float, r: float) -> float:
    """rho^(2Nr) exp(-mu_min rho^(2r) / (4(1+K))), evaluated in log space.

    Vacuous (>1) values are reported as-is; a zero mu_min yields exactly
    rho^(2Nr)."""
    if not rho > 1:
        raise InvalidParameterError("rho must exceed 1")
    if not 0.0 <= r <= 0.5:
        raise InvalidParameterError("multiplexing gain r must lie in [0, 1/2]")
    mu = min_gram_eigenvalue(scheme, book)
    n = book.block_length
    k = scheme.num_relays
    if math.isinf(mu):
        return 0.0
    log_bound = 2.0 * n * r * math.log(rho) - mu * rho ** (2.0 * r) / (4.0 * (1.0 + k))
    if log_bound > 700.0:
        return math.inf
    return math.exp(log_bound)

