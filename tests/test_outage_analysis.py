"""Bessel/CDF machinery, Monte Carlo estimators, bounds, and slope fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from relaydiv import (
    Codebook,
    InsufficientDataError,
    InvalidParameterError,
    OutageCurve,
    ProbEstimate,
    ResourceLimitError,
    adaptive_trials,
    analytic_jensen_bracket,
    bessel_k1,
    custom_scheme,
    cyclic_delay_scheme,
    fit_diversity_slope,
    gaussian_codebook,
    gramian,
    mc_exact_outage,
    mc_jensen_outage,
    mc_ml_error,
    min_gram_eigenvalue,
    phase_rolling_scheme,
    product_rayleigh_cdf,
    simulate_normalized,
    simulate_two_hop,
    union_bound,
)
from relaydiv.channel_model import ChannelRealization, complex_gaussian
from relaydiv.outage_analysis import wilson_interval
from relaydiv.relay_schemes import RelayScheme

# Frozen from the integral representation of K1 (quadrature oracle below).
K1_AT_ONE = 0.6019072301972346


def k1_quadrature(x):
    # independent oracle: K1(x) = int_0^inf exp(-x cosh t) cosh t dt
    val, _ = quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
        0.0,
        60.0,
        limit=400,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def product_cdf_quadrature(t):
    # P(X E < t) for independent unit-mean exponentials X, E; the integrand
    # has a boundary layer near x ~ t, so integrate the two regimes apart
    split = max(50.0 * t, 1e-12)
    head, _ = quad(
        lambda x: math.exp(-x) * (1.0 - math.exp(-t / x)),
        0.0, split, limit=800, epsabs=1e-15, epsrel=1e-13,
    )
    tail, _ = quad(
        lambda x: math.exp(-x) * (1.0 - math.exp(-t / x)),
        split, np.inf, limit=800, epsabs=1e-15, epsrel=1e-13,
    )
    return head + tail


# ---------------------------------------------------------------------------
# bessel_k1 and product_rayleigh_cdf
# ---------------------------------------------------------------------------

def test_k1_domain():
    with pytest.raises(InvalidParameterError):
        bessel_k1(0.0)
    with pytest.raises(InvalidParameterError):
        bessel_k1(-1.0)


def test_k1_small_argument_asymptote():
    x = 1e-4
    assert abs(x * bessel_k1(x) - 1.0) < 1e-4


def test_k1_at_one_matches_frozen_oracle_value():
    assert bessel_k1(1.0) == pytest.approx(K1_AT_ONE, abs=1e-12)
    assert abs(bessel_k1(1.0) - k1_quadrature(1.0)) < 1e-9


def test_k1_against_quadrature_grid():
    for x in [0.01, 0.1, 0.5, 1.0, 2.0, 3.7, 5.0, 8.0, 8.9, 9.1, 12.0, 20.0, 30.0]:
        assert abs(bessel_k1(x) - k1_quadrature(x)) < 1e-9


def test_k1_large_argument_asymptote():
    # K1(x) e^x sqrt(2x/pi) = 1 + 3/(8x) + O(x^-2), so the leading-term
    # ratio sits at 1 + 7.5e-3 for x = 50 and reaches the 1e-3 band at
    # x ~ 375; check both the first-order form and the plain limit
    x = 50.0
    ratio = bessel_k1(x) * math.exp(x) * math.sqrt(2 * x / math.pi)
    assert abs(ratio - (1.0 + 3.0 / (8.0 * x))) < 1e-4
    x = 400.0
    ratio = bessel_k1(x) * math.exp(x) * math.sqrt(2 * x / math.pi)
    assert abs(ratio - 1.0) < 1e-3


@settings(max_examples=200, deadline=None, derandomize=True)
@given(offset=st.floats(1e-15, 1e-9))
def test_k1_is_continuous_across_the_series_crossover(offset):
    # each branch is within 1e-12 absolute of K1, so the jump at x = 9 is
    # bounded by 2e-12 absolute; the true slope adds at most ~1e-13
    assert abs(bessel_k1(9.0 - offset) - bessel_k1(9.0 + offset)) <= 2e-12


def test_k1_huge_argument_underflows_gracefully():
    assert bessel_k1(700.0) > 0.0
    assert bessel_k1(800.0) == 0.0


def test_product_rayleigh_cdf_boundaries():
    assert product_rayleigh_cdf(0.0) == 0.0
    assert product_rayleigh_cdf(20.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        product_rayleigh_cdf(-0.1)


def test_product_rayleigh_cdf_monotone_grid():
    grid = np.linspace(0.0, 10.0, 1000)
    values = np.array([product_rayleigh_cdf(x) for x in grid])
    assert np.all(np.diff(values) >= 0)
    assert np.all((values >= 0) & (values <= 1))


def test_product_rayleigh_cdf_equals_exponential_product_law():
    # |f h|^2 is a product of two unit-mean exponentials
    for x in [0.05, 0.3, 1.0, 2.5]:
        assert product_rayleigh_cdf(x) == pytest.approx(
            product_cdf_quadrature(x * x), abs=1e-9
        )


def test_product_rayleigh_cdf_small_argument_keeps_relative_precision():
    x = 1e-5
    want = x * x * (2 * math.log(1 / x) + 1 - 2 * 0.5772156649015329)
    assert product_rayleigh_cdf(x) == pytest.approx(want, rel=1e-4)


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def test_wilson_interval_contains_estimate():
    for events, trials in [(0, 100), (1, 100), (50, 100), (100, 100), (3, 10**6)]:
        lo, hi = wilson_interval(events, trials)
        assert 0.0 <= lo <= events / trials <= hi <= 1.0


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.data(), trials=st.integers(1, 10**12))
def test_wilson_interval_invariants(data, trials):
    events = data.draw(st.integers(0, trials))
    lo, hi = wilson_interval(events, trials)
    assert 0.0 <= lo <= events / trials <= hi <= 1.0
    if events == 0:
        assert lo == 0.0
    if events == trials:
        assert hi == 1.0


def test_jensen_outage_rate_zero_is_exactly_zero():
    scheme = cyclic_delay_scheme(2, 4)
    est = mc_jensen_outage(scheme, 0.0, 100.0, 50_000, seed=1)
    assert est.probability == 0.0
    assert est.events == 0


def test_jensen_outage_matches_quadrature_oracle_single_relay():
    n = 4
    scheme = cyclic_delay_scheme(1, n)
    rho = 1000.0
    r = 0.25
    est = mc_jensen_outage(scheme, r, rho, 1_000_000, seed=2024)
    c = n * (rho ** (2 * r) - 1.0) / rho
    # the outage event is X E < c (1 + X) with X, E unit-mean exponentials
    want, _ = quad(
        lambda x: math.exp(-x) * (1.0 - math.exp(-c * (1.0 + x) / x)),
        0.0,
        np.inf,
        limit=400,
    )
    half_width = (est.ci_high - est.ci_low) / 2
    assert abs(est.probability - want) <= 1.5 * half_width


def test_outage_estimators_deterministic_and_thread_invariant():
    scheme = cyclic_delay_scheme(2, 4)
    a = mc_jensen_outage(scheme, 0.25, 1000.0, 200_000, seed=5, threads=1)
    b = mc_jensen_outage(scheme, 0.25, 1000.0, 200_000, seed=5, threads=4)
    c = mc_jensen_outage(scheme, 0.25, 1000.0, 200_000, seed=5)
    assert a == b == c
    d = mc_jensen_outage(scheme, 0.25, 1000.0, 200_000, seed=6)
    assert d.events != a.events  # different seed, different stream


def test_exact_outage_dominates_jensen_outage_on_shared_stream():
    scheme = cyclic_delay_scheme(2, 4)
    for seed in (1, 2, 3):
        jensen = mc_jensen_outage(scheme, 0.25, 316.23, 100_000, seed=seed)
        exact = mc_exact_outage(scheme, 0.25, 316.23, 100_000, seed=seed)
        assert exact.events >= jensen.events


def test_exact_outage_rate_zero_is_zero():
    scheme = cyclic_delay_scheme(2, 4)
    est = mc_exact_outage(scheme, 0.0, 100.0, 20_000, seed=9)
    assert est.probability == 0.0


def test_exact_and_jensen_outage_share_the_exponent_scale():
    # the two estimates differ by a bounded constant factor, never by an
    # SNR-dependent order of magnitude
    scheme = cyclic_delay_scheme(2, 4)
    rho = 10 ** 3.5
    jensen = mc_jensen_outage(scheme, 0.25, rho, 400_000, seed=12)
    exact = mc_exact_outage(scheme, 0.25, rho, 400_000, seed=12)
    assert exact.probability >= jensen.probability
    assert exact.probability <= 2.5 * jensen.probability


def _regression_custom_scheme():
    rng = np.random.default_rng(5)
    return custom_scheme([np.linalg.qr(complex_gaussian(rng, (4, 4)))[0] / 2 for _ in range(3)])


@pytest.mark.parametrize(
    "make_scheme,threads,jensen_events,exact_events",
    [
        (lambda: cyclic_delay_scheme(2, 4), 2, 16533, 19607),
        (lambda: phase_rolling_scheme(3, 4), None, 11157, 16228),
        (_regression_custom_scheme, None, 11445, 16731),
    ],
    ids=["cdd", "phase-rolling", "custom"],
)
def test_outage_event_counts_are_pinned_at_a_fixed_seed(
    make_scheme, threads, jensen_events, exact_events
):
    # Any change to the fading stream or to an MI kernel's bits moves these.
    scheme = make_scheme()
    jensen = mc_jensen_outage(scheme, 0.25, 100.0, 40_000, seed=11, threads=threads)
    exact = mc_exact_outage(scheme, 0.25, 100.0, 40_000, seed=11)
    assert (jensen.events, exact.events) == (jensen_events, exact_events)


def test_ml_error_event_count_is_pinned_at_a_fixed_seed():
    book = gaussian_codebook(2, 0.25, 16.0, np.random.default_rng(81))
    est = mc_ml_error(cyclic_delay_scheme(2, 2), book, 10**2.5, 40_000, seed=810)
    assert est.events == 970


def test_outage_argument_validation():
    scheme = cyclic_delay_scheme(1, 2)
    with pytest.raises(InvalidParameterError):
        mc_jensen_outage(scheme, 0.7, 100.0, 1000, seed=0)
    with pytest.raises(InvalidParameterError):
        mc_jensen_outage(scheme, 0.1, 0.5, 1000, seed=0)
    with pytest.raises(InvalidParameterError):
        mc_jensen_outage(scheme, 0.1, 100.0, 0, seed=0)
    # a NaN rho (or rate) compares false to every bound, so each check must
    # be written to fail on it
    nan = math.nan
    book = gaussian_codebook(2, 0.25, 16.0, np.random.default_rng(81))
    rng = np.random.default_rng(0)
    ch = ChannelRealization(*complex_gaussian(rng, (2, 1)))
    x = np.ones(2, dtype=complex)
    for call in (
        lambda: mc_jensen_outage(scheme, 0.1, nan, 1000, seed=0),
        lambda: mc_exact_outage(scheme, 0.1, nan, 1000, seed=0),
        lambda: mc_jensen_outage(scheme, 0.1, 100.0, 1000, seed=0, rate_bits=nan),
        lambda: mc_ml_error(cyclic_delay_scheme(2, 2), book, nan, 1000, seed=1),
        lambda: analytic_jensen_bracket(1, gramian(scheme), 0.1, nan),
        lambda: union_bound(cyclic_delay_scheme(2, 2), book, nan, 0.1),
        lambda: gaussian_codebook(2, 0.25, nan, rng),
        lambda: simulate_two_hop(scheme, ch, x, nan, rng),
        lambda: simulate_two_hop(scheme, ch, x, 10.0, rng, relay_power_scale=nan),
        lambda: simulate_normalized(scheme, ch, x, nan, rng),
        lambda: bessel_k1(nan),
        lambda: product_rayleigh_cdf(nan),
    ):
        with pytest.raises(InvalidParameterError):
            call()


def test_adaptive_trials_policy():
    assert adaptive_trials(0.5) == 100_000
    assert adaptive_trials(1e-6) == 10_000_000
    assert adaptive_trials(2e-4) == 1_000_000
    assert adaptive_trials(0.0) == 10_000_000


# ---------------------------------------------------------------------------
# Analytic bracket
# ---------------------------------------------------------------------------

def test_bracket_values_in_unit_interval_and_ordered():
    scheme = cyclic_delay_scheme(2, 4)
    summary = gramian(scheme)
    for db in (10, 20, 30, 40, 60):
        lower, upper = analytic_jensen_bracket(2, summary, 0.25, 10 ** (db / 10))
        assert 0.0 <= lower <= 1.0
        assert 0.0 <= upper <= 1.0
        assert lower <= upper


def test_bracket_upper_single_relay_matches_quadrature():
    # with a scalar unit Gramian the upper envelope is the product law at
    # threshold (1+K) N / rho^(1-2r)
    n = 4
    summary = gramian(cyclic_delay_scheme(1, n))
    for rho in (1e2, 1e4, 1e6):
        _, upper = analytic_jensen_bracket(1, summary, 0.0, rho)
        want = product_cdf_quadrature(2.0 * n / rho)
        assert upper == pytest.approx(want, rel=1e-7)


def test_bracket_requires_full_rank_gramian():
    g = np.eye(4) / 2.0
    summary = gramian(RelayScheme((g, g)))
    with pytest.raises(InvalidParameterError):
        analytic_jensen_bracket(2, summary, 0.1, 100.0)


def test_bracket_contains_monte_carlo_estimate_at_high_snr():
    # order-of-magnitude sandwich: the envelopes are exponent-tight only
    scheme = cyclic_delay_scheme(2, 4)
    summary = gramian(scheme)
    for db in (30, 35, 40):
        rho = 10 ** (db / 10)
        est = mc_jensen_outage(scheme, 0.25, rho, 400_000, seed=31)
        lower, upper = analytic_jensen_bracket(2, summary, 0.25, rho)
        assert lower / 10 <= est.probability <= upper * 10


def test_bracket_and_mc_slopes_consistent():
    # raw log-log slopes of the analytic envelopes and the MC curve agree
    # to within 0.3 over a desk-scale grid
    scheme = cyclic_delay_scheme(2, 8)
    summary = gramian(scheme)
    dbs = [20, 25, 30, 35, 40]
    points, lowers, uppers = [], [], []
    for i, db in enumerate(dbs):
        rho = 10 ** (db / 10)
        points.append(mc_jensen_outage(scheme, 0.0, rho, 400_000, seed=60 + i, rate_bits=1.0))
        lo, up = analytic_jensen_bracket(2, summary, 0.0, rho)
        lowers.append(lo)
        uppers.append(up)
    x = np.array(dbs) / 10 * np.log2(10)
    mc_slope = np.polyfit(x, np.log2([p.probability for p in points]), 1)[0]
    up_slope = np.polyfit(x, np.log2(uppers), 1)[0]
    lo_slope = np.polyfit(x, np.log2(lowers), 1)[0]
    assert abs(mc_slope - up_slope) <= 0.3
    assert abs(mc_slope - lo_slope) <= 0.3


# ---------------------------------------------------------------------------
# Slope fitting
# ---------------------------------------------------------------------------

def _synthetic_curve(dbs, probs, trials=10**6):
    points = []
    for db, p in zip(dbs, probs):
        lo, hi = max(0.0, p * 0.9), min(1.0, p * 1.1)
        points.append(
            ProbEstimate(
                snr_db=float(db),
                probability=float(p),
                ci_low=lo,
                ci_high=hi,
                trials=trials,
                events=int(round(p * trials)),
            )
        )
    return OutageCurve(tuple(points))


def test_fit_recovers_exact_power_law():
    dbs = [10, 15, 20, 25, 30]
    rhos = [10 ** (db / 10) for db in dbs]
    curve = _synthetic_curve(dbs, [rho**-2.0 for rho in rhos], trials=10**12)
    fit = fit_diversity_slope(curve)
    assert fit.d_hat == pytest.approx(2.0, abs=1e-9)
    assert fit.points_used == 5


def test_fit_absorbs_constant_prefactor():
    dbs = [10, 15, 20, 25]
    rhos = [10 ** (db / 10) for db in dbs]
    curve = _synthetic_curve(dbs, [7.0 * rho**-1.0 for rho in rhos], trials=10**12)
    fit = fit_diversity_slope(curve)
    assert fit.d_hat == pytest.approx(1.0, abs=1e-9)


def test_fit_excludes_starved_points_and_requires_two():
    dbs = [10, 20, 30]
    curve = _synthetic_curve(dbs, [1e-2, 1e-4, 1e-9], trials=10**6)
    fit = fit_diversity_slope(curve, min_events=20)
    assert fit.points_used == 2  # the 1e-9 point has ~0 events
    with pytest.raises(InsufficientDataError):
        fit_diversity_slope(curve, min_events=10**9)


def test_fit_end_to_end_on_jensen_outage():
    scheme = cyclic_delay_scheme(2, 8)
    points = []
    for i, db in enumerate(range(20, 50, 5)):
        rho = 10 ** (db / 10)
        points.append(mc_jensen_outage(scheme, 0.0, rho, 500_000, seed=90 + i, rate_bits=1.0))
    fit = fit_diversity_slope(OutageCurve(tuple(points)))
    assert 1.2 <= fit.d_hat <= 2.4  # raw finite-SNR slope sits below the limit 2


# ---------------------------------------------------------------------------
# Union bound
# ---------------------------------------------------------------------------

def test_union_bound_vacuous_for_duplicate_codewords():
    scheme = cyclic_delay_scheme(2, 2)
    word = np.ones(2, dtype=complex)
    book = Codebook(np.stack([word, word]), rate_multiplexing=0.1, snr=100.0)
    rho = 100.0
    want = rho ** (2 * 2 * 0.1)
    assert union_bound(scheme, book, rho, 0.1) == pytest.approx(want, rel=1e-12)


def test_union_bound_decreases_and_matches_direct_evaluation():
    scheme = cyclic_delay_scheme(2, 2)
    words = np.array([[2.0, 2.0j], [-2.0, -2.0j]])
    book = Codebook(words, rate_multiplexing=0.1, snr=100.0)
    mu = min_gram_eigenvalue(scheme, book)
    values = []
    for db in range(20, 65, 5):
        rho = 10 ** (db / 10)
        got = union_bound(scheme, book, rho, 0.1)
        direct = rho ** (2 * 2 * 0.1) * math.exp(-mu * rho ** (2 * 0.1) / (4 * 3))
        assert got == pytest.approx(direct, rel=1e-10)
        values.append(got)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_ml_error_antipodal_pair_matches_q_average():
    rng = np.random.default_rng(3)
    n = 2
    scheme = cyclic_delay_scheme(1, n)
    x = np.array([1.0, 1.0j])
    book = Codebook(np.stack([x, -x]), rate_multiplexing=0.0, snr=10.0)
    rho = 10.0
    est = mc_ml_error(scheme, book, rho, 200_000, seed=4)
    # oracle: average the exact conditional pairwise error over fresh draws
    draws = 200_000
    f, h = (rng.standard_normal((2, draws)) + 1j * rng.standard_normal((2, draws))) / np.sqrt(2)
    hdx = np.abs(h * f) * np.linalg.norm(2 * x) / np.sqrt(n * (1 + np.abs(h) ** 2))
    want = float(np.mean(0.5 * erfc(np.sqrt(rho / 2) * hdx / np.sqrt(2))))
    assert est.probability == pytest.approx(want, abs=3e-3)


def test_ml_error_vanishes_at_high_snr_for_full_rank_book():
    scheme = cyclic_delay_scheme(2, 2)
    rng = np.random.default_rng(5)
    words = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    book = Codebook(words, rate_multiplexing=0.1, snr=1e6)
    est = mc_ml_error(scheme, book, 1e6, 50_000, seed=6)
    assert est.probability < 1e-3


def test_ml_error_validation():
    scheme = cyclic_delay_scheme(1, 2)
    single = Codebook(np.ones((1, 2)), 0.0, 10.0)
    with pytest.raises(InvalidParameterError):
        mc_ml_error(scheme, single, 10.0, 100, seed=0)
    rng = np.random.default_rng(7)
    big = Codebook(rng.standard_normal((50, 2)), 0.1, 10.0)
    with pytest.raises(ResourceLimitError):
        mc_ml_error(scheme, big, 10.0, 100, seed=0, size_cap=10)
