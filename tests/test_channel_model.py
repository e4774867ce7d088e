"""Fading sampling, the effective channel, and the two receive chains."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from relaydiv import (
    InvalidParameterError,
    cyclic_delay_scheme,
    effective_channel,
    phase_rolling_scheme,
    simulate_normalized,
    simulate_two_hop,
    two_hop,
)
from relaydiv.channel_model import complex_gaussian
from relaydiv.outage_analysis import (
    BLOCK_TRIALS,
    _block_rng,
    _sample_fading,
    product_rayleigh_cdf,
)

# Kolmogorov-Smirnov critical value at level 1e-3, sqrt(-ln(alpha/2)/2): a
# sample of n rejects its law when sqrt(n) D exceeds it (two samples of n
# and m: when sqrt(nm/(n+m)) D does).  The seeds are fixed, so each test
# either always passes or always fails.
KS_CRITICAL = math.sqrt(-math.log(0.5e-3) / 2.0)


def _draw(k, rng):
    """One realization (f, h): f then h, each CN(0, 1) per relay."""
    f, h = complex_gaussian(rng, (2, k))
    return f, h


def test_fading_draw_deterministic_under_fixed_seed():
    a = _sample_fading(np.random.default_rng(1234), 5, 2)
    b = _sample_fading(np.random.default_rng(1234), 5, 2)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert [x.shape for x in a] == [(5, 2), (5, 2), (5,)]


@pytest.mark.parametrize("k", [8, 9])
def test_fading_draw_from_eight_relays_keeps_the_bits_of_its_law(k):
    # from K = 8 the noise term is numpy's pairwise b.sum(axis=-1); u and b
    # are drawn in that order from a twin generator
    got_u, got_b, noise = _sample_fading(np.random.default_rng(7), 1000, k)
    twin = np.random.default_rng(7)
    u = complex_gaussian(twin, (1000, k))
    b = twin.standard_exponential((1000, k))
    assert (got_u.tobytes(), got_b.tobytes()) == (u.tobytes(), b.tobytes())
    assert noise.tobytes() == (1.0 + b.sum(axis=-1)).tobytes()


def _ks_two_sample(x, y):
    x, y = np.sort(x), np.sort(y)
    both = np.concatenate([x, y])
    gap = np.searchsorted(x, both, "right") / x.size - np.searchsorted(y, both, "right") / y.size
    return np.abs(gap).max() * math.sqrt(x.size * y.size / (x.size + y.size))


def _ks_one_sample(x, cdf):
    x = np.sort(x)
    f = cdf(x)
    i = np.arange(1, x.size + 1) / x.size
    return max((i - f).max(), (f - i + 1.0 / x.size).max()) * math.sqrt(x.size)


def test_sampled_two_hop_pairs_follow_the_law_of_two_hop():
    # the draw takes the pair from its law, not through (f, h); both must
    # give the same |h~_k|^2 per relay, the same noise term, and the same
    # ||h~||^2 / (1 + ||h||^2), which couples the two
    n, k = 100_000, 3
    u, b, noise = _sample_fading(np.random.default_rng(101), n, k)
    ht = u * np.sqrt(b)
    ref_ht, ref_noise = two_hop(*complex_gaussian(np.random.default_rng(102), (2, n, k)))
    for i in range(k):
        assert _ks_two_sample(np.abs(ht[:, i]) ** 2, np.abs(ref_ht[:, i]) ** 2) < KS_CRITICAL
    assert _ks_two_sample(noise, ref_noise) < KS_CRITICAL
    ratio = np.sum(np.abs(ht) ** 2, axis=-1) / noise
    ref_ratio = np.sum(np.abs(ref_ht) ** 2, axis=-1) / ref_noise
    assert _ks_two_sample(ratio, ref_ratio) < KS_CRITICAL


def test_sampled_products_are_product_rayleigh():
    u, b, _ = _sample_fading(np.random.default_rng(103), 7000, 3)
    ht = u * np.sqrt(b)
    cdf = np.vectorize(product_rayleigh_cdf)
    assert _ks_one_sample(np.abs(ht).ravel(), cdf) < KS_CRITICAL


def test_sampled_phases_are_uniform_and_independent_of_the_magnitudes():
    n, k = 100_000, 2
    u, b, noise = _sample_fading(np.random.default_rng(104), n, k)
    ht = u * np.sqrt(b)
    phase = np.angle(ht)
    magnitude = np.abs(ht)
    assert _ks_one_sample(phase.ravel(), lambda x: (x + np.pi) / (2 * np.pi)) < KS_CRITICAL
    # a sample correlation of independent variables is ~ N(0, 1/n)
    bound = 4.0 / math.sqrt(n)
    for i in range(k):
        for wave in (np.cos(phase[:, i]), np.sin(phase[:, i])):
            assert abs(np.corrcoef(wave, magnitude[:, i])[0, 1]) < bound
            assert abs(np.corrcoef(wave, noise)[0, 1]) < bound


@pytest.mark.parametrize("seed,block", [(7, 0), (7, 1), (8, 0)])
def test_stream_blocks_follow_the_law_of_two_hop(seed, block):
    # one real block of each estimator's stream: |u|^2 and b are Exp(1),
    # arg u is uniform, and |h~| = |u| sqrt(b) is product-Rayleigh
    u, b, _ = _sample_fading(_block_rng(seed, block), BLOCK_TRIALS, 2)
    ht = u * np.sqrt(b)
    assert kstest(np.abs(u.ravel()) ** 2, "expon").pvalue > 1e-3
    assert kstest(b.ravel(), "expon").pvalue > 1e-3
    assert kstest(np.angle(u.ravel()), "uniform", args=(-np.pi, 2 * np.pi)).pvalue > 1e-3
    assert kstest(np.abs(ht.ravel()), np.vectorize(product_rayleigh_cdf)).pvalue > 1e-3


@pytest.mark.parametrize("shape", [(3,), (2, 5, 3), (0, 4), (), (2, 16384, 2)])
def test_complex_gaussian_keeps_the_bits_of_the_quotient_form(shape):
    # one standard_normal call fills interleaved (re, im) pairs in place; the
    # bits must be those of a twin generator's standard_normal(shape + (2,))
    # pairs, viewed as complex and divided by sqrt(2)
    for seed in range(3):
        got = complex_gaussian(np.random.default_rng(seed), shape)
        twin = np.random.default_rng(seed)
        want = twin.standard_normal(shape + (2,)).view(complex)[..., 0] / np.sqrt(2.0)
        assert got.shape == np.shape(want) and got.dtype == want.dtype
        assert got.tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize(
    "simulate", [simulate_two_hop, simulate_normalized], ids=["two-hop", "normalized"]
)
def test_simulators_reject_fading_of_the_wrong_shape(simulate):
    scheme = cyclic_delay_scheme(2, 4)
    x, rng = np.ones(4), np.random.default_rng(0)
    for f, h in [(np.zeros(0), np.zeros(0)), (np.ones(3), np.ones(3)),
                 (np.ones(2), np.ones(3)), (np.ones((1, 2)), np.ones((1, 2)))]:
        with pytest.raises(InvalidParameterError, match="f and h must have shape"):
            simulate(scheme, f, h, x, 10.0, rng)
    # well-shaped fading does not excuse a signal of other than N symbols
    with pytest.raises(InvalidParameterError, match="x must have shape"):
        simulate(scheme, np.ones(2), np.ones(2), np.ones(3), 10.0, rng)


def test_fading_entry_statistics():
    # one big draw gives 10^6 i.i.d. entries across f and h
    entries = np.concatenate(_draw(500_000, np.random.default_rng(77)))
    assert abs(entries.mean()) < 2e-3
    var = np.mean(np.abs(entries) ** 2)
    assert 0.99 < var < 1.01
    # real/imag parts each carry half the power and are uncorrelated
    assert 0.49 < entries.real.var() < 0.51
    assert 0.49 < entries.imag.var() < 0.51
    corr = np.mean(entries.real * entries.imag)
    assert abs(corr) < 3e-3


def test_two_hop_product_second_moment():
    second = np.mean(np.abs(two_hop(*_draw(1_000_000, np.random.default_rng(78)))[0]) ** 2)
    assert 0.99 < second < 1.01


def test_effective_channel_unit_fading_single_relay():
    for n in (1, 2, 5):
        scheme = cyclic_delay_scheme(1, n)
        heff = effective_channel(*two_hop(np.ones(1), np.ones(1)), scheme.stacked())
        np.testing.assert_allclose(heff, np.eye(n) / np.sqrt(2 * n), atol=1e-15)


def test_effective_channel_zero_fading():
    scheme = cyclic_delay_scheme(2, 4)
    assert np.all(effective_channel(*two_hop(np.zeros(2), np.zeros(2)), scheme.stacked()) == 0)


def test_effective_channel_dimension_mismatch():
    scheme = cyclic_delay_scheme(2, 4)
    ht, noise = two_hop(*complex_gaussian(np.random.default_rng(0), (2, 3)))
    with pytest.raises(InvalidParameterError):
        effective_channel(ht, noise, scheme.stacked())


def test_frobenius_norm_triangle_bound():
    rng = np.random.default_rng(42)
    scheme = cyclic_delay_scheme(3, 5)
    max_g = max(np.linalg.norm(g) for g in scheme.matrices)
    for _ in range(50):
        f, h = complex_gaussian(rng, (2, 3))
        heff = effective_channel(*two_hop(f, h), scheme.stacked())
        bound = np.abs(h * f).sum() * max_g / np.sqrt(1 + np.linalg.norm(h) ** 2)
        assert np.linalg.norm(heff) <= bound + 1e-12


def test_effective_channel_superposition_in_first_hop():
    # for fixed h the matrix is linear in f, entry by entry
    rng = np.random.default_rng(43)
    scheme = cyclic_delay_scheme(3, 4)
    h = complex_gaussian(rng, 3)
    f1 = complex_gaussian(rng, 3)
    f2 = complex_gaussian(rng, 3)
    g = scheme.stacked()
    combined = effective_channel(*two_hop(f1 + f2, h), g)
    split = effective_channel(*two_hop(f1, h), g) + effective_channel(*two_hop(f2, h), g)
    np.testing.assert_allclose(combined, split, atol=1e-13)


def test_two_hop_high_snr_approaches_normalized_model():
    rng = np.random.default_rng(44)
    scheme = cyclic_delay_scheme(2, 4)
    f, h = _draw(2, rng)
    x = complex_gaussian(rng, 4)
    got = simulate_two_hop(scheme, f, h, x, 1e6, rng, relay_noise=False, dest_noise=False)
    want = simulate_normalized(scheme, f, h, x, 1e6, rng, dest_noise=False)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-3


def test_prefactor_convergence_rate():
    rng = np.random.default_rng(45)
    for _ in range(200):
        hn2 = float(np.abs(complex_gaussian(rng, 3)) ** 2 @ np.ones(3))
        rho = 1e6
        exact = rho / np.sqrt(1 + rho * (1 + hn2))
        limit = np.sqrt(rho / (1 + hn2))
        assert abs(exact - limit) / limit < 1e-3


def test_two_hop_single_relay_closed_form():
    rng = np.random.default_rng(46)
    n = 4
    scheme = cyclic_delay_scheme(1, n)
    f, h = _draw(1, rng)
    x = complex_gaussian(rng, n)
    got = simulate_two_hop(scheme, f, h, x, 7.5, rng, relay_noise=False, dest_noise=False)
    rho = 7.5
    coeff = rho / np.sqrt(1 + rho * (1 + abs(h[0]) ** 2))
    want = coeff * f[0] * h[0] * x / np.sqrt(n)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_two_hop_noise_is_white_after_normalization():
    # x = 0: the output is pure noise with identity covariance given (f, h)
    rng = np.random.default_rng(47)
    n, k, trials = 4, 2, 100_000
    scheme = cyclic_delay_scheme(k, n)
    f, h = _draw(k, rng)
    x = np.zeros(n, dtype=complex)
    samples = np.empty((trials, n), dtype=complex)
    for t in range(trials):
        samples[t] = simulate_two_hop(scheme, f, h, x, 50.0, rng)
    cov = samples.conj().T @ samples / trials
    diag = np.abs(np.diag(cov))
    off = np.abs(cov - np.diag(np.diag(cov))).max()
    assert np.all((diag > 0.97) & (diag < 1.03))
    assert off < 0.02


def test_normalized_model_definition_and_reproducibility():
    rng = np.random.default_rng(48)
    scheme = phase_rolling_scheme(2, 4)
    f, h = _draw(2, rng)
    x = complex_gaussian(rng, 4)
    noiseless = simulate_normalized(scheme, f, h, x, 30.0, rng, dest_noise=False)
    heff = effective_channel(*two_hop(f, h), scheme.stacked())
    np.testing.assert_array_equal(noiseless, np.sqrt(30.0) * (heff @ x))
    a = simulate_normalized(scheme, f, h, x, 30.0, np.random.default_rng(9))
    b = simulate_normalized(scheme, f, h, x, 30.0, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_signal_parts_of_both_chains_agree_at_high_snr():
    rng = np.random.default_rng(49)
    scheme = cyclic_delay_scheme(3, 6)
    for _ in range(20):
        f, h = _draw(3, rng)
        x = complex_gaussian(rng, 6)
        exact = simulate_two_hop(scheme, f, h, x, 1e6, rng, relay_noise=False, dest_noise=False)
        model = simulate_normalized(scheme, f, h, x, 1e6, rng, dest_noise=False)
        diff = np.abs(exact - model)
        scale = np.abs(model) + np.linalg.norm(model) / len(model)
        assert np.all(diff / scale < 1e-3)


def test_power_scale_variant_closed_form_and_whiteness():
    rng = np.random.default_rng(51)
    n, scale, rho = 4, 0.5, 10.0
    scheme = cyclic_delay_scheme(1, n)
    f, h = _draw(1, rng)
    x = complex_gaussian(rng, n)
    got = simulate_two_hop(
        scheme, f, h, x, rho, rng, relay_noise=False, dest_noise=False, relay_power_scale=scale
    )
    coeff = np.sqrt(scale) * rho / np.sqrt(1 + rho * (1 + scale * abs(h[0]) ** 2))
    np.testing.assert_allclose(got, coeff * f[0] * h[0] * x / np.sqrt(n), rtol=1e-12)
    # the normalization tracks the scale, so the noise stays unit variance
    zeros = np.zeros(n, dtype=complex)
    samples = np.stack(
        [
            simulate_two_hop(scheme, f, h, zeros, rho, rng, relay_power_scale=scale)
            for _ in range(20_000)
        ]
    )
    var = np.mean(np.abs(samples) ** 2, axis=0)
    assert np.all((var > 0.95) & (var < 1.05))
