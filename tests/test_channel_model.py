"""Fading sampling, the effective channel, and the two receive chains."""

import numpy as np
import pytest

from relaydiv import (
    InvalidParameterError,
    cyclic_delay_scheme,
    effective_channel,
    phase_rolling_scheme,
    simulate_normalized,
    simulate_two_hop,
    two_hop,
)
from relaydiv.channel_model import ChannelRealization, complex_gaussian
from relaydiv.outage_analysis import _sample_fading


def _draw(k, rng):
    """One realization: f then h, each CN(0, 1) per relay."""
    return ChannelRealization(*complex_gaussian(rng, (2, k)))


def test_fading_draw_deterministic_under_fixed_seed():
    a = _sample_fading(np.random.default_rng(1234), 5, 2)
    b = _sample_fading(np.random.default_rng(1234), 5, 2)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert a[0].shape == (5, 2) and a[1].shape == (5,)


@pytest.mark.parametrize("shape", [(3,), (2, 5, 3), (0, 4), (), (2, 16384, 2)])
def test_complex_gaussian_keeps_the_bits_of_the_quotient_form(shape):
    # the draw writes re/sqrt(2) and im/sqrt(2) into one array; it must give
    # exactly the bits of (a + jb)/sqrt(2) from the same generator state
    for seed in range(3):
        got = complex_gaussian(np.random.default_rng(seed), shape)
        twin = np.random.default_rng(seed)
        want = (twin.standard_normal(shape) + 1j * twin.standard_normal(shape)) / np.sqrt(2.0)
        assert got.shape == np.shape(want) and got.dtype == want.dtype
        assert got.tobytes() == np.asarray(want).tobytes()


def test_channel_realization_rejects_zero_relays():
    with pytest.raises(InvalidParameterError):
        ChannelRealization(f=np.zeros(0), h=np.zeros(0))


def test_fading_entry_statistics():
    # one big draw gives 10^6 i.i.d. entries across f and h
    ch = _draw(500_000, np.random.default_rng(77))
    entries = np.concatenate([ch.f, ch.h])
    assert abs(entries.mean()) < 2e-3
    var = np.mean(np.abs(entries) ** 2)
    assert 0.99 < var < 1.01
    # real/imag parts each carry half the power and are uncorrelated
    assert 0.49 < entries.real.var() < 0.51
    assert 0.49 < entries.imag.var() < 0.51
    corr = np.mean(entries.real * entries.imag)
    assert abs(corr) < 3e-3


def test_two_hop_product_second_moment():
    ch = _draw(1_000_000, np.random.default_rng(78))
    second = np.mean(np.abs(two_hop(ch.f, ch.h)[0]) ** 2)
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
    ch = _draw(2, rng)
    x = complex_gaussian(rng, 4)
    got = simulate_two_hop(scheme, ch, x, 1e6, rng, relay_noise=False, dest_noise=False)
    want = simulate_normalized(scheme, ch, x, 1e6, rng, dest_noise=False)
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
    ch = _draw(1, rng)
    x = complex_gaussian(rng, n)
    got = simulate_two_hop(scheme, ch, x, 7.5, rng, relay_noise=False, dest_noise=False)
    rho = 7.5
    coeff = rho / np.sqrt(1 + rho * (1 + abs(ch.h[0]) ** 2))
    want = coeff * ch.f[0] * ch.h[0] * x / np.sqrt(n)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_two_hop_noise_is_white_after_normalization():
    # x = 0: the output is pure noise with identity covariance given (f, h)
    rng = np.random.default_rng(47)
    n, k, trials = 4, 2, 100_000
    scheme = cyclic_delay_scheme(k, n)
    ch = _draw(k, rng)
    x = np.zeros(n, dtype=complex)
    samples = np.empty((trials, n), dtype=complex)
    for t in range(trials):
        samples[t] = simulate_two_hop(scheme, ch, x, 50.0, rng)
    cov = samples.conj().T @ samples / trials
    diag = np.abs(np.diag(cov))
    off = np.abs(cov - np.diag(np.diag(cov))).max()
    assert np.all((diag > 0.97) & (diag < 1.03))
    assert off < 0.02


def test_normalized_model_definition_and_reproducibility():
    rng = np.random.default_rng(48)
    scheme = phase_rolling_scheme(2, 4)
    ch = _draw(2, rng)
    x = complex_gaussian(rng, 4)
    noiseless = simulate_normalized(scheme, ch, x, 30.0, rng, dest_noise=False)
    heff = effective_channel(*two_hop(ch.f, ch.h), scheme.stacked())
    np.testing.assert_array_equal(noiseless, np.sqrt(30.0) * (heff @ x))
    a = simulate_normalized(scheme, ch, x, 30.0, np.random.default_rng(9))
    b = simulate_normalized(scheme, ch, x, 30.0, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_signal_parts_of_both_chains_agree_at_high_snr():
    rng = np.random.default_rng(49)
    scheme = cyclic_delay_scheme(3, 6)
    for _ in range(20):
        ch = _draw(3, rng)
        x = complex_gaussian(rng, 6)
        exact = simulate_two_hop(scheme, ch, x, 1e6, rng, relay_noise=False, dest_noise=False)
        model = simulate_normalized(scheme, ch, x, 1e6, rng, dest_noise=False)
        diff = np.abs(exact - model)
        scale = np.abs(model) + np.linalg.norm(model) / len(model)
        assert np.all(diff / scale < 1e-3)


def test_power_scale_variant_closed_form_and_whiteness():
    rng = np.random.default_rng(51)
    n, scale, rho = 4, 0.5, 10.0
    scheme = cyclic_delay_scheme(1, n)
    ch = _draw(1, rng)
    x = complex_gaussian(rng, n)
    got = simulate_two_hop(
        scheme, ch, x, rho, rng, relay_noise=False, dest_noise=False, relay_power_scale=scale
    )
    coeff = np.sqrt(scale) * rho / np.sqrt(1 + rho * (1 + scale * abs(ch.h[0]) ** 2))
    np.testing.assert_allclose(got, coeff * ch.f[0] * ch.h[0] * x / np.sqrt(n), rtol=1e-12)
    # the normalization tracks the scale, so the noise stays unit variance
    zeros = np.zeros(n, dtype=complex)
    samples = np.stack(
        [
            simulate_two_hop(scheme, ch, zeros, rho, rng, relay_power_scale=scale)
            for _ in range(20_000)
        ]
    )
    var = np.mean(np.abs(samples) ** 2, axis=0)
    assert np.all((var > 0.95) & (var < 1.05))
