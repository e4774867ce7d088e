"""Mutual information and the Jensen bound, by the matrix and Gramian paths."""

import numpy as np
import pytest

from relaydiv import (
    InvalidParameterError,
    cyclic_delay_scheme,
    effective_channel,
    gramian,
    jensen_mi,
    jensen_mi_via_gramian,
    mutual_information,
    phase_rolling_scheme,
    sample_channel,
)
from relaydiv.channel_model import ChannelRealization, EffectiveChannel, complex_gaussian


def _random_heff(rng, n=4):
    return EffectiveChannel(0.3 * complex_gaussian(rng, (n, n)))


def test_zero_channel_gives_zero_information():
    heff = EffectiveChannel(np.zeros((3, 3)))
    assert mutual_information(heff, 10.0) == 0.0
    assert jensen_mi(heff, 10.0) == 0.0


def test_equal_eigenvalue_case_makes_jensen_tight():
    for n in (1, 2, 8):
        heff = EffectiveChannel(np.eye(n) / np.sqrt(2 * n))
        rho = 37.0
        want = 0.5 * np.log2(1 + rho / (2 * n))
        assert mutual_information(heff, rho) == pytest.approx(want, rel=1e-12)
        assert jensen_mi(heff, rho) == pytest.approx(want, rel=1e-12)


def test_eigenvalue_sum_matches_log_det():
    rng = np.random.default_rng(3)
    for _ in range(50):
        heff = _random_heff(rng)
        rho = float(10 ** rng.uniform(0, 3))
        m = heff.matrix
        n = m.shape[0]
        det = np.linalg.det(np.eye(n) + rho * (m @ m.conj().T))
        want = float(np.log2(det.real)) / (2 * n)
        assert mutual_information(heff, rho) == pytest.approx(want, abs=1e-10)


def test_jensen_dominates_exact_mi():
    rng = np.random.default_rng(4)
    for _ in range(2000):
        heff = _random_heff(rng, n=int(rng.integers(1, 6)))
        rho = float(10 ** rng.uniform(-1, 4))
        assert mutual_information(heff, rho) <= jensen_mi(heff, rho) + 1e-9


def test_mi_monotone_in_snr():
    rng = np.random.default_rng(5)
    heff = _random_heff(rng)
    rhos = np.logspace(-1, 4, 30)
    values = [mutual_information(heff, r) for r in rhos]
    assert np.all(np.diff(values) >= 0)


def test_gramian_path_single_relay_closed_form():
    n = 4
    scheme = cyclic_delay_scheme(1, n)
    summary = gramian(scheme)
    ch = ChannelRealization(f=np.array([0.7 - 0.2j]), h=np.array([1.1 + 0.4j]))
    rho = 25.0
    ht2 = abs(ch.h[0] * ch.f[0]) ** 2
    want = 0.5 * np.log2(1 + rho * ht2 / (n * (1 + abs(ch.h[0]) ** 2)))
    assert jensen_mi_via_gramian(summary, ch, rho) == pytest.approx(want, rel=1e-12)
    heff = effective_channel(scheme, ch)
    assert jensen_mi(heff, rho) == pytest.approx(want, rel=1e-12)


def test_gramian_path_identity_gramian_closed_form():
    # CDD and phase rolling have identity Gramians, so the bound collapses
    # to the norm of the two-hop product vector
    rng = np.random.default_rng(6)
    for scheme in (cyclic_delay_scheme(3, 6), phase_rolling_scheme(3, 6)):
        summary = gramian(scheme)
        ch = sample_channel(3, rng)
        rho = 100.0
        want = 0.5 * np.log2(
            1 + rho * np.sum(np.abs(ch.h_tilde) ** 2) / (6 * (1 + np.linalg.norm(ch.h) ** 2))
        )
        assert jensen_mi_via_gramian(summary, ch, rho) == pytest.approx(want, rel=1e-12)
        assert jensen_mi(effective_channel(scheme, ch), rho) == pytest.approx(want, rel=1e-11)


def test_gramian_path_agrees_with_matrix_path():
    rng = np.random.default_rng(7)
    scheme = phase_rolling_scheme(3, 4)
    summary = gramian(scheme)
    for _ in range(500):
        ch = sample_channel(3, rng)
        rho = float(10 ** rng.uniform(0, 4))
        via_matrix = jensen_mi(effective_channel(scheme, ch), rho)
        via_gram = jensen_mi_via_gramian(summary, ch, rho)
        assert abs(via_matrix - via_gram) <= 1e-10 * max(via_matrix, 1e-12)


def test_rho_must_be_positive():
    heff = EffectiveChannel(np.eye(2))
    with pytest.raises(InvalidParameterError):
        mutual_information(heff, 0.0)
    with pytest.raises(InvalidParameterError):
        jensen_mi(heff, -1.0)
