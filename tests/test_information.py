"""Mutual information and the Jensen bound, by the matrix and Gramian paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaydiv import (
    InternalConsistencyError,
    InvalidParameterError,
    custom_scheme,
    cyclic_delay_scheme,
    dft_matrix,
    effective_channel,
    gramian,
    jensen_mi,
    jensen_mi_via_gramian,
    mutual_information,
    phase_rolling_scheme,
    sample_channel,
)
from relaydiv.channel_model import (
    ChannelRealization,
    EffectiveChannel,
    complex_gaussian,
    effective_channels,
)
from relaydiv.experiment_cli import load_scheme_file, save_scheme_file
from relaydiv.information import (
    PRODUCTS_SUB_BLOCK,
    mutual_information_batch,
    mutual_information_products,
    mutual_information_spectral,
)
from relaydiv.outage_analysis import mc_exact_outage
from relaydiv.relay_schemes import EIGENVALUE_CLAMP_TOL, common_spectra, pair_products


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


# ---------------------------------------------------------------------------
# Exact-MI kernels against the eigenvalue oracle
# ---------------------------------------------------------------------------

def _eigvalsh_oracle(heffs, rho):
    """Reference exact MI: (1/2N) sum log2(1 + rho eig(H H^H)), with the
    clamp check on roundoff-negative eigenvalues."""
    eig = np.linalg.eigvalsh(heffs @ heffs.conj().transpose(0, 2, 1))
    if eig.size and eig[:, 0].min() < EIGENVALUE_CLAMP_TOL:
        raise InternalConsistencyError(
            f"H H^H eigenvalue {eig[:, 0].min():.3e} below clamp tolerance"
        )
    np.clip(eig, 0.0, None, out=eig)
    return np.sum(np.log2(1.0 + rho * eig), axis=1) / (2.0 * heffs.shape[-1])


def _assert_matches_oracle(got, want):
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))


def _haar_scheme(k, n, rng):
    return custom_scheme(
        [np.linalg.qr(complex_gaussian(rng, (n, n)))[0] / np.sqrt(n) for _ in range(k)]
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["cdd", "phase-rolling", "haar"]),
    k=st.integers(1, 4),
    extra_n=st.integers(0, 12),
    rho=st.floats(1.0, 1e5),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_mi_kernels_match_eigenvalue_oracle(kind, k, extra_n, rho, seed):
    n = k + extra_n
    rng = np.random.default_rng(seed)
    if kind == "cdd":
        scheme = cyclic_delay_scheme(k, n)
    elif kind == "phase-rolling":
        scheme = phase_rolling_scheme(k, n)
    else:
        scheme = _haar_scheme(k, n, rng)
    f = complex_gaussian(rng, (64, k))
    h = complex_gaussian(rng, (64, k))
    heffs = effective_channels(f, h, scheme.stacked())
    want = _eigvalsh_oracle(heffs, rho)
    _assert_matches_oracle(mutual_information_batch(heffs, rho), want)
    _assert_matches_oracle(mutual_information_products(pair_products(scheme), f, h, rho), want)
    spectra = common_spectra(scheme)
    if kind != "haar":
        assert spectra is not None
    if spectra is not None:
        _assert_matches_oracle(mutual_information_spectral(spectra, f, h, rho), want)


def test_products_kernel_sub_blocks_match_trials_one_by_one():
    # two full sub-blocks and a 3-trial tail; a slicing slip at a boundary
    # would move whole trials, not roundoff
    rng = np.random.default_rng(12)
    scheme = _haar_scheme(3, 8, rng)
    products = pair_products(scheme)
    trials = 2 * PRODUCTS_SUB_BLOCK + 3
    f = complex_gaussian(rng, (trials, 3))
    h = complex_gaussian(rng, (trials, 3))
    got = mutual_information_products(products, f, h, 300.0)
    one_by_one = np.array([
        mutual_information_products(products, f[t : t + 1], h[t : t + 1], 300.0)[0]
        for t in range(trials)
    ])
    np.testing.assert_allclose(got, one_by_one, rtol=1e-14, atol=0.0)


def test_common_spectra_diagonalise_builtin_schemes_in_one_basis():
    # CDD in the DFT basis, G_i = F^H diag(l_i) F; phase rolling in the
    # standard basis, G_i = diag(l_i)
    f = dft_matrix(6)
    for scheme, basis in ((cyclic_delay_scheme(3, 6), f), (phase_rolling_scheme(3, 6), np.eye(6))):
        spectra = common_spectra(scheme)
        assert spectra.shape == (3, 6)
        for g, lam in zip(scheme.matrices, spectra):
            assert np.abs(basis.conj().T @ np.diag(lam) @ basis - g).max() < 1e-14


def test_common_spectra_follow_structure_not_name(tmp_path):
    cdd = cyclic_delay_scheme(2, 8)
    path = str(tmp_path / "cdd.txt")
    save_scheme_file(path, cdd)
    from_file = load_scheme_file(path)
    assert from_file.name != "cdd"
    np.testing.assert_array_equal(common_spectra(from_file), common_spectra(cdd))
    assert (mc_exact_outage(from_file, 0.25, 1000.0, 40_000, seed=3)
            == mc_exact_outage(cdd, 0.25, 1000.0, 40_000, seed=3))


def test_common_spectra_is_none_without_a_shared_basis():
    rng = np.random.default_rng(9)
    assert common_spectra(_haar_scheme(3, 8, rng)) is None
    mats = [np.array(g) for g in cyclic_delay_scheme(2, 4).matrices]
    mats[1][1, 0] += 1e-15
    near = custom_scheme(mats, name="cdd")
    assert common_spectra(near) is None
    f = complex_gaussian(rng, (256, 2))
    h = complex_gaussian(rng, (256, 2))
    heffs = effective_channels(f, h, near.stacked())
    for rho in (1.0, 100.0, 1e5):
        _assert_matches_oracle(mutual_information_batch(heffs, rho), _eigvalsh_oracle(heffs, rho))


def test_cholesky_failure_is_an_internal_consistency_error(monkeypatch):
    # I + rho H H^H is positive definite for every finite H, so the failure
    # is injected
    def not_positive_definite(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    with pytest.raises(InternalConsistencyError):
        mutual_information_batch(np.eye(3, dtype=complex)[None], 10.0)
