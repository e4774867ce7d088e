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
    two_hop,
)
from relaydiv.channel_model import complex_gaussian
from relaydiv.experiment_cli import load_scheme_file, save_scheme_file
from relaydiv.information import (
    PRODUCTS_SUB_BLOCK,
    Workspace,
    _ldl_pivots,
    _lower_rows,
    ldl_factors,
    mi_from_factors,
    spectral_factors,
)
from relaydiv.outage_analysis import _sample_fading, mc_exact_outage
from relaydiv.relay_schemes import EIGENVALUE_CLAMP_TOL, common_spectra, pair_products


def _random_heff(rng, n=4):
    return 0.3 * complex_gaussian(rng, (n, n))


def test_zero_channel_gives_zero_information():
    heff = np.zeros((3, 3))
    assert mutual_information(heff, 10.0) == 0.0
    assert jensen_mi(heff, 10.0) == 0.0


def test_equal_eigenvalue_case_makes_jensen_tight():
    for n in (1, 2, 8):
        heff = np.eye(n) / np.sqrt(2 * n)
        rho = 37.0
        want = 0.5 * np.log2(1 + rho / (2 * n))
        assert mutual_information(heff, rho) == pytest.approx(want, rel=1e-12)
        assert jensen_mi(heff, rho) == pytest.approx(want, rel=1e-12)


def test_eigenvalue_sum_matches_log_det():
    rng = np.random.default_rng(3)
    for _ in range(50):
        heff = _random_heff(rng)
        rho = float(10 ** rng.uniform(0, 3))
        n = heff.shape[0]
        det = np.linalg.det(np.eye(n) + rho * (heff @ heff.conj().T))
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
    f, h = np.array([0.7 - 0.2j]), np.array([1.1 + 0.4j])
    rho = 25.0
    ht2 = abs(h[0] * f[0]) ** 2
    want = 0.5 * np.log2(1 + rho * ht2 / (n * (1 + abs(h[0]) ** 2)))
    ht, noise = two_hop(f, h)
    assert jensen_mi_via_gramian(summary, ht, noise, rho) == pytest.approx(want, rel=1e-12)
    heff = effective_channel(ht, noise, scheme.stacked())
    assert jensen_mi(heff, rho) == pytest.approx(want, rel=1e-12)


def test_gramian_path_identity_gramian_closed_form():
    # CDD and phase rolling have identity Gramians, so the bound collapses
    # to the norm of the two-hop product vector
    rng = np.random.default_rng(6)
    for scheme in (cyclic_delay_scheme(3, 6), phase_rolling_scheme(3, 6)):
        summary = gramian(scheme)
        f, h = complex_gaussian(rng, (2, 3))
        ht, noise = two_hop(f, h)
        rho = 100.0
        want = 0.5 * np.log2(
            1 + rho * np.sum(np.abs(h * f) ** 2) / (6 * (1 + np.linalg.norm(h) ** 2))
        )
        assert jensen_mi_via_gramian(summary, ht, noise, rho) == pytest.approx(want, rel=1e-12)
        heff = effective_channel(ht, noise, scheme.stacked())
        assert jensen_mi(heff, rho) == pytest.approx(want, rel=1e-11)


def test_gramian_path_agrees_with_matrix_path():
    # one realization at a time, then the same draws as one stack: the
    # stacked calls (per-trial rho, and a (2, 250) leading shape) must give
    # each realization's bits, at K = 2 too
    rng = np.random.default_rng(7)
    for k in (3, 2):
        scheme = phase_rolling_scheme(k, 4)
        summary = gramian(scheme)
        g = scheme.stacked()
        draws, rhos, singles = [], [], []
        for _ in range(500):
            f, h = complex_gaussian(rng, (2, k))
            rho = float(10 ** rng.uniform(0, 4))
            ht, noise = two_hop(f, h)
            heff = effective_channel(ht, noise, g)
            via_matrix = jensen_mi(heff, rho)
            via_gram = jensen_mi_via_gramian(summary, ht, noise, rho)
            assert abs(via_matrix - via_gram) <= 1e-10 * max(via_matrix, 1e-12)
            draws.append((f, h))
            rhos.append(rho)
            singles.append((heff, via_matrix, via_gram))
        f, h = (np.array(part) for part in zip(*draws))
        rho = np.array(rhos)
        ht, noise = two_hop(f, h)
        heffs = effective_channel(ht, noise, g)
        stacked = (heffs, jensen_mi(heffs, rho), jensen_mi_via_gramian(summary, ht, noise, rho))
        for got, want in zip(stacked, zip(*singles)):
            assert got.tobytes() == np.array(want).tobytes()
        grid = (2, 250)
        ht2, noise2, rho2 = ht.reshape(grid + (k,)), noise.reshape(grid), rho.reshape(grid)
        heffs2 = effective_channel(ht2, noise2, g)
        assert heffs2.tobytes() == heffs.tobytes()
        assert jensen_mi(heffs2, rho2).tobytes() == stacked[1].tobytes()
        assert jensen_mi_via_gramian(summary, ht2, noise2, rho2).tobytes() == stacked[2].tobytes()


def test_rho_must_be_positive():
    heff = np.eye(2)
    scheme = cyclic_delay_scheme(2, 2)
    ht, noise = two_hop(np.ones((3, 2)), np.ones((3, 2)))
    for bad in (0.0, -1.0, np.nan, np.array([1.0, np.nan, 2.0])):
        with pytest.raises(InvalidParameterError):
            mutual_information(heff, bad)
        with pytest.raises(InvalidParameterError):
            jensen_mi(heff, bad)
        with pytest.raises(InvalidParameterError):
            jensen_mi_via_gramian(gramian(scheme), ht, noise, bad)


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
    ht, noise = two_hop(f, h)
    heffs = effective_channel(ht, noise, scheme.stacked())
    want = _eigvalsh_oracle(heffs, rho)
    exact = mutual_information(heffs, rho)
    _assert_matches_oracle(exact, want)
    products = pair_products(scheme)
    by_products = mi_from_factors(ldl_factors(products, ht, 1.0, rho / noise))
    _assert_matches_oracle(by_products, want)
    spectra = common_spectra(scheme)
    if kind != "haar":
        assert spectra is not None
    if spectra is not None:
        _assert_matches_oracle(mi_from_factors(spectral_factors(spectra, ht, 1.0, rho / noise)),
                               want)
    # shape contract: one realization gives element t of the stack bit for
    # bit, a (2, 32) leading shape gives the flattened stack's bits, and a
    # per-trial rho gives the scalar call's bits
    for t in rng.integers(0, 64, size=2):
        one = effective_channel(ht[t], noise[t], scheme.stacked())
        assert one.tobytes() == heffs[t].tobytes()
        assert mutual_information(one, rho).tobytes() == exact[t].tobytes()
    grid = (2, 32)
    heffs2 = effective_channel(ht.reshape(grid + (k,)), noise.reshape(grid), scheme.stacked())
    assert heffs2.tobytes() == heffs.tobytes()
    assert mutual_information(heffs2, rho).tobytes() == exact.tobytes()
    by_trial = mi_from_factors(ldl_factors(products, ht, 1.0, np.full(64, rho) / noise))
    assert by_trial.tobytes() == by_products.tobytes()
    assert mutual_information(heffs, np.full(64, rho)).tobytes() == exact.tobytes()


def test_products_kernel_sub_blocks_match_trials_one_by_one():
    # two full sub-blocks and a 3-trial tail; a slicing slip at a boundary
    # would move whole trials, not roundoff
    rng = np.random.default_rng(12)
    scheme = _haar_scheme(3, 8, rng)
    products = pair_products(scheme)
    trials = 2 * PRODUCTS_SUB_BLOCK + 3
    f = complex_gaussian(rng, (trials, 3))
    h = complex_gaussian(rng, (trials, 3))
    ht, noise = two_hop(f, h)
    got = mi_from_factors(ldl_factors(products, ht, 1.0, 300.0 / noise))
    one_by_one = np.array([
        mi_from_factors(ldl_factors(products, ht[t], 1.0, 300.0 / noise[t]))
        for t in range(trials)
    ])
    np.testing.assert_allclose(got, one_by_one, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("k,n", [(2, 8), (3, 8), (4, 4), (3, 16)])
def test_spectral_kernel_gives_each_trial_its_in_stack_bits(k, n):
    # a one-trial stack once took OpenBLAS's GEMV path and moved the last
    # bits of ~1 in 6 trials at (3, 8)
    spectra = common_spectra(cyclic_delay_scheme(k, n))
    rng = np.random.default_rng(31 * k + n)
    ht, noise = two_hop(*complex_gaussian(rng, (2, 500, k)))
    full = mi_from_factors(spectral_factors(spectra, ht, 1.0, 300.0 / noise))
    for size in (1, 2, 3, 500):
        for lo in range(0, 500 - size + 1, size):
            part = mi_from_factors(
                spectral_factors(spectra, ht[lo:lo + size], 1.0, 300.0 / noise[lo:lo + size]))
            assert part.tobytes() == full[lo:lo + size].tobytes(), (size, lo)
    for t in range(0, 500, 7):
        one = mi_from_factors(spectral_factors(spectra, ht[t], 1.0, 300.0 / noise[t]))
        assert one.shape == () and one.tobytes() == full[t].tobytes()


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


@pytest.mark.parametrize("kind", ["cdd", "haar"])
def test_results_are_not_changed_by_a_later_call(kind):
    # called without a workspace, the factor sources and the MI return
    # fresh arrays: neither a later call nor a Monte Carlo run, which
    # reuses its thread's workspace, changes an earlier result
    rng = np.random.default_rng(71)
    scheme = cyclic_delay_scheme(3, 8) if kind == "cdd" else _haar_scheme(3, 8, rng)
    spectra, products = common_spectra(scheme), pair_products(scheme)

    def results(seed):
        ht, noise = two_hop(*complex_gaussian(np.random.default_rng(seed), (2, 3000, 3)))
        got = [ldl_factors(products, ht, 1.0, 300.0 / noise),
               mutual_information(effective_channel(ht, noise, scheme.stacked()), 300.0)]
        if spectra is not None:
            got.extend(spectral_factors(spectra, ht, 1.0, 300.0 / noise))
        return got

    first = results(1)
    kept = [a.tobytes() for a in first]
    results(2)
    mc_exact_outage(scheme, 0.25, 300.0, 20_000, seed=3, threads=1)
    assert [a.tobytes() for a in first] == kept
    assert not any(np.shares_memory(a, b) for i, a in enumerate(first) for b in first[:i])


@pytest.mark.parametrize("kind", ["cdd", "phase-rolling", "haar"])
def test_factor_sources_take_the_draws_parts_and_only_read_them(kind):
    # fed the draw's parts (u, b), each source returns the bytes it returns
    # when fed h~ = u sqrt(b) and b = 1, with and without a workspace, and
    # leaves u and b as drawn; two sub-blocks and a tail for LDL^H
    rng = np.random.default_rng(83)
    scheme = {"cdd": cyclic_delay_scheme(2, 8), "phase-rolling": phase_rolling_scheme(3, 8),
              "haar": _haar_scheme(3, 8, rng)}[kind]
    trials = 2 * PRODUCTS_SUB_BLOCK + 3
    u, b, noise = _sample_fading(rng, trials, scheme.num_relays)
    drawn = u.tobytes(), b.tobytes()
    ht, scale = u * np.sqrt(b), 300.0 / noise
    spectra, products = common_spectra(scheme), pair_products(scheme)
    for workspace in (None, Workspace()):
        got = [ldl_factors(products, u, b, scale, workspace).tobytes()]
        want = [ldl_factors(products, ht, 1.0, scale).tobytes()]
        if spectra is not None:
            got += [row.tobytes() for row in spectral_factors(spectra, u, b, scale, workspace)]
            want += [row.tobytes() for row in spectral_factors(spectra, ht, 1.0, scale)]
        assert got == want
        assert (u.tobytes(), b.tobytes()) == drawn


def test_common_spectra_is_none_without_a_shared_basis():
    rng = np.random.default_rng(9)
    assert common_spectra(_haar_scheme(3, 8, rng)) is None
    mats = [np.array(g) for g in cyclic_delay_scheme(2, 4).matrices]
    mats[1][1, 0] += 1e-15
    near = custom_scheme(mats, name="cdd")
    assert common_spectra(near) is None
    f = complex_gaussian(rng, (256, 2))
    h = complex_gaussian(rng, (256, 2))
    heffs = effective_channel(*two_hop(f, h), near.stacked())
    for rho in (1.0, 100.0, 1e5):
        _assert_matches_oracle(mutual_information(heffs, rho), _eigvalsh_oracle(heffs, rho))


def _pivots(grams):
    """_ldl_pivots of a complex (T, N, N) stack, packed as it takes it."""
    n = grams.shape[-1]
    lower = grams.transpose(1, 2, 0).reshape(n * n, -1)[_lower_rows(n)]
    return _ldl_pivots(lower, n, np.empty((n, grams.shape[0])), Workspace())


@pytest.mark.parametrize("kind", ["cdd", "phase-rolling", "haar"])
@pytest.mark.parametrize("k,n", [(1, 2), (2, 4), (3, 8), (2, 9), (4, 16)])
def test_each_exact_mi_is_the_row_sum_of_its_own_factor_rows(kind, k, n):
    # the one reduction adds log2 of the rows one at a time, in row order:
    # bit for bit np.sum(np.log2(rows), axis=0) / 2N over the stacked rows,
    # for the spectral rows, the LDL^H pivots of the products table and
    # those of an H_eff stack, whose MI is mutual_information's
    rng = np.random.default_rng(60 + n)
    if kind == "cdd":
        scheme = cyclic_delay_scheme(k, n)
    elif kind == "phase-rolling":
        scheme = phase_rolling_scheme(k, n)
    else:
        scheme = _haar_scheme(k, n, rng)
    spectra, products = common_spectra(scheme), pair_products(scheme)
    assert (spectra is None) == (kind == "haar")
    for trials in (2, 257):
        ht, noise = two_hop(*complex_gaussian(rng, (2, trials, k)))
        heffs = effective_channel(ht, noise, scheme.stacked())
        for rho in (1.5, 300.0, 1e12):
            cases = [
                (mi_from_factors(ldl_factors(products, ht, 1.0, rho / noise)),
                 ldl_factors(products, ht, 1.0, rho / noise)),
                (mutual_information(heffs, rho),
                 _pivots(rho * (heffs @ heffs.conj().transpose(0, 2, 1)))),
            ]
            if spectra is not None:
                cases.append((mi_from_factors(spectral_factors(spectra, ht, 1.0, rho / noise)),
                              np.array(list(spectral_factors(spectra, ht, 1.0, rho / noise)))))
            for got, rows in cases:
                assert rows.shape == (n, trials)
                want = np.sum(np.log2(rows), axis=0) / (2 * n)
                assert got.tobytes() == want.tobytes(), (rho, trials)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 24),
    rank=st.integers(0, 24),
    rho=st.floats(1e-3, 1e3),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ldl_log_det_matches_eigenvalue_oracle(n, rank, rho, real, seed):
    # rho B B^H for B with only its first `rank` columns nonzero: Hermitian
    # PSD, rank-deficient whenever rank < n.  Each zero eigenvalue costs
    # both the oracle and the elimination ~eps rho ||B||^2 of absolute
    # error, so rho stops where that stays under the bound: at rho = 1e5 a
    # rank-r determinant det(I + rho B^H B) put them 1.3e-11 and 4e-12 off.
    # Real stacks are symmetric PSD, where conj() returns its input itself;
    # the elimination takes them as complex, as mutual_information does.
    rng = np.random.default_rng(seed)
    b = complex_gaussian(rng, (32, n, n)) / np.sqrt(n)
    if real:
        b = np.ascontiguousarray(b.real)
    b[:, :, rank:] = 0.0
    grams = rho * (b @ b.conj().transpose(0, 2, 1))
    _assert_matches_oracle(mi_from_factors(_pivots(grams.astype(complex))),
                           _eigvalsh_oracle(b, rho))


def test_real_channels_match_eigenvalue_oracle():
    # H = [[1, 1], [0, 1]]: H H^T = [[2, 1], [1, 1]] has det(I + H H^T) = 5
    h = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert mutual_information(h, 1.0) == pytest.approx(
        np.log2(5.0) / 4, rel=1e-15
    )
    # rho stops at 1e3 as in the LDL^H property test: at 1e5 a 3x3 draw with
    # smallest singular value 3e-3 put the oracle 1.7e-11 and the kernel
    # 2.6e-12 off the exact rational determinant
    rng = np.random.default_rng(13)
    for n in (2, 3, 8):
        heffs = rng.standard_normal((64, n, n)) / np.sqrt(n)
        for rho in (1.0, 100.0, 1e3):
            want = _eigvalsh_oracle(heffs, rho)
            _assert_matches_oracle(mutual_information(heffs, rho), want)
            _assert_matches_oracle(np.array([mutual_information(m, rho) for m in heffs]), want)


def test_fault_names_its_trial_past_the_first_sub_block():
    trials = PRODUCTS_SUB_BLOCK + 5
    f = np.ones((trials, 1), dtype=complex)
    f[trials - 2] = np.nan
    ht, noise = two_hop(f, np.ones((trials, 1)))
    with pytest.raises(InternalConsistencyError, match=f"pivot 0 of trial {trials - 2} is nan"):
        ldl_factors(np.eye(3, dtype=complex).reshape(1, 9), ht, 1.0, 2.0 / noise)


def test_non_positive_definite_input_is_an_internal_consistency_error():
    # every LDL^H pivot of I + PSD is >= 1: a -2 on the diagonal makes one
    # -1, a NaN makes one NaN; trial 0 is fine and must not hide trial 1
    for entry, value in (((1, 1), -2.0), ((2, 0), np.nan)):
        grams = np.zeros((2, 3, 3), dtype=complex)
        grams[1][entry] = value
        with pytest.raises(InternalConsistencyError):
            _pivots(grams)
        # K = 1 and f = h = 1 at rho = 2 give w = 1, so I + rho H H^H is I
        # plus the table's one row
        ht, noise = two_hop(np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(InternalConsistencyError):
            ldl_factors(grams[1].reshape(1, 9), ht, 1.0, 2.0 / noise)
        # H H^H is PSD for every finite H, so only a non-finite H reaches the
        # check through the H-stack kernel
        heffs = np.eye(3, dtype=complex)[None].repeat(2, axis=0)
        heffs[1][entry] = np.nan
        with pytest.raises(InternalConsistencyError):
            mutual_information(heffs, 10.0)
