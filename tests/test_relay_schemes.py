"""Relay scheme constructions, the DFT duality, and the Gramian."""

import numpy as np
import pytest

from relaydiv import (
    GramianSummary,
    InternalConsistencyError,
    InvalidParameterError,
    RelayScheme,
    SchemeInvalidError,
    custom_scheme,
    cyclic_delay_scheme,
    dft_matrix,
    gramian,
    jensen_form,
    phase_rolling_scheme,
)
from relaydiv.channel_model import complex_gaussian
from relaydiv.relay_schemes import builtin_family, pair_products, unitary_scaling_deviations


def test_cdd_single_relay_is_scaled_identity():
    scheme = cyclic_delay_scheme(1, 2)
    np.testing.assert_allclose(scheme.matrices[0], np.eye(2) / np.sqrt(2))


def test_cdd_shift_by_one_on_length_two():
    scheme = cyclic_delay_scheme(2, 2)
    np.testing.assert_allclose(scheme.matrices[1], np.array([[0, 1], [1, 0]]) / np.sqrt(2))


def test_cdd_shifts_vector_up():
    # entry n of P_i x is x[(n + i - 1) mod N]
    scheme = cyclic_delay_scheme(3, 4)
    x = np.arange(4).astype(complex)
    shifted = scheme.matrices[2] @ x * 2.0  # undo 1/sqrt(N)
    np.testing.assert_allclose(shifted, [2, 3, 0, 1])


@pytest.mark.parametrize("k,n", [(1, 1), (2, 2), (2, 5), (4, 4), (3, 8)])
def test_cdd_shift_matrices_orthogonal(k, n):
    scheme = cyclic_delay_scheme(k, n)
    perms = [g * np.sqrt(n) for g in scheme.matrices]
    for i, pi in enumerate(perms):
        for j, pj in enumerate(perms):
            inner = np.trace(pi @ pj.conj().T)
            assert abs(inner - (n if i == j else 0.0)) <= 1e-12


def test_phase_rolling_first_matrix_identity():
    for n in (1, 3, 5):
        scheme = phase_rolling_scheme(1, n)
        np.testing.assert_allclose(scheme.matrices[0], np.eye(n) / np.sqrt(n))


def test_phase_rolling_quarter_turns():
    scheme = phase_rolling_scheme(2, 4)
    lam2 = np.diag(scheme.matrices[1]) * 2.0
    np.testing.assert_allclose(lam2, [1, 1j, -1, -1j], atol=1e-14)


def test_dft_matrix_small_cases():
    np.testing.assert_allclose(dft_matrix(1), [[1.0]])
    np.testing.assert_allclose(
        dft_matrix(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
    )
    with pytest.raises(InvalidParameterError):
        dft_matrix(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 33])
def test_dft_matrix_unitary(n):
    f = dft_matrix(n)
    assert np.abs(f @ f.conj().T - np.eye(n)).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_permutations_diagonalized_by_dft(n):
    f = dft_matrix(n)
    cdd = cyclic_delay_scheme(n, n)
    pr = phase_rolling_scheme(n, n)
    for gc, gp in zip(cdd.matrices, pr.matrices):
        p_i = gc * np.sqrt(n)
        lam_i = gp * np.sqrt(n)
        assert np.abs(p_i - f.conj().T @ lam_i @ f).max() <= 1e-12
        # the two scheme families are DFT duals
        assert np.abs(gp - f @ gc @ f.conj().T).max() <= 1e-12


def test_unitary_scaling_constraint_on_builtins():
    for k, n in [(1, 1), (2, 3), (3, 8), (5, 5)]:
        for scheme in (cyclic_delay_scheme(k, n), phase_rolling_scheme(k, n)):
            for g in scheme.matrices:
                assert np.abs(g @ g.conj().T - np.eye(n) / n).max() <= 1e-12


def test_relay_count_cannot_exceed_block_length():
    with pytest.raises(InvalidParameterError):
        cyclic_delay_scheme(3, 2)
    with pytest.raises(InvalidParameterError):
        phase_rolling_scheme(5, 4)
    with pytest.raises(InvalidParameterError):
        cyclic_delay_scheme(0, 2)
    for make in (cyclic_delay_scheme, phase_rolling_scheme):
        for n in (0, -1):
            with pytest.raises(InvalidParameterError):
                make(1, n)


@pytest.mark.parametrize(
    "matrices,message",
    [
        ((), "scheme needs at least one matrix"),
        ((np.eye(2) / np.sqrt(2), np.eye(3) / np.sqrt(3)),
         "matrix 1 has shape (3, 3), expected (2, 2)"),
        ((np.ones(2) / np.sqrt(2),), "matrix 0 has shape (2,), expected (2, 2)"),
        ((np.ones((2, 3)),), "matrix 0 has shape (2, 3), expected (3, 3)"),
        ((np.array(1.0),), "matrix 0 has shape (), expected (0, 0)"),
        ((np.eye(1), np.eye(1)), "relay count K=2 exceeds block length N=1"),
        ((np.zeros((0, 0)),), "relay count K=1 exceeds block length N=0"),
    ],
    ids=["empty", "mixed-sizes", "vector", "not-square", "scalar", "k-above-n", "n-zero"],
)
def test_relay_scheme_rejects_bad_shapes_before_unitarity(matrices, message):
    # every matrix here also fails G G^H = I/N or cannot be tested for it;
    # the shape error comes first, from RelayScheme, for every entry point
    for build in (RelayScheme, custom_scheme):
        with pytest.raises(InvalidParameterError) as excinfo:
            build(tuple(matrices))
        assert not isinstance(excinfo.value, SchemeInvalidError)
        assert str(excinfo.value) == message


def test_relay_scheme_validates_every_matrix_at_once():
    # RelayScheme itself checks G G^H = I/N and names the first failing
    # index with the deviation unitary_scaling_deviations reports
    good = np.eye(4) / 2
    stack = np.stack([good, 2 * good, np.full((4, 4), np.nan), good])
    dev = unitary_scaling_deviations(stack)
    assert dev[0] == dev[3] == 0.0 and dev[1] == 0.75 and np.isnan(dev[2])
    for build in (RelayScheme, custom_scheme):
        with pytest.raises(SchemeInvalidError) as excinfo:
            build(tuple(stack))
        assert (excinfo.value.index, excinfo.value.deviation) == (1, dev[1])
        with pytest.raises(SchemeInvalidError) as excinfo:
            build((good, stack[2]))
        assert excinfo.value.index == 1 and np.isnan(excinfo.value.deviation)
    # deviations of ~5e-14 pass and ~5e-12 fail the 1e-12 tolerance
    assert RelayScheme((good * (1 + 1e-13),)).num_relays == 1
    with pytest.raises(SchemeInvalidError):
        RelayScheme((good * (1 + 1e-11),))


def test_custom_scheme_accepts_scaled_identity():
    scheme = custom_scheme([np.eye(3) / np.sqrt(3)])
    assert scheme.num_relays == 1


def test_custom_scheme_rejects_unscaled_identity():
    with pytest.raises(SchemeInvalidError) as excinfo:
        custom_scheme([np.eye(4)])
    assert excinfo.value.index == 0
    assert excinfo.value.deviation == pytest.approx(1.0 - 0.25)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_custom_scheme_rejects_non_finite_entries(bad):
    g = np.eye(2) / np.sqrt(2)
    g[0, 0] = bad
    with pytest.raises(SchemeInvalidError) as excinfo:
        custom_scheme([np.eye(2) / np.sqrt(2), g])
    assert excinfo.value.index == 1


def test_custom_scheme_matches_builtin_gramian():
    cdd = cyclic_delay_scheme(3, 5)
    rebuilt = custom_scheme([np.array(g) for g in cdd.matrices])
    np.testing.assert_allclose(gramian(rebuilt).gram, gramian(cdd).gram, atol=1e-14)


def test_gramian_identity_for_cdd_and_phase_rolling():
    for k, n in [(1, 1), (2, 4), (3, 8), (4, 4)]:
        for scheme in (cyclic_delay_scheme(k, n), phase_rolling_scheme(k, n)):
            summary = gramian(scheme)
            np.testing.assert_allclose(summary.gram, np.eye(k), atol=1e-12)
            assert summary.lambda_min == pytest.approx(1.0, abs=1e-12)
            assert summary.lambda_max == pytest.approx(1.0, abs=1e-12)


def _computed_gramian(scheme):
    # the traces as gramian computes them for a scheme of no built-in family
    g = scheme.stacked()
    gram = np.einsum("cab,rab->rc", g, g.conj())
    gram = 0.5 * (gram + gram.conj().T)
    eig = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    return GramianSummary(gram, float(eig[0]), float(eig[-1]), scheme.block_length)


def test_gramian_is_exactly_identity_for_builtin_matrices():
    grid = [(k, n) for n in (1, 2, 3, 4, 5, 8, 16) for k in range(1, n + 1)]
    for k, n in grid:
        pr = phase_rolling_scheme(k, n)
        renamed = custom_scheme(pr.matrices, name="mine")
        for scheme in (cyclic_delay_scheme(k, n), pr, renamed):
            summary = gramian(scheme)
            assert np.array_equal(summary.gram, np.eye(k))
            assert summary.lambda_min == summary.lambda_max == 1.0
        assert builtin_family(renamed) == ("cdd" if k == 1 else "phase-rolling")
    # the test is exact equality, so the rule has something to mend: computed
    # traces leave roundoff off phase rolling's diagonal
    assert not np.array_equal(_computed_gramian(phase_rolling_scheme(3, 4)).gram, np.eye(3))


def test_gramian_keeps_the_computed_traces_off_the_builtin_families():
    rng = np.random.default_rng(12)
    haar = custom_scheme(
        [np.linalg.qr(complex_gaussian(rng, (4, 4)))[0] / 2.0 for _ in range(3)]
    )
    # one ulp off a phase-rolling entry is no built-in family either
    pr = np.array(phase_rolling_scheme(2, 4).stacked())
    pr[1, 1, 1] = np.nextafter(pr[1, 1, 1].real, 1.0) + 1j * pr[1, 1, 1].imag
    for scheme in (haar, custom_scheme(pr)):
        assert builtin_family(scheme) is None
        summary, want = gramian(scheme), _computed_gramian(scheme)
        assert summary.gram.tobytes() == want.gram.tobytes()
        assert (summary.lambda_min, summary.lambda_max) == (want.lambda_min, want.lambda_max)


def test_exact_phase_rolling_gramian_keeps_the_jensen_form():
    # the dropped cross terms were roundoff: one 16384-trial block agrees
    # with the computed-trace form to 1e-15 relative
    rng = np.random.default_rng(13)
    for k, n in [(2, 8), (3, 4), (4, 16)]:
        scheme = phase_rolling_scheme(k, n)
        u = complex_gaussian(rng, (16384, k))
        b = rng.exponential(size=(16384, k))
        exact = jensen_form(gramian(scheme), u, b)
        np.testing.assert_allclose(exact, jensen_form(_computed_gramian(scheme), u, b),
                                   rtol=1e-15, atol=0)


def test_phase_rolling_gramian_off_diagonals_vanish_by_geometric_sum():
    # entry (r, c) is (1/N) sum_n exp(j 2 pi n (c - r) / N), a full root-of-unity sum
    k, n = 4, 6
    summary = gramian(phase_rolling_scheme(k, n))
    grid = np.arange(n)
    for r in range(k):
        for c in range(k):
            expected = np.exp(2j * np.pi * grid * (c - r) / n).sum() / n
            assert abs(summary.gram[r, c] - expected) <= 1e-12


def test_gramian_of_duplicated_matrix_is_all_ones():
    g = np.eye(3) / np.sqrt(3)
    scheme = RelayScheme((g, g))
    summary = gramian(scheme)
    np.testing.assert_allclose(summary.gram, np.ones((2, 2)), atol=1e-12)
    assert summary.lambda_min == pytest.approx(0.0, abs=1e-12)
    assert summary.lambda_max == pytest.approx(2.0, abs=1e-12)


def test_gramian_trace_equals_relay_count():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k, 9))
        scheme = phase_rolling_scheme(k, n)
        summary = gramian(scheme)
        assert abs(np.trace(summary.gram).real - k) <= 1e-10
        # the eigenvalues sum to the trace, so their extremes straddle 1
        assert k * summary.lambda_min <= k + 1e-10 and k * summary.lambda_max >= k - 1e-10


def test_gramian_invariant_under_common_left_unitary():
    rng = np.random.default_rng(23)
    base = cyclic_delay_scheme(3, 6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    rotated = custom_scheme([q @ g for g in base.matrices])
    np.testing.assert_allclose(gramian(rotated).gram, gramian(base).gram, atol=1e-12)


def test_gramian_eigenvalues_clamped_at_zero():
    # a rank-deficient Gramian computes a tiny negative eigenvalue in floating
    # point; the summary must clamp it to exactly zero
    g = np.eye(4) / 2.0
    summary = gramian(RelayScheme((g, g, g)))
    assert summary.lambda_min == 0.0


def test_scheme_matrices_are_immutable():
    scheme = cyclic_delay_scheme(2, 4)
    with pytest.raises(ValueError):
        scheme.matrices[0][0, 0] = 5.0


def test_stacked_is_built_once_and_read_only():
    scheme = cyclic_delay_scheme(2, 4)
    stack = scheme.stacked()
    assert stack is scheme.stacked()
    assert stack.shape == (2, 4, 4) and not stack.flags.writeable
    for g, s in zip(scheme.matrices, stack):
        np.testing.assert_array_equal(g, s)


def test_pair_products_rows_and_traces_match_the_gramian():
    # row i*K + j is vec(G_i G_j^H), and tr(G_i G_j^H) = gram[j, i]
    rng = np.random.default_rng(29)
    haar = custom_scheme(
        [np.linalg.qr(complex_gaussian(rng, (5, 5)))[0] / np.sqrt(5) for _ in range(3)]
    )
    for scheme in (cyclic_delay_scheme(3, 5), phase_rolling_scheme(3, 5), haar):
        products = pair_products(scheme)
        assert products.shape == (9, 25) and not products.flags.writeable
        g = scheme.matrices
        for i in range(3):
            for j in range(3):
                np.testing.assert_allclose(
                    products[i * 3 + j].reshape(5, 5), g[i] @ g[j].conj().T, atol=1e-15
                )
        traces = np.trace(products.reshape(3, 3, 5, 5), axis1=2, axis2=3)
        np.testing.assert_allclose(traces, gramian(scheme).gram.T, rtol=0.0, atol=1e-14)
