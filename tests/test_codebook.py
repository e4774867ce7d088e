"""Codebooks, difference matrices, and the rank/eigenvalue conditions."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from relaydiv import (
    Codebook,
    InvalidParameterError,
    ResourceLimitError,
    cdd_condition,
    custom_scheme,
    cyclic_delay_scheme,
    dft_matrix,
    difference_matrix,
    gaussian_codebook,
    min_gram_eigenvalue,
    phase_rolling_condition,
    phase_rolling_scheme,
    rank_full,
)
from relaydiv import codebook
from relaydiv.channel_model import complex_gaussian
from relaydiv.codebook import block_min_gram
from relaydiv.relay_schemes import builtin_family


def _svd_rank(phi, tol=1e-9):
    s = np.linalg.svd(phi, compute_uv=False)
    return int(np.sum(s > tol * max(s[0], 1e-300)))


def test_codebook_size_rate_zero():
    book = gaussian_codebook(4, 0.0, 100.0, np.random.default_rng(0))
    assert book.size == 1


def test_codebook_size_arithmetic():
    book = gaussian_codebook(2, 0.25, 16.0, np.random.default_rng(0))
    assert book.size == 16


def test_codebook_average_power():
    book = gaussian_codebook(8, 0.1875, 16.0, np.random.default_rng(1))
    assert book.size == 4096
    mean_power = float(np.mean(np.sum(np.abs(book.codewords) ** 2, axis=1)))
    assert 7.8 < mean_power < 8.2


def test_codebook_size_cap():
    with pytest.raises(ResourceLimitError) as excinfo:
        gaussian_codebook(8, 0.5, 10.0, np.random.default_rng(0))
    assert excinfo.value.required == 10**8
    assert excinfo.value.allowed == codebook.DEFAULT_SIZE_CAP


@pytest.mark.parametrize("rho", [1e300, 1e200, float("inf")])
def test_codebook_size_past_any_float_is_over_the_cap(rho):
    # 1e300^(2 * 4 * 0.25) = 1e600 is no float; the cap is decided on its log
    with pytest.raises(ResourceLimitError) as excinfo:
        gaussian_codebook(4, 0.25, rho, np.random.default_rng(0))
    assert excinfo.value.required == float("inf")
    assert excinfo.value.allowed == codebook.DEFAULT_SIZE_CAP


def test_codebook_rejects_bad_rate():
    with pytest.raises(InvalidParameterError):
        gaussian_codebook(2, 0.75, 10.0, np.random.default_rng(0))


def test_difference_matrix_zero_vector():
    scheme = cyclic_delay_scheme(2, 4)
    phi = difference_matrix(scheme, np.zeros(4))
    assert np.all(phi == 0)
    assert not rank_full(phi)


def test_difference_matrix_basis_vector_full_rank():
    n = 4
    scheme = cyclic_delay_scheme(n, n)
    dx = np.zeros(n, dtype=complex)
    dx[0] = 1.0
    phi = difference_matrix(scheme, dx)
    # columns are distinct shifted unit vectors over sqrt(N)
    np.testing.assert_allclose(np.abs(phi).sum(axis=0), np.ones(n) / np.sqrt(n))
    assert rank_full(phi)
    assert _svd_rank(phi) == n


def test_difference_matrix_rank_matches_svd_oracle():
    rng = np.random.default_rng(2)
    scheme = cyclic_delay_scheme(3, 4)
    for _ in range(100):
        dx = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi = difference_matrix(scheme, dx)
        assert rank_full(phi) == (_svd_rank(phi) == 3)


def test_difference_matrix_dimension_check():
    scheme = cyclic_delay_scheme(2, 4)
    with pytest.raises(InvalidParameterError):
        difference_matrix(scheme, np.zeros(3))


def test_cdd_condition_flat_and_constant_vectors():
    assert not cdd_condition(np.ones(4))  # DFT of a constant has one bin
    e1 = np.zeros(4, dtype=complex)
    e1[0] = 1.0
    assert cdd_condition(e1)  # flat spectrum


def test_cdd_condition_detects_zeroed_bin():
    n = 8
    scheme = cyclic_delay_scheme(n, n)
    rng = np.random.default_rng(3)
    f = dft_matrix(n)
    spectrum = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    spectrum[3] = 0.0
    dx = f.conj().T @ spectrum
    assert not cdd_condition(dx)
    assert not rank_full(difference_matrix(scheme, dx))


def test_phase_rolling_condition_entries():
    assert phase_rolling_condition(np.ones(4))
    dx = np.ones(4, dtype=complex)
    dx[2] = 0.0
    assert not phase_rolling_condition(dx)
    scheme = phase_rolling_scheme(4, 4)
    assert not rank_full(difference_matrix(scheme, dx))


def test_simplified_conditions_agree_with_rank_oracle():
    rng = np.random.default_rng(4)
    n = 8
    cdd = cyclic_delay_scheme(n, n)
    pr = phase_rolling_scheme(n, n)
    stack = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(500)])
    for condition, scheme in ((cdd_condition, cdd), (phase_rolling_condition, pr)):
        rows = [condition(dx) for dx in stack]
        assert rows == [rank_full(difference_matrix(scheme, dx)) for dx in stack]
        # one stacked call answers per difference, as the per-row calls do
        np.testing.assert_array_equal(condition(stack), rows)


def test_condition_duality_through_dft():
    rng = np.random.default_rng(5)
    n = 8
    f = dft_matrix(n)
    stack = []
    for _ in range(1000):
        dx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if rng.random() < 0.3:
            dx[rng.integers(0, n)] = 0.0
        assert cdd_condition(dx) == phase_rolling_condition(f @ dx)
        stack.append(dx)
    # 300 more rows with a zeroed DFT bin, so both conditions fail somewhere
    spectra = complex_gaussian(rng, (300, n))
    spectra[np.arange(300), rng.integers(0, n, 300)] = 0.0
    stack = np.concatenate([stack, spectra @ f.conj()])
    for condition in (cdd_condition, phase_rolling_condition):
        rows = [condition(dx) for dx in stack]
        assert not all(rows) and any(rows)
        # one stacked call answers per difference, as the per-row calls do
        np.testing.assert_array_equal(condition(stack), rows)


def test_sufficiency_direction_for_wide_schemes():
    # K < N: a clean simplified condition still forces full rank
    rng = np.random.default_rng(6)
    cdd = cyclic_delay_scheme(3, 8)
    pr = phase_rolling_scheme(3, 8)
    for _ in range(200):
        dx = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        if cdd_condition(dx):
            assert rank_full(difference_matrix(cdd, dx))
        if phase_rolling_condition(dx):
            assert rank_full(difference_matrix(pr, dx))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_simplified_conditions_at_k_are_the_rank_rule_at_every_k(n):
    # Phi(dx) has full rank iff at least K DFT bins (CDD) or entries (phase
    # rolling) are nonzero: 20 differences with exactly K - 1, K and K + 1
    # nonzero, for every K, so both sides of the rule are met
    rng = np.random.default_rng(60 + n)
    f = dft_matrix(n)
    for k in range(1, n + 1):
        for make, condition, to_dx in (
            (cyclic_delay_scheme, cdd_condition, lambda y: y @ f.conj()),
            (phase_rolling_scheme, phase_rolling_condition, lambda y: y),
        ):
            scheme = make(k, n)
            for count in range(max(k - 1, 0), min(k + 1, n) + 1):
                y = complex_gaussian(rng, (20, n))
                for row in y:
                    row[rng.permutation(n)[count:]] = 0.0
                dx = to_dx(y)
                want = [rank_full(phi) for phi in difference_matrix(scheme, dx)]
                assert want == [count >= k] * 20
                np.testing.assert_array_equal(condition(dx, k), want)


def test_min_gram_eigenvalue_basis_difference_closed_form():
    n = 8
    scheme = cyclic_delay_scheme(n, n)
    base = np.zeros(n, dtype=complex)
    other = np.array(base)
    other[0] = 1.0
    book = Codebook(np.stack([base, other]), rate_multiplexing=0.25, snr=100.0)
    # difference is a basis vector: Phi has orthonormal/sqrt(N) columns
    assert min_gram_eigenvalue(scheme, book) == pytest.approx(1.0 / n, rel=1e-12)


def test_min_gram_eigenvalue_exhaustive_pairs():
    rng = np.random.default_rng(7)
    scheme = cyclic_delay_scheme(2, 3)
    words = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    book = Codebook(words, rate_multiplexing=0.1, snr=10.0)
    got = min_gram_eigenvalue(scheme, book)
    best = np.inf
    for a in range(4):
        for b in range(a + 1, 4):
            phi = difference_matrix(scheme, words[a] - words[b])
            best = min(best, float(np.linalg.eigvalsh(phi.conj().T @ phi)[0]))
    assert got == pytest.approx(best, rel=1e-12)


def test_min_gram_eigenvalue_single_codeword_sentinel():
    scheme = cyclic_delay_scheme(2, 3)
    book = Codebook(np.ones((1, 3)), rate_multiplexing=0.0, snr=10.0)
    assert min_gram_eigenvalue(scheme, book) == np.inf


def test_min_gram_eigenvalue_zero_for_duplicate_codewords():
    scheme = cyclic_delay_scheme(2, 3)
    word = np.ones(3, dtype=complex)
    book = Codebook(np.stack([word, word]), rate_multiplexing=0.1, snr=10.0)
    assert min_gram_eigenvalue(scheme, book) == pytest.approx(0.0, abs=1e-12)


def test_min_gram_eigenvalue_quadratic_scaling():
    rng = np.random.default_rng(8)
    scheme = phase_rolling_scheme(2, 4)
    words = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    base = min_gram_eigenvalue(scheme, Codebook(words, 0.1, 10.0))
    scaled = min_gram_eigenvalue(scheme, Codebook(3.0 * words, 0.1, 10.0))
    assert scaled == pytest.approx(9.0 * base, rel=1e-10)


def test_min_gram_eigenvalue_sign_symmetry():
    rng = np.random.default_rng(9)
    scheme = cyclic_delay_scheme(2, 4)
    dx = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi_pos = difference_matrix(scheme, dx)
    phi_neg = difference_matrix(scheme, -dx)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(phi_pos.conj().T @ phi_pos),
        np.linalg.eigvalsh(phi_neg.conj().T @ phi_neg),
        atol=1e-12,
    )


def test_min_gram_eigenvalue_is_independent_of_the_pair_block(monkeypatch):
    # 60 words give 1770 pairs: one block by default, 253 blocks of 7
    rng = np.random.default_rng(31)
    book = Codebook(complex_gaussian(rng, (60, 4)), 0.1, 10.0)
    scheme = custom_scheme(
        [np.linalg.qr(complex_gaussian(rng, (4, 4)))[0] / 2.0 for _ in range(3)]
    )
    whole = min_gram_eigenvalue(scheme, book)
    monkeypatch.setattr(codebook, "PAIR_BLOCK", 7)
    assert min_gram_eigenvalue(scheme, book) == whole


@pytest.mark.parametrize("block", [1, 3, 7, 1 << 14])
def test_pair_blocks_cut_triu_indices_into_blocks(monkeypatch, block):
    # PAIR_BLOCK is read when the walk starts, so the patch takes effect
    monkeypatch.setattr(codebook, "PAIR_BLOCK", block)
    rng = np.random.default_rng(33)
    # no Codebook is empty, but the walk reads only its codewords and size
    empty = SimpleNamespace(codewords=np.zeros((0, 3), dtype=complex), size=0)
    assert list(codebook.pair_blocks(empty)) == []
    assert list(codebook.pair_blocks(Codebook(np.ones((1, 3)), 0.1, 10.0))) == []
    for size in range(2, 30):
        words = complex_gaussian(rng, (size, 3))
        blocks = list(codebook.pair_blocks(Codebook(words, 0.1, 10.0)))
        assert all(a.size == b.size == block for a, b, _ in blocks[:-1])
        want_a, want_b = np.triu_indices(size, k=1)
        np.testing.assert_array_equal(np.concatenate([a for a, _, _ in blocks]), want_a)
        np.testing.assert_array_equal(np.concatenate([b for _, b, _ in blocks]), want_b)
        for a, b, dx in blocks:
            assert dx.tobytes() == (words[a] - words[b]).tobytes()


@pytest.mark.parametrize("n", [32, 64])
def test_pair_blocks_hold_at_most_2_22_entries_of_n_squared_per_pair(n):
    # 100 words give 4950 pairs: one PAIR_BLOCK, but past 2^22 entries of
    # N^2 per pair at N = 32 (4096 pairs) and N = 64 (1024)
    words = complex_gaussian(np.random.default_rng(35), (100, n))
    blocks = list(codebook.pair_blocks(Codebook(words, 0.1, 10.0)))
    assert all(a.size * n * n <= 1 << 22 for a, _, _ in blocks)
    assert blocks[0][0].size == (1 << 22) // (n * n)
    want_a, want_b = np.triu_indices(100, k=1)
    np.testing.assert_array_equal(np.concatenate([a for a, _, _ in blocks]), want_a)
    np.testing.assert_array_equal(np.concatenate([b for _, b, _ in blocks]), want_b)


def _min_gram_peak_bytes(scheme, book):
    tracemalloc.start()
    try:
        min_gram_eigenvalue(scheme, book)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_min_gram_eigenvalue_memory_is_bounded_by_the_block(monkeypatch):
    # 300 words, 44850 pairs at N = K = 4 on a scheme that takes the
    # eigenvalues: unblocked, the (P, N, K) and (P, K, K) arrays alone take
    # ~35 MB; in blocks of 256 pairs nothing grows with the book
    rng = np.random.default_rng(32)
    book = Codebook(complex_gaussian(rng, (300, 4)), 0.1, 10.0)
    scheme = _haar_scheme(4, 4, 5)
    monkeypatch.setattr(codebook, "PAIR_BLOCK", 1 << 20)
    unblocked = _min_gram_peak_bytes(scheme, book)
    monkeypatch.setattr(codebook, "PAIR_BLOCK", 256)
    blocked = _min_gram_peak_bytes(scheme, book)
    assert unblocked > 30e6
    assert blocked < 2e6


@pytest.mark.parametrize("make", [cyclic_delay_scheme, phase_rolling_scheme])
def test_closed_form_min_gram_memory_is_bounded_by_the_block(monkeypatch, make):
    # the same book on a built-in family at K = N: no Phi and no Gramian,
    # only (P, N) arrays, ~7-10 MB unblocked and flat in blocks of 256
    rng = np.random.default_rng(32)
    book = Codebook(complex_gaussian(rng, (300, 4)), 0.1, 10.0)
    scheme = make(4, 4)
    monkeypatch.setattr(codebook, "PAIR_BLOCK", 1 << 20)
    unblocked = _min_gram_peak_bytes(scheme, book)
    monkeypatch.setattr(codebook, "PAIR_BLOCK", 256)
    blocked = _min_gram_peak_bytes(scheme, book)
    assert unblocked > 5e6
    assert blocked < 2e5


def _haar_scheme(k, n, seed):
    rng = np.random.default_rng(seed)
    return custom_scheme(
        [np.linalg.qr(complex_gaussian(rng, (n, n)))[0] / np.sqrt(n) for _ in range(k)]
    )


def _closed_form_book(make, n, rng):
    """20 Gaussian words, a duplicate of word 0, and a word whose
    difference to word 1 has one DFT bin (CDD) or one entry (phase
    rolling) 1e-7 times the rest."""
    words = complex_gaussian(rng, (20, n))
    y = complex_gaussian(rng, n)
    y[-1] *= 1e-7
    dx = dft_matrix(n).conj().T @ y if make is cyclic_delay_scheme else y
    return Codebook(np.concatenate([words, words[:1], words[1:2] - dx]), 0.1, 10.0)


@pytest.mark.parametrize("make", [cyclic_delay_scheme, phase_rolling_scheme])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_closed_form_min_gram_matches_the_svd_per_pair(make, n):
    scheme = make(n, n)
    family = builtin_family(scheme)
    assert family is not None
    book = _closed_form_book(make, n, np.random.default_rng(40 + n))
    eps = np.finfo(float).eps
    mus = []
    for _, _, dx in codebook.pair_blocks(book):
        for row in dx:
            mu = block_min_gram(scheme, family, row[None])
            sv2 = np.linalg.svd(difference_matrix(scheme, row), compute_uv=False) ** 2
            assert abs(mu - sv2[-1]) <= max(1e-12 * sv2[-1], 4 * eps * sv2[0])
            mus.append(mu)
    # the duplicate pair (0, 20) is exactly singular, and the near-singular
    # pair is the book's minimum but for it
    assert min(mus) == 0.0
    assert sorted(mus)[1] < 1e-12
    assert min_gram_eigenvalue(scheme, book) == 0.0


@pytest.mark.parametrize(
    "scheme",
    [cyclic_delay_scheme(2, 4), cyclic_delay_scheme(3, 8), phase_rolling_scheme(3, 4),
     _haar_scheme(4, 4, 6)],
    ids=["cdd-2-4", "cdd-3-8", "pr-3-4", "haar-4-4"],
)
def test_min_gram_keeps_the_eigenvalues_off_the_closed_form(monkeypatch, scheme):
    # K < N, or a scheme that is no built-in family: bit for bit _min_gram
    monkeypatch.setattr(codebook, "PAIR_BLOCK", 64)
    rng = np.random.default_rng(41)
    n = scheme.block_length
    book = Codebook(complex_gaussian(rng, (30, n)), 0.1, 10.0)
    want = np.inf
    for _, _, dx in codebook.pair_blocks(book):
        phi = difference_matrix(scheme, dx)
        got = block_min_gram(scheme, builtin_family(scheme), dx)
        assert got == block_min_gram(scheme, builtin_family(scheme), dx, phi) == codebook._min_gram(phi)
        want = min(want, got)
    assert min_gram_eigenvalue(scheme, book) == want


def test_closed_form_follows_the_matrices_not_the_name():
    rng = np.random.default_rng(42)
    book = Codebook(complex_gaussian(rng, (12, 4)), 0.1, 10.0)
    for make in (cyclic_delay_scheme, phase_rolling_scheme):
        renamed = custom_scheme(make(4, 4).matrices, name="mine")
        assert min_gram_eigenvalue(renamed, book) == min_gram_eigenvalue(make(4, 4), book)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_codebook_rejects_non_finite_codewords(bad):
    words = np.ones((3, 4), dtype=complex)
    words[2, 1] = bad
    with pytest.raises(InvalidParameterError):
        Codebook(words, 0.1, 10.0)


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0,), (2, 3, 4)],
                         ids=["no-words", "zero-length", "one-empty-word", "3-d"])
def test_codebook_rejects_words_that_are_no_nonempty_matrix(shape):
    with pytest.raises(InvalidParameterError, match="nonempty"):
        Codebook(np.ones(shape), 0.1, 10.0)


def test_min_gram_eigenvalue_refuses_a_book_of_another_block_length():
    book = Codebook(np.eye(3), 0.1, 10.0)
    with pytest.raises(InvalidParameterError, match="block lengths differ"):
        min_gram_eigenvalue(cyclic_delay_scheme(2, 4), book)


def test_rank_full_invariant_under_common_unitary():
    rng = np.random.default_rng(10)
    base = cyclic_delay_scheme(3, 4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    rotated = custom_scheme([q @ g for g in base.matrices])
    for _ in range(100):
        dx = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = rank_full(difference_matrix(base, dx))
        b = rank_full(difference_matrix(rotated, dx))
        assert a == b

