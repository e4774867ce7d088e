"""Codebooks, the code difference matrix, and the rank/eigenvalue conditions.

The full-rank condition on Phi(dx) = [G_1 dx ... G_K dx] over all codeword
pairs drives diversity optimality.  For the K-relay cyclic-delay and
phase-rolling families the condition reduces to "at least K nonzero DFT
bins" and "at least K nonzero entries" respectively.  Both simplified
tests, like ``difference_matrix``, take a (..., N) stack of differences
and answer per difference; the SVD-based general test takes one Phi.  At
K = N the same duality gives each pair's lambda_min(Phi^H Phi) in closed
form (``block_min_gram``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel_model import complex_gaussian
from .errors import InvalidParameterError, ResourceLimitError
from .relay_schemes import RelayScheme, _as_readonly, builtin_family, dft_matrix

# Relative cutoff for the "entry != 0" conditions: |value| > ZERO_TOL * ||dx||.
ZERO_TOL = 1e-9

# rank_full threshold: sigma_min > K * sigma_max * RANK_REL_TOL.
RANK_REL_TOL = 1e-12

DEFAULT_SIZE_CAP = 65536

# Most codeword pairs, and most Phi entries (pairs times N^2, which bounds
# pairs times N K), per block of a pass over a book's pairs.
PAIR_BLOCK = 1 << 14
PHI_ENTRIES = 1 << 22


@dataclass(frozen=True)
class Codebook:
    """Finite set of length-N codewords with rate/SNR metadata."""

    codewords: np.ndarray  # (size, N)
    rate_multiplexing: float
    snr: float

    def __post_init__(self):
        cw = _as_readonly(np.atleast_2d(self.codewords))
        if cw.ndim != 2 or cw.size == 0:
            raise InvalidParameterError("codewords must form a nonempty (size, N) array")
        if not np.all(np.isfinite(cw)):
            raise InvalidParameterError("codewords must be finite")
        object.__setattr__(self, "codewords", cw)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def block_length(self) -> int:
        return self.codewords.shape[1]


def nominal_size(block_length: int, r: float, rho: float) -> int | float:
    """ceil(rho^(2 N r)) with a small relative guard against float slop, or
    inf when its log, 2 N r ln(rho), is past 709: the largest float is
    e^709.78, so the power itself would overflow."""
    if 2.0 * block_length * r * math.log(rho) > 709.0:
        return math.inf
    v = float(rho) ** (2.0 * block_length * r)
    return max(1, math.ceil(v * (1.0 - 1e-12) - 1e-9))


def gaussian_codebook(block_length: int, r: float, rho: float, rng: np.random.Generator) -> Codebook:
    """i.i.d. complex Gaussian codebook with ceil(rho^(2Nr)) codewords.

    Entries have unit variance so E||x||^2 = N.  Refuses books over
    DEFAULT_SIZE_CAP rather than silently truncating.
    """
    if not 0.0 <= r <= 0.5:
        raise InvalidParameterError("multiplexing gain r must lie in [0, 1/2]")
    if not rho > 0:
        raise InvalidParameterError("rho must be positive")
    size = nominal_size(block_length, r, rho)
    if size > DEFAULT_SIZE_CAP:
        raise ResourceLimitError("codebook size over cap", size, DEFAULT_SIZE_CAP)
    cw = complex_gaussian(rng, (size, block_length))
    return Codebook(cw, rate_multiplexing=r, snr=float(rho))


def difference_matrix(scheme: RelayScheme, dx: np.ndarray) -> np.ndarray:
    """Phi(dx) = [G_1 dx ... G_K dx] for a (..., N) stack of codeword
    differences, shape (..., N, K)."""
    dx = np.asarray(dx, dtype=complex)
    if dx.ndim < 1 or dx.shape[-1] != scheme.block_length:
        raise InvalidParameterError(
            f"dx must have shape (..., {scheme.block_length}), got {dx.shape}"
        )
    return np.einsum("kab,...b->...ak", scheme.stacked(), dx)


def rank_full(phi: np.ndarray) -> bool:
    """True iff the smallest singular value of the N x K matrix Phi clears
    K * sigma_max * RANK_REL_TOL."""
    s = np.linalg.svd(phi, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return False
    return bool(s[-1] > phi.shape[-1] * s[0] * RANK_REL_TOL)


def cdd_condition(dx: np.ndarray, k: int | None = None) -> np.ndarray:
    """At least K nonzero DFT bins (K = N when not given), per difference
    of a (..., N) stack: the K-relay cyclic-delay full-rank rule, the
    phase-rolling one in frequency."""
    return phase_rolling_condition(_dft_bins(dx), k)


def phase_rolling_condition(dx: np.ndarray, k: int | None = None) -> np.ndarray:
    """At least K nonzero entries (K = N when not given), per difference of
    a (..., N) stack: the K-relay phase-rolling full-rank rule.  Phi(dx) is
    diag(dx) times N x K Vandermonde columns on distinct roots of unity, any
    K rows of which are independent."""
    dx = np.asarray(dx, dtype=complex)
    nonzero = np.abs(dx) > ZERO_TOL * np.linalg.norm(dx, axis=-1, keepdims=True)
    return np.count_nonzero(nonzero, axis=-1) >= (dx.shape[-1] if k is None else k)


def _dft_bins(dx: np.ndarray) -> np.ndarray:
    """F dx per difference of a (..., N) stack, F the unitary DFT."""
    dx = np.asarray(dx, dtype=complex)
    return dx @ dft_matrix(dx.shape[-1]).T


def min_gram_eigenvalue(scheme: RelayScheme, book: Codebook) -> float:
    """min over codeword pairs of lambda_min(Phi(dx)^H Phi(dx)).

    Returns +inf for single-codeword books (vacuous minimum).  Swapping a
    pair negates dx and leaves the Gramian unchanged, so unordered pairs
    suffice.  Pairs are taken a pair_blocks block at a time, so memory
    stays bounded at any book size; every step is per pair, so the block
    size cannot change the result.
    """
    if book.block_length != scheme.block_length:
        raise InvalidParameterError("codebook and scheme block lengths differ")
    best, family = math.inf, builtin_family(scheme)
    for _, _, dx in pair_blocks(book):
        best = min(best, block_min_gram(scheme, family, dx))
    return best


def block_min_gram(scheme: RelayScheme, family: str | None, dx: np.ndarray,
                   phi: np.ndarray | None = None) -> float:
    """min of lambda_min(Phi(dx)^H Phi(dx)) over a nonempty (P, N) block of
    differences, where family is ``builtin_family(scheme)`` and phi, when
    given, is the block's ``difference_matrix(scheme, dx)``.

    At K = N the built-in families need no Gramian: Phi(dx) is a circulant
    over sqrt(N) for "cdd", so its singular values are |F dx|, and diag(dx)
    times a unitary for "phase-rolling", so they are |dx|.  The minimum is
    then min_m |y_m|^2, y = F dx or dx, whose digits stay near the SVD's;
    eigvalsh of Phi^H Phi squares the pair's condition number.  Every other
    scheme, and K < N, takes the eigenvalues (_min_gram), forming Phi only
    if phi is not given.
    """
    if family is None or scheme.num_relays != scheme.block_length:
        return _min_gram(difference_matrix(scheme, dx) if phi is None else phi)
    y = _dft_bins(dx) if family == "cdd" else dx
    return float(np.min(y.real * y.real + y.imag * y.imag))


def _min_gram(phi: np.ndarray) -> float:
    """min over a nonempty (P, N, K) stack of lambda_min(Phi^H Phi), clipped at 0."""
    eigs = np.linalg.eigvalsh(np.einsum("pak,pal->pkl", phi.conj(), phi))
    return float(np.clip(eigs[:, 0], 0.0, None).min())


def pair_blocks(book: Codebook):
    """(a, b, words[a] - words[b]) over the codeword pairs a < b of a book,
    index arrays in np.triu_indices order, PAIR_BLOCK pairs at a time, or
    fewer once their N^2 entries each would pass PHI_ENTRIES (at N > 16).
    Pair p lies in row a = max{a : starts[a] <= p}, where starts[a] counts
    the pairs of the rows before a, and b = a + 1 + p - starts[a]: each
    block follows from its pair numbers alone, and only starts grows with
    the book, not with its pair count."""
    words, size = book.codewords, book.size
    rows = np.arange(size)
    starts = rows * (2 * size - 1 - rows) // 2
    pairs = size * (size - 1) // 2
    block = min(PAIR_BLOCK, max(1, PHI_ENTRIES // words.shape[1] ** 2))
    for lo in range(0, pairs, block):
        p = np.arange(lo, min(lo + block, pairs))
        a = np.searchsorted(starts, p, "right") - 1
        b = p - starts[a] + a + 1
        yield a, b, words[a] - words[b]
