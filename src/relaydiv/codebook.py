"""Codebooks, the code difference matrix, and the rank/eigenvalue conditions.

The full-rank condition on Phi(dx) = [G_1 dx ... G_K dx] over all codeword
pairs drives diversity optimality.  For the cyclic-delay and phase-rolling
families the condition reduces to "no zero DFT bin" and "no zero entry"
respectively; both simplified tests are provided alongside the SVD-based
general test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel_model import complex_gaussian
from .errors import InvalidParameterError, ResourceLimitError
from .relay_schemes import RelayScheme, _as_readonly, dft_matrix

# Relative cutoff for the "entry != 0" conditions: |value| > ZERO_TOL * ||dx||.
ZERO_TOL = 1e-9

# rank_full threshold: sigma_min > K * sigma_max * RANK_REL_TOL.
RANK_REL_TOL = 1e-12

DEFAULT_SIZE_CAP = 65536

# Codeword pairs per block of min_gram_eigenvalue.
MIN_GRAM_PAIR_BLOCK = 1 << 14


@dataclass(frozen=True)
class Codebook:
    """Finite set of length-N codewords with rate/SNR metadata."""

    codewords: np.ndarray  # (size, N)
    rate_multiplexing: float
    snr: float

    def __post_init__(self):
        cw = _as_readonly(np.atleast_2d(self.codewords))
        if cw.ndim != 2 or cw.shape[0] < 1:
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


@dataclass(frozen=True)
class DifferenceMatrix:
    """Phi(dx): column i is G_i dx."""

    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", _as_readonly(self.phi))

    @property
    def num_relays(self) -> int:
        return self.phi.shape[1]


def nominal_size(block_length: int, r: float, rho: float) -> int:
    """ceil(rho^(2 N r)) with a small relative guard against float slop."""
    v = float(rho) ** (2.0 * block_length * r)
    return max(1, math.ceil(v * (1.0 - 1e-12) - 1e-9))


def gaussian_codebook(
    block_length: int,
    r: float,
    rho: float,
    rng: np.random.Generator,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Codebook:
    """i.i.d. complex Gaussian codebook with ceil(rho^(2Nr)) codewords.

    Entries have unit variance so E||x||^2 = N.  Refuses books over
    ``size_cap`` rather than silently truncating.
    """
    if not 0.0 <= r <= 0.5:
        raise InvalidParameterError("multiplexing gain r must lie in [0, 1/2]")
    if rho <= 0:
        raise InvalidParameterError("rho must be positive")
    size = nominal_size(block_length, r, rho)
    if size > size_cap:
        raise ResourceLimitError("codebook size over cap", size, size_cap)
    cw = complex_gaussian(rng, (size, block_length))
    return Codebook(cw, rate_multiplexing=r, snr=float(rho))


def difference_matrix(scheme: RelayScheme, dx: np.ndarray) -> DifferenceMatrix:
    """Phi(dx) = [G_1 dx ... G_K dx], an N x K matrix."""
    dx = np.asarray(dx, dtype=complex)
    if dx.shape != (scheme.block_length,):
        raise InvalidParameterError(
            f"dx must have shape ({scheme.block_length},), got {dx.shape}"
        )
    cols = np.tensordot(scheme.stacked(), dx, axes=(2, 0))  # (K, N)
    return DifferenceMatrix(cols.T)


def rank_full(phi: DifferenceMatrix, tol: float = RANK_REL_TOL) -> bool:
    """True iff the smallest singular value clears K * sigma_max * tol."""
    s = np.linalg.svd(phi.phi, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return False
    return bool(s[-1] > phi.num_relays * s[0] * tol)


def cdd_condition(dx: np.ndarray) -> bool:
    """All DFT bins of dx nonzero: the cyclic-delay full-rank shortcut."""
    dx = np.asarray(dx, dtype=complex)
    spectrum = dft_matrix(dx.size) @ dx
    return bool(np.all(np.abs(spectrum) > ZERO_TOL * np.linalg.norm(dx)))


def phase_rolling_condition(dx: np.ndarray) -> bool:
    """All time-domain entries of dx nonzero: the phase-rolling shortcut."""
    dx = np.asarray(dx, dtype=complex)
    return bool(np.all(np.abs(dx) > ZERO_TOL * np.linalg.norm(dx)))


def pair_differences(book: Codebook) -> np.ndarray:
    """Difference vectors for all unordered codeword pairs, (P, N)."""
    idx_a, idx_b = np.triu_indices(book.size, k=1)
    return book.codewords[idx_a] - book.codewords[idx_b]


def min_gram_eigenvalue(scheme: RelayScheme, book: Codebook) -> float:
    """min over codeword pairs of lambda_min(Phi(dx)^H Phi(dx)).

    Returns +inf for single-codeword books (vacuous minimum).  Swapping a
    pair negates dx and leaves the Gramian unchanged, so unordered pairs
    suffice.  Pairs are taken MIN_GRAM_PAIR_BLOCK at a time, so memory
    stays bounded at any book size; every step is per pair, so the block
    size cannot change the result.
    """
    if book.size < 2:
        return math.inf
    if book.block_length != scheme.block_length:
        raise InvalidParameterError("codebook and scheme block lengths differ")
    g = scheme.stacked()
    words = book.codewords
    idx_a, idx_b = np.triu_indices(book.size, k=1)
    best = math.inf
    for lo in range(0, idx_a.size, MIN_GRAM_PAIR_BLOCK):
        hi = lo + MIN_GRAM_PAIR_BLOCK
        diffs = words[idx_a[lo:hi]] - words[idx_b[lo:hi]]  # (P, N)
        cols = np.einsum("kab,pb->pak", g, diffs)  # (P, N, K)
        grams = np.einsum("pak,pal->pkl", cols.conj(), cols)  # (P, K, K)
        eigs = np.linalg.eigvalsh(grams)
        best = min(best, float(np.clip(eigs[:, 0], 0.0, None).min()))
    return best


def approximately_universal(
    scheme: RelayScheme, book: Codebook, r: float, rho: float
) -> bool:
    """Finite-SNR surrogate for the universality condition: the minimum
    pair Gramian eigenvalue must exceed rho^(-2r) at the given rho."""
    if not 0.0 <= r <= 0.5:
        raise InvalidParameterError("multiplexing gain r must lie in [0, 1/2]")
    if rho <= 1:
        raise InvalidParameterError("rho must exceed 1")
    return min_gram_eigenvalue(scheme, book) > float(rho) ** (-2.0 * r)
