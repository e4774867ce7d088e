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
    if not rho > 0:
        raise InvalidParameterError("rho must be positive")
    size = nominal_size(block_length, r, rho)
    if size > size_cap:
        raise ResourceLimitError("codebook size over cap", size, size_cap)
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


def rank_full(phi: np.ndarray, tol: float = RANK_REL_TOL) -> bool:
    """True iff the smallest singular value of the N x K matrix Phi clears
    K * sigma_max * tol."""
    s = np.linalg.svd(phi, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return False
    return bool(s[-1] > phi.shape[-1] * s[0] * tol)


def cdd_condition(dx: np.ndarray) -> bool:
    """All DFT bins of dx nonzero: the cyclic-delay full-rank shortcut."""
    dx = np.asarray(dx, dtype=complex)
    spectrum = dft_matrix(dx.size) @ dx
    return bool(np.all(np.abs(spectrum) > ZERO_TOL * np.linalg.norm(dx)))


def phase_rolling_condition(dx: np.ndarray) -> bool:
    """All time-domain entries of dx nonzero: the phase-rolling shortcut."""
    dx = np.asarray(dx, dtype=complex)
    return bool(np.all(np.abs(dx) > ZERO_TOL * np.linalg.norm(dx)))


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
    words = book.codewords
    best = math.inf
    for idx_a, idx_b in _pair_blocks(book.size, MIN_GRAM_PAIR_BLOCK):
        cols = difference_matrix(scheme, words[idx_a] - words[idx_b])  # (P, N, K)
        grams = np.einsum("pak,pal->pkl", cols.conj(), cols)  # (P, K, K)
        eigs = np.linalg.eigvalsh(grams)
        best = min(best, float(np.clip(eigs[:, 0], 0.0, None).min()))
    return best


def _pair_blocks(size: int, block: int):
    """Index arrays (a, b) of the pairs a < b of ``size`` items, in
    np.triu_indices order, ``block`` pairs at a time.  Each block is cut
    from a row cursor (a, b), so no array grows with ``size``."""
    a, b = 0, 1
    while a < size - 1:
        rows_a, rows_b = [], []
        left = block
        while left and a < size - 1:
            take = min(left, size - b)
            rows_a.append(np.full(take, a))
            rows_b.append(np.arange(b, b + take))
            left -= take
            b += take
            if b == size:
                a, b = a + 1, a + 2
        yield np.concatenate(rows_a), np.concatenate(rows_b)

