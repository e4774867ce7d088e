"""Mutual information of the effective channel and its Jensen bound.

All logarithms are base 2; rates are in bits per channel use.  The factor
1/2 in every expression reflects the two-slot half-duplex protocol.  Each
quantity has one function, which takes a stack of any leading shape and
returns one value per element; a single realization is a stack with no
leading axes, and rho may be a scalar or an array that broadcasts over the
leading shape.  The kernels that start from a fading draw take its two-hop
pair (h~, 1 + ||h||^2) from channel_model.two_hop.  The estimators' exact-MI
kernels never form H_eff: schemes whose matrices share an eigenbasis (CDD,
phase rolling) use their spectra, every other scheme its table of
G_i G_j^H products.  Wherever the MI comes from I + rho H H^H (that table,
or an H_eff stack), its log-det is one in-house LDL^H elimination whose
every numpy operation spans all trials, rather than one LAPACK call per
matrix.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError
from .relay_schemes import GramianSummary

# Trials per sub-block of mutual_information_products.  The elimination
# makes ~N^2/2 passes over its packed (N(N+1)/2, t) triangle, which should
# stay in a core's L2 cache (1.2 MB at N = 8) while each pass stays long
# enough to hide numpy's per-call cost: 2048 was the fastest power of two
# from 256 to 16384 at (K, N) = (2, 4) and (3, 8), and within noise of the
# fastest at (4, 16), on a 2-vCPU Xeon.
PRODUCTS_SUB_BLOCK = 2048


def mutual_information(heff: np.ndarray, rho) -> np.ndarray:
    """(1/2N) sum_n log2(1 + rho lambda_n(H H^H)) of each channel in a
    (..., N, N) stack, shape (...)."""
    _check_rho(rho)
    n = heff.shape[-1]
    gram = heff @ np.swapaxes(heff.conj(), -1, -2)
    gram *= np.asarray(rho)[..., None, None]
    lower = gram.reshape(-1, n * n).T[_lower_rows(n)]
    return _mi_from_lower(lower, n).reshape(heff.shape[:-2])


def mutual_information_products(
    products: np.ndarray, ht: np.ndarray, noise: np.ndarray, rho
) -> np.ndarray:
    """Exact MI for a (..., K) stack of two-hop pairs (h~, 1 + ||h||^2) from
    the (K*K, N*N) table of vec(G_i G_j^H) (relay_schemes.pair_products),
    shape (...).

    rho H H^H = sum_ij w_ij G_i G_j^H with w_ij = rho h~_i conj(h~_j) /
    (1 + ||h||^2), so the lower triangles of a sub-block of t trials are one
    (N(N+1)/2, K*K) x (K*K, t) product; H_eff is never formed.
    """
    _check_rho(rho)
    lead, k = ht.shape[:-1], ht.shape[-1]
    n = math.isqrt(products.shape[1])
    table = products[:, _lower_rows(n)].T
    ht = np.ascontiguousarray(ht.reshape(-1, k).T)
    scale = np.broadcast_to(rho / noise, lead).reshape(-1)
    out = np.empty(ht.shape[1])
    for lo in range(0, out.size, PRODUCTS_SUB_BLOCK):
        hi = lo + PRODUCTS_SUB_BLOCK
        w = ht[:, None, lo:hi] * ht[None, :, lo:hi].conj()
        w *= scale[lo:hi]
        out[lo:hi] = _mi_from_lower(table @ w.reshape(k * k, -1), n, first=lo)
    return out.reshape(lead)


@functools.lru_cache(maxsize=None)
def _lower_rows(n: int) -> np.ndarray:
    """Indices into a row-major vec(A) of A's lower triangle packed by
    columns: column j's rows j..N-1, then column j+1's (read-only)."""
    col, row = np.triu_indices(n)
    rows = row * n + col
    rows.flags.writeable = False
    return rows


def _mi_from_lower(lower: np.ndarray, n: int, first: int = 0) -> np.ndarray:
    """(1/2N) log2 det(I + A) for t Hermitian PSD (N, N) matrices A, given
    trial-last as their packed lower triangles (_lower_rows order), shape
    (N(N+1)/2, t); returns shape (t,) and overwrites ``lower``.  A fault
    names its trial as ``first`` plus its column in ``lower``.

    One LDL^H elimination of I + A runs across all trials at once: step j
    takes the pivot d_j = 1 + A[j, j] and subtracts the rank-1 update
    A[i, k] -= A[i, j] conj(A[k, j]) / d_j from the trailing lower triangle,
    one column k at a time, and log2 det(I + A) = sum_j log2 d_j.  In exact
    arithmetic every pivot of I + PSD is >= 1, so a pivot that is not > 0
    (NaN included) is a fault; the steps after it are garbage, and it raises.

    A single trial runs as two equal columns: with one column numpy takes
    other loops (a complex multiply without FMA, a pairwise sum of the
    pivots), and the trial's bits would depend on the stack around it.
    """
    if lower.shape[1] == 1:
        return _mi_from_lower(np.repeat(lower, 2, axis=1), n, first)[:1]
    pivots = np.empty((n, lower.shape[1]))
    start = 0  # row of A[j, j] in ``lower``
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n):
            np.add(lower[start].real, 1.0, out=pivots[j])
            col = lower[start + 1 : start + n - j]  # A[j+1:, j]
            scaled = np.conjugate(col)  # a copy even for real input, unlike col.conj()
            scaled /= pivots[j]
            start += n - j
            target = start  # row of A[k, k] for k = j+1, j+2, ...
            for k in range(j + 1, n):
                lower[target : target + n - k] -= col[k - j - 1 :] * scaled[k - j - 1]
                target += n - k
    if not np.all(pivots > 0):
        j, t = np.argwhere(~(pivots > 0))[0]
        raise InternalConsistencyError(
            f"I + rho H H^H is not positive definite: "
            f"pivot {j} of trial {first + t} is {pivots[j, t]}"
        )
    return np.sum(np.log2(pivots), axis=0) / (2 * n)


def mutual_information_spectral(
    spectra: np.ndarray, ht: np.ndarray, noise: np.ndarray, rho
) -> np.ndarray:
    """Exact MI for a (..., K) stack of two-hop pairs when all G_i share an
    eigenbasis.

    With spectra[i] the eigenvalues of G_i (relay_schemes.common_spectra),
    H_eff has eigenvalues s = h~ @ spectra / sqrt(1 + ||h||^2) and is
    normal, so the MI is (1/2N) sum_m log2(1 + rho |s_m|^2); shape (...).
    """
    _check_rho(rho)
    s = ht @ spectra
    power = s.real**2 + s.imag**2
    power *= (rho / noise)[..., None]
    return np.sum(np.log2(1.0 + power), axis=-1) / (2.0 * spectra.shape[1])


def jensen_mi(heff: np.ndarray, rho) -> np.ndarray:
    """(1/2) log2(1 + (rho/N) ||H||_F^2) of each channel in a (..., N, N)
    stack, shape (...); tight iff all eigenvalues of H H^H are equal."""
    _check_rho(rho)
    fro2 = np.sum(np.abs(heff) ** 2, axis=(-2, -1))
    return 0.5 * np.log2(1.0 + rho / heff.shape[-1] * fro2)


def jensen_mi_via_gramian(
    gram: GramianSummary, ht: np.ndarray, noise: np.ndarray, rho
) -> np.ndarray:
    """Jensen bound of a (..., K) stack of two-hop pairs (h~, 1 + ||h||^2)
    through the Gramian quadratic form, shape (...).

    ||H_eff||_F^2 = h~^H gram h~ / (1 + ||h||^2), so the bound equals
    (1/2) log2(1 + (rho/N) h~^H gram h~ / (1 + ||h||^2)); it must agree
    with the H_eff path to 1e-10 relative.  The form adds the real parts of
    conj(h~_k) gram_kl h~_l in (k, l) order, in real arithmetic with each
    numpy operation spanning all trials, so a trial's bits do not depend on
    the stack around it; numpy's einsum("...k,kl,...l->...") gives the same
    bits on stacks of three or more, but at K = 2 sums a stack of one or
    two in another order.
    """
    _check_rho(rho)
    k = ht.shape[-1]
    flat = ht.reshape(-1, k)
    ar, ai = flat.real.T.copy(), flat.imag.T.copy()
    gr, gi = gram.gram.real[:, :, None], gram.gram.imag[:, :, None]
    quad = np.zeros(flat.shape[0])
    for i in range(k):
        # real and imaginary parts of conj(h~_i) gram_il, shape (K, trials)
        re = ar[i] * gr[i] + ai[i] * gi[i]
        im = ar[i] * gi[i] - ai[i] * gr[i]
        re *= ar
        im *= ai
        re -= im
        for term in re:
            quad += term
    np.clip(quad, 0.0, None, out=quad)
    quad = quad.reshape(ht.shape[:-1])
    return 0.5 * np.log2(1.0 + (rho / gram.block_length) * quad / noise)


def _check_rho(rho) -> None:
    # written so that NaN fails it
    if not np.all(np.asarray(rho) > 0):
        raise InvalidParameterError("rho must be positive")
