"""Mutual information of the effective channel and its Jensen bound.

All logarithms are base 2; rates are in bits per channel use.  The factor
1/2 in every expression reflects the two-slot half-duplex protocol.  Each
quantity has one function, which takes a stack of any leading shape and
returns one value per element; a single realization is a stack with no
leading axes, and rho may be a scalar or an array that broadcasts over the
leading shape.  The kernels that start from a fading draw take its
two-hop products h~ = u sqrt(b) as the parts u and b (b broadcasts against
u, and b = 1 takes h~ itself as u), and only read them.  The two MI
functions of an H_eff stack refuse any rho ||H||_F^2 that is not finite.

The exact MI has one rule: a factor source, spectral_factors (schemes whose
G_i share an eigenbasis) or ldl_factors (any other), returns an (N, ...)
array of trial-last rows >= 1 whose product is det(I + rho H H^H), without
forming H_eff, from h~ and scale = rho / (1 + ||h||^2), and
mi_from_factors is the one reduction of them, (1/2N) sum_n log2 f_n.

Each factor source also takes an optional Workspace, whose arrays it reuses
for its temporaries and its factor array instead of allocating them;
called without one, it returns a fresh array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError
from .relay_schemes import GramianSummary

# Trials per sub-block of ldl_factors.  The elimination
# makes ~N^2/2 passes over its packed (N(N+1)/2, t) triangle, which should
# stay in a core's L2 cache (1.2 MB at N = 8) while each pass stays long
# enough to hide numpy's per-call cost: 2048 was the fastest power of two
# from 256 to 16384 at (K, N) = (2, 4) and (3, 8), and within noise of the
# fastest at (4, 16), on a 2-vCPU Xeon.
PRODUCTS_SUB_BLOCK = 2048


class Workspace:
    """Named scratch arrays that only grow: ``take(name, shape, dtype)``
    returns a C-contiguous view of the first prod(shape) elements of the
    array kept under (name, dtype), first replacing that array by a larger
    one if it is too small.  A view's contents are whatever the last user
    of the name left there, and it is valid until the name is taken again.
    Each name is a separate allocation, aligned as a fresh array is."""

    def __init__(self):
        self._arrays: dict[tuple[str, np.dtype], np.ndarray] = {}

    def take(self, name: str, shape, dtype=float) -> np.ndarray:
        key = (name, np.dtype(dtype))
        size = math.prod(shape)
        array = self._arrays.get(key)
        if array is None or array.size < size:
            array = self._arrays[key] = np.empty(size, dtype)
        return array[:size].reshape(shape)


def mutual_information(heff: np.ndarray, rho) -> np.ndarray:
    """(1/2N) sum_n log2(1 + rho lambda_n(H H^H)) of each channel in a
    (..., N, N) stack, shape (...); a real stack is taken as complex."""
    _check_channels(heff, rho)
    heff = np.asarray(heff, dtype=complex)
    n = heff.shape[-1]
    gram = heff @ np.swapaxes(heff.conj(), -1, -2)
    gram *= np.asarray(rho)[..., None, None]
    lower = gram.reshape(-1, n * n).T[_lower_rows(n)]
    pivots = _ldl_pivots(lower, n, np.empty((n, lower.shape[1])), Workspace())
    return mi_from_factors(pivots).reshape(heff.shape[:-2])


def mi_from_factors(factors: np.ndarray) -> np.ndarray:
    """The exact MI (1/2N) sum_n log2 f_n of a factor source's (N, ...) rows
    f_n, in a row's shape, added row by row: numpy would sum a lone trial's
    (N,) logarithms pairwise, giving it other bits than inside a stack."""
    mi = 0.0
    for row in factors:
        mi += np.log2(row)
    return mi / (2.0 * len(factors))


def ldl_factors(
    products: np.ndarray, u: np.ndarray, b, scale, workspace: Workspace | None = None
) -> np.ndarray:
    """The LDL^H pivots of I + rho H H^H, as spectral_factors' rows but for
    any scheme, from the (K*K, N*N) table of vec(G_i G_j^H)
    (relay_schemes.pair_products): an (N, ...) array whose row j is d_j.
    With a workspace the array is its "pivots", valid until that is taken
    again.

    rho H H^H = sum_ij w_ij G_i G_j^H with w_ij = scale h~_i conj(h~_j), so
    the lower triangles of a sub-block of t trials are one
    (N(N+1)/2, K*K) x (K*K, t) product; H_eff is never formed.  That GEMM's
    blocking depends on t, so a trial's bits depend on the width of the
    sub-block it falls in (PRODUCTS_SUB_BLOCK, or less at a stack's end),
    not only on the trial.
    """
    workspace = Workspace() if workspace is None else workspace
    lead = u.shape[:-1]
    x = _trial_last_products(u, b, workspace)
    k, trials = x.shape
    scale = np.broadcast_to(scale, lead).reshape(-1)
    n = math.isqrt(products.shape[1])
    rows = _lower_rows(n)
    table = workspace.take("table", (rows.size, k * k), complex)
    for i, product in enumerate(products):
        np.take(product, rows, out=table[:, i], mode="clip")
    pivots = workspace.take("pivots", (n, trials))
    for lo in range(0, trials, PRODUCTS_SUB_BLOCK):
        hi = min(lo + PRODUCTS_SUB_BLOCK, trials)
        weight = workspace.take("weight", (hi - lo,), complex)
        weight.real, weight.imag = scale[lo:hi], 0.0
        conj = workspace.take("conj", (k, hi - lo), complex)
        w = workspace.take("w", (k, k, hi - lo), complex)
        for i in range(k):
            np.conjugate(x[i, lo:hi], out=conj[i])
        for i, j in np.ndindex(k, k):
            np.multiply(x[i, lo:hi], conj[j], out=w[i, j])
            w[i, j] *= weight
        lower = workspace.take("lower", (rows.size, hi - lo), complex)
        np.matmul(table, w.reshape(k * k, -1), out=lower)
        _ldl_pivots(lower, n, pivots[:, lo:hi], workspace, first=lo)
    return pivots.reshape((n,) + lead)


def _trial_last_products(u: np.ndarray, b, workspace: Workspace) -> np.ndarray:
    """The two-hop products h~ = u sqrt(b) of a (..., K) stack as a
    trial-last (K, T) array, the workspace's "ht".  Relay i's row is formed
    as the real products Re u_i sqrt(b_i) and Im u_i sqrt(b_i), sqrt(b_i)
    first taking the imaginary row's place: the bits of numpy's
    u * np.sqrt(b), with u and b only read and no complex-by-real cast
    buffer."""
    k = u.shape[-1]
    flat = u.reshape(-1, k)
    weight = np.broadcast_to(b, u.shape).reshape(-1, k)
    x = workspace.take("ht", (k, flat.shape[0]), complex)
    for i in range(k):
        root = np.sqrt(weight[:, i], out=x[i].imag)
        np.multiply(flat[:, i].real, root, out=x[i].real)
        np.multiply(flat[:, i].imag, root, out=root)
    return x


def _lower_rows(n: int) -> np.ndarray:
    """Indices into a row-major vec(A) of A's lower triangle packed by
    diagonals: A[k, k] for k = 0..N-1, then A[k+1, k], then A[k+2, k], ...,
    a fresh array on each call."""
    return np.concatenate([np.arange(n - d) * (n + 1) + d * n for d in range(n)])


def _ldl_pivots(
    lower: np.ndarray, n: int, out: np.ndarray, workspace: Workspace, first: int = 0
) -> np.ndarray:
    """The LDL^H pivots of I + A for t Hermitian PSD (N, N) matrices A,
    given trial-last as their complex packed lower triangles (_lower_rows
    order), shape (N(N+1)/2, t), which it overwrites; returns ``out``, shape
    (N, t), row j the pivots d_j.  Temporaries are the workspace's.  A fault
    names its trial as ``first`` plus its column in ``lower``.

    One elimination of I + A runs across all trials at once: step j takes
    the pivot d_j = 1 + A[j, j] and subtracts the rank-1 update
    A[i, k] -= A[i, j] conj(A[k, j]) / d_j from the trailing lower triangle,
    one diagonal i - k at a time, and det(I + A) = prod_j d_j.  The division
    is a product with 1/d_j + 0j, row by row, which gives the bits of
    numpy's complex-by-real division (it computes x (1/d)) at a third of its
    cost.  Every complex operation takes rows or blocks of equal shape:
    numpy gives one that broadcasts a row over a block a buffer of up to
    8192 elements.  A pivot of I + PSD is >= 1 in exact arithmetic, so one
    that is not > 0 (NaN included) is a fault, and it raises.

    A single trial runs as two equal columns: with one column numpy takes
    other loops (a complex multiply without FMA), and the trial's bits
    would depend on the stack around it.
    """
    t = lower.shape[1]
    if t == 1:
        out[:] = _ldl_pivots(np.repeat(lower, 2, axis=1), n, np.empty((n, 2)), workspace, first)[:, :1]
        return out
    recip = workspace.take("recip", (t,), complex)
    recip.imag = 0.0
    col_rows, scaled_rows, update_rows = (
        workspace.take(name, (n - 1, t), complex) for name in ("col", "scaled", "update")
    )
    diagonal = np.cumsum([0, *range(n, 1, -1)])  # row of A[d, 0] in ``lower``
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n):
            np.add(lower[j].real, 1.0, out=out[j])
            if not out[j].min() > 0:
                bad = np.flatnonzero(~(out[j] > 0))[0]
                raise InternalConsistencyError("I + rho H H^H is not positive definite: "
                                               f"pivot {j} of trial {first + bad} is {out[j, bad]}")
            r = n - j - 1
            col = np.take(lower, diagonal[1 : r + 1] + j, axis=0, out=col_rows[:r], mode="clip")
            scaled = np.conjugate(col, out=scaled_rows[:r])  # col is A[j+1:, j]
            np.divide(1.0, out[j], out=recip.real)
            for row in scaled:
                row *= recip
            for d in range(r):  # A[k+d, k] for k = j+1, ..., N-1-d
                update = np.multiply(col[d:], scaled[: r - d], out=update_rows[: r - d])
                lower[diagonal[d] + j + 1 : diagonal[d] + n - d] -= update
    return out


def spectral_factors(
    spectra: np.ndarray, u: np.ndarray, b, scale, workspace: Workspace | None = None
) -> np.ndarray:
    """The eigenvalues 1 + rho |s_m|^2 of I + rho H H^H for a (..., K) stack
    of two-hop products h~ = u sqrt(b) when all G_i share an eigenbasis,
    given scale = rho / (1 + ||h||^2), which broadcasts: an (N, ...) array
    whose row m is the m-th eigenvalue, so det(I + rho H H^H) is the product
    of the rows.  With a workspace the array is its "factors", valid until
    that is taken again.

    With spectra[i] the eigenvalues of G_i (relay_schemes.common_spectra),
    H_eff is normal with eigenvalues s = h~ @ spectra / sqrt(1 + ||h||^2).
    Each row s_m sqrt(1 + ||h||^2) = sum_i spectra[i, m] h~_i is formed
    from a trial-last (K, T) copy of h~ by elementwise complex arithmetic,
    not by a matrix product: OpenBLAS gives the trials of a GEMM's tail
    other bits than those of its body, so a trial's bits would depend on
    the stack around it.  Every factor is >= 1.
    """
    workspace = Workspace() if workspace is None else workspace
    lead = u.shape[:-1]
    x = _trial_last_products(u, b, workspace)
    k, trials = x.shape
    scale = np.broadcast_to(scale, lead).reshape(-1)
    s, term = (workspace.take(name, (trials,), complex) for name in ("s", "term"))
    square = workspace.take("square", (trials,))
    factors = workspace.take("factors", (spectra.shape[1], trials))
    for lam, factor in zip(spectra.T, factors):
        np.multiply(lam[0], x[0], out=s)
        for i in range(1, k):
            s += np.multiply(lam[i], x[i], out=term)
        np.square(s.real, out=factor)
        factor += np.square(s.imag, out=square)
        factor *= scale
        factor += 1.0
    return factors.reshape((spectra.shape[1],) + lead)


def jensen_mi(heff: np.ndarray, rho) -> np.ndarray:
    """(1/2) log2(1 + (rho/N) ||H||_F^2) of each channel in a (..., N, N)
    stack, shape (...); tight iff all eigenvalues of H H^H are equal."""
    fro2 = _check_channels(heff, rho)
    return 0.5 * np.log2(1.0 + rho / heff.shape[-1] * fro2)


def jensen_form(gram: GramianSummary, u: np.ndarray, b) -> np.ndarray:
    """The Gramian quadratic form h~^H gram h~ of a (..., K) stack of
    two-hop products h~ = u sqrt(b), given as its parts u and b (b
    broadcasts against u; b = 1 takes h~ itself as u), shape (...), clipped
    at 0.

    It adds gram_kk |u_k|^2 b_k in relay order, then
    2 Re(conj(u_k) gram_kl u_l) sqrt(b_k b_l) for k < l, skipping entries
    that are exactly 0, so an identity Gramian costs K weighted squared
    magnitudes and no square root, and h~ is never formed.  Every term is
    formed in real arithmetic from elementwise numpy operations, so a
    trial's bits do not depend on the stack around it.
    """
    k = u.shape[-1]
    flat = u.reshape(-1, k)
    weight = np.broadcast_to(b, u.shape).reshape(-1, k)
    re, im = flat.real, flat.imag
    g = gram.gram
    form = np.zeros(flat.shape[0])
    for i in range(k):
        term = re[:, i] * re[:, i]
        term += im[:, i] * im[:, i]
        term *= weight[:, i]
        if g[i, i].real != 1.0:
            term *= g[i, i].real
        form += term
    for i in range(k):
        for l in range(i + 1, k):
            if g[i, l] == 0:
                continue
            # Re(conj(a) g b) = Re g (a_r b_r + a_i b_i) + Im g (a_i b_r - a_r b_i)
            term = re[:, i] * re[:, l]
            term += im[:, i] * im[:, l]
            term *= g[i, l].real
            cross = im[:, i] * re[:, l]
            cross -= re[:, i] * im[:, l]
            cross *= g[i, l].imag
            term += cross
            np.multiply(weight[:, i], weight[:, l], out=cross)
            term *= np.sqrt(cross, out=cross)
            term *= 2.0
            form += term
    np.clip(form, 0.0, None, out=form)
    return form.reshape(u.shape[:-1])


def _check_channels(heff, rho) -> np.ndarray:
    """||H||_F^2 of each channel in a (..., N, N) stack with N >= 1; refuses
    any other stack, a rho that does not broadcast to the stack's leading
    shape or is not positive (NaN included) and a channel whose
    rho ||H||_F^2, which bounds every entry of rho H H^H, is not finite."""
    shape = np.shape(heff)
    if len(shape) < 2 or not shape[-1] == shape[-2] >= 1:
        raise InvalidParameterError(f"H_eff must have shape (..., N, N) with N >= 1, got {shape}")
    try:
        np.broadcast_to(rho, shape[:-2])
    except ValueError:
        raise InvalidParameterError(f"rho of shape {np.shape(rho)} does not broadcast to {shape[:-2]}") from None
    if not np.all(np.asarray(rho) > 0):
        raise InvalidParameterError("rho must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        fro2 = np.sum(np.abs(heff) ** 2, axis=(-2, -1))
        if not np.all(np.isfinite(np.multiply(rho, fro2))):
            raise InvalidParameterError("rho ||H_eff||_F^2 must be finite")
    return fro2
