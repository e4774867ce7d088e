"""Linear relay transformation families and their Gramian.

A scheme is a set of K complex N x N matrices G_i, each satisfying the
unitary-scaling constraint G_i G_i^H = I/N.  Built-in families are cyclic
delay diversity (scaled cyclic-shift permutations) and phase rolling
(scaled progressive phase ramps); the two are DFT duals of each other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError, SchemeInvalidError

# Elementwise tolerance on |G G^H - I/N|.
UNITARY_SCALING_TOL = 1e-12

# Hermitian eigenvalues more negative than this indicate a bug.
EIGENVALUE_CLAMP_TOL = -1e-10


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RelayScheme:
    """K linear transformation matrices, immutable after construction.

    The only scheme validator: at least one matrix, all of shape (N, N),
    K <= N, and G_i G_i^H = I/N to UNITARY_SCALING_TOL for every i.  A
    unitarity failure raises SchemeInvalidError naming the first offending
    matrix and its deviation.
    """

    matrices: tuple[np.ndarray, ...]
    name: str = "custom"
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = [np.asarray(g, dtype=complex) for g in self.matrices]
        if not mats:
            raise InvalidParameterError("scheme needs at least one matrix")
        n = mats[0].shape[-1] if mats[0].ndim else 0
        for i, g in enumerate(mats):
            if g.shape != (n, n):
                raise InvalidParameterError(
                    f"matrix {i} has shape {g.shape}, expected ({n}, {n})"
                )
        if len(mats) > n:
            raise InvalidParameterError(
                f"relay count K={len(mats)} exceeds block length N={n}"
            )
        stack = _as_readonly(np.stack(mats))
        dev = unitary_scaling_deviations(stack)
        bad = np.flatnonzero(~(dev <= UNITARY_SCALING_TOL))  # a NaN deviation fails too
        if bad.size:
            raise SchemeInvalidError(int(bad[0]), float(dev[bad[0]]))
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "matrices", tuple(stack))

    @property
    def num_relays(self) -> int:
        return len(self.matrices)

    @property
    def block_length(self) -> int:
        return self.matrices[0].shape[0]

    def stacked(self) -> np.ndarray:
        """All matrices as one read-only (K, N, N) array."""
        return self._stack


@dataclass(frozen=True)
class GramianSummary:
    """Normalized trace inner products of the scheme matrices.

    gram[r, c] = trace(G_c G_r^H), a Hermitian PSD K x K matrix.  Under the
    unitary-scaling constraint this equals trace(U_c U_r^H)/N for the
    unitary factors U_i = sqrt(N) G_i, so every diagonal entry is exactly 1
    and the trace equals K.  Its eigenvalue extremes govern the
    Jensen-outage bracket; the block length rides along because the
    quadratic-form identity for the Jensen bound carries a 1/N.
    """

    gram: np.ndarray
    lambda_min: float
    lambda_max: float
    block_length: int


def cyclic_delay_scheme(num_relays: int, block_length: int) -> RelayScheme:
    """G_i = P_i / sqrt(N) where P_i cyclically shifts a vector up by i-1."""
    n = max(block_length, 0)  # RelayScheme rejects the 0 x 0 matrices of N < 1
    eye = np.eye(n)
    mats = [np.roll(eye, i, axis=1).astype(complex) / np.sqrt(n) for i in range(num_relays)]
    return RelayScheme(tuple(mats), name="cdd")


def phase_rolling_scheme(num_relays: int, block_length: int) -> RelayScheme:
    """G_i = diag(exp(j 2 pi n (i-1) / N)) / sqrt(N) for n = 0..N-1."""
    n = max(block_length, 0)  # RelayScheme rejects the 0 x 0 matrices of N < 1
    grid = np.arange(n)
    mats = []
    for i in range(num_relays):
        phases = np.exp(2j * np.pi * grid * i / n)
        mats.append(np.diag(phases) / np.sqrt(n))
    return RelayScheme(tuple(mats), name="phase-rolling")


@functools.lru_cache(maxsize=None)
def dft_matrix(block_length: int) -> np.ndarray:
    """Unitary DFT matrix, [F]_{ln} = exp(-j 2 pi (l-1)(n-1) / N) / sqrt(N),
    built once per size (read-only)."""
    if block_length < 1:
        raise InvalidParameterError("block length must be >= 1")
    n = block_length
    grid = np.arange(n)
    out = np.exp(-2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n)
    out.setflags(write=False)
    return out


def unitary_scaling_deviations(stack: np.ndarray) -> np.ndarray:
    """max |G G^H - I/N| of each matrix of a (K, N, N) stack, shape (K,);
    NaN for a matrix with a non-finite entry."""
    n = stack.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):
        gg = stack @ stack.conj().transpose(0, 2, 1)
        return np.abs(gg - np.eye(n) / n).max(axis=(1, 2))


def custom_scheme(matrices, name: str = "custom") -> RelayScheme:
    """A scheme from user matrices, validated by RelayScheme."""
    return RelayScheme(tuple(matrices), name=name)


@functools.lru_cache(maxsize=64)
def _builtin_stacks(num_relays: int, block_length: int) -> tuple[tuple[str, np.ndarray], ...]:
    """The (K, N, N) stacks of the built-in families, built once per size."""
    return (
        ("cdd", cyclic_delay_scheme(num_relays, block_length).stacked()),
        ("phase-rolling", phase_rolling_scheme(num_relays, block_length).stacked()),
    )


def builtin_family(scheme: RelayScheme) -> str | None:
    """"cdd" or "phase-rolling" when the scheme's matrices are exactly
    ``cyclic_delay_scheme(K, N)``'s or ``phase_rolling_scheme(K, N)``'s,
    compared as matrices whatever the scheme is called; else None.  At
    K = 1 both families are I/sqrt(N), and the answer is "cdd"."""
    for family, stack in _builtin_stacks(scheme.num_relays, scheme.block_length):
        if np.array_equal(scheme.stacked(), stack):
            return family
    return None


def gramian(scheme: RelayScheme) -> GramianSummary:
    """Gramian with entries trace(G_c G_r^H) and its eigenvalue extremes.

    For the matrices of a built-in family (builtin_family) it is I exactly,
    with both extremes 1.0: the traces are delta_rc by the orthogonality of
    the cyclic shifts and of the phase ramps (acceptance criterion 6).
    Computed traces would leave roundoff that the Jensen kernel pays for:
    diagonal entries 0.9999999999999999 at N = 8, and ~1e-17 off the
    diagonal for phase rolling, each a cross term.
    """
    if builtin_family(scheme) is not None:
        return GramianSummary(
            gram=_as_readonly(np.eye(scheme.num_relays)), lambda_min=1.0, lambda_max=1.0,
            block_length=scheme.block_length,
        )
    g = scheme.stacked()
    # gram[r, c] = tr(G_c G_r^H) = sum_{ab} G_c[a,b] conj(G_r[a,b])
    gram = np.einsum("cab,rab->rc", g, g.conj())
    gram = 0.5 * (gram + gram.conj().T)  # symmetrize roundoff
    eig = np.linalg.eigvalsh(gram)
    if eig[0] < EIGENVALUE_CLAMP_TOL:
        raise InternalConsistencyError(
            f"Gramian eigenvalue {eig[0]:.3e} below clamp tolerance"
        )
    eig = np.clip(eig, 0.0, None)
    return GramianSummary(
        gram=_as_readonly(gram),
        lambda_min=float(eig[0]),
        lambda_max=float(eig[-1]),
        block_length=scheme.block_length,
    )


def pair_products(scheme: RelayScheme) -> np.ndarray:
    """All products G_i G_j^H as one read-only (K*K, N*N) array.

    Row i*K + j is vec(G_i G_j^H) in row-major order, so its trace is
    gramian(scheme).gram[j, i].
    """
    g = scheme.stacked()
    k, n = scheme.num_relays, scheme.block_length
    products = (g[:, None] @ g.conj().transpose(0, 2, 1)[None]).reshape(k * k, n * n)
    products.flags.writeable = False
    return products


def common_spectra(scheme: RelayScheme) -> np.ndarray | None:
    """Eigenvalues of every G_i in one shared eigenbasis, shape (K, N).

    Diagonal matrices (phase rolling) are their own spectra.  Circulant
    matrices (CDD) are all diagonalised by the DFT, G_i = F^H diag(l_i) F
    with l_i = sqrt(N) F c_i for first column c_i.  Both checks use exact
    equality, so a near-circulant scheme gets None, as does any scheme
    without such a basis.
    """
    g = scheme.stacked()
    n = scheme.block_length
    diag = np.diagonal(g, axis1=1, axis2=2)
    if np.array_equal(g, diag[:, :, None] * np.eye(n)):
        return diag.copy()
    first = g[:, :, 0]
    grid = np.arange(n)
    if np.array_equal(g, first[:, (grid[:, None] - grid) % n]):
        return first @ dft_matrix(n).T * np.sqrt(n)
    return None

