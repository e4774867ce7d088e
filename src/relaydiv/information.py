"""Mutual information of the effective channel and its Jensen bound.

All logarithms are base 2; rates are in bits per channel use.  The factor
1/2 in every expression reflects the two-slot half-duplex protocol.  The
exact MI and the Gramian path of the Jensen bound each have one batched
kernel, which the Monte Carlo estimators call on whole blocks and the
scalar APIs call on a batch of one.  The estimators' exact-MI kernels never
form H_eff: schemes whose matrices share an eigenbasis (CDD, phase rolling)
use their spectra, every other scheme its table of G_i G_j^H products.
"""

from __future__ import annotations

import math

import numpy as np

from .channel_model import ChannelRealization, EffectiveChannel
from .errors import InternalConsistencyError, InvalidParameterError
from .relay_schemes import GramianSummary

# Trials per sub-block of mutual_information_products: bounds its (t, N, N)
# temporaries to ~4 MB at N = 8 without slowing the block down.
PRODUCTS_SUB_BLOCK = 4096


def mutual_information(heff: EffectiveChannel, rho: float) -> float:
    """(1/2N) sum_n log2(1 + rho lambda_n(H H^H))."""
    return float(mutual_information_batch(heff.matrix[None], rho)[0])


def mutual_information_batch(heffs: np.ndarray, rho: float) -> np.ndarray:
    """Exact MI of each (N, N) channel in a (T, N, N) stack, shape (T,)."""
    _check_rho(rho)
    gram = heffs @ heffs.conj().transpose(0, 2, 1)
    gram *= rho
    return _mi_from_gram(gram)


def mutual_information_products(
    products: np.ndarray, f: np.ndarray, h: np.ndarray, rho: float
) -> np.ndarray:
    """Exact MI for (T, K) fading draws from the (K*K, N*N) table of
    vec(G_i G_j^H) (relay_schemes.pair_products), shape (T,).

    rho H H^H = sum_ij w_ij G_i G_j^H with w_ij = rho h~_i conj(h~_j) /
    (1 + ||h||^2), so each sub-block of trials is one (t, K*K) x (K*K, N*N)
    product; H_eff is never formed.
    """
    _check_rho(rho)
    k = f.shape[1]
    n = math.isqrt(products.shape[1])
    ht = h * f
    scale = rho / (1.0 + np.sum(np.abs(h) ** 2, axis=1))
    out = np.empty(ht.shape[0])
    for lo in range(0, ht.shape[0], PRODUCTS_SUB_BLOCK):
        hi = lo + PRODUCTS_SUB_BLOCK
        w = ht[lo:hi, :, None] * ht[lo:hi, None, :].conj()
        w *= scale[lo:hi, None, None]
        out[lo:hi] = _mi_from_gram((w.reshape(-1, k * k) @ products).reshape(-1, n, n))
    return out


def _mi_from_gram(gram: np.ndarray) -> np.ndarray:
    """(1/2N) log2 det(I + gram) for a (T, N, N) stack of Hermitian PSD
    matrices, shape (T,), updating ``gram`` in place.

    It equals (1/N) sum log2 diag(L) for the Cholesky factor L, which
    exists for every finite PSD ``gram``.
    """
    n = gram.shape[-1]
    gram += np.eye(n)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise InternalConsistencyError(f"I + rho H H^H is not positive definite: {exc}") from exc
    return np.sum(np.log2(np.diagonal(chol, axis1=1, axis2=2).real), axis=1) / n


def mutual_information_spectral(
    spectra: np.ndarray, f: np.ndarray, h: np.ndarray, rho: float
) -> np.ndarray:
    """Exact MI for (T, K) fading draws when all G_i share an eigenbasis.

    With spectra[i] the eigenvalues of G_i (relay_schemes.common_spectra),
    H_eff has eigenvalues s = (h o f) @ spectra / sqrt(1 + ||h||^2) and is
    normal, so the MI is (1/2N) sum_m log2(1 + rho |s_m|^2); shape (T,).
    """
    _check_rho(rho)
    s = (h * f) @ spectra
    power = s.real**2 + s.imag**2
    power *= (rho / (1.0 + np.sum(np.abs(h) ** 2, axis=1)))[:, None]
    return np.sum(np.log2(1.0 + power), axis=1) / (2.0 * spectra.shape[1])


def jensen_mi(heff: EffectiveChannel, rho: float) -> float:
    """(1/2) log2(1 + (rho/N) ||H||_F^2), tight iff all eigenvalues equal."""
    _check_rho(rho)
    n = heff.block_length
    fro2 = float(np.sum(np.abs(heff.matrix) ** 2))
    return 0.5 * float(np.log2(1.0 + rho / n * fro2))


def jensen_mi_via_gramian(
    gram: GramianSummary, ch: ChannelRealization, rho: float
) -> float:
    """Jensen bound through the Gramian quadratic form.

    ||H_eff||_F^2 = h~^H gram h~ / (1 + ||h||^2) with h~ = h o f, so the
    bound equals (1/2) log2(1 + (rho/N) h~^H gram h~ / (1 + ||h||^2)); it
    must agree with the full-matrix path to 1e-10 relative.
    """
    return float(jensen_mi_via_gramian_batch(gram, ch.f[None], ch.h[None], rho)[0])


def jensen_mi_via_gramian_batch(
    gram: GramianSummary, f: np.ndarray, h: np.ndarray, rho: float
) -> np.ndarray:
    """Gramian-path Jensen bound for (T, K) fading draws f and h, shape (T,)."""
    _check_rho(rho)
    ht = h * f
    quad = np.einsum("nk,kl,nl->n", ht.conj(), gram.gram, ht).real
    np.clip(quad, 0.0, None, out=quad)
    hn2 = np.sum(np.abs(h) ** 2, axis=1)
    return 0.5 * np.log2(1.0 + (rho / gram.block_length) * quad / (1.0 + hn2))


def _check_rho(rho: float) -> None:
    if rho <= 0:
        raise InvalidParameterError("rho must be positive")
