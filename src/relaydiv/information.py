"""Mutual information of the effective channel and its Jensen bound.

All logarithms are base 2; rates are in bits per channel use.  The factor
1/2 in every expression reflects the two-slot half-duplex protocol.  The
exact MI and the Gramian path of the Jensen bound each have one batched
kernel, which the Monte Carlo estimators call on whole blocks and the
scalar APIs call on a batch of one.  Schemes whose matrices share an
eigenbasis (CDD, phase rolling) also have a spectral exact-MI kernel that
never forms H_eff.
"""

from __future__ import annotations

import numpy as np

from .channel_model import ChannelRealization, EffectiveChannel
from .errors import InternalConsistencyError, InvalidParameterError
from .relay_schemes import GramianSummary


def mutual_information(heff: EffectiveChannel, rho: float) -> float:
    """(1/2N) sum_n log2(1 + rho lambda_n(H H^H))."""
    return float(mutual_information_batch(heff.matrix[None], rho)[0])


def mutual_information_batch(heffs: np.ndarray, rho: float) -> np.ndarray:
    """Exact MI of each (N, N) channel in a (T, N, N) stack, shape (T,).

    (1/2N) log2 det(I + rho H H^H) = (1/N) sum log2 diag(L) for the
    Cholesky factor L, which exists for every finite H and rho > 0.
    """
    _check_rho(rho)
    n = heffs.shape[-1]
    gram = heffs @ heffs.conj().transpose(0, 2, 1)
    gram *= rho
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
