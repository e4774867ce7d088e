"""Fading realizations, the two-hop law, the effective channel, and the
two receive chains.

``two_hop`` states the two-hop law of the high-SNR model once: a fading
draw (f, h) of any leading shape (..., K) becomes the per-relay products
h~ = h o f and the aggregate noise power 1 + ||h||^2.  Every channel
quantity (``effective_channel`` here, the MI kernels in ``information``)
takes that pair and a stack of any leading shape.  The Monte Carlo
estimators sample the pair from this law without drawing f and h, as its
parts (u, b, 1 + ||h||^2) with h~ = u sqrt(b)
(``outage_analysis._sample_fading``).

Two simulators are exposed; each takes fading draws f and h of shape
(..., K), as ``two_hop`` does, and signals x of shape (..., N), leading
shapes broadcast.  ``simulate_two_hop`` implements the exact relay
chain: first-hop reception, linear relay processing with the
power-preserving scale sqrt(rho/(1+rho)), destination summation, and the
final normalization by sqrt(N0') that whitens the aggregate noise.
``simulate_normalized`` implements the high-SNR model y = sqrt(rho) H x + z
used by all outage analysis.  Both draw every noise sample from their
``rng`` through ``complex_gaussian``, so a generator whose standard_normal
writes zeros gives the noiseless chain.  A validation test quantifies the
gap between the two chains.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .relay_schemes import RelayScheme

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def two_hop(f: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two-hop law of (..., K) fading draws f and h: the per-relay
    products h~ = h o f, shape (..., K), and the aggregate noise power
    1 + ||h||^2 of the high-SNR model, shape (...).

    For f, h iid CN(0, 1), |h~_k|^2 = |f_k|^2 |h_k|^2 is a product of two
    iid Exp(1), arg h~_k is uniform and independent of both magnitudes, and
    the noise term is 1 + sum_k |h_k|^2.
    """
    return h * f, 1.0 + np.sum(np.abs(h) ** 2, axis=-1)


def complex_gaussian(rng: np.random.Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """CN(0,1) samples of the given shape: (z_2j + i z_2j+1)/sqrt(2) with z
    standard normal, written to ``out`` (a C-contiguous complex array of
    that shape) when given.

    One standard_normal call fills the interleaved real and imaginary parts
    of the complex result, which are then scaled by 1/sqrt(2) in place; numpy
    divides a complex array by a real scalar s as x * (1/s), so the bits are
    those of ``rng.standard_normal(shape + (2,))`` viewed as complex and
    divided by sqrt(2).
    """
    if out is None:
        out = np.empty(shape, dtype=complex)
    parts = out.reshape(-1).view(float)
    rng.standard_normal(out=parts)
    parts *= _INV_SQRT2
    return out


def effective_channel(ht: np.ndarray, noise: np.ndarray, g: np.ndarray) -> np.ndarray:
    """H_eff = sum_i h~_i G_i / sqrt(1 + ||h||^2) for a (..., K) stack of
    two-hop pairs and the (K, N, N) matrix stack g, shape (..., N, N)."""
    if ht.shape[-1] != g.shape[0]:
        raise InvalidParameterError(
            f"scheme has K={g.shape[0]} relays, realization has {ht.shape[-1]}"
        )
    heff = np.einsum("...k,kab->...ab", ht, g)
    heff /= np.sqrt(noise)[..., None, None]
    return heff


def simulate_two_hop(
    scheme: RelayScheme,
    f: np.ndarray,
    h: np.ndarray,
    x: np.ndarray,
    rho: float,
    rng: np.random.Generator,
    *,
    relay_power_scale: float = 1.0,
) -> np.ndarray:
    """Exact chain for (..., K) first-hop gains f and second-hop gains h and
    (..., N) signals x, leading shapes broadcast: relay i receives
    sqrt(rho) f_i x + w_i and forwards the scaled linear transform, the
    destination adds unit noise, and the (..., N) output is divided by
    sqrt(N0') so its noise is white with unit variance.  The relay noise is
    drawn as one (..., K, N) array, then the destination noise.

    ``relay_power_scale`` rescales the per-relay transmit power (1/K for
    the total-power variant); the first-hop SNR is untouched and the
    normalization tracks the scale, so the output noise stays white.
    """
    f, h, x, lead = _check_signal(scheme, f, h, x, rho)
    rho, scale, n = float(rho), float(relay_power_scale), scheme.block_length
    if not 0 < scale < math.inf:
        raise InvalidParameterError("relay_power_scale must be positive and finite")
    # G_i is linear, so it takes signal and noise at once.  The noise goes
    # through the unitary sqrt(N) G_i at unit variance per component, the
    # normalization under which N0' = 1 + rho/(1+rho) ||h||^2 whitens it.
    relay_in = np.sqrt(n) * complex_gaussian(rng, lead + (scheme.num_relays, n))
    relay_in += np.sqrt(rho) * f[..., None] * x[..., None, :]
    gain = h * np.sqrt(scale * rho / (1.0 + rho))
    y = np.einsum("...k,kab,...kb->...a", gain, scheme.stacked(), relay_in)
    y += complex_gaussian(rng, lead + (n,))
    n0_prime = 1.0 + scale * (rho / (1.0 + rho)) * np.sum(np.abs(h) ** 2, axis=-1)
    return y / np.sqrt(n0_prime)[..., None]


def simulate_normalized(
    scheme: RelayScheme,
    f: np.ndarray,
    h: np.ndarray,
    x: np.ndarray,
    rho: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """High-SNR model for (..., K) fading draws (f, h) and (..., N) signals
    x, leading shapes broadcast: y = sqrt(rho) H_eff x + z, shape (..., N),
    with z white unit-variance."""
    f, h, x, lead = _check_signal(scheme, f, h, x, rho)
    heff = effective_channel(*two_hop(f, h), scheme.stacked())
    y = np.sqrt(float(rho)) * (heff @ x[..., None])[..., 0]
    return y + complex_gaussian(rng, lead + (scheme.block_length,))


def _check_signal(scheme: RelayScheme, f, h, x, rho):
    """f, h and x as complex arrays and their broadcast leading shape, once
    their shapes are (..., K), (..., K) and (..., N), their leading shapes
    broadcast, and 0 < rho < inf."""
    f, h, x = (np.asarray(v, dtype=complex) for v in (f, h, x))
    k, n = scheme.num_relays, scheme.block_length
    if f.shape[-1:] != (k,) or h.shape[-1:] != (k,):
        raise InvalidParameterError(f"f and h must have shape (..., {k}), got {f.shape} and {h.shape}")
    if x.shape[-1:] != (n,):
        raise InvalidParameterError(f"x must have shape (..., {n}), got {x.shape}")
    try:
        lead = np.broadcast_shapes(f.shape[:-1], h.shape[:-1], x.shape[:-1])
    except ValueError:
        raise InvalidParameterError(
            f"leading shapes of f, h and x do not broadcast: {f.shape}, {h.shape}, {x.shape}"
        ) from None
    if not 0 < rho < math.inf:
        raise InvalidParameterError("rho must be positive and finite")
    return f, h, x, lead
