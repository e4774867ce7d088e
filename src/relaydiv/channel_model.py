"""Fading realizations, the two-hop law, the effective channel, and the
two receive chains.

``two_hop`` states the two-hop law of the high-SNR model once: a fading
draw (f, h) of any leading shape (..., K) becomes the per-relay products
h~ = h o f and the aggregate noise power 1 + ||h||^2.  Every channel
quantity (``effective_channel`` here, the MI kernels in ``information``)
takes that pair and a stack of any leading shape.

Two simulators are exposed.  ``simulate_two_hop`` implements the exact
relay chain: first-hop reception, linear relay processing with the
power-preserving scale sqrt(rho/(1+rho)), destination summation, and the
final normalization by sqrt(N0') that whitens the aggregate noise.
``simulate_normalized`` implements the high-SNR model y = sqrt(rho) H x + z
used by all outage analysis.  A validation test quantifies the gap between
the two chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .relay_schemes import RelayScheme, _as_readonly

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the source->relay (f) and relay->destination (h) fading."""

    f: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        f = _as_readonly(np.atleast_1d(self.f))
        h = _as_readonly(np.atleast_1d(self.h))
        if f.shape != h.shape or f.ndim != 1 or f.size < 1:
            raise InvalidParameterError(
                f"f and h must be equal-length vectors, got {f.shape} and {h.shape}"
            )
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "h", h)

    @property
    def num_relays(self) -> int:
        return self.f.size


def two_hop(f: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two-hop law of (..., K) fading draws f and h: the per-relay
    products h~ = h o f, shape (..., K), and the aggregate noise power
    1 + ||h||^2 of the high-SNR model, shape (...)."""
    return h * f, 1.0 + np.sum(np.abs(h) ** 2, axis=-1)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0,1) samples: (a + jb)/sqrt(2) with a, b standard normal.

    a and b are scaled straight into the parts of one complex array; numpy
    divides a complex array by a real scalar s as x * (1/s), so the bits
    are those of the expression above.
    """
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    out = np.empty(re.shape, dtype=complex)
    np.multiply(re, _INV_SQRT2, out=out.real)
    np.multiply(im, _INV_SQRT2, out=out.imag)
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
    ch: ChannelRealization,
    x: np.ndarray,
    rho: float,
    rng: np.random.Generator,
    *,
    relay_noise: bool = True,
    dest_noise: bool = True,
    relay_power_scale: float = 1.0,
) -> np.ndarray:
    """Exact chain: relay i receives sqrt(rho) f_i x + w_i, forwards the
    scaled linear transform, destination adds unit noise, and the output is
    divided by sqrt(N0') so the aggregate noise is white with unit variance.

    The noise-disable keywords exist for deterministic oracle tests only.
    ``relay_power_scale`` rescales the per-relay transmit power (1/K for
    the total-power variant); the first-hop SNR is untouched and the
    normalization tracks the scale, so the output noise stays white.
    """
    x = _check_signal(scheme, ch, x)
    rho = float(rho)
    scale = float(relay_power_scale)
    if not rho > 0:
        raise InvalidParameterError("rho must be positive")
    if not scale > 0:
        raise InvalidParameterError("relay_power_scale must be positive")
    n = scheme.block_length
    relay_gain = np.sqrt(scale * rho / (1.0 + rho))

    y = np.zeros(n, dtype=complex)
    for i, g in enumerate(scheme.matrices):
        signal_in = np.sqrt(rho) * ch.f[i] * x
        y += ch.h[i] * relay_gain * (g @ signal_in)
        if relay_noise:
            # Forward the relay noise through the unitary factor sqrt(N) G_i,
            # which keeps its per-component variance at one; this is the
            # normalization under which N0' = 1 + rho/(1+rho) ||h||^2 holds
            # and the post-division noise is exactly white.
            w = complex_gaussian(rng, n)
            y += ch.h[i] * relay_gain * (np.sqrt(n) * (g @ w))
    if dest_noise:
        y += complex_gaussian(rng, n)
    n0_prime = 1.0 + scale * (rho / (1.0 + rho)) * np.linalg.norm(ch.h) ** 2
    return y / np.sqrt(n0_prime)


def simulate_normalized(
    scheme: RelayScheme,
    ch: ChannelRealization,
    x: np.ndarray,
    rho: float,
    rng: np.random.Generator,
    *,
    dest_noise: bool = True,
) -> np.ndarray:
    """High-SNR model: y = sqrt(rho) H_eff x + z with z white unit-variance."""
    x = _check_signal(scheme, ch, x)
    if not rho > 0:
        raise InvalidParameterError("rho must be positive")
    heff = effective_channel(*two_hop(ch.f, ch.h), scheme.stacked())
    y = np.sqrt(float(rho)) * (heff @ x)
    if dest_noise:
        y = y + complex_gaussian(rng, scheme.block_length)
    return y


def _check_signal(scheme: RelayScheme, ch: ChannelRealization, x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (scheme.block_length,):
        raise InvalidParameterError(
            f"x must have shape ({scheme.block_length},), got {x.shape}"
        )
    if scheme.num_relays != ch.num_relays:
        raise InvalidParameterError(
            f"scheme has K={scheme.num_relays} relays, realization has {ch.num_relays}"
        )
    return x
