"""End-to-end embedding and extraction, keyed on StegoKey.

The paper's chain scrambles the host, splits it into Haar bands, and
adds s * idwt2(Re/Im of the Fresnelet quad of the secret) onto the DCT
coefficients of the band pairs (ll, lh) and (hl, hh). Every stage is
linear and the Fresnelet's Haar step is undone at once, so with
F = propagate(secret) and P + iQ = idct2(F), on Re and Im alike:

    idct2(dct2(band) + s * Re F) = band + s * P, and
    idwt2(P, P, Q, Q) = D, with D[0::2, 0::2] = P + Q,
    D[0::2, 1::2] = P - Q and odd rows zero,

hence embedded = host + s * unscramble(D). As complex pairs, D[0::2] =
(1 + i) * conj(P + iQ) = (1 + i) * idct2(propagate_inverse(secret)), the
secret being real and the transfer factor even in frequency. The host
is never scrambled, split or transformed, and as D's odd rows are zero,
unscramble(D) is D[0::2] at idx = arnold.source_index(spec, row_step=2)
and zero elsewhere: embed adds at idx only, and its report
(metrics.compare_changed) is host moments plus sums over idx.

Extraction is non-blind: it needs the original host and the same key.
With w = scramble(embedded - host)[0::2], gathered once from the
difference at idx and read as (real, imag) pairs,

    secret = |propagate(dct2(w / (sqrt(2) * s)))|,

which for any w, noisy 8-bit deliveries included, is the paper's average
over the two band pairs: |propagate_inverse(conj Y)| = |propagate(Y)|.

The host side must be divisible by 4: the Fresnelet applies its Haar
step to the secret, of half the host's side, so the paper's chain is
defined only when that half side is even.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.fft import dctn, idctn

from .arnold import ArnoldSpec, source_index
from .errors import ParameterError, ShapeError
from .fresnel import FresnelParams, propagate, propagate_inverse
from .metrics import MetricsReport, compare_changed
from .numerics import (ImageGrid, as_image, checked_count, checked_real,
                       checked_square)


@dataclass(frozen=True)
class StegoKey:
    """Everything a counterpart needs: propagation geometry, scrambling
    step count, and embedding strength.

    strength = 0 is accepted so that embedding can run as a diagnostic
    identity; extraction rejects it because recovery divides by it.
    """

    fresnel: FresnelParams
    arnold_iterations: int
    strength: float

    def __post_init__(self):
        if not isinstance(self.fresnel, FresnelParams):
            raise ParameterError("fresnel must be a FresnelParams instance")
        object.__setattr__(self, "arnold_iterations",
                           checked_count("arnold_iterations", self.arnold_iterations, 0))
        s = checked_real("strength", self.strength)
        if s < 0.0:
            raise ParameterError(f"strength must be non-negative, got {s}")
        object.__setattr__(self, "strength", s)


class EmbedResult(NamedTuple):
    embedded: ImageGrid
    report: MetricsReport


def embed(host, secret, key: StegoKey) -> EmbedResult:
    """Hide secret inside host. The host must be square with a side
    divisible by 4 and the secret square with half that side. Returns the
    float embedded image plus a quality report against the original host."""
    host_grid = checked_square(as_image(host), "host", 4)
    secret_grid = as_image(secret)
    side = host_grid.shape[0]
    expected = (side // 2, side // 2)
    if secret_grid.shape != expected:
        raise ShapeError(
            f"secret must be {expected[0]}x{expected[1]} for a {side}x{side} host, "
            f"got {secret_grid.shape[0]}x{secret_grid.shape[1]}")

    coded = idctn(propagate_inverse(secret_grid, key.fresnel), norm="ortho")
    coded *= (1 + 1j) * key.strength
    payload = coded.view(np.float64)  # s * D[0::2]
    idx = source_index(ArnoldSpec(side, key.arnold_iterations), row_step=2)
    flat = host_grid.ravel()
    before = flat[idx]
    after = before + payload
    # + 0.0 turns a -0.0 host sample into 0.0, as adding D's zero rows did
    embedded = (flat + 0.0).reshape(side, side)
    embedded.ravel()[idx] = after
    return EmbedResult(embedded, compare_changed(host_grid, embedded, before, after))


def extract(embedded, host, key: StegoKey) -> ImageGrid:
    """Recover the hidden image from an embedded image given the original
    host and the exact key."""
    embedded_grid = checked_square(as_image(embedded), "embedded image", 4)
    host_grid = checked_square(as_image(host), "host", 4)
    if embedded_grid.shape != host_grid.shape:
        raise ShapeError(
            f"shape mismatch: embedded {embedded_grid.shape} vs host {host_grid.shape}")
    if key.strength == 0.0:
        raise ParameterError("strength must be positive for extraction")

    idx = source_index(ArnoldSpec(embedded_grid.shape[0], key.arnold_iterations), row_step=2)
    # scaled before the transforms, so that an overflow (a tiny strength) meets
    # propagate's finite check and raises DataError instead of returning inf
    w = (embedded_grid - host_grid).ravel()[idx] / (np.sqrt(2.0) * key.strength)
    return np.abs(propagate(dctn(w.view(np.complex128), norm="ortho"), key.fresnel))
