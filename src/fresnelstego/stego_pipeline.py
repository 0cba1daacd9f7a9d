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
is never scrambled, split or transformed. D's odd rows are zero, so
unscramble(D) is zero off the pixels that D**n maps onto even rows. By
the cat map's parity rule (D has order 3 mod 2, see arnold) those pixels
are one fixed lattice chosen by n mod 3: the even rows, the checkerboard
{a + b even} or the even columns. Only the order within it depends on the
key. arnold._layout gives the lattice as a strided view and the order as
a permutation perm of D[0::2]'s flat positions: embed adds
D[0::2].ravel()[perm] onto the host's view.

Extraction is non-blind: it needs the original host and the same key.
With w = scramble(embedded - host)[0::2], scattered once through perm
from the difference of the two views and read as (real, imag) pairs,

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

from .arnold import _layout
from .errors import ParameterError, ShapeError
from .fresnel import FresnelParams, _filter, propagate
from .metrics import MetricsReport, compare_embedded
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

    coded = idctn(_filter(secret_grid, key.fresnel, True), norm="ortho", overwrite_x=True)
    coded *= (1 + 1j) * key.strength
    payload = coded.view(np.float64)  # s * D[0::2]
    lattice, perm = _layout(side, key.arnold_iterations)
    # + 0.0 turns a -0.0 host sample into 0.0, as adding D's zero rows did
    embedded = host_grid + 0.0
    np.add(payload.ravel()[perm], lattice(host_grid), out=lattice(embedded))
    return EmbedResult(embedded, compare_embedded(host_grid, embedded))


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

    side = host_grid.shape[0]
    lattice, perm = _layout(side, key.arnold_iterations)
    w = np.empty(side * side // 2)
    w[perm] = lattice(embedded_grid) - lattice(host_grid)
    # scaled before the transforms, so that an overflow (a tiny strength) meets
    # propagate's finite check and raises DataError instead of returning inf
    with np.errstate(over="ignore", invalid="ignore"):
        w /= np.sqrt(2.0) * key.strength
    w = w.reshape(side // 2, side).view(np.complex128)
    return np.abs(propagate(dctn(w, norm="ortho", overwrite_x=True), key.fresnel))
