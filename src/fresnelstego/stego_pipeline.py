"""End-to-end embedding and extraction, keyed on StegoKey.

The paper's chain scrambles the host, splits it into Haar bands, and
adds s * idwt2(Re/Im of the Fresnelet quad of the secret) onto the DCT
coefficients of the band pairs (ll, lh) and (hl, hh). Every stage is
linear, so embed adds A x, A = _forward being one real-linear map of the
secret x, onto one fixed lattice of host pixels and leaves the others.
A is sqrt(2) * s times an isometry: (1 + i) * s times a unitary complex
map on real x, read as (real, imag) pairs. So, with _field its complex
inverse up to that factor, _field(A x) = exp(i pi/4) * x for every key,

    A^T y = 2 s**2 * Re(exp(-i pi/4) * _field(y)),  A^+ = A^T / (2 s**2),

and extract's |_field(lattice(embedded) - lattice(host))| is the paper's
reader for any difference, noisy 8-bit deliveries included. Extraction
is non-blind: it needs the original host and the same key.

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
from .metrics import MetricsReport, _compare
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


def _forward(secret_grid: ImageGrid, key: StegoKey, side: int) -> np.ndarray:
    """A x for a checked secret: s * D[0::2] as (real, imag) pairs, in the
    shape of a side x side host's lattice view.

    With F = propagate(secret) and P + iQ = idct2(F), on Re and Im alike
    idct2(dct2(band) + s * Re F) = band + s * P, and idwt2(P, P, Q, Q) = D
    with D[0::2, 0::2] = P + Q, D[0::2, 1::2] = P - Q and odd rows zero,
    so the host gains s * unscramble(D), and as complex pairs D[0::2] =
    (1 + i) * idct2(propagate_inverse(secret)), the secret being real and
    the factor even. unscramble(D) is zero off one lattice fixed by n mod 3
    (arnold's parity rule); arnold._layout gives the order within it."""
    coded = idctn(_filter(secret_grid, key.fresnel, True), norm="ortho", overwrite_x=True)
    coded *= (1 + 1j) * key.strength
    return coded.view(np.float64).ravel()[_layout(side, key.arnold_iterations)[1]]


def _field(diff_lattice: np.ndarray, key: StegoKey, side: int) -> np.ndarray:
    """propagate(dctn(w / (sqrt(2) * s))), w being a difference y in a side x
    side host's lattice shape scattered back into D[0::2]'s order as complex
    pairs. It undoes _forward's transforms in reverse, so _field(A x) =
    (1 + i) / sqrt(2) * x, and its modulus is the paper's average over the
    two band pairs: |propagate_inverse(conj Y)| = |propagate(Y)|."""
    w = np.empty(side * side // 2)
    w[_layout(side, key.arnold_iterations)[1]] = diff_lattice
    del diff_lattice  # extract's temporary, freed before the transforms
    # scaled before the transforms, so that an overflow (a tiny strength) meets
    # propagate's finite check and raises DataError instead of returning inf
    with np.errstate(over="ignore", invalid="ignore"):
        w /= np.sqrt(2.0) * key.strength
    w = w.reshape(side // 2, side).view(np.complex128)
    return propagate(dctn(w, norm="ortho", overwrite_x=True), key.fresnel)


def _embed(host, secret, key: StegoKey):
    """embed without its report: (host_grid, embedded), the checked host and
    the float embedded image. The u8 CLI scores the quantized grid instead."""
    host_grid = checked_square(as_image(host), "host", 4)
    secret_grid = as_image(secret)
    side = host_grid.shape[0]
    expected = (side // 2, side // 2)
    if secret_grid.shape != expected:
        raise ShapeError(
            f"secret must be {expected[0]}x{expected[1]} for a {side}x{side} host, "
            f"got {secret_grid.shape[0]}x{secret_grid.shape[1]}")

    payload = _forward(secret_grid, key, side)  # before the host copy, which it would evict
    lattice = _layout(side, key.arnold_iterations)[0]
    # + 0.0 turns a -0.0 host sample into 0.0, as adding D's zero rows did
    embedded = host_grid + 0.0
    np.add(payload, lattice(host_grid), out=lattice(embedded))
    return host_grid, embedded


def embed(host, secret, key: StegoKey) -> EmbedResult:
    """Hide secret inside host. The host must be square with a side
    divisible by 4 and the secret square with half that side. Returns the
    float embedded image plus a quality report against the original host."""
    host_grid, embedded = _embed(host, secret, key)
    return EmbedResult(embedded, _compare(host_grid, embedded))


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
    lattice = _layout(side, key.arnold_iterations)[0]
    return np.abs(_field(lattice(embedded_grid) - lattice(host_grid), key, side))
