"""Unitary discrete Fresnel propagation and the level-1 Fresnelet pair.

Propagation over distance d at wavelength w is a frequency-domain filter:
each spectral bin at discrete frequency (nu_x, nu_y), in cycles per meter
with nu = k / (N * pitch), is multiplied by the unit-modulus factor

    exp(-i * pi * w * d * (nu_x**2 + nu_y**2))

and transformed back. Unit modulus makes the operation exactly unitary.
The exponent sign is a convention; the inverse applies the conjugate
factor, so round trips cancel exactly either way. Wavelength and distance
enter only through their product, which is the effective key scalar.
On an N x N grid, bin (k, l) takes exp(-i pi alpha (k**2 + l**2)) =
u_k * u_l, alpha = wavelength * distance / (N * pitch)**2. Every float is
a binary rational, so alpha is an exact one (_alpha), and u_k comes from
alpha * k**2 mod 2 reduced in integers and rounded once (Payne & Hanek,
ACM SIGNUM Newsletter 1983, on argument reduction). Phases run to 2e10
rad, where a float evaluation loses up to 5e-6; this factor is within a
few ulps of exact at every key, keys whose alpha agree mod 2 give the
same bytes, and at integer alpha (a Talbot plane: Berry & Klein, J. Mod.
Opt. 1996) every factor is exactly 1 or -1. Bin N - k is frequency -k,
so row and column k take the factor of bin min(k, N - k). The last
factor built is kept, read-only, as its first N//2 + 1 rows,
16 * (N//2 + 1) * N bytes: the outer product of u over those rows and u
mirrored over all N columns. It scales the spectrum's upper rows in
place, and its rows in reverse order the lower ones, row by row on
stego_pipeline's padded grid. A real field takes pocketfft's real-input
FFT (see _fft). Any square side works, odd ones included: the
orthonormal DFT is unitary at every size.

A Fresnelet (Liebling, Blu & Unser, IEEE TIP 2003) is this stage, then
the level-1 Haar step; synthesis runs both inverses in reverse. Both are
unitary, so the pair reconstructs to machine precision, and at zero
distance its coefficients are the plain Haar bands exactly.

Each public function checks its input and its result, so each raises
DataError on a result that overflows, as a field near the float maximum
can. The core they share with stego_pipeline, _filter, scans no samples
and warns of nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _fft
from .errors import ParameterError
from .numerics import (ComplexGrid, ImageGrid, _quiet, as_grid, as_image, checked_real,
                       checked_square)
from .wavelet_dct import QuadBands, dwt2, idwt2


@dataclass(frozen=True)
class FresnelParams:
    """Propagation geometry, all lengths in meters.

    wavelength and pitch must be positive; distance may be zero, which
    makes propagation the identity.
    """

    wavelength: float
    distance: float
    pitch: float

    def __post_init__(self):
        for name in ("wavelength", "distance", "pitch"):
            object.__setattr__(self, name, checked_real(name, getattr(self, name)))
        if self.wavelength <= 0.0:
            raise ParameterError(f"wavelength must be positive, got {self.wavelength}")
        if self.pitch <= 0.0:
            raise ParameterError(f"pitch must be positive, got {self.pitch}")
        if self.distance < 0.0:
            raise ParameterError(f"distance must be non-negative, got {self.distance}")
        # the largest transfer phase, at nu_max = 0.5 / pitch, in float; keys
        # where it overflows stay invalid, though _half reduces phases exactly.
        # Any factor that overflows makes it inf or nan, as float * and / do
        # without raising
        nu_max = 0.5 / self.pitch
        phase = math.pi * self.wavelength * self.distance * (2.0 * nu_max * nu_max)
        if not math.isfinite(phase):
            raise ParameterError(
                f"wavelength, distance and pitch give a non-finite Fresnel phase ({phase})")


def _alpha(side: int, params: FresnelParams) -> tuple[int, int]:
    """alpha = wavelength * distance / (side * pitch)**2, the phase over pi
    of bin (k, l) being alpha * (k**2 + l**2), exactly, as the integer pair
    (num, den) in lowest terms: every float is a binary rational."""
    a, b = params.wavelength.as_integer_ratio()
    c, d = params.distance.as_integer_ratio()
    e, f = params.pitch.as_integer_ratio()
    num, den = a * c * f * f, b * d * (e * side) ** 2
    g = math.gcd(num, den)
    return num // g, den // g


_QUARTER_TURNS = np.array((1, -1j, -1, 1j))  # exp(-i pi j / 2), exactly


@lru_cache(maxsize=1)
def _half(side: int, params: FresnelParams) -> np.ndarray:
    num, den = _alpha(side, params)
    h = side // 2 + 1
    # s is bin k's phase pi * alpha * k**2, mod 2 pi, in units of pi / (4 den),
    # plus den: s // (2 den) is its nearest quarter turn mod 4, and (s mod
    # 2 den - den) / (4 den) the rest over pi, in [-1/4, 1/4), which int / int
    # rounds once, correctly
    period, a = 8 * den, 4 * num % (8 * den)
    s = [(a * k * k + den) % period for k in range(h)]
    u = _QUARTER_TURNS[[t // (2 * den) for t in s]] * np.exp(
        -1j * np.pi * np.array([(t % (2 * den) - den) / (4 * den) for t in s]))
    q = u[:, None] * np.concatenate((u, u[side - h:0:-1]))  # bin (k, l): u_k * u_l
    q.flags.writeable = False
    return q


@_quiet
def _filter(f: np.ndarray, params: FresnelParams, inverse: bool,
            out: np.ndarray | None = None) -> ComplexGrid:
    """The filtered field, in out (a complex grid of f's shape at any
    strides, f itself allowed) or else a new C-ordered grid."""
    if params.wavelength * params.distance == 0.0:
        # the transfer factor is identically one; skip the FFT pair so the
        # degenerate case is bit-exact, not merely close. A copy into out,
        # the padded grid stego_pipeline goes on to transform in place, or
        # else into a new C-ordered grid, as the FFT's result is
        if out is None:
            out = np.empty(f.shape, np.complex128)
        out[...] = f
        return out
    side = f.shape[0]
    q = _half(side, params)
    if inverse:
        q = np.conj(q)  # exp(i * phase), exactly
    h = len(q)
    spectrum = _fft.fft2(f, out)
    spectrum[:h] *= q
    spectrum[h:] *= q[side - h:0:-1]
    return _fft.ifft2(spectrum)


def propagate(field, params: FresnelParams) -> ComplexGrid:
    """Forward Fresnel transform of a square field of any side."""
    return as_grid(_filter(checked_square(as_grid(field), "field", 1), params, False))


def propagate_inverse(field, params: FresnelParams) -> ComplexGrid:
    """Exact inverse of propagate: the conjugate transfer factor."""
    return as_grid(_filter(checked_square(as_grid(field), "field", 1), params, True))


def fresnelet_analyze(img, params: FresnelParams) -> QuadBands:
    """Complex coefficient quad of a square image with an even side."""
    return dwt2(_filter(checked_square(as_image(img), "field", 1), params, False))


def fresnelet_synthesize(quad, params: FresnelParams) -> ComplexGrid:
    """Exact inverse of fresnelet_analyze, returning the complex field."""
    field = checked_square(idwt2(quad), "field", 1)  # idwt2 checked its samples
    return as_grid(_filter(field, params, True))


def magnitude(field) -> ImageGrid:
    """Element-wise complex modulus as a real grid."""
    return as_grid(np.abs(as_grid(field)))
