"""Unitary discrete Fresnel propagation and the level-1 Fresnelet pair.

Propagation over distance d at wavelength w is a frequency-domain filter:
each spectral bin at discrete frequency (nu_x, nu_y), in cycles per meter
with nu = k / (N * pitch), is multiplied by the unit-modulus factor

    exp(-i * pi * w * d * (nu_x**2 + nu_y**2))

and transformed back. Unit modulus makes the operation exactly unitary.
The exponent sign is a convention; the inverse applies the conjugate
factor, so round trips cancel exactly either way. Wavelength and distance
enter only through their product, which is the effective key scalar.
fftfreq negates bins exactly (nu[N - k] == -nu[k]), so row and column k
take the factor of bin min(k, N - k). The last factor built is kept,
read-only, as its first N//2 + 1 rows, 16 * (N//2 + 1) * N bytes: one
broadcast exponential over the first N//2 + 1 bins of each axis, then
those columns mirrored. It scales the spectrum's upper rows in place,
and its rows in reverse order the lower ones. A real field
takes pocketfft's real-input FFT (see _fft). Any square side works, odd
ones included: the orthonormal DFT is unitary at every size.

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
        # the largest phase _filter forms, at nu_max = 0.5 / pitch; any factor that
        # overflows makes it inf or nan, as float * and / overflow without raising
        nu_max = 0.5 / self.pitch
        phase = math.pi * self.wavelength * self.distance * (2.0 * nu_max * nu_max)
        if not math.isfinite(phase):
            raise ParameterError(
                f"wavelength, distance and pitch give a non-finite Fresnel phase ({phase})")


@lru_cache(maxsize=1)
def _half(side: int, params: FresnelParams) -> np.ndarray:
    h = side // 2 + 1
    nu2 = np.fft.fftfreq(side, d=params.pitch)[:h] ** 2
    q = np.empty((h, side), np.complex128)
    np.exp(-1j * (np.pi * params.wavelength * params.distance * (nu2[:, None] + nu2)),
           out=q[:, :h])
    q[:, h:] = q[:, side - h:0:-1]
    q.flags.writeable = False
    return q


@_quiet
def _filter(f: np.ndarray, params: FresnelParams, inverse: bool) -> ComplexGrid:
    if params.wavelength * params.distance == 0.0:
        # the transfer factor is identically one; skip the FFT pair so the
        # degenerate case is bit-exact, not merely close. A C-ordered copy,
        # as the FFT's result is: stego_pipeline._forward transforms it in
        # place and reads it through a float64 view
        return f.astype(np.complex128, order="C")
    side = f.shape[0]
    q = _half(side, params)
    if inverse:
        q = np.conj(q)  # exp(i * phase), exactly
    h = len(q)
    spectrum = _fft.fft2(f)
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
