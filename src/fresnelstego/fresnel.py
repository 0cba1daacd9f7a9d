"""Unitary discrete Fresnel propagation.

Propagation over distance d at wavelength w is a frequency-domain filter:
each spectral bin at discrete frequency (nu_x, nu_y), in cycles per meter
with nu = k / (N * pitch), is multiplied by the unit-modulus factor

    exp(-i * pi * w * d * (nu_x**2 + nu_y**2))

and transformed back. Unit modulus makes the operation exactly unitary.
The exponent sign is a convention; the inverse applies the conjugate
factor, so round trips cancel exactly either way. Wavelength and distance
enter only through their product, which is the effective key scalar.
fftfreq negates bins exactly (nu[N - k] == -nu[k]), so the factor is a
bit-exact mirror of its (N//2 + 1)-square quadrant, the only part
exponentiated; it scales a scipy.fft spectrum in place. Any square side
works, odd ones included: the orthonormal DFT is unitary at every size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ParameterError
from .numerics import ComplexGrid, as_field, checked_real, checked_square


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


def _filter(field, params: FresnelParams, sign: float) -> ComplexGrid:
    f = checked_square(as_field(field), "field", 1)
    if params.wavelength * params.distance == 0.0:
        # the transfer factor is identically one; skip the FFT pair so the
        # degenerate case is bit-exact, not merely close
        return f.copy()
    side = f.shape[0]
    nu = np.fft.fftfreq(side, d=params.pitch)[:side // 2 + 1]
    phase = np.pi * params.wavelength * params.distance * (nu[:, None] ** 2 + nu[None, :] ** 2)
    # bin i carries the factor of bin min(i, side - i), exactly
    k = np.minimum(np.arange(side), side - np.arange(side))
    spectrum = scipy.fft.fft2(f, norm="ortho")
    spectrum *= np.exp(sign * 1j * phase)[k][:, k]
    return scipy.fft.ifft2(spectrum, norm="ortho", overwrite_x=True)


def propagate(field, params: FresnelParams) -> ComplexGrid:
    """Forward Fresnel transform of a square field of any side."""
    return _filter(field, params, -1.0)


def propagate_inverse(field, params: FresnelParams) -> ComplexGrid:
    """Exact inverse of propagate: the conjugate transfer factor."""
    return _filter(field, params, 1.0)
