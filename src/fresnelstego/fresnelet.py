"""Level-1 Fresnelet analysis and synthesis.

Analysis promotes the image to a complex field, Fresnel-propagates it,
then applies the level-1 Haar step to the propagated field. Synthesis
runs the two inverses in the opposite order. Both stages are unitary, so
the pair reconstructs to machine precision, and with zero propagation
distance the coefficients degenerate to the plain wavelet bands exactly.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fresnel import FresnelParams, propagate, propagate_inverse
from .numerics import ComplexGrid, ImageGrid, as_field, as_image
from .wavelet_dct import QuadBands, dwt2, idwt2


class ComplexQuad(NamedTuple):
    """Complex coefficient bands, same layout as QuadBands."""

    ll: ComplexGrid
    lh: ComplexGrid
    hl: ComplexGrid
    hh: ComplexGrid


def fresnelet_analyze(img, params: FresnelParams) -> ComplexQuad:
    """Complex coefficient quad of a square image with an even side."""
    field = propagate(as_image(img), params)
    return ComplexQuad(*dwt2(field))


def fresnelet_synthesize(quad, params: FresnelParams) -> ComplexGrid:
    """Exact inverse of fresnelet_analyze, returning the complex field."""
    return propagate_inverse(idwt2(QuadBands(*quad)), params)


def magnitude(field) -> ImageGrid:
    """Element-wise complex modulus as a real grid."""
    return np.abs(as_field(field))
