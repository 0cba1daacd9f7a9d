"""Level-1 Fresnelet analysis and synthesis.

Analysis Fresnel-propagates the image, then applies the level-1 Haar
step to the propagated field. Synthesis runs the two inverses in the
opposite order. Both stages are unitary, so the pair reconstructs to
machine precision, and with zero propagation distance the coefficients
degenerate to the plain wavelet bands exactly. Like the transforms they
chain, all three functions raise DataError on a result that overflows.
"""
from __future__ import annotations

import numpy as np

from .fresnel import FresnelParams, _filter
from .numerics import ComplexGrid, ImageGrid, as_grid, as_image, checked_square
from .wavelet_dct import QuadBands, dwt2, idwt2


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
