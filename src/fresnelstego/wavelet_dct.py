"""Level-1 orthonormal Haar wavelet step and whole-grid orthonormal DCT.

The Haar step works on 2x2 blocks. Each of the four outputs is a sum of
the block samples with signs from the tensor-product filters and weight
1/2 (two 1-D taps of 1/sqrt(2) each). The 4x4 butterfly M/2 with

    M = [[1,  1,  1,  1],
         [1,  1, -1, -1],
         [1, -1,  1, -1],
         [1, -1, -1,  1]]

satisfies M @ M = 4I, so synthesis reuses the same arithmetic. Division
by two is exact in binary floating point, which keeps integer blocks and
round trips bit-exact.

Each transform checks its input and its result once, so finite samples
near the float maximum that overflow raise DataError, with no warning.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._fft import dctn, idctn
from .errors import ShapeError
from .numerics import ImageGrid, _quiet, as_grid, as_image


class QuadBands(NamedTuple):
    """One decomposition level: approximation (ll), horizontal detail (lh,
    high-pass across rows), vertical detail (hl), diagonal detail (hh).
    Bands are real or complex, following the analyzed grid."""

    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray


@_quiet
def _butterfly(a, b, c, d):
    return ((a + b + c + d) / 2,
            (a + b - c - d) / 2,
            (a - b + c - d) / 2,
            (a - b - c + d) / 2)


def dwt2(img) -> QuadBands:
    """One level of orthonormal 2-D Haar analysis of a real or complex
    grid with even dimensions."""
    g = as_grid(img)
    r, c = g.shape
    if r % 2 or c % 2:
        raise ShapeError(f"dimensions must be even, got {r}x{c}")
    bands = _butterfly(g[0::2, 0::2], g[0::2, 1::2], g[1::2, 0::2], g[1::2, 1::2])
    return QuadBands(*map(as_grid, bands))


def idwt2(bands) -> np.ndarray:
    """Exact inverse of dwt2. Accepts a QuadBands or any 4-sequence of
    equal-shape grids."""
    ll, lh, hl, hh = (as_grid(band) for band in bands)
    if not (ll.shape == lh.shape == hl.shape == hh.shape):
        raise ShapeError(
            "band shapes differ: "
            f"{ll.shape}, {lh.shape}, {hl.shape}, {hh.shape}")
    r, c = ll.shape
    out = np.empty((2 * r, 2 * c), dtype=np.result_type(ll, lh, hl, hh))
    out[0::2, 0::2], out[0::2, 1::2], out[1::2, 0::2], out[1::2, 1::2] = _butterfly(
        ll, lh, hl, hh)
    return as_grid(out)


def dct2(img) -> ImageGrid:
    """Orthonormal 2-D DCT-II over the whole grid. Any rectangle works."""
    return as_grid(dctn(as_image(img)))


def idct2(coeffs) -> ImageGrid:
    """Exact inverse of dct2 (orthonormal DCT-III)."""
    return as_grid(idctn(as_image(coeffs)))
