"""Input rules.

Every rule the package applies to a caller's grid or scalar is defined
here once: finite 2-D grids, square sides divisible by what the caller
needs, integer counts and finite reals. Callers add only their own range
limits.

A public function checks each grid it is given once, the samples of all
its grids before any shape rule, so bad samples raise DataError beside a
wrong shape too; one that returns a transformed grid checks it once too,
as finite samples near the float maximum can overflow. Private cores take
grids their caller has checked and scan no samples: the four transforms in
_fft, fresnel._filter, stego_pipeline's _forward, _field, _embed,
_extract and the matvec and rmatvec of _operator, and metrics._compare.
They keep the rules that need no scan: shapes in _embed and _extract,
strength in _extract and _operator, and _compare's checks of its results.
_quiet wraps the cores that do the arithmetic behind a public function
or a CLI command (fresnel._filter, wavelet_dct._butterfly,
metrics._scores, stego_pipeline._embed and _extract), so an overflow is
reported once, as a DataError, and not also as a numpy warning. _forward
and _field run under their caller's _quiet; _operator runs under none.

Grids are plain 2-D numpy arrays: float64 for images, complex128 for
fields; ImageGrid and ComplexGrid are documentation aliases.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DataError, ParameterError, ShapeError

ImageGrid = np.ndarray
ComplexGrid = np.ndarray
# a decorator only: each call enters a fresh copy, so decorated cores nest
_quiet = np.errstate(over="ignore", invalid="ignore")


def as_grid(samples) -> np.ndarray:
    """Return samples as a finite 2-D grid, complex128 if they are complex
    and float64 otherwise, copied only if the input is not already one.
    A ragged nesting raises ShapeError; samples that do not convert to
    floats raise DataError."""
    try:
        g = np.asarray(samples)
    except ValueError as exc:  # numpy's inhomogeneous-shape error
        raise ShapeError(f"expected a non-empty 2-D grid: {exc}") from None
    if g.ndim != 2 or g.size == 0:
        raise ShapeError(f"expected a non-empty 2-D grid, got shape {g.shape}")
    try:
        g = g.astype(np.complex128 if np.iscomplexobj(g) else np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"cannot convert grid samples: {exc}") from None
    if not np.all(np.isfinite(g)):
        raise DataError("grid contains non-finite samples")
    return g


def as_image(samples) -> ImageGrid:
    """as_grid for real samples: complex input raises DataError."""
    g = as_grid(samples)
    if g.dtype == np.complex128:
        raise DataError("expected real-valued samples, got complex")
    return g


def checked_count(name: str, value, minimum: int) -> int:
    """Return value as an int; bools, non-integers and values below
    minimum raise ParameterError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ParameterError(f"{name} must be at least {minimum}, got {value}")
    return value


def checked_real(name: str, value) -> float:
    """Return value as a finite float; bools and non-reals raise ParameterError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ParameterError(f"{name} is too large for a float") from None
    if not math.isfinite(v):
        raise ParameterError(f"{name} must be finite, got {v!r}")
    return v


def checked_square(g: np.ndarray, what: str, divisor: int) -> np.ndarray:
    """Return g if it is square with a side divisible by divisor, else
    raise ShapeError naming what."""
    r, c = g.shape
    if r != c or r % divisor:
        rule = "square" if divisor == 1 else f"square with a side divisible by {divisor}"
        raise ShapeError(f"{what} must be {rule}, got {r}x{c}")
    return g
