"""Arnold cat-map scrambling of square grids and exact period computation.

Pixels are 0-indexed. One forward step moves the pixel at (a, b) to
((a + b) mod N, (a + 2b) mod N), i.e. the matrix D = [[1, 1], [1, 2]]
acting on coordinates mod N; (0, 0) never moves. n steps are D**n mod N
computed exactly in Python integers, then applied as one vectorized
gather, so cost does not grow with n. Unscrambling uses the adjugate
[[2, -1], [-1, 1]] (det D = 1), one pass instead of period - n forward
passes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import as_grid

_FORWARD = ((1, 1), (1, 2))
_INVERSE = ((2, -1), (-1, 1))


def _mat_mul(a, b, mod):
    return (
        ((a[0][0] * b[0][0] + a[0][1] * b[1][0]) % mod,
         (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % mod),
        ((a[1][0] * b[0][0] + a[1][1] * b[1][0]) % mod,
         (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % mod),
    )


def _mat_pow(m, k, mod):
    # exact square-and-multiply on 2x2 integer matrices
    result = ((1, 0), (0, 1))
    m = tuple(tuple(v % mod for v in row) for row in m)
    while k:
        if k & 1:
            result = _mat_mul(result, m, mod)
        m = _mat_mul(m, m, mod)
        k >>= 1
    return result


def _checked_size(size) -> int:
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
        raise ParameterError(f"size must be an integer, got {size!r}")
    size = int(size)
    if size < 2:
        raise ParameterError(f"size must be at least 2, got {size}")
    return size


@lru_cache(maxsize=None)
def period(size: int) -> int:
    """Smallest T >= 1 with D**T congruent to the identity mod size.

    Iterates the matrix directly; the period never exceeds 3 * size, so
    the scan is cheap even for large grids.
    """
    n = _checked_size(size)
    identity = ((1, 0), (0, 1))
    m = identity
    for t in range(1, 6 * n + 1):
        m = _mat_mul(m, _FORWARD, n)
        if m == identity:
            return t
    raise AssertionError(f"no period found below {6 * n} for size {n}")


@dataclass(frozen=True)
class ArnoldSpec:
    """Scrambling key: grid side and step count.

    The step count is normalized into [0, period(size)) at construction,
    since the map is cyclic; equality of specs is equality of effect.
    """

    size: int
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "size", _checked_size(self.size))
        n = self.iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ParameterError(f"iterations must be an integer, got {n!r}")
        n = int(n)
        if n < 0:
            raise ParameterError(f"iterations must be non-negative, got {n}")
        object.__setattr__(self, "iterations", n % period(self.size))


def _checked_square(img, spec: ArnoldSpec):
    g = as_grid(img)
    r, c = g.shape
    if r != c or r != spec.size:
        raise ShapeError(f"expected a {spec.size}x{spec.size} grid, got {r}x{c}")
    return g


def _permute(g, matrix):
    n = g.shape[0]
    a = np.arange(n, dtype=np.int64).reshape(-1, 1)
    b = np.arange(n, dtype=np.int64).reshape(1, -1)
    x = (matrix[0][0] * a + matrix[0][1] * b) % n
    y = (matrix[1][0] * a + matrix[1][1] * b) % n
    out = np.empty_like(g)
    out[x, y] = g
    return out


def scramble(img, spec: ArnoldSpec) -> np.ndarray:
    """Apply spec.iterations forward steps. Pure permutation: every sample
    value survives bit-for-bit, only positions change."""
    g = _checked_square(img, spec)
    if spec.iterations == 0:
        return g.copy()
    return _permute(g, _mat_pow(_FORWARD, spec.iterations, spec.size))


def unscramble(img, spec: ArnoldSpec) -> np.ndarray:
    """Exact inverse of scramble with the same spec."""
    g = _checked_square(img, spec)
    if spec.iterations == 0:
        return g.copy()
    return _permute(g, _mat_pow(_INVERSE, spec.iterations, spec.size))
