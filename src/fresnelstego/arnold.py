"""Arnold cat-map scrambling of square grids and exact period computation.

Pixels are 0-indexed. One forward step moves the pixel at (a, b) to
((a + b) mod N, (a + 2b) mod N), i.e. the matrix D = [[1, 1], [1, 2]]
acting on coordinates mod N; (0, 0) never moves. n steps are D**n mod N
computed exactly in Python integers, so cost does not grow with n.
scramble is one gather through source_index, the flat position each
output pixel reads, which is D**-n. The map is periodic with period T,
so D**-n = D**(T - n) and unscramble is scramble by the complementary
count T - n. Nothing is scattered; zero steps gather a fresh, exact copy.
source_index keeps its last index, read-only: 8 * n**2 / row_step bytes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .numerics import as_grid, checked_count

_FORWARD = ((1, 1), (1, 2))


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
    while k:
        if k & 1:
            result = _mat_mul(result, m, mod)
        m = _mat_mul(m, m, mod)
        k >>= 1
    return result


@lru_cache(maxsize=None)
def period(size: int) -> int:
    """Smallest T >= 1 with D**T congruent to the identity mod size.

    Iterates the matrix directly; the period never exceeds 3 * size, so
    the scan is cheap even for large grids.
    """
    n = checked_count("size", size, 2)
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
        object.__setattr__(self, "size", checked_count("size", self.size, 2))
        n = checked_count("iterations", self.iterations, 0)
        object.__setattr__(self, "iterations", n % period(self.size))


@lru_cache(maxsize=1)
def source_index(spec: ArnoldSpec, row_step: int = 1) -> np.ndarray:
    """Flat source of each pixel in every row_step-th output row of
    scramble: scramble(g, spec)[::row_step] is
    g.ravel()[source_index(spec, row_step)]."""
    n = spec.size
    (a, b), (c, d) = _mat_pow(_FORWARD, -spec.iterations % period(n), n)
    # native intp indices: numpy gathers and scatters through int32 ones more slowly
    rows, cols = np.arange(0, n, row_step)[:, None], np.arange(n)
    # a row term plus a column term, each reduced mod n, is below 2n: wrap reduces it
    wrap = np.arange(2 * n) % n
    idx = (wrap * n)[a * rows % n + b * cols % n] + wrap[c * rows % n + d * cols % n]
    idx.flags.writeable = False
    return idx


def scramble(img, spec: ArnoldSpec) -> np.ndarray:
    """Apply spec.iterations forward steps. Pure permutation: every sample
    value survives bit-for-bit, only positions change."""
    g = as_grid(img)
    n = spec.size
    if g.shape != (n, n):
        raise ShapeError(f"expected a {n}x{n} grid, got {g.shape[0]}x{g.shape[1]}")
    return g.ravel()[source_index(spec)]


def unscramble(img, spec: ArnoldSpec) -> np.ndarray:
    """Exact inverse of scramble with the same spec."""
    return scramble(img, ArnoldSpec(spec.size, period(spec.size) - spec.iterations))
