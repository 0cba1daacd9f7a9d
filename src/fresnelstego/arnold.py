"""Arnold cat-map scrambling of square grids and exact period computation.

Pixels are 0-indexed. One forward step moves the pixel at (a, b) to
((a + b) mod N, (a + 2b) mod N), i.e. the matrix D = [[1, 1], [1, 2]]
acting on coordinates mod N; (0, 0) never moves. n steps are D**n mod N
computed exactly in Python integers, so cost does not grow with n.
scramble is one gather: each output pixel x reads the pixel at D**-n x,
and D**-1 is the adjugate [[2, -1], [-1, 1]] since det D = 1.
unscramble gathers through D**n. Nothing is scattered or kept; zero
steps gather a fresh, exact copy.

Parity rule. Mod 2, D is [[1, 1], [1, 0]], of order 3: it cycles the
parity classes (1, 0) -> (1, 1) -> (0, 1) -> (1, 0) and fixes (0, 0). So
at an even side T is a multiple of 3, and the pixels that unscramble
brings from the even rows form one of three fixed lattices chosen by
n mod 3: the even rows {a even} when n = 0 (mod 3), the checkerboard
{a + b even} when n = 1, the even columns {b even} when n = 2. Only the
order within the lattice depends on n. _layout gives that lattice as a
view of a grid and the order as one permutation, and keeps its last
pair: 4 * n**2 bytes.
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

    Steps the second column of D**t, (x, y) -> (x + y, x + 2y) mod size,
    until it is (0, 1) again: every power of D is symmetric with
    determinant 1, so that column makes it the identity. The period never
    exceeds 3 * size: size 1,000,003 (period 1,000,004) takes about 0.14 s
    on one core, so a size in the billions takes minutes.
    """
    n = checked_count("size", size, 2)
    x, y = 0, 1
    for t in range(1, 6 * n + 1):
        x, y = (x + y) % n, (x + 2 * y) % n
        if x == 0 and y == 1:
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


def _even_sums(g):
    # rows 2i + j and columns j + 2k, i.e. a + b even, as one writable view
    (r, c), half = g.strides, g.shape[0] // 2
    return np.lib.stride_tricks.as_strided(g, (half, 2, half), (2 * r, r + c, 2 * c))


# the lattice of pixels that n steps move onto even rows, by n mod 3
_LATTICES = (lambda g: g[0::2], _even_sums, lambda g: g[:, 0::2])


def _positions(m, n, lattice, row_step):
    """Read-only flat position of m @ x mod n, in an n-column grid that keeps
    every row_step-th row, for each pixel x = (a, b) of lattice(n x n grid)."""
    (p, q), (r, s) = m
    # native intp indices: numpy gathers and scatters through int32 ones more slowly
    x, shape = np.arange(n), (n, n)

    def term(row_coef, col_coef):
        # C order: numpy's default would lay the sum out by the operands' mixed
        # checkerboard strides, and gathering through that is several times slower
        return np.add(lattice(np.broadcast_to((row_coef * x % n)[:, None], shape)),
                      lattice(np.broadcast_to(col_coef * x % n, shape)), order="C")

    # a row term plus a column term, each reduced mod n, is below 2n: wrap reduces it
    wrap = np.arange(2 * n) % n
    idx = (wrap // row_step * n)[term(p, q)] + wrap[term(r, s)]
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=1)
def _layout(size: int, n: int):
    """(lattice, perm) for n >= 0 steps at an even size: lattice(g) is the
    view of g's pixels x that D**n moves onto an even row, and perm holds,
    in that view's shape, the flat index of D**n x in the even rows g[0::2].
    So lattice(out)[...] = rows.ravel()[perm] writes unscramble of a grid
    whose even rows are rows and whose odd rows are zero."""
    lattice = _LATTICES[n % 3]
    return lattice, _positions(_mat_pow(_FORWARD, n, size), size, lattice, 2)


def _gather(img, spec: ArnoldSpec, m) -> np.ndarray:
    # each output pixel x reads the pixel at m**iterations x
    g = as_grid(img)
    n = spec.size
    if g.shape != (n, n):
        raise ShapeError(f"expected a {n}x{n} grid, got {g.shape[0]}x{g.shape[1]}")
    return g.ravel()[_positions(_mat_pow(m, spec.iterations, n), n, lambda v: v, 1)]


def scramble(img, spec: ArnoldSpec) -> np.ndarray:
    """Apply spec.iterations forward steps. Pure permutation: every sample
    value survives bit-for-bit, only positions change."""
    return _gather(img, spec, ((2, -1), (-1, 1)))


def unscramble(img, spec: ArnoldSpec) -> np.ndarray:
    """Exact inverse of scramble with the same spec."""
    return _gather(img, spec, _FORWARD)
