import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresnelstego import (ArnoldSpec, ParameterError, ShapeError, period,
                          scramble, unscramble)
from fresnelstego._fft import ROW_PAD
from fresnelstego.arnold import _layout


def index_grid(n):
    return np.arange(n * n, dtype=np.float64).reshape(n, n)


def padded_rows(rows):
    """rows as the layout indexes them, ROW_PAD samples after each row; the
    pad holds NaN, so a permutation that reads it fails every comparison"""
    return np.pad(rows, ((0, 0), (0, ROW_PAD)), constant_values=np.nan)


def first_return_time(n):
    """Steps until every pixel is back home, measured on actual pixels."""
    start = index_grid(n)
    img = start
    spec = ArnoldSpec(size=n, iterations=1)
    for t in range(1, 6 * n + 1):
        img = scramble(img, spec)
        if np.array_equal(img, start):
            return t
    raise AssertionError(f"no return within {6 * n} steps for size {n}")


def test_known_periods():
    # 480 = 32 * 3 * 5, and D has orders 24, 4 and 10 there, so by the
    # Chinese remainder theorem period(480) = lcm(24, 4, 10) = 120; likewise
    # period(500) = lcm(period(4), period(125)) = lcm(3, 250) = 750
    expected = {2: 3, 16: 12, 64: 48, 128: 96, 256: 192, 480: 120, 500: 750, 512: 384}
    for n, t in expected.items():
        assert period(n) == t, f"period({n})"


def test_period_is_minimal_for_small_sizes():
    for n in range(2, 65):
        assert first_return_time(n) == period(n)


def test_period_matches_pixel_first_return_480():
    assert first_return_time(480) == 120
    assert period(480) == 120


def test_period_rejects_bad_sizes():
    for bad in (1, 0, -3, 2.5, "16", True):
        with pytest.raises(ParameterError):
            period(bad)


def matrix_period(n):
    """First t >= 1 with D**t the identity mod n, multiplying by D each step."""
    (a, b), (c, d) = (1, 1), (1, 2)
    t = 1
    while (a, b, c, d) != (1, 0, 0, 1):
        a, b, c, d = (a + b) % n, (a + 2 * b) % n, (c + d) % n, (c + 2 * d) % n
        t += 1
    return t


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(size=st.integers(2, 5000))
def test_period_matches_matrix_powers(size):
    assert period(size) == matrix_period(size)


def test_spec_normalizes_iterations():
    assert ArnoldSpec(size=128, iterations=96).iterations == 0
    assert ArnoldSpec(size=128, iterations=100).iterations == 4
    assert ArnoldSpec(size=16, iterations=5).iterations == 5


def test_spec_rejects_bad_values():
    with pytest.raises(ParameterError):
        ArnoldSpec(size=1, iterations=0)
    with pytest.raises(ParameterError):
        ArnoldSpec(size=16, iterations=-1)
    with pytest.raises(ParameterError):
        ArnoldSpec(size=16, iterations=1.5)
    with pytest.raises(ParameterError):
        ArnoldSpec(size=16, iterations=True)


def test_zero_iterations_is_identity_copy():
    img = index_grid(8)
    spec = ArnoldSpec(size=8, iterations=0)
    out = scramble(img, spec)
    assert np.array_equal(out, img)
    assert out is not img
    assert np.array_equal(unscramble(img, spec), img)


def test_origin_is_a_fixed_point():
    img = index_grid(16)
    for n_steps in range(1, 12):
        out = scramble(img, ArnoldSpec(size=16, iterations=n_steps))
        assert out[0, 0] == img[0, 0]


def test_full_period_is_identity_128():
    img = index_grid(128)
    assert np.array_equal(scramble(img, ArnoldSpec(size=128, iterations=96)), img)


def test_single_step_moves_pixels_as_documented():
    n = 16
    img = index_grid(n)
    out = scramble(img, ArnoldSpec(size=n, iterations=1))
    for a, b in ((1, 0), (0, 1), (3, 5), (15, 15)):
        x, y = (a + b) % n, (a + 2 * b) % n
        assert out[x, y] == img[a, b]


def test_scramble_is_a_permutation():
    rng = np.random.default_rng(7)
    img = rng.uniform(0, 255, size=(32, 32))
    out = scramble(img, ArnoldSpec(size=32, iterations=5))
    assert not np.array_equal(out, img)
    assert np.array_equal(np.sort(out.ravel()), np.sort(img.ravel()))


def test_round_trip_bit_exact():
    rng = np.random.default_rng(11)
    img = rng.uniform(0, 255, size=(64, 64))
    spec = ArnoldSpec(size=64, iterations=7)
    assert np.array_equal(unscramble(scramble(img, spec), spec), img)
    assert np.array_equal(scramble(unscramble(img, spec), spec), img)


def test_unscramble_equals_forward_remainder():
    # inverse steps coincide with completing the cycle forward
    n = 16
    cycle = period(n)
    img = index_grid(n)
    for steps in range(cycle):
        back = unscramble(img, ArnoldSpec(size=n, iterations=steps))
        forward = scramble(img, ArnoldSpec(size=n, iterations=(cycle - steps) % cycle))
        assert np.array_equal(back, forward), f"steps={steps}"


def one_step_loop(img, steps):
    """steps applications of the documented pixel map, (a, b) to
    ((a + b) mod n, (a + 2b) mod n), one pixel at a time."""
    n = img.shape[0]
    for _ in range(steps):
        out = np.empty_like(img)
        for a in range(n):
            for b in range(n):
                out[(a + b) % n, (a + 2 * b) % n] = img[a, b]
        img = out
    return img


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), side=st.integers(2, 40), complex_grid=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_gather_matches_iterated_pixel_map(data, side, complex_grid, seed):
    steps = data.draw(st.integers(0, 3 * period(side)), label="steps")
    rng = np.random.default_rng(seed)
    img = rng.uniform(0, 255, size=(side, side))
    if complex_grid:
        img = img + 1j * rng.uniform(-1, 1, size=(side, side))
    spec = ArnoldSpec(size=side, iterations=steps)
    out = scramble(img, spec)
    assert out.dtype == img.dtype
    assert np.array_equal(out, one_step_loop(img, steps))
    assert np.array_equal(unscramble(out, spec), img)


def test_complex_grids_scramble_too():
    rng = np.random.default_rng(23)
    img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    spec = ArnoldSpec(size=16, iterations=3)
    assert np.array_equal(unscramble(scramble(img, spec), spec), img)


def test_shape_mismatches_rejected():
    spec = ArnoldSpec(size=16, iterations=1)
    with pytest.raises(ShapeError):
        scramble(np.zeros((16, 8)), spec)
    with pytest.raises(ShapeError):
        scramble(np.zeros((8, 8)), spec)
    with pytest.raises(ShapeError):
        unscramble(np.zeros((32, 32)), spec)


def matrix_power_by_steps(m, steps, n):
    """m**steps mod n, one plain matrix product per step."""
    p = ((1, 0), (0, 1))
    for _ in range(steps):
        p = tuple(tuple(sum(p[i][k] * m[k][j] for k in range(2)) % n for j in range(2))
                  for i in range(2))
    return p


@pytest.mark.parametrize("side", list(range(2, 41)) + [480, 1024])
def test_source_index_equals_plain_modular_formula(side):
    # scramble reads each pixel through D**-steps (the adjugate [[2, -1], [-1, 1]]
    # to the power steps), unscramble through D**steps; scrambling the grid of
    # flat indices shows the source index of every output pixel
    cycle = period(side)
    r = np.arange(side, dtype=np.int64)[:, None]
    col = np.arange(side, dtype=np.int64)
    for steps in sorted({0, 1, 7 % cycle, cycle - 1}):
        spec = ArnoldSpec(side, steps)
        for gather, m in ((scramble, ((2, -1), (-1, 1))), (unscramble, ((1, 1), (1, 2)))):
            (a, b), (c, d) = matrix_power_by_steps(m, steps, side)
            plain = (a * r + b * col) % side * side + (c * r + d * col) % side
            got = gather(index_grid(side), spec)
            assert np.array_equal(got, plain), (steps, gather.__name__)


@pytest.mark.parametrize("gather", [scramble, unscramble])
def test_gathers_keep_no_index(gather):
    # embed and extract never scramble, so a cached index would only hold
    # memory: a kept 520 x 520 index would be 2,163,200 bytes
    img, spec = index_grid(520), ArnoldSpec(520, 7)
    gather(img, spec)  # any one-time state is in place before the count starts
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = gather(img, ArnoldSpec(520, 11))
        kept = tracemalloc.get_traced_memory()[0] - before - out.nbytes
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


@pytest.mark.parametrize("side", list(range(2, 41, 2)) + [480, 1024])
def test_layout_equals_plain_modular_formula(side):
    # the layout sends each lattice pixel x to D**n x, which is also the
    # adjugate to the power cycle - n, on an even row; perm is its flat index
    # there, in even rows ROW_PAD samples longer than the side
    cycle = period(side)
    rows, cols = np.indices((side, side))
    for steps in sorted({0, 1, 7 % cycle, cycle - 1}):
        for count, m in ((steps, ((1, 1), (1, 2))), (cycle - steps, ((2, -1), (-1, 1)))):
            (a, b), (c, d) = matrix_power_by_steps(m, steps, side)
            lattice, perm = _layout(side, count)
            r, col = lattice(rows), lattice(cols)
            to_row, to_col = (a * r + b * col) % side, (c * r + d * col) % side
            assert np.all(to_row % 2 == 0), (steps, count)
            assert np.array_equal(perm, to_row // 2 * (side + ROW_PAD) + to_col), (
                steps, count)


def test_layout_is_shared_and_read_only():
    # embed and extract under one key share one cached permutation, so a
    # caller's write into it would corrupt every later embed and extract
    lattice, perm = _layout(16, 5)
    assert _layout(16, 5)[1] is perm
    with pytest.raises(ValueError):
        perm[0, 0] = 1
    img = index_grid(16)
    rows = padded_rows(scramble(img, ArnoldSpec(16, 5))[0::2])
    assert np.array_equal(rows.ravel()[perm], lattice(img))


def test_layout_is_unscramble_of_the_even_rows():
    # D is [[1, 1], [1, 0]] mod 2, of order 3, so the pixels unscramble brings
    # from the even rows are the even rows, the checkerboard {a + b even} or
    # the even columns, as n is 0, 1 or 2 mod 3
    for side in list(range(4, 65, 4)) + [100, 300]:
        a, b = np.indices((side, side))
        by_class = (a % 2 == 0, (a + b) % 2 == 0, b % 2 == 0)
        numbered = np.zeros((side, side))
        numbered[0::2] = np.arange(1, side * side // 2 + 1).reshape(side // 2, side)
        for n in range(period(side)):
            expected = unscramble(numbered, ArnoldSpec(side, n))
            lattice, perm = _layout(side, n)
            mask = np.zeros((side, side), dtype=bool)
            lattice(mask)[...] = True
            # numbered is nonzero exactly on the even rows
            assert np.array_equal(mask, expected != 0), (side, n)
            assert np.array_equal(mask, by_class[n % 3]), (side, n)
            written = np.zeros((side, side))
            lattice(written)[...] = padded_rows(numbered[0::2]).ravel()[perm]
            assert np.array_equal(written, expected), (side, n)
