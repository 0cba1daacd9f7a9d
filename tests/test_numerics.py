import numpy as np
import pytest

from fresnelstego import DataError, ShapeError
from fresnelstego.numerics import as_grid, as_image


def test_non_2d_rejected():
    for bad in (np.zeros(8), np.zeros((2, 2, 2)), np.zeros((0, 8)), [[1, 2], [3]]):
        with pytest.raises(ShapeError):
            as_grid(bad)


def test_non_finite_rejected():
    g = np.zeros((8, 8))
    for bad in (np.nan, np.inf, -np.inf):
        g[3, 3] = bad
        with pytest.raises(DataError):
            as_grid(g)
        with pytest.raises(DataError):
            as_grid(g + 0j)


@pytest.mark.parametrize("dtype, expected", [
    (bool, np.float64), (np.int32, np.float64), (np.int64, np.float64),
    (np.float32, np.float64), (np.complex64, np.complex128)])
def test_as_grid_maps_to_float64_or_complex128(dtype, expected):
    g = as_grid(np.ones((3, 2), dtype=dtype))
    assert g.dtype == expected
    assert np.array_equal(g, np.ones((3, 2)))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_as_grid_keeps_a_checked_grid(dtype):
    g = np.arange(12, dtype=dtype).reshape(3, 4)
    assert as_grid(g) is g


def test_as_image_rejects_complex():
    g = np.ones((4, 4))
    assert as_image(g) is g
    for bad in (g + 0j, g.astype(np.complex64), [[1j, 0], [0, 0]]):
        with pytest.raises(DataError, match="expected real-valued samples"):
            as_image(bad)


@pytest.mark.parametrize("bad", [[["a"]], np.array([[1j, None]], dtype=object),
                                 [[10 ** 400]]], ids=["string", "object", "huge-int"])
def test_as_grid_unconvertible_samples_are_data_errors(bad):
    with pytest.raises(DataError, match="cannot convert grid samples"):
        as_grid(bad)
