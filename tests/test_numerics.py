import numpy as np
import pytest

from fresnelstego import DataError, ShapeError, fft2, ifft2
from fresnelstego.numerics import as_grid, as_image


def test_fft2_zeros_stay_zeros():
    out = fft2(np.zeros((8, 8)))
    assert out.shape == (8, 8)
    assert np.all(out == 0)


def test_fft2_constant_is_dc_only():
    n, c = 16, 3.5
    out = fft2(np.full((n, n), c))
    assert out[0, 0] == pytest.approx(n * c, rel=1e-12)
    off_dc = out.copy()
    off_dc[0, 0] = 0
    assert np.max(np.abs(off_dc)) < 1e-12


def test_fft2_delta_duality():
    n = 8
    delta = np.zeros((n, n))
    delta[0, 0] = 1.0
    spectrum = fft2(delta)
    # unitary scaling spreads a unit impulse to the constant 1/n
    assert np.max(np.abs(spectrum - 1.0 / n)) < 1e-12
    back = ifft2(spectrum)
    assert np.max(np.abs(back - delta)) < 1e-12


def test_parseval_on_random_grids():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((64, 64))
        energy_in = np.linalg.norm(g)
        assert abs(np.linalg.norm(fft2(g)) - energy_in) / energy_in < 1e-12
        assert abs(np.linalg.norm(ifft2(g)) - energy_in) / energy_in < 1e-12


def test_round_trip_on_random_complex():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        g = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        back = ifft2(fft2(g))
        scale = np.max(np.abs(g))
        assert np.max(np.abs(back - g)) / scale < 1e-12


def test_ifft2_zeros_stay_zeros():
    assert np.all(ifft2(np.zeros((8, 8))) == 0)


@pytest.mark.parametrize("shape", [(6, 8), (8, 6), (5, 5), (12, 12)])
def test_non_power_of_two_parseval_and_round_trip(shape):
    rng = np.random.default_rng(sum(shape))
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    energy_in = np.linalg.norm(g)
    assert abs(np.linalg.norm(fft2(g)) - energy_in) / energy_in < 1e-12
    assert abs(np.linalg.norm(ifft2(g)) - energy_in) / energy_in < 1e-12
    assert np.max(np.abs(ifft2(fft2(g)) - g)) / np.max(np.abs(g)) < 1e-12


def test_non_2d_rejected():
    with pytest.raises(ShapeError):
        fft2(np.zeros(8))
    with pytest.raises(ShapeError):
        fft2(np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError):
        fft2(np.zeros((0, 8)))


def test_non_finite_rejected():
    g = np.zeros((8, 8))
    g[3, 3] = np.nan
    with pytest.raises(DataError):
        fft2(g)
    g[3, 3] = np.inf
    with pytest.raises(DataError):
        ifft2(g)


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
