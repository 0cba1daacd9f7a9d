import numpy as np
import pytest

from fresnelstego import QuadBands, ShapeError, dct2, dwt2, idct2, idwt2


def test_hand_evaluated_block():
    bands = dwt2(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert bands.ll[0, 0] == 5.0
    assert bands.lh[0, 0] == -2.0
    assert bands.hl[0, 0] == -1.0
    assert bands.hh[0, 0] == 0.0


def test_constant_image_has_no_detail():
    c = 7.25
    bands = dwt2(np.full((16, 16), c))
    assert np.all(bands.ll == 2 * c)
    assert np.all(bands.lh == 0)
    assert np.all(bands.hl == 0)
    assert np.all(bands.hh == 0)


def test_band_shapes_are_halved():
    bands = dwt2(np.zeros((16, 24)))
    for band in bands:
        assert band.shape == (8, 12)


def test_round_trip_real():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        img = rng.uniform(0, 255, size=(16, 16))
        back = idwt2(dwt2(img))
        assert np.max(np.abs(back - img)) < 1e-12


def test_round_trip_complex():
    rng = np.random.default_rng(42)
    img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    back = idwt2(dwt2(img))
    assert np.iscomplexobj(back)
    assert np.max(np.abs(back - img)) < 1e-12


def test_energy_split_across_bands():
    rng = np.random.default_rng(8)
    img = rng.uniform(0, 255, size=(32, 32))
    bands = dwt2(img)
    total = sum(np.linalg.norm(b) ** 2 for b in bands)
    energy = np.linalg.norm(img) ** 2
    assert abs(total - energy) / energy < 1e-12


def test_odd_dimensions_rejected():
    with pytest.raises(ShapeError):
        dwt2(np.zeros((15, 16)))
    with pytest.raises(ShapeError):
        dwt2(np.zeros((16, 15)))


def test_idwt2_zero_bands():
    zeros = np.zeros((4, 4))
    assert np.all(idwt2(QuadBands(zeros, zeros, zeros, zeros)) == 0)


def test_idwt2_accepts_plain_sequences():
    rng = np.random.default_rng(3)
    img = rng.standard_normal((8, 8))
    bands = dwt2(img)
    assert np.array_equal(idwt2(tuple(bands)), idwt2(bands))


def test_idwt2_ll_only_preserves_energy():
    rng = np.random.default_rng(5)
    img = rng.uniform(0, 255, size=(16, 16))
    ll = dwt2(img).ll
    zeros = np.zeros_like(ll)
    smooth = idwt2(QuadBands(ll, zeros, zeros, zeros))
    energy = np.linalg.norm(ll) ** 2
    assert abs(np.linalg.norm(smooth) ** 2 - energy) / energy < 1e-12


def test_idwt2_mismatched_bands_rejected():
    with pytest.raises(ShapeError):
        idwt2(QuadBands(np.zeros((4, 4)), np.zeros((4, 4)),
                        np.zeros((4, 4)), np.zeros((4, 2))))


def test_dct2_constant_is_dc_only():
    n, c = 16, 2.25
    out = dct2(np.full((n, n), c))
    assert out[0, 0] == pytest.approx(n * c, rel=1e-12)
    off_dc = out.copy()
    off_dc[0, 0] = 0
    assert np.max(np.abs(off_dc)) < 1e-12


def test_dct2_dc_of_ones_4x4():
    assert dct2(np.ones((4, 4)))[0, 0] == pytest.approx(4.0, rel=1e-12)


def test_dct_round_trip_square_and_rect():
    for shape, seed in (((32, 32), 1), ((8, 12), 2), ((6, 10), 3)):
        rng = np.random.default_rng(seed)
        img = rng.uniform(0, 255, size=shape)
        assert np.max(np.abs(idct2(dct2(img)) - img)) < 1e-12


def test_dct2_preserves_energy():
    rng = np.random.default_rng(17)
    img = rng.uniform(0, 255, size=(32, 32))
    energy = np.linalg.norm(img)
    assert abs(np.linalg.norm(dct2(img)) - energy) / energy < 1e-12


def test_idct2_zeros_and_dc_rule():
    assert np.all(idct2(np.zeros((8, 8))) == 0)
    n, c = 8, 1.5
    coeffs = np.zeros((n, n))
    coeffs[0, 0] = n * c
    assert np.max(np.abs(idct2(coeffs) - c)) < 1e-12


def test_dct2_rejects_complex_and_non_finite():
    from fresnelstego import DataError
    with pytest.raises(DataError):
        dct2(np.zeros((4, 4), dtype=complex))
    bad = np.zeros((4, 4))
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        dct2(bad)
