import numpy as np
import pytest

from fresnelstego import (FresnelParams, QuadBands, cc, dwt2,
                          fresnelet_analyze, fresnelet_synthesize, magnitude)
from synth import textured_image

REFERENCE = FresnelParams(wavelength=632.8e-9, distance=2.0, pitch=10e-9)


def test_round_trip_on_image_data():
    img = textured_image(128, 31)
    field = fresnelet_synthesize(fresnelet_analyze(img, REFERENCE), REFERENCE)
    assert np.max(np.abs(field - img)) < 1e-9
    assert np.max(np.abs(magnitude(field) - img)) < 1e-9


def test_band_geometry():
    quad = fresnelet_analyze(np.zeros((64, 64)), REFERENCE)
    for band in quad:
        assert band.shape == (32, 32)
        assert np.iscomplexobj(band)


def test_energy_conserved_through_analysis():
    img = textured_image(64, 5)
    quad = fresnelet_analyze(img, REFERENCE)
    total = sum(np.linalg.norm(b) ** 2 for b in quad)
    energy = np.linalg.norm(img) ** 2
    assert abs(total - energy) / energy < 1e-10


def test_zero_distance_degenerates_to_dwt2():
    p = FresnelParams(wavelength=632.8e-9, distance=0.0, pitch=10e-9)
    img = textured_image(32, 2)
    quad = fresnelet_analyze(img, p)
    bands = dwt2(img)
    for complex_band, plain_band in zip(quad, bands):
        assert np.array_equal(complex_band.real, plain_band)
        assert np.all(complex_band.imag == 0)


def test_zero_quad_synthesizes_to_zero_field():
    zeros = np.zeros((16, 16), dtype=complex)
    field = fresnelet_synthesize(QuadBands(zeros, zeros, zeros, zeros), REFERENCE)
    assert np.all(field == 0)


def test_coefficients_look_nothing_like_the_source():
    # frozen regression: at meter-range propagation the approximation
    # band's magnitude is noise-like relative to the plain wavelet band
    secret = textured_image(256, 21, rolloff=6.0)
    quad = fresnelet_analyze(secret, REFERENCE)
    plain_ll = dwt2(secret).ll
    value = cc(magnitude(quad.ll), plain_ll)
    assert value < 0.5
    assert value == pytest.approx(0.2199543423180793, abs=1e-6)


def test_wrong_distance_synthesis_degrades():
    img = textured_image(64, 12)
    quad = fresnelet_analyze(img, REFERENCE)
    values = []
    for factor in (1.0, 1.05, 1.10):
        wrong = FresnelParams(REFERENCE.wavelength, REFERENCE.distance * factor,
                              REFERENCE.pitch)
        values.append(cc(magnitude(fresnelet_synthesize(quad, wrong)), img))
    assert values[0] > 0.999
    assert values[0] > values[1] > values[2]
    assert values[1] < 1.0


def test_magnitude_rules():
    real_field = np.array([[-3.0, 4.0], [0.0, -1.5]])
    assert np.array_equal(magnitude(real_field), np.abs(real_field))
    pairs = np.full((4, 4), 3.0 + 4.0j)
    assert np.all(magnitude(pairs) == 5.0)
    assert np.all(magnitude(np.zeros((4, 4), dtype=complex)) == 0)
