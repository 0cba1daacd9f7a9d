import math

import numpy as np
import pytest

from fresnelstego import (FresnelParams, ParameterError, ShapeError, cc,
                          default_key_path, fft2, ifft2, load_key, magnitude,
                          propagate, propagate_inverse)
from synth import textured_image

REFERENCE = FresnelParams(wavelength=632.8e-9, distance=2.0, pitch=10e-9)
# short-range parameters keep transfer phases around 5e2 rad, small enough
# that float64 leaves headroom for the 1e-10 composition tolerance
DESK = FresnelParams(wavelength=632.8e-9, distance=0.05, pitch=10e-6)


def random_field(side, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))


def test_params_validation():
    with pytest.raises(ParameterError):
        FresnelParams(wavelength=0.0, distance=1.0, pitch=1e-8)
    with pytest.raises(ParameterError):
        FresnelParams(wavelength=-1e-9, distance=1.0, pitch=1e-8)
    with pytest.raises(ParameterError):
        FresnelParams(wavelength=1e-9, distance=-0.1, pitch=1e-8)
    with pytest.raises(ParameterError):
        FresnelParams(wavelength=1e-9, distance=1.0, pitch=0.0)
    with pytest.raises(ParameterError):
        FresnelParams(wavelength=math.nan, distance=1.0, pitch=1e-8)
    with pytest.raises(ParameterError):
        FresnelParams(wavelength="soon", distance=1.0, pitch=1e-8)
    # bools and numeric strings are not real numbers, although float() takes them
    with pytest.raises(ParameterError):
        FresnelParams(wavelength=True, distance=1.0, pitch=1e-8)
    with pytest.raises(ParameterError):
        FresnelParams(wavelength=632.8e-9, distance="0.05", pitch=1e-8)
    # an int too large for a float is a bad parameter, not an OverflowError
    with pytest.raises(ParameterError, match="wavelength is too large"):
        FresnelParams(wavelength=10 ** 400, distance=1.0, pitch=1e-8)


def test_params_with_overflowing_phase_rejected():
    # each is finite, but the transfer phase _filter would form is not: the
    # Nyquist frequency squared overflows, or wavelength * distance does
    for triple in ((632.8e-9, 1.0, 1e-200), (1e300, 1e300, 1e-9),
                   (1e-150, 1e-150, 1e-160)):
        with pytest.raises(ParameterError, match="non-finite Fresnel phase"):
            FresnelParams(*triple)
    # the keys this suite and the shipped file use still construct,
    # REFERENCE and DESK above at import
    FresnelParams(632.8e-9, 1.0, 0.3e-6)
    load_key(default_key_path())


def test_inverse_is_conjugate_for_real_input():
    # the transfer factor is even in frequency, so for real x
    # propagate_inverse(x) = conj(propagate(x)); embed rests on this
    for side in (2, 3, 7, 48, 100, 256):
        x = np.random.default_rng(side).standard_normal((side, side))
        for p in (DESK, REFERENCE):
            error = np.linalg.norm(propagate_inverse(x, p) - np.conj(propagate(x, p)))
            assert error <= 1e-12 * np.linalg.norm(x), (side, p)


def test_zero_distance_is_exact_identity():
    p = FresnelParams(wavelength=632.8e-9, distance=0.0, pitch=10e-9)
    f = random_field(64, 3)
    out = propagate(f, p)
    assert np.array_equal(out, f)
    assert out is not f
    assert np.array_equal(propagate_inverse(f, p), f)


def test_energy_preserved_at_reference_params():
    for side in (100, 128, 255, 256):
        f = random_field(side, side)
        energy_in = np.linalg.norm(f)
        assert abs(np.linalg.norm(propagate(f, REFERENCE)) - energy_in) / energy_in < 1e-12
        assert abs(np.linalg.norm(propagate_inverse(f, REFERENCE)) - energy_in) / energy_in < 1e-12


def test_round_trip_at_reference_params():
    for seed in range(3):
        f = random_field(128, seed)
        back = propagate_inverse(propagate(f, REFERENCE), REFERENCE)
        assert np.max(np.abs(back - f)) < 1e-10
        back = propagate(propagate_inverse(f, REFERENCE), REFERENCE)
        assert np.max(np.abs(back - f)) < 1e-10


def test_inverse_matches_conjugate_factor():
    # pins the sign convention, forward exp(-i phase) and inverse exp(+i phase),
    # and that the factor built from its quadrant equals the full-grid one bit for bit
    metre_range = FresnelParams(wavelength=632.8e-9, distance=1.0, pitch=0.3e-6)  # phases near 1e7 rad
    for side, p in ((2, DESK), (3, DESK), (4, DESK), (7, DESK), (32, DESK), (48, DESK),
                    (100, DESK), (256, DESK), (256, metre_range)):
        f = random_field(side, 9)
        nu = np.fft.fftfreq(side, d=p.pitch)
        phase = np.pi * p.wavelength * p.distance * (nu[:, None] ** 2 + nu[None, :] ** 2)
        expected_fwd = ifft2(fft2(f) * np.exp(-1j * phase))
        expected_inv = ifft2(fft2(f) * np.exp(1j * phase))
        assert np.array_equal(propagate(f, p), expected_fwd), (side, p)
        assert np.array_equal(propagate_inverse(f, p), expected_inv), (side, p)


def test_composition_adds_distances():
    f = random_field(128, 11)
    p1 = FresnelParams(DESK.wavelength, 0.03, DESK.pitch)
    p2 = FresnelParams(DESK.wavelength, 0.02, DESK.pitch)
    p12 = FresnelParams(DESK.wavelength, 0.05, DESK.pitch)
    two_step = propagate(propagate(f, p1), p2)
    one_step = propagate(f, p12)
    assert np.max(np.abs(two_step - one_step)) < 1e-10


def test_wavelength_distance_enter_as_product():
    f = random_field(64, 13)
    scaled_wavelength = FresnelParams(DESK.wavelength * 1.1, DESK.distance, DESK.pitch)
    scaled_distance = FresnelParams(DESK.wavelength, DESK.distance * 1.1, DESK.pitch)
    a = propagate(f, scaled_wavelength)
    b = propagate(f, scaled_distance)
    assert np.max(np.abs(a - b)) < 1e-12


def test_wrong_distance_degrades_monotonically():
    # frozen sweep: reconstruct with a wrong distance and correlate
    # magnitudes against the source
    img = textured_image(128, 7)
    p1 = FresnelParams(632.8e-9, 0.05, 10e-6)
    g = propagate(img, p1)
    expected = {
        1.00: 1.0000000000000002,
        1.01: 0.9813544726613639,
        1.02: 0.9486237375869329,
        1.05: 0.8716662811215343,
        1.10: 0.7615799149576614,
        1.20: 0.5710314862551568,
    }
    measured = []
    for factor, frozen in expected.items():
        p2 = FresnelParams(632.8e-9, 0.05 * factor, 10e-6)
        value = cc(magnitude(propagate_inverse(g, p2)), img)
        assert value == pytest.approx(frozen, abs=1e-6)
        measured.append(value)
    assert all(a > b for a, b in zip(measured, measured[1:]))
    assert all(value < 1.0 for value in measured[1:])


def test_wrong_distance_collapse_at_reference_scale():
    # frozen regression: at meter-range distances a 10% error destroys
    # the reconstruction outright
    img = textured_image(256, 11)
    g = propagate(img, REFERENCE)
    wrong = FresnelParams(REFERENCE.wavelength, REFERENCE.distance * 1.1, REFERENCE.pitch)
    value = cc(magnitude(propagate_inverse(g, wrong)), img)
    assert value == pytest.approx(0.09922222709520696, abs=1e-6)


def test_shape_rejection():
    with pytest.raises(ShapeError):
        propagate(np.zeros((64, 32)), DESK)
    with pytest.raises(ShapeError):
        propagate(np.zeros((48, 50)), DESK)
    with pytest.raises(ShapeError):
        propagate_inverse(np.zeros((64, 32)), DESK)
