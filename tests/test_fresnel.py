import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.fft import fft2, ifft2

from fresnelstego import (DataError, FresnelParams, ParameterError, ShapeError,
                          cc, default_key_path, load_key, magnitude, propagate,
                          propagate_inverse)
from fresnelstego.fresnel import _alpha, _half
from exact import exact_alpha, exact_factor
from synth import textured_image

REFERENCE = FresnelParams(wavelength=632.8e-9, distance=2.0, pitch=10e-9)  # phases to 2e10 rad
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
            # x takes the real-input FFT, which rounds unlike the complex one
            error = np.linalg.norm(propagate(x, p) - propagate(x + 0j, p))
            assert error <= 1e-12 * np.linalg.norm(x), (side, p)


def test_zero_distance_is_exact_identity():
    p = FresnelParams(wavelength=632.8e-9, distance=0.0, pitch=10e-9)
    f = random_field(64, 3)
    assert propagate(f, p) is not f
    # a real field comes back as an equal complex128 copy, and every field
    # C-ordered, as the FFT path returns it
    for g in (f, f.real, np.asfortranarray(f)):
        for out in (propagate(g, p), propagate_inverse(g, p)):
            assert out.dtype == np.complex128 and out.flags.c_contiguous
            assert np.array_equal(out, g)


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


# the cached factor against exact_factor: the measured worst case is 6.5e-16,
# three ulps of 1, at the sides and keys below; nine ulps leave room for
# another libm. The float formula exp(-i * pi * wavelength * distance *
# (nu_x**2 + nu_y**2)) misses it by up to 7.6e-6 at the metre-range key
FACTOR_ATOL = 2e-15


def test_inverse_matches_conjugate_factor():
    # pins the sign convention, forward exp(-i phase) and inverse exp(+i phase),
    # and the factor against the exact reference, at odd sides and at phases of
    # 1e7 (metre_range) and 2e10 rad (REFERENCE)
    metre_range = FresnelParams(wavelength=632.8e-9, distance=1.0, pitch=0.3e-6)
    for side, p in ((1, DESK), (2, DESK), (3, DESK), (4, DESK), (5, DESK), (7, DESK),
                    (9, DESK), (32, DESK), (48, DESK), (100, DESK), (127, DESK),
                    (129, DESK), (256, DESK), (9, metre_range), (100, metre_range),
                    (256, metre_range), (32, REFERENCE), (127, REFERENCE)):
        num, den = _alpha(side, p)  # the exact rational, in lowest terms
        assert Fraction(num, den) == exact_alpha(side, p) and math.gcd(num, den) == 1
        exact = exact_factor(side, p)
        q = _half(side, p)
        assert np.max(np.abs(np.concatenate((q, q[side - len(q):0:-1])) - exact)) <= FACTOR_ATOL
        # a real field takes the real-input FFT in propagate and in scipy's fft2 alike;
        # the factors' difference moves the unitary stage by at most FACTOR_ATOL * |f|,
        # and the two transforms' round-off by a few ulps more
        for f in (random_field(side, 9), random_field(side, 9).real):
            bound = 4 * FACTOR_ATOL * np.linalg.norm(f)
            for got, factor in ((propagate(f, p), exact), (propagate_inverse(f, p), exact.conj())):
                expected = ifft2(fft2(f, norm="ortho") * factor, norm="ortho")
                assert np.linalg.norm(got - expected) <= bound, (side, p, f.dtype)


def test_factor_cache_keeps_half_a_filter():
    # the last factor is kept as its 257 x 512 half, 16 * 257 * 512 bytes at
    # side 512; a kept full 512 x 512 filter would be twice that
    f = random_field(512, 5)
    propagate(f, DESK)  # any one-time state is in place before the count starts
    other = FresnelParams(DESK.wavelength, 2 * DESK.distance, DESK.pitch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = propagate(f, other)
        kept = tracemalloc.get_traced_memory()[0] - before - out.nbytes
    finally:
        tracemalloc.stop()
    assert kept <= 16 * 257 * 512 + 64 * 1024


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


# For a secret of side N (host 2N) the stage depends only on
# alpha = wavelength * distance / (N * pitch)**2, which for the shipped key's
# decimal values is 2**10 * 5**6 * 791 / N**2, 791 = 7 * 113. It is an integer
# exactly when N = 2**a * 5**b with a <= 5 and b <= 3, and N is even (a >= 1) as
# host sides are multiples of 4; that gives the hosts up to 1000 below. An
# integer alpha makes every bin's factor 1 (alpha even) or (-1)**(k + l) (alpha
# odd, a = 5), a roll by N/2: a Talbot plane. Hosts 128 and 256 are fractional
# ones. The floats the key file gives are not those decimals: their exact
# alpha * N**2 falls 4.9e-7 short of the integer, so the loaded key's factor is
# +-1 only to pi * |alpha - n| * N**2 / 2 = 7.7e-7; EXACT_SHIPPED has the same
# alpha with binary parameters, where it is an integer.
SHIPPED_ALPHA_N2 = 2 ** 10 * 5 ** 6 * 791
EXACT_SHIPPED = FresnelParams(SHIPPED_ALPHA_N2 * 2.0 ** -40, 1.0, 2.0 ** -20)


@pytest.mark.parametrize("host", [4, 8, 16, 20, 32, 40, 64, 80, 100, 160, 200, 320,
                                  400, 500, 800, 1000, 128, 256])
def test_shipped_key_stage_at_talbot_planes(host):
    p = load_key(default_key_path()).fresnel
    side = host // 2
    alpha = exact_alpha(side, p)
    assert float(alpha * side ** 2 - SHIPPED_ALPHA_N2) == pytest.approx(-4.9e-7, rel=0.01)
    assert exact_alpha(side, EXACT_SHIPPED) * side ** 2 == SHIPPED_ALPHA_N2
    x = np.random.default_rng(host).standard_normal((side, side))
    half = np.roll(x, (side // 2, side // 2), (0, 1))
    n = round(alpha)
    if SHIPPED_ALPHA_N2 % side ** 2 == 0:
        target = (x, half)[n % 2]
        # the exact alpha's factor is exactly +-1: FFT round-off alone is left
        assert np.max(np.abs(propagate(x, EXACT_SHIPPED) - target)) <= 1e-12 * np.max(np.abs(x))
        # the loaded key's factor is +-1 within pi * |alpha - n| * max(k**2 + l**2)
        off = float(abs(alpha - n)) * np.pi * 2 * (side // 2) ** 2
        error = np.linalg.norm(propagate(x, p) - target)
        assert error <= (off + 1e-12) * np.linalg.norm(x)
    else:
        assert host in (128, 256)
        bound = np.max(np.abs(x))
        for q in (p, EXACT_SHIPPED):
            got = propagate(x, q)
            assert min(np.max(np.abs(got - y)) for y in (x, half)) > 0.1 * bound


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


def test_non_finite_field_rejected():
    field = random_field(16, 2)
    cases = [(field, complex(0.0, np.inf))]
    cases += [(g, bad) for g in (field, field.real) for bad in (np.nan, np.inf, -np.inf)]
    for g, bad in cases:
        f = g.copy()
        f[3, 4] = bad
        for op in (propagate, propagate_inverse):
            with pytest.raises(DataError, match="non-finite"):
                op(f, DESK)


def test_non_numeric_field_rejected():
    for bad in ([["a"]], np.array([[1j, None]], dtype=object)):
        for op in (propagate, propagate_inverse):
            with pytest.raises(DataError, match="cannot convert grid samples"):
                op(bad, DESK)
