import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresnelstego import (ArnoldSpec, DataError, FresnelParams, ParameterError,
                          QuadBands, ShapeError, StegoKey,
                          UndefinedCorrelationError, cc, compare, dct2, dwt2,
                          embed, extract, fresnelet_analyze,
                          fresnelet_synthesize, idct2, idwt2, mse, period,
                          psnr, quantize_u8, scramble, unscramble)
from synth import textured_image

REFERENCE_PARAMS = FresnelParams(wavelength=632.8e-9, distance=2.0, pitch=10e-9)
REFERENCE_KEY = StegoKey(fresnel=REFERENCE_PARAMS, arnold_iterations=12, strength=0.08)
# short-range variant for fast small-grid tests
DESK_KEY = StegoKey(fresnel=FresnelParams(632.8e-9, 0.05, 10e-6),
                    arnold_iterations=12, strength=0.08)


def small_pair(host_seed=41, secret_seed=42):
    return textured_image(128, host_seed), textured_image(64, secret_seed, rolloff=6.0)


_BIG = {}


def big_pair_embed():
    """One full-size embed, computed once and reused by the regression tests."""
    if not _BIG:
        host = textured_image(512, 101)
        secret = textured_image(256, 201, rolloff=6.0)
        _BIG["host"] = host
        _BIG["secret"] = secret
        _BIG["result"] = embed(host, secret, REFERENCE_KEY)
    return _BIG["host"], _BIG["secret"], _BIG["result"]


def test_key_validation():
    with pytest.raises(ParameterError):
        StegoKey(fresnel="params", arnold_iterations=1, strength=0.1)
    with pytest.raises(ParameterError):
        StegoKey(fresnel=REFERENCE_PARAMS, arnold_iterations=-1, strength=0.1)
    with pytest.raises(ParameterError):
        StegoKey(fresnel=REFERENCE_PARAMS, arnold_iterations=1.5, strength=0.1)
    with pytest.raises(ParameterError):
        StegoKey(fresnel=REFERENCE_PARAMS, arnold_iterations=1, strength=-0.1)
    with pytest.raises(ParameterError):
        StegoKey(fresnel=REFERENCE_PARAMS, arnold_iterations=1, strength=float("nan"))
    with pytest.raises(ParameterError):
        StegoKey(fresnel=REFERENCE_PARAMS, arnold_iterations=1, strength=True)
    with pytest.raises(ParameterError):
        StegoKey(fresnel=REFERENCE_PARAMS, arnold_iterations=1, strength=10 ** 400)
    # zero strength is legal to construct: embed treats it as a diagnostic identity
    assert StegoKey(fresnel=REFERENCE_PARAMS, arnold_iterations=1, strength=0.0).strength == 0.0


def test_zero_strength_embed_is_identity():
    host, secret = small_pair()
    key = StegoKey(fresnel=DESK_KEY.fresnel, arnold_iterations=12, strength=0.0)
    result = embed(host, secret, key)
    assert np.max(np.abs(result.embedded - host)) < 1e-10
    assert result.report.mse < 1e-20


def test_zero_strength_extract_rejected():
    host, secret = small_pair()
    key = StegoKey(fresnel=DESK_KEY.fresnel, arnold_iterations=12, strength=0.0)
    with pytest.raises(ParameterError):
        extract(host, host, key)


def test_overflowing_extract_raises_not_inf():
    # a subnormal strength makes (embedded - host) / s overflow; that is a
    # DataError, not a grid of inf samples
    host, _ = small_pair()
    key = StegoKey(fresnel=DESK_KEY.fresnel, arnold_iterations=12, strength=1e-310)
    with np.errstate(over="ignore"), pytest.raises(DataError):
        extract(host + 1.0, host, key)


def test_float_round_trip_small():
    host, secret = small_pair()
    for strength in (0.01, 0.08):
        key = StegoKey(fresnel=DESK_KEY.fresnel, arnold_iterations=12,
                       strength=strength)
        result = embed(host, secret, key)
        recovered = extract(result.embedded, host, key)
        # lossless chain: transform noise only, far below one gray level
        assert np.max(np.abs(recovered - secret)) < 1e-6
        assert cc(recovered, secret) > 0.999


def test_embed_report_matches_outputs():
    host, secret = small_pair()
    result = embed(host, secret, DESK_KEY)
    assert result.embedded.shape == host.shape
    assert result.report.mse == mse(host, result.embedded)


def test_embed_report_of_constant_host_is_undefined():
    _, secret = small_pair()
    with pytest.raises(UndefinedCorrelationError):
        embed(np.full((128, 128), 77.0), secret, DESK_KEY)


def test_zero_strength_report_is_exact():
    host, secret = small_pair()
    key = StegoKey(fresnel=DESK_KEY.fresnel, arnold_iterations=12, strength=0.0)
    report = embed(host, secret, key).report
    assert report.mse == 0.0
    assert report.psnr_db == math.inf
    assert (report.cc, report.ssim, report.luminance, report.contrast,
            report.structure) == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_embed_mse_follows_strength_squared():
    # orthonormal chain: mse(host, embedded) = strength^2 * mean(secret^2) / 2
    host, secret = small_pair()
    expected = DESK_KEY.strength ** 2 * float(np.mean(secret * secret)) / 2.0
    result = embed(host, secret, DESK_KEY)
    assert result.report.mse == pytest.approx(expected, rel=1e-9)


def test_subtract_before_or_after_dct_is_the_same():
    host, secret = small_pair()
    result = embed(host, secret, DESK_KEY)
    spec = ArnoldSpec(size=128, iterations=DESK_KEY.arnold_iterations)
    eb = dwt2(scramble(result.embedded, spec))
    hb = dwt2(scramble(host, spec))
    for e_band, h_band in zip(eb, hb):
        after = dct2(e_band) - dct2(h_band)
        before = dct2(e_band - h_band)
        assert np.max(np.abs(after - before)) < 1e-10


def test_perturbation_norm_bound():
    host, secret, result = big_pair_embed()
    quad = fresnelet_analyze(secret, REFERENCE_KEY.fresnel)
    coded_r = idwt2(QuadBands(quad.ll.real, quad.lh.real, quad.hl.real, quad.hh.real))
    coded_i = idwt2(QuadBands(quad.ll.imag, quad.lh.imag, quad.hl.imag, quad.hh.imag))
    lhs = np.linalg.norm(result.embedded - host)
    rhs = REFERENCE_KEY.strength * np.sqrt(2.0) * (
        np.linalg.norm(coded_r) + np.linalg.norm(coded_i))
    assert lhs <= rhs
    # the chain is unitary, so the perturbation norm is not merely bounded
    # but determined by the coded images
    exact = REFERENCE_KEY.strength * np.sqrt(
        2.0 * (np.linalg.norm(coded_r) ** 2 + np.linalg.norm(coded_i) ** 2))
    assert lhs == pytest.approx(exact, rel=1e-9)


def test_perturbation_norm_bound_frozen_third_pair():
    host = textured_image(512, 103)
    secret = textured_image(256, 203, rolloff=6.0)
    result = embed(host, secret, REFERENCE_KEY)
    quad = fresnelet_analyze(secret, REFERENCE_KEY.fresnel)
    coded_r = idwt2(QuadBands(quad.ll.real, quad.lh.real, quad.hl.real, quad.hh.real))
    coded_i = idwt2(QuadBands(quad.ll.imag, quad.lh.imag, quad.hl.imag, quad.hh.imag))
    lhs = np.linalg.norm(result.embedded - host)
    rhs = REFERENCE_KEY.strength * np.sqrt(2.0) * (
        np.linalg.norm(coded_r) + np.linalg.norm(coded_i))
    assert lhs <= rhs
    assert lhs == pytest.approx(3620.4550591327625, abs=1e-3)
    assert rhs == pytest.approx(4275.730903606461, abs=1e-3)


def test_full_size_frozen_regressions():
    host, secret, result = big_pair_embed()
    assert result.report.psnr_db == pytest.approx(30.183741733858007, abs=1e-6)
    recovered = extract(result.embedded, host, REFERENCE_KEY)
    assert np.max(np.abs(recovered - secret)) < 1e-9
    assert cc(recovered, secret) == pytest.approx(1.0, abs=1e-9)

    delivered = quantize_u8(result.embedded)
    assert mse(host, delivered) > 0
    assert psnr(host, delivered) == pytest.approx(38.79658056126311, abs=1e-6)
    recovered_u8 = extract(delivered, host, REFERENCE_KEY)
    assert cc(recovered_u8, secret) == pytest.approx(0.4690167781626614, abs=1e-6)


def test_wrong_iteration_count_yields_noise():
    host, secret = small_pair()
    result = embed(host, secret, DESK_KEY)
    for wrong_n in (11, 13):
        wrong_key = StegoKey(fresnel=DESK_KEY.fresnel, arnold_iterations=wrong_n,
                             strength=DESK_KEY.strength)
        recovered = extract(result.embedded, host, wrong_key)
        assert abs(cc(recovered, secret)) <= 0.5


def test_wrong_distance_frozen_sensitivity():
    host, secret, result = big_pair_embed()
    expected = {1.1: 0.2570216663026021, 0.9: 0.25702166642865193}
    for factor, frozen in expected.items():
        wrong = StegoKey(
            fresnel=FresnelParams(REFERENCE_PARAMS.wavelength,
                                  REFERENCE_PARAMS.distance * factor,
                                  REFERENCE_PARAMS.pitch),
            arnold_iterations=REFERENCE_KEY.arnold_iterations,
            strength=REFERENCE_KEY.strength)
        value = cc(extract(result.embedded, host, wrong), secret)
        assert value == pytest.approx(frozen, abs=1e-6)


def test_shape_contracts():
    host, secret = small_pair()
    with pytest.raises(ShapeError):
        embed(host[:64, :], secret, DESK_KEY)
    # a side of 2 mod 4 leaves the secret an odd side, where the paper's
    # Haar step on the secret is undefined
    with pytest.raises(ShapeError):
        embed(textured_image(102, 1), textured_image(51, 2), DESK_KEY)
    with pytest.raises(ShapeError):
        embed(host, secret[:32, :32], DESK_KEY)
    with pytest.raises(ShapeError):
        extract(host[:64, :64], host, DESK_KEY)
    with pytest.raises(ShapeError):
        extract(host, textured_image(64, 3), DESK_KEY)


def staged_embed(host, secret, key):
    """The paper's chain, stage by stage: scramble, Haar-split, add the
    Fresnelet-coded secret onto band DCT coefficients, undo both."""
    spec = ArnoldSpec(host.shape[0], key.arnold_iterations)
    bands = dwt2(scramble(host, spec))
    quad = fresnelet_analyze(secret, key.fresnel)
    coded_r = idwt2([band.real for band in quad])
    coded_i = idwt2([band.imag for band in quad])

    def insert(band, payload):
        return idct2(dct2(band) + key.strength * payload)

    carrying = (insert(bands.ll, coded_r), insert(bands.lh, coded_r),
                insert(bands.hl, coded_i), insert(bands.hh, coded_i))
    return unscramble(idwt2(carrying), spec)


def staged_extract(embedded, host, key):
    spec = ArnoldSpec(host.shape[0], key.arnold_iterations)
    eb = dwt2(scramble(embedded, spec))
    hb = dwt2(scramble(host, spec))
    half = 2.0 * key.strength
    coded_r = ((dct2(eb.ll) - dct2(hb.ll)) + (dct2(eb.lh) - dct2(hb.lh))) / half
    coded_i = ((dct2(eb.hl) - dct2(hb.hl)) + (dct2(eb.hh) - dct2(hb.hh))) / half
    quad = [r + 1j * i for r, i in zip(dwt2(coded_r), dwt2(coded_i))]
    return np.abs(fresnelet_synthesize(quad, key.fresnel))


# host sides divisible by 4, powers of two or not, each with steps in 0...3 * period(side)
SIDE_AND_STEPS = st.sampled_from((12, 20, 48, 64, 100)).flatmap(
    lambda side: st.tuples(st.just(side), st.integers(0, 3 * period(side))))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(strength=st.floats(0.005, 2.0),
       side_and_steps=SIDE_AND_STEPS,
       distance=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
       seed=st.integers(0, 2 ** 16))
def test_closed_form_matches_staged_chain(strength, side_and_steps, distance, seed):
    side, iterations = side_and_steps
    host = textured_image(side, seed)
    secret = textured_image(side // 2, seed + 1, rolloff=6.0)
    key = StegoKey(fresnel=FresnelParams(632.8e-9, distance, 10e-6),
                   arnold_iterations=iterations, strength=strength)

    embedded = embed(host, secret, key).embedded
    assert np.max(np.abs(embedded - staged_embed(host, secret, key))) < 1e-9
    # odd scrambled rows carry no payload, so there the host is untouched
    spec = ArnoldSpec(side, iterations)
    assert np.all(scramble(embedded - host, spec)[1::2] == 0.0)

    for delivered in (embedded, quantize_u8(embedded)):
        recovered = extract(delivered, host, key)
        assert np.max(np.abs(recovered - staged_extract(delivered, host, key))) < 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(side_and_steps=SIDE_AND_STEPS,
       strength=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       seed=st.integers(0, 2 ** 16))
def test_embed_report_equals_compare(side_and_steps, strength, seed):
    # embed scores only the samples it changed; compare scores whole grids
    side, steps = side_and_steps
    host = textured_image(side, seed)
    secret = textured_image(side // 2, seed + 1, rolloff=6.0)
    key = StegoKey(fresnel=DESK_KEY.fresnel, arnold_iterations=steps, strength=strength)
    result = embed(host, secret, key)
    expected = compare(host, result.embedded)
    assert result.report.mse == expected.mse
    for name in ("psnr_db", "cc", "ssim", "luminance", "contrast", "structure"):
        value, want = getattr(result.report, name), getattr(expected, name)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0), name
