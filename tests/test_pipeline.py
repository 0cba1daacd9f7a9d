import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import dctn, fft2, idctn, ifft2

from fresnelstego import (ArnoldSpec, DataError, FresnelParams, ParameterError,
                          QuadBands, ShapeError, StegoKey,
                          UndefinedCorrelationError, cc, compare, dct2, dwt2,
                          embed, extract, fresnelet_analyze,
                          fresnelet_synthesize, idct2, idwt2, magnitude, mse, period,
                          propagate, propagate_inverse, psnr, quantize_u8,
                          scramble, unscramble)
from fresnelstego import _fft, stego_pipeline
from fresnelstego.arnold import _layout
from fresnelstego.stego_pipeline import READERS, _extract, _field, _forward, _operator
from exact import exact_alpha, exact_factor
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
    # a subnormal strength makes (embedded - host) / s overflow, and a
    # difference near the float maximum overflows in the DCT; either is a
    # DataError, not a grid of inf samples
    host, _ = small_pair()
    key = StegoKey(fresnel=DESK_KEY.fresnel, arnold_iterations=12, strength=1e-310)
    with pytest.raises(DataError):
        extract(host + 1.0, host, key)
    key = StegoKey(fresnel=DESK_KEY.fresnel, arnold_iterations=12, strength=1.0)
    with pytest.raises(DataError):
        extract(np.full(host.shape, 1e307), np.zeros(host.shape), key)


OVERFLOWING = {
    "propagate": lambda: propagate(np.full((64, 64), 3e306), DESK_KEY.fresnel),
    "propagate_inverse": lambda: propagate_inverse(np.full((64, 64), 3e306),
                                                   DESK_KEY.fresnel),
    "dct2": lambda: dct2(np.full((64, 64), 1e308)),
    "idct2": lambda: idct2(np.full((64, 64), 1e308)),
    "dwt2": lambda: dwt2(np.full((64, 64), 1e308)),
    "idwt2": lambda: idwt2([np.full((32, 32), 1e308)] * 4),
    "magnitude": lambda: magnitude(np.full((4, 4), 1.5e308 + 1.5e308j)),
    "fresnelet_analyze": lambda: fresnelet_analyze(np.full((64, 64), 3e306),
                                                   DESK_KEY.fresnel),
    "fresnelet_synthesize": lambda: fresnelet_synthesize([np.full((32, 32), 1e308)] * 4,
                                                         DESK_KEY.fresnel),
    # the secret's transform overflows to nan, which the report names as such
    "embed": lambda: embed(textured_image(64, 7), np.full((32, 32), 1e307), DESK_KEY),
}


@pytest.mark.parametrize("transform", OVERFLOWING)
def test_overflowing_transform_raises_not_inf(transform):
    # finite input whose result overflows: a DataError, and no numpy warning,
    # which the suite's warning filter would turn into an error
    with pytest.raises(DataError, match="non-finite"):
        OVERFLOWING[transform]()


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


def test_fortran_ordered_secret_at_zero_distance():
    # the distance-0 filter copies its input; the copy must be C-ordered for
    # _forward's in-place transform and float64 view
    host, secret = small_pair()
    key = StegoKey(fresnel=FresnelParams(632.8e-9, 0.0, 10e-6),
                   arnold_iterations=12, strength=0.08)
    expected = embed(host, secret, key)
    result = embed(host, np.asfortranarray(secret), key)
    assert result.embedded.tobytes() == expected.embedded.tobytes()
    assert result.report == expected.report


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


def test_key_order_cannot_leak_an_earlier_key():
    # the cat-map layout and the Fresnel factor keep the last key's arrays; a cache
    # keyed on too little would make a wrong key recover, or the right one fail
    host, secret = small_pair()
    key = REFERENCE_KEY
    embedded = embed(host, secret, key).embedded
    wrong_steps = StegoKey(key.fresnel, key.arnold_iterations + 1, key.strength)
    wrong_distance = StegoKey(
        FresnelParams(REFERENCE_PARAMS.wavelength, REFERENCE_PARAMS.distance * 1.1,
                      REFERENCE_PARAMS.pitch), key.arnold_iterations, key.strength)
    for wrong in (wrong_steps, wrong_distance):
        assert abs(cc(extract(embedded, host, wrong), secret)) <= 0.5
    assert cc(extract(embedded, host, key), secret) >= 0.999
    # the same FresnelParams at another side: a round trip alone would pass with
    # another side's factor, so the stage is checked against the exact factor,
    # within the bound of test_fresnel's test_inverse_matches_conjugate_factor
    small_host, small_secret = textured_image(64, 7), textured_image(32, 8, rolloff=6.0)
    small = embed(small_host, small_secret, key).embedded
    assert cc(extract(small, small_host, key), small_secret) >= 0.999
    expected = ifft2(fft2(small_secret, norm="ortho") * exact_factor(32, REFERENCE_PARAMS),
                     norm="ortho")
    error = np.linalg.norm(propagate(small_secret, key.fresnel) - expected)
    assert error <= 8e-15 * np.linalg.norm(small_secret)
    assert cc(extract(embedded, host, key), secret) >= 0.999


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(side=st.integers(2, 16).map(lambda k: 4 * k),
       steps=st.integers(0, 300),
       distance=st.integers(1, 2 ** 20).map(lambda m: m * 2.0 ** -10),
       turns=st.integers(1, 2 ** 16),
       pitch_scale=st.integers(-4, 4),
       wavelength_scale=st.integers(-4, 4))
def test_keys_with_equal_alpha_mod_2_give_equal_bytes(side, steps, distance, turns,
                                                      pitch_scale, wavelength_scale):
    # the stage sees only alpha = wavelength * distance / (N * pitch)**2 on the
    # secret's side N, and its factor only alpha mod 2. With power-of-two
    # wavelength and pitch, adding 2 * turns to alpha adds turns * N**2 * 2**-18
    # to the distance, and scaling the pitch by 2**b and the wavelength by 4**b
    # keeps alpha, all exactly; so do wavelength * 2**c and distance / 2**c
    n = side // 2
    first = FresnelParams(2.0 ** -21, distance, 2.0 ** -20)
    second = FresnelParams(2.0 ** (2 * pitch_scale + wavelength_scale - 21),
                           (distance + turns * n * n * 2.0 ** -18) * 2.0 ** -wavelength_scale,
                           2.0 ** (pitch_scale - 20))
    assert exact_alpha(n, second) - exact_alpha(n, first) == 2 * turns
    host, secret = textured_image(side, steps), textured_image(n, steps + 1, rolloff=6.0)
    keys = [StegoKey(p, steps, 0.08) for p in (first, second)]
    results = [embed(host, secret, key) for key in keys]
    assert results[0].embedded.tobytes() == results[1].embedded.tobytes()
    assert results[0].report == results[1].report
    for delivered in (results[0].embedded, quantize_u8(results[0].embedded)):
        for reader in ("modulus", "coherent"):
            a, b = (extract(delivered, host, key, reader=reader) for key in keys)
            assert a.tobytes() == b.tobytes(), reader


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


def test_non_2d_host_is_a_shape_error():
    with pytest.raises(ShapeError):
        embed(np.zeros((8, 8, 1)), np.zeros((4, 4)), DESK_KEY)


def test_bad_secret_samples_are_data_errors():
    host, secret = small_pair()
    nan_secret = secret.copy()
    nan_secret[5, 7] = np.nan
    for bad in (nan_secret, secret + 0j):
        with pytest.raises(DataError):
            embed(host, bad, DESK_KEY)


def test_samples_are_checked_before_shapes():
    # a grid's bad samples outrank another grid's wrong shape
    nan_grid = np.full((8, 8), np.nan)
    with pytest.raises(DataError):
        embed(np.zeros((6, 6)), nan_grid[:3, :3], DESK_KEY)
    with pytest.raises(DataError):
        extract(np.zeros((6, 6)), nan_grid, DESK_KEY)


def test_non_numeric_host_is_a_data_error():
    host, secret = small_pair()
    with pytest.raises(DataError, match="cannot convert grid samples"):
        embed(np.full(host.shape, "gray"), secret, DESK_KEY)


def scanned_shapes(monkeypatch, call):
    """The shape of every grid that call() passes to numpy's finite check."""
    scanned = []
    isfinite = np.isfinite

    def counting_isfinite(x, *args, **kwargs):
        scanned.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    call()
    return sorted(scanned)


def test_embed_scans_each_grid_once(monkeypatch):
    # the finite check runs once per input grid, at the public boundary, and
    # the Fresnel core takes the checked secret as it is
    host, secret = textured_image(64, 1), textured_image(32, 2)
    assert (scanned_shapes(monkeypatch, lambda: embed(host, secret, DESK_KEY))
            == [(32, 32), (64, 64)])


def test_extract_scans_each_grid_once(monkeypatch):
    # as embed; the one more scan is of the 32x32 result, which turns an
    # overflow at a tiny strength into DataError
    host, secret = textured_image(64, 1), textured_image(32, 2)
    embedded = embed(host, secret, DESK_KEY).embedded
    assert (scanned_shapes(monkeypatch, lambda: extract(embedded, host, DESK_KEY))
            == [(32, 32), (64, 64), (64, 64)])


def test_extract_cores_scan_nothing(monkeypatch):
    # _field, _extract and the operator's rmatvec take checked grids and
    # leave the overflow guard to extract's check of its result
    host, secret = textured_image(64, 1), textured_image(32, 2)
    embedded = embed(host, secret, DESK_KEY).embedded
    lattice = _layout(64, DESK_KEY.arnold_iterations)[0]
    diff = lattice(embedded) - lattice(host)
    rmatvec = _operator(DESK_KEY, 64).rmatvec
    assert scanned_shapes(monkeypatch, lambda: _field(diff, DESK_KEY, 64)) == []
    assert scanned_shapes(monkeypatch, lambda: _extract(embedded, host, DESK_KEY)) == []
    assert scanned_shapes(monkeypatch, lambda: rmatvec(diff.ravel())) == []


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


# 256, 512 and 1024 are the host sides of lib-256-onekey, cli-512-files and
# lib-1024-keychurn, so the chain is pinned at every benchmark size
@pytest.mark.parametrize("side", (12, 20, 100, 256, 512, 1024))
def test_embed_and_extract_equal_the_closed_form_chain_bit_for_bit(side):
    # steps 5, 7, 12, 13, 14 cover all three lattices: n = 0, 1, 2 (mod 3) write
    # the payload onto the even rows, the checkerboard or the even columns
    host = textured_image(side, side)
    secret = textured_image(side // 2, side + 1, rolloff=6.0)
    for steps in (5, 7, 12, 13, 14):
        key = StegoKey(DESK_KEY.fresnel, steps, DESK_KEY.strength)
        spec = ArnoldSpec(side, steps)
        d = np.zeros((side, side))
        d[0::2] = (idctn(propagate_inverse(secret, key.fresnel), norm="ortho")
                   * ((1 + 1j) * key.strength)).view(np.float64)
        embedded = embed(host, secret, key).embedded
        assert embedded.tobytes() == (host + unscramble(d, spec)).tobytes(), steps
        for delivered in (embedded, quantize_u8(embedded)):
            w = scramble(delivered - host, spec)[0::2] / (np.sqrt(2.0) * key.strength)
            chain = np.abs(propagate(dctn(w.view(np.complex128), norm="ortho"), key.fresnel))
            assert extract(delivered, host, key).tobytes() == chain.tobytes(), steps


@pytest.mark.parametrize("side", (12, 100, 256))
def test_pad_samples_are_never_read(side, monkeypatch):
    # _forward and _field work in a grid whose rows carry ROW_PAD samples more,
    # which padded zeroes and the scalings run over; with the whole buffer NaN,
    # pad included, every output keeps its bytes
    host = textured_image(side, side)
    secret = textured_image(side // 2, side + 1, rolloff=6.0)
    keys = [StegoKey(FresnelParams(632.8e-9, distance, 10e-6), steps, 0.08)
            for steps in (12, 13, 14) for distance in (0.05, 0.0)]  # each lattice
    y = np.random.default_rng(side).standard_normal(side * side // 2)

    def outputs():
        # (whether a public function returned it, the grid)
        for key in keys:
            embedded = embed(host, secret, key).embedded
            yield False, _forward(secret, key, side)
            yield False, _field(y.reshape(_layout(side, key.arnold_iterations)[1].shape),
                                key, side)
            yield True, embedded
            for delivered in (embedded, quantize_u8(embedded)):
                yield True, extract(delivered, host, key)
                yield True, extract(delivered, host, key, reader="coherent")

    clean = list(outputs())
    calls = []

    def poisoned(rows, cols, within=None):
        # embed's grid is the start of its output image, so this also checks
        # that embed writes every sample of the image after the transforms
        calls.append((rows, cols))
        flat, grid = _fft.padded(rows, cols, within)
        flat.fill(np.nan)
        return flat, grid

    monkeypatch.setattr(stego_pipeline, "padded", poisoned)
    dirty = list(outputs())
    assert calls and set(calls) == {(side // 2, side // 2)}
    for (_, before), (public, after) in zip(clean, dirty, strict=True):
        assert np.all(np.isfinite(after))
        assert after.tobytes() == before.tobytes()
        assert after.flags.c_contiguous or not public
    img = textured_image(side, 3)
    for grid in (propagate(img, DESK_KEY.fresnel), *fresnelet_analyze(img, DESK_KEY.fresnel),
                 dct2(img)):
        assert grid.flags.c_contiguous


@pytest.mark.parametrize("side", (12, 100, 256))
def test_extract_work_memory_is_never_read(side):
    # the CLI's extract hands _extract the embedded image it read as within,
    # where _field's padded grid then lies: a NaN-filled within must leave
    # every output's bytes as the library's, and so must the embedded image
    # itself, which the lattice difference has been taken from by then
    host = textured_image(side, side)
    secret = textured_image(side // 2, side + 1, rolloff=6.0)
    size = side // 2 * (side + _fft.ROW_PAD)
    for steps in (12, 13, 14):  # each lattice
        for distance in (0.05, 0.0):
            key = StegoKey(FresnelParams(632.8e-9, distance, 10e-6), steps, 0.08)
            embedded = embed(host, secret, key).embedded
            for delivered in (embedded, quantize_u8(embedded)):
                for reader in READERS:
                    expected = extract(delivered, host, key, reader=reader).tobytes()
                    poisoned = np.full((side, side), np.nan)
                    assert _extract(delivered, host, key, reader, poisoned).tobytes() == expected
                    assert np.all(np.isfinite(poisoned.ravel()[:size]))  # the grid was there
                    own = delivered.copy()
                    assert _extract(own, host, key, reader, own).tobytes() == expected


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(side=st.integers(1, 32).map(lambda k: 4 * k),
       steps=st.integers(0, 300),
       distance=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
       strength=st.floats(1e-3, 2.0),
       signed=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@example(side=512, steps=13, distance=0.05, strength=0.08, signed=False, seed=0)
@example(side=512, steps=14, distance=2.0, strength=1e-3, signed=True, seed=1)
def test_coherent_reader_returns_the_signed_secret(side, steps, distance, strength, signed,
                                                    seed):
    # on a float embed the coherent read is the secret itself and the modulus
    # read its absolute value, so the two agree exactly where x >= 0
    key = StegoKey(FresnelParams(632.8e-9, distance, 10e-6), steps, strength)
    rng = np.random.default_rng(seed)
    host = 255 * rng.random((side, side))
    secret = 255 * (rng.random((side // 2, side // 2)) - 0.5 * signed)
    embedded = embed(host, secret, key).embedded
    coherent = extract(embedded, host, key, reader="coherent")
    modulus = extract(embedded, host, key)
    bound = 1e-9 * np.max(np.abs(secret))
    assert np.max(np.abs(coherent - secret)) <= bound
    assert np.max(np.abs(modulus - np.abs(secret))) <= bound
    if not signed:
        assert np.max(np.abs(coherent - modulus)) <= bound


def test_extract_rejects_an_unknown_reader():
    host, secret = textured_image(16, 1), textured_image(8, 2)
    embedded = embed(host, secret, DESK_KEY).embedded
    for reader in ("Modulus", "", None, 1):
        with pytest.raises(ParameterError, match="reader must be one of modulus, coherent"):
            extract(embedded, host, DESK_KEY, reader=reader)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(side=st.integers(1, 32).map(lambda k: 4 * k),
       steps=st.tuples(st.integers(0, 100), st.sampled_from((0, 1, 2))).map(
           lambda kr: 3 * kr[0] + kr[1]),
       distance=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
       strength=st.floats(1e-3, 2.0),
       seed=st.integers(0, 2 ** 16))
# each lattice, n = 0, 1, 2 (mod 3), at the smallest and the largest side
@example(side=4, steps=0, distance=0.0, strength=1e-3, seed=0)
@example(side=4, steps=1, distance=2.0, strength=2.0, seed=1)
@example(side=128, steps=12, distance=0.05, strength=0.08, seed=2)
@example(side=128, steps=13, distance=0.0, strength=1.0, seed=3)
@example(side=128, steps=14, distance=2.0, strength=1e-3, seed=4)
def test_forward_and_field_are_an_operator_pair(side, steps, distance, strength, seed):
    # A = _forward is sqrt(2) * s times an isometry on real secrets: its adjoint
    # is 2 s**2 * Re(exp(-i pi/4) * _field) and _field(A x) = exp(i pi/4) * x
    key = StegoKey(FresnelParams(632.8e-9, distance, 10e-6), steps, strength)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((side // 2, side // 2))
    ax = _forward(x, key, side)
    y = rng.standard_normal(ax.shape)
    adjoint = 2 * strength ** 2 * (np.exp(-1j * np.pi / 4) * _field(y, key, side)).real
    assert (abs(np.vdot(ax, y) - np.vdot(x, adjoint))
            <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y))
    assert (np.max(np.abs(_field(ax, key, side) - (1 + 1j) / np.sqrt(2) * x))
            <= 1e-12 * np.max(np.abs(x)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(side=st.integers(1, 32).map(lambda k: 4 * k),
       steps=st.integers(0, 300),
       distance=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
       strength=st.floats(1e-3, 2.0),
       masked=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_operator_matvec_and_rmatvec_are_adjoint(side, steps, distance, strength, masked,
                                                 seed):
    key = StegoKey(FresnelParams(632.8e-9, distance, 10e-6), steps, strength)
    rng = np.random.default_rng(seed)
    mask = rng.random(_layout(side, steps)[1].shape) < 0.7 if masked else None
    a = _operator(key, side, mask)
    x = rng.standard_normal(a.shape[1])
    y = rng.standard_normal(a.shape[0])
    ax = a.matvec(x)
    assert ax.shape == y.shape
    assert (abs(np.vdot(ax, y) - np.vdot(x, a.rmatvec(y)))
            <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y))
    if not masked:
        # the unmasked operator is the one that keeps every lattice sample
        full = _operator(key, side, np.ones(_layout(side, steps)[1].shape, bool))
        assert full.shape == a.shape
        assert full.matvec(x).tobytes() == ax.tobytes()
        assert full.rmatvec(y).tobytes() == a.rmatvec(y).tobytes()


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(side=st.integers(4, 16).map(lambda k: 4 * k),
       steps=st.integers(0, 300),
       distance=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
       strength=st.floats(0.01, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_lsqr_from_zero_recovers_a_float_embed(side, steps, distance, strength, seed):
    # the difference on the lattice is A x exactly, so a least-squares solve
    # over the operator, with no start, returns the secret
    from scipy.sparse.linalg import lsqr
    key = StegoKey(FresnelParams(632.8e-9, distance, 10e-6), steps, strength)
    host = textured_image(side, seed)
    secret = textured_image(side // 2, seed + 1, rolloff=6.0)
    embedded = embed(host, secret, key).embedded
    lattice = _layout(side, steps)[0]
    solved = lsqr(_operator(key, side), (lattice(embedded) - lattice(host)).ravel())[0]
    assert cc(solved.reshape(secret.shape), secret) >= 0.999


def test_operator_needs_a_positive_strength():
    with pytest.raises(ParameterError):
        _operator(StegoKey(DESK_KEY.fresnel, 12, 0.0), 16)


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
# the benchmark's host sides, one step count for each class of n mod 3: they
# span many of the scoring kernel's leaf blocks; the draws stop at one block
@example(side_and_steps=(256, 12), strength=0.08, seed=7)
@example(side_and_steps=(512, 13), strength=0.08, seed=11)
@example(side_and_steps=(1024, 14), strength=2.0, seed=3)
def test_embed_report_equals_compare(side_and_steps, strength, seed):
    # embed scores its checked grids with compare's own kernel
    side, steps = side_and_steps
    host = textured_image(side, seed)
    secret = textured_image(side // 2, seed + 1, rolloff=6.0)
    key = StegoKey(fresnel=DESK_KEY.fresnel, arnold_iterations=steps, strength=strength)
    result = embed(host, secret, key)
    assert result.report == compare(host, result.embedded)
