import gc
import math
import re
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresnelstego import (DEFAULT_C2, DataError, FresnelParams, ParameterError,
                          ShapeError, StegoKey, UndefinedCorrelationError, cc,
                          compare, embed, metrics, mse, psnr, psnr_from_mse, ssim)
from fresnelstego.metrics import _bounded, _compare, _scores
from synth import textured_image


def test_mse_trivials():
    a = textured_image(32, 1)
    assert mse(a, a) == 0.0
    zeros = np.zeros((8, 8))
    assert mse(zeros, np.full((8, 8), 255.0)) == 65025.0
    assert mse(zeros, np.ones((8, 8))) == 1.0
    assert mse(np.ones((5, 7)), np.zeros((5, 7))) == 1.0


def test_mse_symmetry():
    a = textured_image(16, 2)
    b = textured_image(16, 3)
    assert mse(a, b) == mse(b, a)


def test_psnr_trivials():
    assert psnr_from_mse(65025.0) == 0.0
    assert psnr_from_mse(0.0) == math.inf
    a = textured_image(16, 4)
    assert psnr(a, a) == math.inf
    assert psnr(np.zeros((4, 4)), np.full((4, 4), 255.0)) == 0.0


def test_psnr_frozen_value():
    assert psnr_from_mse(4.3273) == pytest.approx(41.76863356164172, abs=1e-9)


def test_psnr_monotone_in_mse():
    # below 65025 / float max the ratio overflows, but the score stays finite
    values = [psnr_from_mse(m) for m in (1e-310, 1e-305, 1e-300, 0.5, 1.0, 4.0, 65.0,
                                         1000.0, 65025.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(10.0 * (math.log10(65025.0) + 310.0))


def test_psnr_rejects_negative_mse():
    for bad in (-1.0, math.inf, math.nan, None, "65025", 10 ** 400):
        with pytest.raises(ParameterError):
            psnr_from_mse(bad)


def test_overflowing_pair_is_a_data_error():
    # finite samples whose squares overflow are a fault in the data; the
    # ParameterError of psnr_from_mse is for a caller's bad scalar
    big = 1e300 * textured_image(16, 6) / 255.0
    for a, b in ((big, -big), (np.full((8, 8), 1e300), np.full((8, 8), -1e300))):
        with pytest.raises(DataError):
            compare(a, b)
    # every moment is finite here, but saa * sbb and var_a * var_b overflow
    huge = 1e80 * textured_image(16, 6)
    for score in (compare, cc, ssim):
        with pytest.raises(DataError):
            score(huge, huge)
    # the mse overflows, and so does the luminance term's mu_a * mu_b; ssim
    # neither computes nor checks the mse, so it names its own terms
    flat = np.full((8, 8), 1e200)
    for score in (mse, psnr):
        with pytest.raises(DataError, match=re.escape("(inf,)")):
            score(flat, -flat)
    with pytest.raises(DataError, match=re.escape("(nan, nan, nan)")):
        ssim(flat, -flat)


def test_non_2d_pair_is_a_shape_error():
    with pytest.raises(ShapeError):
        compare(np.zeros(4), np.zeros(4))


def test_cc_trivials():
    a = textured_image(32, 5)
    assert cc(a, a) == pytest.approx(1.0, abs=1e-12)
    assert cc(a, 255.0 - a) == pytest.approx(-1.0, abs=1e-12)
    assert cc(a, 2.0 * a + 7.0) == pytest.approx(1.0, abs=1e-12)
    assert cc(a, -3.0 * a + 10.0) == pytest.approx(-1.0, abs=1e-12)


def test_cc_affine_invariance_sampled():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 255, size=(16, 16))
        b = rng.uniform(0, 255, size=(16, 16))
        base = cc(a, b)
        assert cc(a, 1.75 * b + 11.0) == pytest.approx(base, abs=1e-12)
        assert cc(0.5 * a - 4.0, b) == pytest.approx(base, abs=1e-12)
        assert cc(a, -2.0 * b + 3.0) == pytest.approx(-base, abs=1e-12)
        assert abs(base) <= 1.0 + 1e-12


def test_cc_undefined_for_constant_inputs():
    flat = np.full((8, 8), 9.0)
    varied = textured_image(8, 6)
    with pytest.raises(UndefinedCorrelationError):
        cc(flat, varied)
    with pytest.raises(UndefinedCorrelationError):
        cc(varied, flat)
    with pytest.raises(UndefinedCorrelationError):
        cc(flat, flat)
    with pytest.raises(UndefinedCorrelationError):
        compare(flat, varied)
    with pytest.raises(UndefinedCorrelationError):
        compare(varied, flat)


def test_ssim_identical_images():
    a = textured_image(32, 7)
    result = ssim(a, a)
    assert result == (1.0, 1.0, 1.0, 1.0)


def test_ssim_identical_regardless_of_constants():
    a = textured_image(16, 8)
    for c1, c2 in ((6.5025, 58.5225), (1.0, 1.0), (0.0, 0.0), (100.0, 0.5)):
        result = ssim(a, a, c1=c1, c2=c2)
        assert result.luminance == pytest.approx(1.0, abs=1e-12)
        assert result.contrast == pytest.approx(1.0, abs=1e-12)
        assert result.structure == pytest.approx(1.0, abs=1e-12)


def test_ssim_constants_are_checked():
    zeros = np.zeros((8, 8))
    for bad in (math.nan, math.inf, -1.0, "x", None, True):
        with pytest.raises(ParameterError):
            ssim(zeros, zeros, c1=bad)
        with pytest.raises(ParameterError):
            ssim(zeros, zeros, c2=bad)
    # zero constants leave the luminance of two zero-mean grids 0/0
    with pytest.raises(UndefinedCorrelationError):
        ssim(zeros, zeros, 0.0, 0.0)


def test_ssim_luminance_at_constant_extremes():
    c1 = (0.01 * 255.0) ** 2
    result = ssim(np.zeros((8, 8)), np.full((8, 8), 255.0))
    assert result.luminance == pytest.approx(c1 / (255.0 ** 2 + c1), rel=1e-12)
    assert result.luminance < 1e-3


def test_ssim_bounded_on_random_pairs():
    # uncorrelated noise can push the structure term slightly negative, so
    # the bound is [-1, 1]; positively correlated pairs stay in [0, 1]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 255, size=(16, 16))
        b = rng.uniform(0, 255, size=(16, 16))
        result = ssim(a, b)
        assert -1.0 - 1e-12 <= result.ssim <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(side=st.integers(4, 48), seed=st.integers(0, 2**16), offset=st.floats(-40.0, 40.0),
       pairing=st.sampled_from(("shift", "clip", "other")))
def test_compare_report_consistency(side, seed, offset, pairing):
    a = textured_image(side, seed)
    if pairing == "shift":  # constant difference: only the means differ
        b = a + offset
    elif pairing == "clip":
        b = np.clip(a + offset, 0.0, 255.0)
    else:
        b = textured_image(side, seed + 1) + offset
    report = compare(a, b)
    assert report.mse == mse(a, b)
    assert report.psnr_db == psnr(a, b)
    assert report.cc == cc(a, b)
    assert (report.ssim, report.luminance, report.contrast, report.structure) == ssim(a, b)
    assert report.ssim == report.luminance * report.contrast * report.structure
    # the shared deviation sums divided by the count equal np.mean bit for bit
    da, db = a - a.mean(), b - b.mean()
    var_a, var_b = np.mean(da * da), np.mean(db * db)
    sigmas = 2.0 * math.sqrt(var_a * var_b)
    assert report.contrast == (sigmas + DEFAULT_C2) / (var_a + var_b + DEFAULT_C2)
    assert report.mse >= 0.0
    assert -1.0 - 1e-12 <= report.cc <= 1.0 + 1e-12


def test_compare_identical_images():
    a = textured_image(16, 12)
    report = compare(a, a)
    assert report.mse == 0.0
    assert report.psnr_db == math.inf
    assert report.cc == 1.0
    assert report.ssim == 1.0


def test_shape_and_data_rejection():
    with pytest.raises(ShapeError):
        mse(np.zeros((4, 4)), np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        ssim(np.zeros((4, 4)), np.zeros((8, 8)))
    bad = np.zeros((4, 4))
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        mse(bad, np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        compare(np.zeros((4, 4)), np.zeros((4, 8)))
    with pytest.raises(DataError):
        compare(np.zeros((4, 4)), bad)


def _spread_pair(side, seed):
    # non-integer samples over many magnitudes, so every sum rounds
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 255.0, (side, side)) * 10.0 ** rng.uniform(-3.0, 3.0, (side, side))
    return a, a + rng.standard_normal((side, side)) * 7.5


def _whole_grid_sums(a, b):
    d = a - b
    mu_a, mu_b = float(a.mean()), float(b.mean())
    da, db = a - mu_a, b - mu_b
    moments = (mu_a, mu_b, float(np.sum(da * da)), float(np.sum(db * db)),
               float(np.sum(da * db)))
    return float(np.mean(d * d)), moments


@pytest.mark.parametrize("side", [100, 129, 181, 362, 500])
def test_kernel_sums_equal_whole_grid_sums(side):
    # leaves of at most 16384 samples: one at side 100, two at 129, 16 at 500
    a, b = _spread_pair(side, side)
    assert _scores(a, b) == _whole_grid_sums(a, b)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 90), cols=st.integers(1, 90), seed=st.integers(0, 2 ** 16))
def test_kernel_sums_equal_whole_grid_sums_at_the_smallest_leaf(rows, cols, seed):
    # a leaf of numpy's own pairwise block, 128, splits even small grids often
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1e3, 1e3, (rows, cols))
    b = a * rng.uniform(0.5, 1.5, (rows, cols))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_LEAF", 128)
        m, moments = _whole_grid_sums(a, b)
        assert _scores(a, b) == (m, moments)
        assert _scores(a, b, moments=False) == (m, None)
        assert _scores(a, b, squares=False) == (None, moments)


def test_every_layout_scores_as_its_row_major_copy():
    # the kernel reads samples in row-major order: a Fortran-ordered or strided
    # grid scores as its C-contiguous copy, bit for bit
    a, b = _spread_pair(362, 3)
    wide_a, wide_b = _spread_pair(724, 4)
    for x, y in ((np.asfortranarray(a), b), (np.asfortranarray(a), np.asfortranarray(b)),
                 (a.T, b.T), (wide_a[::2, 1::2], wide_b[1::2, ::2])):
        cx, cy = np.ascontiguousarray(x), np.ascontiguousarray(y)
        assert _scores(x, y) == _scores(cx, cy)
        assert compare(x, y) == compare(cx, cy)


def _within(g):
    # the bound stated on the samples: all within +-1e60, max - min >= 1e-60
    return float(np.abs(g).max()) <= 1e60 and float(np.ptp(g)) >= 1e-60


def _at_least_span(lo):
    # lo and the nearest float at least 1e-60 above it
    hi = lo + 1e-60
    while hi - lo < 1e-60:
        hi = np.nextafter(hi, math.inf)
    return lo, hi


# (min, max) of a grid within the bound: wide spans, the extremes themselves,
# and spans of exactly 1e-60 at offsets near zero
_SPANS = st.one_of(
    st.tuples(st.floats(-1e60, 1e60), st.floats(-1e60, 1e60)).map(sorted).filter(
        lambda ends: ends[1] - ends[0] >= 1e-60),
    st.sampled_from([(-1e60, 1e60), (0.0, 1e60), (-1e60, 0.0), (0.0, 1e-60),
                     (-1e-60, 0.0), (5e-324, 1e-60), (-1e-60, -5e-324)]),
    st.floats(-1e-58, 1e-58).map(_at_least_span))


@st.composite
def _grid_within(draw, shape):
    lo, hi = draw(_SPANS)
    size = shape[0] * shape[1]
    samples = draw(st.lists(st.floats(lo, hi), min_size=size - 2, max_size=size - 2))
    return np.array(draw(st.permutations([lo, hi, *samples]))).reshape(shape)


@st.composite
def _pairs_within(draw):
    shape = draw(st.sampled_from([(1, 2), (2, 2), (3, 5), (8, 8)]))
    a = draw(_grid_within(shape))
    how = draw(st.sampled_from(("independent", "offset", "equal")))
    if how == "independent":
        return a, draw(_grid_within(shape))
    if how == "offset":  # b's span may round below 1e-60: then the bound fails
        return a, a + draw(st.floats(-1e-40, 1e-40))
    return a, a.copy()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair=_pairs_within())
def test_bound_rules_out_every_compare_error(pair):
    a, b = pair
    within = _within(a) and _within(b)
    assert _bounded(a, b) == within
    if within:
        report = _compare(a, b)
        fields = asdict(report)
        del fields["psnr_db"]
        assert all(map(math.isfinite, fields.values())), report
        assert math.isfinite(report.psnr_db) or report.mse == 0.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pair=_pairs_within(), which=st.integers(0, 1), at=st.integers(0, 63),
       beyond=st.one_of(st.just(1e61), st.floats(1e61, 1e308)), sign=st.sampled_from((1, -1)),
       constant=st.booleans())
def test_bound_fails_beyond_1e60_or_for_a_constant_grid(pair, which, at, beyond, sign,
                                                       constant):
    grids = [g.copy() for g in pair]
    g = grids[which]
    if constant:
        g[...] = g.flat[at % g.size]
    else:
        g.flat[at % g.size] = sign * beyond
    assert not _bounded(*grids)


def test_scores_keep_no_input_alive():
    # a reference cycle would keep each scored grid alive until gc runs
    host, secret = textured_image(256, 1), textured_image(128, 2, rolloff=6.0)
    key = StegoKey(FresnelParams(632.8e-9, 0.05, 10e-6), arnold_iterations=13, strength=0.08)
    gc.disable()
    try:
        a, b = _spread_pair(200, 5)
        refs = [weakref.ref(a), weakref.ref(b)]
        compare(a, b)
        del a, b
        assert all(ref() is None for ref in refs)
        ref = weakref.ref(host)
        embed(host, secret, key)
        del host
        assert ref() is None
    finally:
        gc.enable()
