"""Image-pair quality measures: MSE, PSNR, correlation, global SSIM.

SSIM here uses whole-image statistics (one window covering the grid), so
sliding-window implementations report different values for the same
pair. Variances are population variances (no Bessel correction). Every
measure but mse follows from five moments: the two means and the
deviation sums sum(da * da), sum(db * db) and sum(da * db).

One kernel, _scores, takes every sum. It walks the grids in row-major
order in leaf blocks of at most _LEAF samples, computes each block's
differences or deviations in one small reused workspace, and adds the
block sums where numpy's pairwise add.reduce splits a contiguous run:
at half the length rounded down to a multiple of 8. So each sum equals
np.sum over the whole-grid temporary bit for bit, with no such
temporary allocated. A grid that is not C-contiguous is first copied
into row-major order, so every memory layout of the same samples scores
the same.

Scores raise DataError when a sum overflows and UndefinedCorrelationError
when a deviation sum is 0. _bounded rules both out from four min/max
reductions: with every sample within +-1e60, no sum comes near overflow,
and with each grid spanning at least 1e-60, its extreme samples lie at
least 5e-61 from any mean, so neither deviation sum nor their product
can reach 0. A caller that needs only to know whether _compare would
raise can test _bounded and skip the kernel when it holds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, ParameterError, ShapeError, UndefinedCorrelationError
from .numerics import as_image, checked_real

PEAK = 255.0
DEFAULT_C1 = (0.01 * PEAK) ** 2
DEFAULT_C2 = (0.03 * PEAK) ** 2
# overflow in a score's array arithmetic is reported once, as the DataError
# of _finite, and not also as a numpy RuntimeWarning
_quiet = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class MetricsReport:
    """Full comparison of one image pair. ssim is the product of its three
    component terms."""

    mse: float
    psnr_db: float
    cc: float
    ssim: float
    luminance: float
    contrast: float
    structure: float


class SsimBreakdown(NamedTuple):
    ssim: float
    luminance: float
    contrast: float
    structure: float


def _pair(a, b):
    ga = as_image(a)
    gb = as_image(b)
    if ga.shape != gb.shape:
        raise ShapeError(f"shape mismatch: {ga.shape} vs {gb.shape}")
    return ga, gb


def _finite(*values) -> None:
    # finite samples whose squares or products overflow are a fault in the data
    if not all(map(math.isfinite, values)):
        raise DataError(f"samples too large to score: got {values}")


# samples per leaf block; at least numpy's pairwise block of 128, so that
# a leaf's add.reduce is the pairwise sum numpy would take of that run
_LEAF = 1 << 14


def _pairwise(leaf, args, lo, hi):
    """leaf(lo, hi, *args), a vector of sums over flat samples [lo, hi),
    added where numpy's pairwise add.reduce splits the run. Module-level:
    a recursive closure would hold the grids in a reference cycle."""
    n = hi - lo
    if n <= _LEAF:
        return leaf(lo, hi, *args)
    mid = lo + n // 2 - n // 2 % 8
    return _pairwise(leaf, args, lo, mid) + _pairwise(leaf, args, mid, hi)


def _raw_sums(lo, hi, a, b, w, squares, moments):
    # sum(a) and sum(b) if moments, then sum((a - b)**2) if squares
    x, y = a[lo:hi], b[lo:hi]
    sums = [np.add.reduce(x), np.add.reduce(y)] if moments else []
    if squares:
        d = np.subtract(x, y, out=w[0, :hi - lo])
        sums.append(np.add.reduce(np.multiply(d, d, out=d)))
    return np.array(sums)


def _deviation_sums(lo, hi, a, b, w, mu_a, mu_b):
    # sum(da * da), sum(db * db) and sum(da * db): the moments' order
    w = w[:, :hi - lo]
    da = np.subtract(a[lo:hi], mu_a, out=w[0])
    db = np.subtract(b[lo:hi], mu_b, out=w[1])
    np.multiply(da, db, out=w[2])
    np.multiply(da, da, out=da)
    np.multiply(db, db, out=db)
    return np.add.reduce(w, axis=1)


@_quiet
def _scores(ga, gb, squares=True, moments=True):
    """(mse, moments) of two checked grids of one shape, the mse None unless
    squares and the moments None unless moments. The moments are (mu_a,
    mu_b, sum(da * da), sum(db * db), sum(da * db)). Nothing is checked
    here: each score checks only the values it uses."""
    a, b = ga.ravel(), gb.ravel()
    n = a.size
    w = np.empty((3, min(n, _LEAF)))
    sums = _pairwise(_raw_sums, (a, b, w, squares, moments), 0, n)
    m = float(sums[-1]) / n if squares else None
    if not moments:
        return m, None
    mu_a, mu_b = float(sums[0]) / n, float(sums[1]) / n
    deviations = _pairwise(_deviation_sums, (a, b, w, mu_a, mu_b), 0, n)
    return m, (mu_a, mu_b, *map(float, deviations))


def _correlation(moments) -> float:
    _, _, saa, sbb, sab = moments
    product = saa * sbb
    _finite(product)
    if product == 0.0:
        raise UndefinedCorrelationError(
            "correlation is undefined when an input has zero variance")
    return sab / math.sqrt(product)


def _ssim_terms(moments, count, c1, c2) -> SsimBreakdown:
    mu_a, mu_b, saa, sbb, sab = moments
    var_a, var_b, cov = saa / count, sbb / count, sab / count
    # identical inputs score exactly 1: sqrt(v * v) == v, unlike sqrt(v)**2
    sigma_ab = math.sqrt(var_a * var_b)
    c3 = c2 / 2.0
    try:
        luminance = (2.0 * mu_a * mu_b + c1) / (mu_a * mu_a + mu_b * mu_b + c1)
        contrast = (2.0 * sigma_ab + c2) / (var_a + var_b + c2)
        structure = (cov + c3) / (sigma_ab + c3)
    except ZeroDivisionError:
        raise UndefinedCorrelationError("an SSIM term is 0/0 under zero constants") from None
    _finite(luminance, contrast, structure)
    return SsimBreakdown(luminance * contrast * structure, luminance, contrast, structure)


def mse(a, b) -> float:
    """Mean squared difference."""
    m = _scores(*_pair(a, b), moments=False)[0]
    _finite(m)
    return m


def psnr_from_mse(value: float) -> float:
    """10 * log10(PEAK**2 / mse) in dB; math.inf for a zero mse."""
    value = checked_real("mse", value)
    if value < 0.0:
        raise ParameterError(f"mse must be non-negative, got {value}")
    if value == 0.0:
        return math.inf
    ratio = PEAK * PEAK / value
    if ratio == math.inf:  # value below PEAK**2 / float max: subtract the logs
        return 10.0 * (math.log10(PEAK * PEAK) - math.log10(value))
    return 10.0 * math.log10(ratio)


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB against a peak of 255."""
    return psnr_from_mse(mse(a, b))


def cc(a, b) -> float:
    """Pearson correlation with means removed.

    Raises UndefinedCorrelationError when either image is constant, since
    the ratio is then 0/0 and no value is meaningful.
    """
    return _correlation(_scores(*_pair(a, b), squares=False)[1])


def ssim(a, b, c1: float = DEFAULT_C1, c2: float = DEFAULT_C2) -> SsimBreakdown:
    """Global SSIM with its three comparison terms.

        luminance = (2*mu_a*mu_b + c1) / (mu_a**2 + mu_b**2 + c1)
        contrast  = (2*sigma_a*sigma_b + c2) / (sigma_a**2 + sigma_b**2 + c2)
        structure = (cov + c3) / (sigma_a*sigma_b + c3), with c3 = c2 / 2

    so identical inputs score 1. c1 and c2 are finite and non-negative;
    a term left 0/0 by zero constants raises UndefinedCorrelationError.
    """
    c1, c2 = checked_real("c1", c1), checked_real("c2", c2)
    if min(c1, c2) < 0.0:
        raise ParameterError(f"c1 and c2 must be non-negative, got {c1} and {c2}")
    ga, gb = _pair(a, b)
    return _ssim_terms(_scores(ga, gb, squares=False)[1], ga.size, c1, c2)


def _compare(ga, gb) -> MetricsReport:
    """compare for two checked grids of one shape: embed scores its own
    grids through this, so its report equals compare's bit for bit."""
    m, moments = _scores(ga, gb)
    _finite(m)
    terms = _ssim_terms(moments, ga.size, DEFAULT_C1, DEFAULT_C2)
    # the SSIM breakdown's fields follow cc in MetricsReport, in the same order
    return MetricsReport(m, psnr_from_mse(m), _correlation(moments), *terms)


# _bounded's limits: see its proof before changing either
_SAMPLE_LIMIT = 1e60
_MIN_SPAN = 1e-60


def _bounded(ga, gb) -> bool:
    """True when _compare(ga, gb) cannot raise, for two checked grids of one
    shape: each has at most 2**40 samples, all within +-1e60, and a max - min
    of at least 1e-60. False does not mean _compare raises.

    Proof, with N <= 2**40 samples, B = 1e60 and u = 2**-53 the unit roundoff.
    Rounding moves a sum of N terms by at most about N u = 1.2e-4 of the sum
    of their magnitudes, even summed one term at a time, which changes none
    of the figures below.
    - No value overflows. Every sample and mean lies within B and every
      difference or deviation within 2B, so each sum of squares or products
      is at most N * 4B**2 = 4.4e132, and the mse, variances and covariance
      at most 4e120. The product of two deviation sums is at most 2e265,
      var_a * var_b at most 1.6e241, all below the float maximum 1.8e308.
      Each SSIM term divides by at least c1, c2 or c2 / 2, all positive, and
      is at most 1 in magnitude up to rounding (2xy <= x**2 + y**2 and
      Cauchy-Schwarz), as is cc: cc and the SSIM fields are finite and no
      term is 0/0. The mse is finite and non-negative, so psnr_from_mse
      returns.
    - No deviation sum is 0. A grid's exact span is at least 1e-60 / (1 + u),
      so for any mean mu one extreme sample x has |x - mu| >= 5e-61 / (1 + u),
      a normal float. Rounding x - mu and its square loses at most a factor
      (1 - u)**3, and a rounded sum of non-negative terms is at least its
      largest term, since rounding is monotone. So sum(da * da) and
      sum(db * db) are each at least 0.99 * (1e-60 / 2)**2 = 2.4e-121, and
      their rounded product at least 6e-242, above the smallest normal float
      2.2e-308: cc's product is not 0.
    """
    if ga.size > 1 << 40:
        return False
    for g in (ga, gb):
        lo, hi = float(g.min()), float(g.max())
        if not (-_SAMPLE_LIMIT <= lo and hi <= _SAMPLE_LIMIT and hi - lo >= _MIN_SPAN):
            return False
    return True


def compare(a, b) -> MetricsReport:
    """Every measure for one pair, from one validation and one call of the
    scoring kernel."""
    return _compare(*_pair(a, b))
