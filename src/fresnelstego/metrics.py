"""Image-pair quality measures: MSE, PSNR, correlation, global SSIM.

SSIM here uses whole-image statistics (one window covering the grid), so
sliding-window implementations report different values for the same
pair. Variances are population variances (no Bessel correction). Every
measure but mse follows from five moments: the two means and the
deviation sums sum(da * da), sum(db * db) and sum(da * db).
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


@_quiet
def _moments(ga, gb):
    """Means of two checked grids and the deviation sums
    sum(da * da), sum(db * db) and sum(da * db)."""
    mu_a = float(ga.mean())
    mu_b = float(gb.mean())
    da = ga - mu_a
    db = gb - mu_b
    sab = float(np.sum(da * db))
    # squaring in place once sab is taken spares two full-grid buffers
    saa = float(np.sum(np.multiply(da, da, out=da)))
    return mu_a, mu_b, saa, float(np.sum(np.multiply(db, db, out=db))), sab


def _finite(*values) -> None:
    # finite samples whose squares or products overflow are a fault in the data
    if not all(map(math.isfinite, values)):
        raise DataError(f"samples too large to score: got {values}")


@_quiet
def _mse(ga, gb) -> float:
    d = ga - gb
    m = float(np.mean(np.multiply(d, d, out=d)))
    _finite(m)
    return m


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
    return _mse(*_pair(a, b))


def psnr_from_mse(value: float) -> float:
    """10 * log10(PEAK**2 / mse) in dB; math.inf for a zero mse."""
    value = checked_real("mse", value)
    if value < 0.0:
        raise ParameterError(f"mse must be non-negative, got {value}")
    if value == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / value)


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB against a peak of 255."""
    return psnr_from_mse(mse(a, b))


def cc(a, b) -> float:
    """Pearson correlation with means removed.

    Raises UndefinedCorrelationError when either image is constant, since
    the ratio is then 0/0 and no value is meaningful.
    """
    return _correlation(_moments(*_pair(a, b)))


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
    return _ssim_terms(_moments(ga, gb), ga.size, c1, c2)


def _report(m, moments, count) -> MetricsReport:
    terms = _ssim_terms(moments, count, DEFAULT_C1, DEFAULT_C2)
    # the SSIM breakdown's fields follow cc in MetricsReport, in the same order
    return MetricsReport(m, psnr_from_mse(m), _correlation(moments), *terms)


def compare(a, b) -> MetricsReport:
    """Every measure for one pair, from one validation and one moment pass."""
    ga, gb = _pair(a, b)
    return _report(_mse(ga, gb), _moments(ga, gb), ga.size)


def _row_sum(x, y) -> float:
    # row dot products added pairwise: no full-grid product, within 1e-12 of compare
    return float(np.sum(np.einsum("ij,ij->i", x, y)))


@_quiet
def compare_embedded(host, embedded) -> MetricsReport:
    """compare(host, embedded) for two checked float grids of one shape,
    with the same mse and its deviation sums taken row by row."""
    m = _mse(host, embedded)
    mu_h, mu_e = float(host.mean()), float(embedded.mean())
    dh, de = host - mu_h, embedded - mu_e
    moments = (mu_h, mu_e, _row_sum(dh, dh), _row_sum(de, de), _row_sum(dh, de))
    return _report(m, moments, host.size)
