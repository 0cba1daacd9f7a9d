"""End-to-end embedding and extraction, keyed on StegoKey.

Embedding: scramble the host, split it into wavelet bands, turn the
secret into two real coded images (the real and imaginary parts of its
complex coefficient quad, each synthesized back up to band size), add
each coded image onto the DCT coefficients of two host bands scaled by
the strength, then invert the wavelet step and the scrambling.

Extraction is non-blind: it needs the original host and the same key.
Differences of DCT coefficients between embedded and host bands recover
the coded images, whose own wavelet bands reassemble the complex quad;
inverse propagation of the synthesized field and the complex modulus
give back the secret. Band pairs are averaged, so quantization noise in
a delivered 8-bit embedded image partially cancels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arnold import ArnoldSpec, scramble, unscramble
from .errors import ParameterError, ShapeError
from .fresnel import FresnelParams, _checked_length
from .fresnelet import ComplexQuad, fresnelet_analyze, fresnelet_synthesize, magnitude
from .metrics import MetricsReport, compare
from .numerics import ImageGrid, as_image, is_power_of_two
from .wavelet_dct import QuadBands, dct2, dwt2, idct2, idwt2


@dataclass(frozen=True)
class StegoKey:
    """Everything a counterpart needs: propagation geometry, scrambling
    step count, and embedding strength.

    strength = 0 is accepted so that embedding can run as a diagnostic
    identity; extraction rejects it because recovery divides by it.
    """

    fresnel: FresnelParams
    arnold_iterations: int
    strength: float

    def __post_init__(self):
        if not isinstance(self.fresnel, FresnelParams):
            raise ParameterError("fresnel must be a FresnelParams instance")
        n = self.arnold_iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ParameterError(f"arnold_iterations must be an integer, got {n!r}")
        if int(n) < 0:
            raise ParameterError(f"arnold_iterations must be non-negative, got {n}")
        object.__setattr__(self, "arnold_iterations", int(n))
        s = _checked_length("strength", self.strength)
        if s < 0.0:
            raise ParameterError(f"strength must be non-negative, got {s}")
        object.__setattr__(self, "strength", s)


class EmbedResult(NamedTuple):
    embedded: ImageGrid
    report: MetricsReport


def _checked_host(img) -> ImageGrid:
    g = as_image(img)
    r, c = g.shape
    if r != c or not is_power_of_two(r):
        raise ShapeError(f"host must be square with a power-of-two side, got {r}x{c}")
    return g


def _insert(band, payload, strength):
    # payload rides on the band's DCT coefficients, not on its samples
    return idct2(dct2(band) + strength * payload)


def embed(host, secret, key: StegoKey) -> EmbedResult:
    """Hide secret inside host. The secret must be square with side half
    the host's. Returns the float embedded image plus a quality report
    against the original host."""
    host_grid = _checked_host(host)
    secret_grid = as_image(secret)
    side = host_grid.shape[0]
    expected = (side // 2, side // 2)
    if secret_grid.shape != expected:
        raise ShapeError(
            f"secret must be {expected[0]}x{expected[1]} for a {side}x{side} host, "
            f"got {secret_grid.shape[0]}x{secret_grid.shape[1]}")

    spec = ArnoldSpec(side, key.arnold_iterations)
    bands = dwt2(scramble(host_grid, spec))

    quad = fresnelet_analyze(secret_grid, key.fresnel)
    coded_r = idwt2(QuadBands(quad.ll.real, quad.lh.real, quad.hl.real, quad.hh.real))
    coded_i = idwt2(QuadBands(quad.ll.imag, quad.lh.imag, quad.hl.imag, quad.hh.imag))

    s = key.strength
    carrying = QuadBands(
        _insert(bands.ll, coded_r, s),
        _insert(bands.lh, coded_r, s),
        _insert(bands.hl, coded_i, s),
        _insert(bands.hh, coded_i, s),
    )
    embedded = unscramble(idwt2(carrying), spec)
    return EmbedResult(embedded, compare(host_grid, embedded))


def extract(embedded, host, key: StegoKey) -> ImageGrid:
    """Recover the hidden image from an embedded image given the original
    host and the exact key."""
    embedded_grid = _checked_host(embedded)
    host_grid = _checked_host(host)
    if embedded_grid.shape != host_grid.shape:
        raise ShapeError(
            f"shape mismatch: embedded {embedded_grid.shape} vs host {host_grid.shape}")
    if key.strength == 0.0:
        raise ParameterError("strength must be positive for extraction")

    spec = ArnoldSpec(embedded_grid.shape[0], key.arnold_iterations)
    eb = dwt2(scramble(embedded_grid, spec))
    hb = dwt2(scramble(host_grid, spec))

    # the payload was added to DCT coefficients, so it is read back there;
    # no inverse DCT belongs in this direction
    half = 2.0 * key.strength
    coded_r = ((dct2(eb.ll) - dct2(hb.ll)) + (dct2(eb.lh) - dct2(hb.lh))) / half
    coded_i = ((dct2(eb.hl) - dct2(hb.hl)) + (dct2(eb.hh) - dct2(hb.hh))) / half

    rb = dwt2(coded_r)
    ib = dwt2(coded_i)
    quad = ComplexQuad(
        rb.ll + 1j * ib.ll,
        rb.lh + 1j * ib.lh,
        rb.hl + 1j * ib.hl,
        rb.hh + 1j * ib.hh,
    )
    return magnitude(fresnelet_synthesize(quad, key.fresnel))
