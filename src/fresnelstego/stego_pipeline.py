"""End-to-end embedding and extraction, keyed on StegoKey.

The paper's chain scrambles the host, splits it into Haar bands, and
adds s * idwt2(Re/Im of the Fresnelet quad of the secret) onto the DCT
coefficients of the band pairs (ll, lh) and (hl, hh). Every stage is
linear, so embed adds A x, A = _forward being one real-linear map of the
secret x, onto one fixed lattice of host pixels and leaves the others.
A is sqrt(2) * s times an isometry: (1 + i) * s times a unitary complex
map on real x, read as (real, imag) pairs. So, with _field its complex
inverse up to that factor, _field(A x) = exp(i pi/4) * x for every key,

    A^T y = 2 s**2 * Re(exp(-i pi/4) * _field(y)),  A^+ = A^T / (2 s**2),

and extract's |_field(lattice(embedded) - lattice(host))| is the paper's
reader for any difference, noisy 8-bit deliveries included. Its coherent
reader is A^+ y = Re(exp(-i pi/4) * _field(y)), the least-squares secret:
signed, where the modulus returns |x|, and free of the quadrature half
that clipping leaves. Extraction is non-blind: it needs the original host
and the same key.

_forward, _field, _embed and _extract scan no samples and, under _embed's
and _extract's _quiet, warn of nothing; embed's report and extract's
check of its result raise DataError where their arithmetic overflows.

The host side must be divisible by 4: the Fresnelet applies its Haar
step to the secret, of half the host's side, so the paper's chain is
defined only when that half side is even.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._fft import dctn, idctn, padded
from .arnold import _layout
from .errors import ParameterError, ShapeError
from .fresnel import FresnelParams, _filter
from .metrics import MetricsReport, _compare
from .numerics import (ImageGrid, _quiet, as_image, checked_count, checked_real,
                       checked_square)


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
        object.__setattr__(self, "arnold_iterations",
                           checked_count("arnold_iterations", self.arnold_iterations, 0))
        s = checked_real("strength", self.strength)
        if s < 0.0:
            raise ParameterError(f"strength must be non-negative, got {s}")
        object.__setattr__(self, "strength", s)


READERS = ("modulus", "coherent")  # extract's readers, the paper's first


class EmbedResult(NamedTuple):
    embedded: ImageGrid
    report: MetricsReport


def _forward(secret_grid: ImageGrid, key: StegoKey, side: int,
             within: np.ndarray | None = None) -> np.ndarray:
    """A x for a checked secret: s * D[0::2] as (real, imag) pairs, in the
    shape of a side x side host's lattice view. The transforms run in the
    start of within, a C-ordered float64 array, if it is long enough.

    With F = propagate(secret) and P + iQ = idct2(F), on Re and Im alike
    idct2(dct2(band) + s * Re F) = band + s * P, and idwt2(P, P, Q, Q) = D
    with D[0::2, 0::2] = P + Q, D[0::2, 1::2] = P - Q and odd rows zero,
    so the host gains s * unscramble(D), and as complex pairs D[0::2] =
    (1 + i) * idct2(propagate_inverse(secret)), the secret being real and
    the factor even. unscramble(D) is zero off one lattice fixed by n mod 3
    (arnold's parity rule); arnold._layout gives the order within it."""
    flat, coded = padded(side // 2, side // 2, within)
    idctn(_filter(secret_grid, key.fresnel, True, coded), overwrite=True)
    pairs = flat.view(np.complex128)  # coded's samples and the zero pads, in one pass
    pairs *= (1 + 1j) * key.strength
    return flat[_layout(side, key.arnold_iterations)[1]]


def _field(diff_lattice: np.ndarray, key: StegoKey, side: int,
           within: np.ndarray | None = None) -> np.ndarray:
    """propagate(dctn(w / (sqrt(2) * s))), w being a difference y in a side x
    side host's lattice shape scattered back into D[0::2]'s order as complex
    pairs. It undoes _forward's transforms in reverse, so _field(A x) =
    (1 + i) / sqrt(2) * x, and its modulus is the paper's average over the
    two band pairs: |propagate_inverse(conj Y)| = |propagate(Y)|. The result
    is the padded work grid itself, so its rows are not contiguous; it lies
    in the start of within, as in _forward, if that is long enough."""
    flat, w = padded(side // 2, side // 2, within)
    flat[_layout(side, key.arnold_iterations)[1]] = diff_lattice
    del diff_lattice  # extract's temporary, freed before the transforms
    # before the DCT, as in the closed-form chain; one pass over w and the zero pads
    flat /= np.sqrt(2.0) * key.strength
    return _filter(dctn(w, overwrite=True), key.fresnel, False, w)


def _coherent(field: np.ndarray) -> np.ndarray:
    # Re(exp(-i pi/4) * field), C-ordered: x itself for field = _field(A x)
    return (np.exp(-1j * np.pi / 4) * field).real.copy()


def _operator(key: StegoKey, side: int, mask=None):
    """A for a side x side host as a scipy.sparse.linalg.LinearOperator on
    flat vectors, so that a reader is a solver call such as lsqr (Paige &
    Saunders, ACM TOMS 1982): matvec is _forward of a side/2 x side/2
    secret, rmatvec is A^T of a vector in the lattice's shape. A boolean
    mask in that shape keeps only the lattice samples it marks. Neither
    checks anything and either can return inf or nan, with a numpy warning
    where the scaling or division overflows but none for a nan from _filter."""
    # a cold import costs about 0.4 s, so the package import never pays it
    from scipy.sparse.linalg import LinearOperator

    if key.strength == 0.0:
        raise ParameterError("strength must be positive for extraction")
    half = side // 2
    shape = _layout(side, key.arnold_iterations)[1].shape
    keep = np.ones(shape, bool) if mask is None else mask

    def matvec(x):
        return _forward(x.reshape(half, half), key, side)[keep]

    def rmatvec(y):
        lattice = np.zeros(shape)
        lattice[keep] = y.ravel()
        field = _field(lattice, key, side)
        return 2 * key.strength ** 2 * _coherent(field).ravel()

    return LinearOperator((int(np.count_nonzero(keep)), half * half), matvec=matvec,
                          rmatvec=rmatvec, dtype=np.float64)


@_quiet
def _embed(host_grid: ImageGrid, secret_grid: ImageGrid, key: StegoKey) -> ImageGrid:
    """embed's core for checked grids: the shape rules, then the embedded image."""
    side = checked_square(host_grid, "host", 4).shape[0]
    expected = (side // 2, side // 2)
    if secret_grid.shape != expected:
        raise ShapeError(
            f"secret must be {expected[0]}x{expected[1]} for a {side}x{side} host, "
            f"got {secret_grid.shape[0]}x{secret_grid.shape[1]}")

    # the transforms run in the image's memory before the host is copied
    # there, so the padded grid is no allocation of its own (see _fft)
    embedded = np.empty(host_grid.shape)
    payload = _forward(secret_grid, key, side, embedded)
    lattice = _layout(side, key.arnold_iterations)[0]
    # + 0.0 turns a -0.0 host sample into 0.0, as adding D's zero rows did
    np.add(host_grid, 0.0, out=embedded)
    np.add(payload, lattice(host_grid), out=lattice(embedded))
    return embedded


def embed(host, secret, key: StegoKey) -> EmbedResult:
    """Hide secret inside host. The host must be square with a side
    divisible by 4 and the secret square with half that side. Returns the
    float embedded image plus a quality report against the original host."""
    host_grid = as_image(host)
    embedded = _embed(host_grid, as_image(secret), key)
    return EmbedResult(embedded, _compare(host_grid, embedded))


@_quiet
def _extract(embedded_grid: ImageGrid, host_grid: ImageGrid, key: StegoKey,
             reader: str = "modulus", within: np.ndarray | None = None) -> ImageGrid:
    """extract's core for checked grids: the shape, strength and reader rules,
    then the recovery, which may hold inf or nan where the arithmetic
    overflowed. _field runs in within, which may be embedded_grid itself:
    the lattice difference is taken before within is written."""
    checked_square(embedded_grid, "embedded image", 4)
    side = checked_square(host_grid, "host", 4).shape[0]
    if embedded_grid.shape != host_grid.shape:
        raise ShapeError(
            f"shape mismatch: embedded {embedded_grid.shape} vs host {host_grid.shape}")
    if key.strength == 0.0:
        raise ParameterError("strength must be positive for extraction")
    if reader not in READERS:
        raise ParameterError(f"reader must be one of {', '.join(READERS)}, got {reader!r}")

    lattice = _layout(side, key.arnold_iterations)[0]
    field = _field(lattice(embedded_grid) - lattice(host_grid), key, side, within)
    return np.abs(field) if reader == "modulus" else _coherent(field)


def extract(embedded, host, key: StegoKey, *, reader: str = "modulus") -> ImageGrid:
    """Recover the hidden image from an embedded image given the original
    host and the exact key. reader "modulus" is the paper's; "coherent"
    returns the least-squares secret, signed, which drops the quadrature
    half an 8-bit clamp leaves (see the module docstring). A recovery that
    overflows raises DataError."""
    return as_image(_extract(as_image(embedded), as_image(host), key, reader))
