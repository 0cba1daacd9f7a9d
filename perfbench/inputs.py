"""Seeded benchmark inputs: textured hosts and secrets, and keys.

Everything here is a function of the seed alone, so the same seed gives
the same inputs. Nothing here imports fresnelstego: the library only ever
sees the arrays, numbers and files made here.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Reserved for re-checking a claimed gain on a seed nobody tuned against.
HELD_OUT_SEED = 7771301

# The shipped key's strength; the frozen u8 PSNR band [36, 41] dB holds there.
STRENGTH = 0.08

_HOSTS, _SECRETS, _KEYS = 0, 1, 2


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def textured(side: int, rng: np.random.Generator, rolloff: float) -> np.ndarray:
    """Low-pass shaped noise rescaled to the integers 0..255, as float64."""
    white = rng.standard_normal((side, side))
    f = np.fft.fftfreq(side)
    radius = np.hypot(f[:, None], f[None, :])
    img = np.fft.ifft2(np.fft.fft2(white) / (1.0 + (radius * side / rolloff) ** 2)).real
    img -= img.min()
    img *= 255.0 / img.max()
    return np.floor(img + 0.5)


def image_pairs(seed: int, host_side: int, count: int):
    """`count` distinct (host, secret) pairs; secrets have half the side."""
    return [(textured(host_side, _rng(seed, _HOSTS, i), 8.0),
             textured(host_side // 2, _rng(seed, _SECRETS, i), 6.0))
            for i in range(count)]


def cat_map_period(side: int) -> int:
    """Smallest T >= 1 with [[1, 1], [1, 2]]**T = I (mod side)."""
    a, b, c, d = 1, 1, 1, 2
    t = 1
    while (a % side, b % side, c % side, d % side) != (1, 0, 0, 1):
        a, b, c, d = (a + b) % side, (a + 2 * b) % side, (c + d) % side, (c + 2 * d) % side
        t += 1
    return t


@dataclass(frozen=True)
class KeyValues:
    """Key material as plain numbers, lengths in meters."""

    wavelength: float
    distance: float
    pitch: float
    arnold_iterations: int
    strength: float

    def key_text(self) -> str:
        return (f"wavelength_nm = {self.wavelength * 1e9!r}\n"
                f"pitch_nm = {self.pitch * 1e9!r}\n"
                f"distance_cm = {self.distance * 1e2!r}\n"
                f"arnold_iterations = {self.arnold_iterations}\n"
                f"strength = {self.strength!r}\n")


def draw_key(seed: int, index: int, host_side: int) -> KeyValues:
    """Key number `index` of a seed, for hosts of side `host_side`.

    The step count lies in [1, period - 2], so that neither it nor the
    wrong-key count (step count + 1) is the identity. The Fresnel stage
    sees only alpha = wavelength * distance / (side * pitch)**2 on the
    secret's grid; integer and half-integer alpha give the identity, a
    half-grid shift or an equivalent key, so alpha keeps at least 0.1
    from both.
    """
    rng = _rng(seed, _KEYS, index)
    side = host_side // 2
    wavelength = rng.uniform(450e-9, 700e-9)
    pitch = rng.uniform(5e-9, 20e-9)
    alpha = rng.integers(50, 400) + rng.uniform(0.1, 0.4) + 0.5 * rng.integers(0, 2)
    distance = alpha * (side * pitch) ** 2 / wavelength
    iterations = int(rng.integers(1, cat_map_period(host_side) - 2, endpoint=True))
    return KeyValues(float(wavelength), float(distance), float(pitch), iterations, STRENGTH)


def write_pgm(img: np.ndarray, path: Path) -> None:
    """Binary PGM of an integer-valued 0..255 grid."""
    rows, cols = img.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (cols, rows) + img.astype(np.uint8).tobytes())
