"""The benchmark's own output checks, with the frozen acceptance thresholds.

These are independent implementations: the program is not asked to
score itself, and no check call lands in the per-layer trace. A check
returns None when the output passes, else what went wrong.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

ROUND_TRIP_CC = 0.999
ROUND_TRIP_SSIM = 0.99
WRONG_KEY_CC = 0.5
U8_PSNR_DB = (36.0, 41.0)

_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2
_WHITESPACE = b" \t\r\n\x0b\x0c"


class CheckFailed(Exception):
    """An output file is missing its format, or a command exited nonzero."""


def cc(a, b) -> float:
    da = a - a.mean()
    db = b - b.mean()
    return float(np.sum(da * db) / math.sqrt(float(np.sum(da * da)) * float(np.sum(db * db))))


def ssim(a, b) -> float:
    """Global SSIM (one window over the whole grid), c3 = c2 / 2."""
    mu_a, mu_b = float(a.mean()), float(b.mean())
    da, db = a - mu_a, b - mu_b
    var_a, var_b = float(np.mean(da * da)), float(np.mean(db * db))
    cov = float(np.mean(da * db))
    sigma = math.sqrt(var_a * var_b)
    c3 = _C2 / 2.0
    return ((2.0 * mu_a * mu_b + _C1) / (mu_a ** 2 + mu_b ** 2 + _C1)
            * (2.0 * sigma + _C2) / (var_a + var_b + _C2)
            * (cov + c3) / (sigma + c3))


def psnr(a, b) -> float:
    return 10.0 * math.log10(255.0 ** 2 / float(np.mean((a - b) ** 2)))


def round_trip(recovered, secret) -> str | None:
    c, s = cc(recovered, secret), ssim(recovered, secret)
    if not (c >= ROUND_TRIP_CC and s >= ROUND_TRIP_SSIM):
        return f"round trip cc {c:.6f}, ssim {s:.6f}"
    return None


def wrong_key(recovered, secret) -> str | None:
    c = cc(recovered, secret)
    if not c <= WRONG_KEY_CC:
        return f"wrong-key extract leaked cc {c:.6f}"
    return None


def u8_delivery(delivered, host) -> str | None:
    value = psnr(delivered, host)
    if not U8_PSNR_DB[0] <= value <= U8_PSNR_DB[1]:
        return f"u8 PSNR {value:.3f} dB outside {U8_PSNR_DB}"
    return None


def read_pgm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    tokens, pos = [], 0
    while len(tokens) < 4:
        while data[pos] in _WHITESPACE:
            pos += 1
        start = pos
        while data[pos] not in _WHITESPACE:
            pos += 1
        tokens.append(data[start:pos])
    magic, cols, rows, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if magic != b"P5" or maxval != 255 or len(data) != pos + 1 + rows * cols:
        raise CheckFailed(f"{path.name} is not an 8-bit binary PGM")
    return np.frombuffer(data, np.uint8, offset=pos + 1).reshape(rows, cols).astype(np.float64)


def read_fimg(path: Path) -> np.ndarray:
    magic, dims, payload = path.read_bytes().split(b"\n", 2)
    rows, cols = (int(v) for v in dims.split())
    if magic != b"FIMG" or len(payload) != 8 * rows * cols:
        raise CheckFailed(f"{path.name} is not a float image")
    return np.frombuffer(payload, "<f8").reshape(rows, cols)
