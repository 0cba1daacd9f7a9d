"""File codecs: 8-bit binary PGM, a float64 raster container, key files.

All three round-trip exactly. PGM carries integers 0..255; the float
container stores little-endian IEEE doubles row-major, so write followed
by read is bit-for-bit; key files hold short decimal numbers that reparse
to the same floats.

The float container layout is:

    FIMG\\n
    <rows> <cols>\\n
    <rows * cols * 8 bytes of little-endian float64, row-major>

The PGM reader is strict: magic P5 followed by whitespace or a comment,
ASCII-digit header integers, maxval 255, one whitespace byte before the
payload, payload exactly width * height bytes, nothing after. Decode
errors carry the byte offset of the violation.

The writers stage no byte copy: each hands its grid's row-major buffer to
the file, and quantize_u8 allocates its one result grid and rounds in place.
The float reader stages none either: it reads the header, checks the
payload's size against the file's (os.fstat, so the file must be a
regular one), and reads the payload straight into the one grid it returns.
The CLI, which owns the grids it writes, quantizes them in place through
_write_pgm's out and _write_image's.
"""
from __future__ import annotations

import os
import re
import stat
from pathlib import Path

import numpy as np

from .errors import FormatError, KeyFileError
from .fresnel import FresnelParams
from .numerics import ImageGrid, as_image
from .stego_pipeline import StegoKey

FLOAT_MAGIC = b"FIMG"
_WHITESPACE = b" \t\r\n\x0b\x0c"
# a run of PGM whitespace and '#' comments, then one token: empty only at the end
_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]|#[^\r\n]*)*([^ \t\r\n\x0b\x0c]*)")

KEY_NAMES = ("wavelength_nm", "pitch_nm", "distance_cm", "arnold_iterations", "strength")


def _quantize(g: ImageGrid, out: ImageGrid | None = None) -> ImageGrid:
    # quantize_u8's rounding of a checked grid, into out or one new grid
    g = np.clip(g, 0.0, 255.0, out=out)
    g += 0.5
    return np.floor(g, out=g)


def quantize_u8(img) -> ImageGrid:
    """Clamp to [0, 255], then round halves up. Clamping first means every
    remaining value is non-negative, so rounding half up equals rounding
    half away from zero. Returns integer values in one new float64 grid."""
    return _quantize(as_image(img))


def _positive(name: str, token: bytes, offset: int) -> int:
    # bytes.isdigit is ASCII-only; int() alone would also take a sign or '_'
    if not token.isdigit():
        raise FormatError(f"{name} is not an integer: {token!r}", offset=offset)
    value = int(token)
    if value <= 0:
        raise FormatError(f"{name} must be positive, got {value}", offset=offset)
    return value


def _payload_size(have: int, need: int, at: int) -> None:
    # a payload that starts at byte at must hold need bytes; it holds have
    if have != need:
        raise FormatError(
            f"payload is {have} bytes, expected {need}", offset=at + min(have, need))


def _decode_pgm(data: bytes) -> ImageGrid:
    if not data.startswith(b"P5"):
        raise FormatError("not a binary PGM, magic P5 missing", offset=0)
    if len(data) > 2 and data[2] not in _WHITESPACE + b"#":
        raise FormatError("expected whitespace after magic P5", offset=2)
    pos = 2
    values = []
    for name in ("width", "height", "maxval"):
        start, pos = _TOKEN.match(data, pos).span(1)
        if start == pos:
            raise FormatError("header ended early", offset=start)
        values.append(_positive(name, data[start:pos], start))
    width, height, maxval = values
    if maxval != 255:
        raise FormatError(f"maxval must be 255, got {maxval}", offset=start)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise FormatError("expected one whitespace byte after maxval", offset=pos)
    _payload_size(len(data) - pos - 1, width * height, pos + 1)
    return np.frombuffer(data, np.uint8, width * height, pos + 1).reshape(
        height, width).astype(np.float64)


def read_pgm(path) -> ImageGrid:
    """Read a strict binary PGM as a float64 grid of integers 0..255."""
    return _decode_pgm(Path(path).read_bytes())


def _write_pgm(img, path, out: ImageGrid | None = None) -> ImageGrid:
    # write_pgm, quantizing into out, a float64 grid of img's shape that the
    # caller owns (img itself included), or into one new grid
    g = _quantize(as_image(img), out)
    height, width = g.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(g.astype(np.uint8, order="C"))
    return g


def write_pgm(img, path) -> ImageGrid:
    """Write as binary PGM through quantize_u8; return the grid written.
    img is left unchanged."""
    return _write_pgm(img, path)


def _read_float_image(fh, magic: bytes) -> ImageGrid:
    # the float container from fh, a binary file whose first bytes, magic,
    # were read already
    prefix = FLOAT_MAGIC + b"\n"
    if magic + fh.read(len(prefix) - len(magic)) != prefix:
        raise FormatError("not a float image, magic FIMG missing", offset=0)
    pos = len(prefix)
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise FormatError("missing dimensions line", offset=pos + len(line))
    parts = line.split()
    if len(parts) != 2:
        raise FormatError("dimensions line must hold exactly two integers", offset=pos)
    rows, cols = (_positive(name, part, pos) for name, part in zip(("rows", "cols"), parts))
    at = pos + len(line)
    need = rows * cols * 8
    st = os.fstat(fh.fileno())
    if not stat.S_ISREG(st.st_mode):  # a pipe's size is unknown before it is read
        raise FormatError("a float image must be read from a regular file", offset=at)
    _payload_size(st.st_size - at, need, at)
    grid = np.empty((rows, cols), "<f8")
    # a file that shrank since fstat leaves samples unread
    _payload_size(fh.readinto(grid), need, at)
    return as_image(grid)


def read_float_image(path) -> ImageGrid:
    """Read the float64 container written by write_float_image into one new
    grid, holding no copy of the file; path must name a regular file."""
    with open(path, "rb") as fh:
        return _read_float_image(fh, b"")


def write_float_image(img, path) -> None:
    """Write a float64 grid without any quantization."""
    g = as_image(img)
    rows, cols = g.shape
    with open(path, "wb") as fh:
        fh.write(FLOAT_MAGIC + b"\n%d %d\n" % (rows, cols))
        fh.write(np.ascontiguousarray(g, dtype="<f8"))


def read_image(path) -> ImageGrid:
    """Read either container, dispatching on the magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(len(FLOAT_MAGIC))
        if magic == FLOAT_MAGIC:
            return _read_float_image(fh, magic)
        data = magic + fh.read()
    if data.startswith(b"P5"):
        return _decode_pgm(data)
    raise FormatError(f"unrecognized magic {magic!r}", offset=0)


def _write_image(img, path, out: ImageGrid | None = None) -> None:
    # write_image, a .pgm quantized as by _write_pgm into out
    if str(path).lower().endswith(".pgm"):
        _write_pgm(img, path, out)
    else:
        write_float_image(img, path)


def write_image(img, path) -> None:
    """Write by extension: .pgm quantizes to PGM, anything else writes the
    float container. img is left unchanged."""
    _write_image(img, path)


def parse_key_text(text: str) -> StegoKey:
    """Parse key material from 'name = value' lines.

    '#' starts a comment anywhere on a line; blank lines are skipped. All
    five names are required, none may repeat, unknown names are rejected:

        wavelength_nm, pitch_nm, distance_cm, arnold_iterations, strength

    Numbers are ASCII without '_'; arnold_iterations is digits only.
    """
    found = {}
    for line_number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise KeyFileError(f"line {line_number}: expected name = value, got {raw!r}")
        name = name.strip()
        value = value.strip()
        if name not in KEY_NAMES:
            raise KeyFileError(f"line {line_number}: unknown key {name!r}")
        if name in found:
            raise KeyFileError(f"line {line_number}: duplicate key {name!r}")
        if not value:
            raise KeyFileError(f"line {line_number}: {name} has no value")
        found[name] = (line_number, value)

    missing = [name for name in KEY_NAMES if name not in found]
    if missing:
        raise KeyFileError("missing keys: " + ", ".join(missing))

    def value_of(name, kind=float):
        line_number, value = found[name]
        what = "a non-negative integer" if kind is int else "a number"
        bad = KeyFileError(f"line {line_number}: {name} must be {what}, got {value!r}")
        # int() and float() also take '_' separators and non-ASCII digits
        if not value.isascii() or "_" in value or (kind is int and not value.isdigit()):
            raise bad
        try:
            return kind(value)
        except ValueError:
            raise bad from None

    iterations = value_of("arnold_iterations", int)
    params = FresnelParams(
        wavelength=value_of("wavelength_nm") * 1e-9,
        distance=value_of("distance_cm") * 1e-2,
        pitch=value_of("pitch_nm") * 1e-9,
    )
    return StegoKey(fresnel=params, arnold_iterations=iterations,
                    strength=value_of("strength"))


def load_key(path) -> StegoKey:
    """Read and parse a key file; bytes that are not UTF-8 raise KeyFileError.
    One leading byte-order mark is dropped."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KeyFileError(f"key file is not UTF-8 text (byte offset {exc.start})") from None
    return parse_key_text(text.removeprefix("\ufeff"))


def default_key_path() -> Path:
    """Path of the key file shipped with the package."""
    return Path(__file__).parent / "data" / "default.key"
