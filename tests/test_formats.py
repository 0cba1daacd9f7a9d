import tracemalloc

import numpy as np
import pytest

from fresnelstego import (DataError, FormatError, FresnelParams, KeyFileError,
                          ParameterError, StegoKey, default_key_path, load_key,
                          parse_key_text, quantize_u8, read_float_image,
                          read_image, read_pgm, write_float_image, write_image,
                          write_pgm)
from fresnelstego.numerics import as_image

VALID_KEY_TEXT = """\
# comment line
wavelength_nm = 632.8  # trailing comment
pitch_nm = 10
distance_cm = 200

arnold_iterations = 12
strength = 0.08
"""


def test_quantize_u8_rules():
    img = np.array([[-3.2, 0.49], [0.5, 255.7]])
    assert np.array_equal(quantize_u8(img), [[0.0, 0.0], [1.0, 255.0]])
    halves = np.array([[2.5, 3.5], [254.5, -0.5]])
    assert np.array_equal(quantize_u8(halves), [[3.0, 4.0], [255.0, 0.0]])
    ints = np.arange(256, dtype=np.float64).reshape(16, 16)
    assert np.array_equal(quantize_u8(ints), ints)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = np.floor(rng.uniform(0, 256, size=(24, 16)))
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)
    assert path.read_bytes().startswith(b"P5\n16 24\n255\n")


def test_pgm_write_read_write_is_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    img = np.floor(rng.uniform(0, 256, size=(8, 8)))
    first = tmp_path / "a.pgm"
    second = tmp_path / "b.pgm"
    write_pgm(img, first)
    write_pgm(read_pgm(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_pgm_direct_decode(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7]))
    assert np.array_equal(read_pgm(path), [[0.0, 128.0], [255.0, 7.0]])


def test_pgm_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n 2\t2 # inline\n255\n" + bytes(4))
    assert np.array_equal(read_pgm(path), np.zeros((2, 2)))


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(FormatError) as err:
        read_pgm(path)
    assert err.value.offset == 0


def test_pgm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError) as err:
        read_pgm(path)
    assert err.value.offset == 7
    assert "65535" in str(err.value)


def test_pgm_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    data = b"P5\n2 2\n255\n" + bytes(3)
    path.write_bytes(data)
    with pytest.raises(FormatError) as err:
        read_pgm(path)
    assert err.value.offset == len(data)


def test_pgm_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(5))
    with pytest.raises(FormatError) as err:
        read_pgm(path)
    assert err.value.offset == 11 + 4


def test_pgm_rejects_bad_header_fields(tmp_path):
    # header integers are ASCII digits: no sign and no '_' separator
    for header, offset in ((b"P5\nab 2\n255\n", 3), (b"P5\n0 2\n255\n", 3),
                           (b"P5\n2 -2\n255\n", 5), (b"P5\n2 2\n", 7),
                           (b"P5 1_0 1 255\n", 3), (b"P5 10 +1 255\n", 6),
                           (b"P5 10 1 2_55\n", 8), (b"P510 1 255\n", 2)):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes(10))
        with pytest.raises(FormatError) as err:
            read_pgm(path)
        assert err.value.offset == offset


def test_pgm_rejects_header_without_maxval_or_separator(tmp_path):
    # the header may end before its last field, or with the payload's
    # separating whitespace byte missing
    for data, offset, message in ((b"P5 2 2", 6, "header ended early"),
                                  (b"P5 2 2 255", 10, "one whitespace byte after maxval")):
        path = tmp_path / "cut.pgm"
        path.write_bytes(data)
        with pytest.raises(FormatError) as err:
            read_pgm(path)
        assert err.value.offset == offset
        assert message in str(err.value)


def test_pgm_write_quantizes(tmp_path):
    path = tmp_path / "q.pgm"
    img = np.array([[-5.0, 128.6], [300.0, 42.49]])
    written = write_pgm(img, path)
    assert np.array_equal(read_pgm(path), [[0.0, 129.0], [255.0, 42.0]])
    # the returned grid is what the file holds
    assert np.array_equal(written, quantize_u8(img))
    assert np.array_equal(written, read_pgm(path))


def test_float_image_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.standard_normal((3, 4)) * 1e6 + np.pi
    first = tmp_path / "a.fimg"
    second = tmp_path / "b.fimg"
    write_float_image(img, first)
    back = read_float_image(first)
    assert np.array_equal(back, img)
    write_float_image(back, second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b"FIMG\n3 4\n")
    assert len(first.read_bytes()) == 9 + 3 * 4 * 8


def test_float_image_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fimg"
    path.write_bytes(b"GIMF\n2 2\n" + bytes(32))
    with pytest.raises(FormatError) as err:
        read_float_image(path)
    assert err.value.offset == 0


def test_float_image_rejects_bad_dimensions(tmp_path):
    # each is caught on the dimensions line, not later at the payload
    for dims in (b"4\n", b"2 2 2\n", b"a 2\n", b"0 2\n", b"-1 2\n", b"+1 1\n", b"1 0_1\n"):
        path = tmp_path / "d.fimg"
        path.write_bytes(b"FIMG\n" + dims + bytes(32))
        with pytest.raises(FormatError) as err:
            read_float_image(path)
        assert err.value.offset == 5
    path = tmp_path / "nodims.fimg"
    path.write_bytes(b"FIMG\n2 2")
    with pytest.raises(FormatError):
        read_float_image(path)


def test_float_image_rejects_payload_size_mismatch(tmp_path):
    path = tmp_path / "p.fimg"
    path.write_bytes(b"FIMG\n2 2\n" + bytes(16))
    with pytest.raises(FormatError) as err:
        read_float_image(path)
    assert err.value.offset == 9 + 16
    path.write_bytes(b"FIMG\n2 2\n" + bytes(40))
    with pytest.raises(FormatError) as err:
        read_float_image(path)
    assert err.value.offset == 9 + 32


def test_float_image_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.fimg"
    payload = np.array([[1.0, np.nan]], dtype="<f8")
    path.write_bytes(b"FIMG\n1 2\n" + payload.tobytes())
    with pytest.raises(DataError):
        read_float_image(path)
    with pytest.raises(DataError):
        write_float_image(np.array([[np.inf]]), tmp_path / "inf.fimg")


def test_read_image_sniffs_both_formats(tmp_path):
    img = np.floor(np.random.default_rng(4).uniform(0, 256, size=(8, 8)))
    pgm = tmp_path / "x.pgm"
    fimg = tmp_path / "x.fimg"
    write_pgm(img, pgm)
    write_float_image(img, fimg)
    assert np.array_equal(read_image(pgm), img)
    assert np.array_equal(read_image(fimg), img)
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"\x89PNG\r\n")
    with pytest.raises(FormatError):
        read_image(junk)


def test_write_image_dispatches_on_extension(tmp_path):
    img = np.array([[0.25, 1.75], [2.0, 3.5]])
    pgm = tmp_path / "out.PGM"
    other = tmp_path / "out.dat"
    write_image(img, pgm)
    write_image(img, other)
    assert pgm.read_bytes().startswith(b"P5")
    assert other.read_bytes().startswith(b"FIMG")
    assert np.array_equal(read_image(pgm), quantize_u8(img))
    assert np.array_equal(read_image(other), img)


def _gray_levels(shape, seed=5):
    """Samples spanning the clamp, with exact halves where rounding turns."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(-10.0, 265.0, size=shape)
    g.flat[::7] = np.floor(g.flat[::7]) + 0.5
    return g


def _layouts():
    base = _gray_levels((24, 40))
    wide = _gray_levels((24, 80), seed=6)
    return {
        "fortran": np.asfortranarray(base),
        "strided": wide[:, ::2],
        "big-endian": base.astype(">f8"),
        "float32": base.astype(np.float32),
        "integer": np.round(base).astype(np.int64),
    }


@pytest.mark.parametrize("layout", sorted(_layouts()))
def test_every_layout_writes_as_its_row_major_copy(tmp_path, layout):
    g = _layouts()[layout]
    copy = np.ascontiguousarray(g, dtype=np.float64)
    for writer, suffix in ((write_pgm, ".pgm"), (write_float_image, ".fimg"),
                           (write_image, ".pgm"), (write_image, ".fimg")):
        writer(g, tmp_path / ("layout" + suffix))
        writer(copy, tmp_path / ("copy" + suffix))
        written = (tmp_path / ("layout" + suffix)).read_bytes()
        assert written == (tmp_path / ("copy" + suffix)).read_bytes(), (writer.__name__, suffix)


_CODECS = [quantize_u8, write_pgm, write_float_image]


def _call(codec, g, tmp_path):
    if codec is quantize_u8:
        return codec(g)
    return codec(g, tmp_path / "out.bin")


@pytest.mark.parametrize("codec", _CODECS, ids=lambda f: f.__name__)
def test_codecs_leave_the_checked_grid_unchanged(tmp_path, codec):
    g = _gray_levels((32, 48))
    assert as_image(g) is g  # the object every codec works on
    before = g.tobytes()
    out = _call(codec, g, tmp_path)
    assert g.tobytes() == before
    assert out is None or not np.shares_memory(out, g)


_SIDE = 512
_GRID_F8 = _SIDE * _SIDE * 8
_GRID_U8 = _SIDE * _SIDE  # also the size of as_image's bool finite scan
_SLACK = 64 * 1024  # the file object and bookkeeping
_PEAK_LIMIT = {write_float_image: _GRID_U8 + _SLACK, quantize_u8: _GRID_F8 + _SLACK,
               write_pgm: _GRID_F8 + _GRID_U8 + _SLACK}


@pytest.mark.parametrize("codec", _CODECS, ids=lambda f: f.__name__)
def test_codec_peak_memory(tmp_path, codec):
    """No codec stages a byte copy: the peak is the grids it must make.
    write_float_image makes none; its peak is as_image's one-byte-per-
    sample finite scan, which the other two free before they allocate."""
    g = _gray_levels((_SIDE, _SIDE))
    tracemalloc.start()
    try:
        _call(codec, g, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _PEAK_LIMIT[codec], f"{codec.__name__} peaked at {peak} bytes"


def test_key_parsing():
    key = parse_key_text(VALID_KEY_TEXT)
    assert isinstance(key, StegoKey)
    assert key.fresnel.wavelength == 632.8 * 1e-9
    assert key.fresnel.pitch == 10 * 1e-9
    assert key.fresnel.distance == 200 * 1e-2
    assert key.arnold_iterations == 12
    assert key.strength == 0.08


def test_default_key_file_parses():
    key = load_key(default_key_path())
    assert key.fresnel.distance == 2.0
    assert key.arnold_iterations == 12
    assert key.strength == 0.08
    # the comments carry no key material
    assert key == parse_key_text("wavelength_nm = 632.8\npitch_nm = 10\ndistance_cm = 200\n"
                                 "arnold_iterations = 12\nstrength = 0.08\n")


def test_key_rejects_missing_and_unknown_names():
    with pytest.raises(KeyFileError) as err:
        parse_key_text("wavelength_nm = 632.8\n")
    assert "missing" in str(err.value)
    with pytest.raises(KeyFileError):
        parse_key_text(VALID_KEY_TEXT + "mystery = 4\n")
    with pytest.raises(KeyFileError):
        parse_key_text(VALID_KEY_TEXT + "strength = 0.1\n")


def test_key_rejects_malformed_lines():
    # numbers are ASCII without '_'; the step count is digits only
    forms = [("wavelength_nm 632.8\n", 1), ("strength =\n", 1)]
    for old, new, line in (("= 12", "= twelve", 6), ("= 12", "= 12.5", 6),
                           ("632.8", "not-a-number", 2), ("= 12", "= 1_2", 6),
                           ("= 12", "= +12", 6),
                           ("= 12", "= \u0661\u0662", 6),  # Arabic-Indic digits
                           ("= 0.08", "= 0_0.08", 7),
                           ("632.8", "\u0666\u0663\u0662.8", 2)):
        forms.append((VALID_KEY_TEXT.replace(old, new), line))
    for text, line in forms:
        with pytest.raises(KeyFileError) as err:
            parse_key_text(text)
        assert str(err.value).startswith(f"line {line}: ")


def test_key_invalid_physical_values_rejected():
    with pytest.raises(ParameterError):
        parse_key_text(VALID_KEY_TEXT.replace("632.8", "-632.8"))
    with pytest.raises(ParameterError):
        parse_key_text(VALID_KEY_TEXT.replace("strength = 0.08", "strength = -1"))


def test_load_key_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_key(tmp_path / "absent.key")


def test_load_key_not_utf8(tmp_path):
    path = tmp_path / "bad.key"
    path.write_bytes(b"strength = 0.08\n# caf\xff\n")
    with pytest.raises(KeyFileError, match="byte offset 21"):
        load_key(path)


def test_load_key_drops_one_byte_order_mark(tmp_path):
    plain = default_key_path().read_bytes()
    path = tmp_path / "bom.key"
    path.write_bytes(b"\xef\xbb\xbf" + plain)
    assert load_key(path) == load_key(default_key_path())
    # a second mark is key text, and line 1 is then malformed
    path.write_bytes(b"\xef\xbb\xbf" * 2 + plain)
    with pytest.raises(KeyFileError, match="line 1"):
        load_key(path)
