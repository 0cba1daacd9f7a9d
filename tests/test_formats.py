import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


_PGM_WHITESPACE = b" \t\r\n\x0b\x0c"


def _reference_decode_pgm(data: bytes):
    """The strict PGM grammar, scanned one header byte at a time."""
    if not data.startswith(b"P5"):
        raise FormatError("not a binary PGM, magic P5 missing", offset=0)
    if len(data) > 2 and data[2] not in _PGM_WHITESPACE + b"#":
        raise FormatError("expected whitespace after magic P5", offset=2)
    n, pos, values = len(data), 2, []
    for name in ("width", "height", "maxval"):
        while pos < n and (data[pos] in _PGM_WHITESPACE or data[pos] == ord("#")):
            if data[pos] in _PGM_WHITESPACE:
                pos += 1
            else:  # a comment runs up to, not through, its line end
                while pos < n and data[pos] not in b"\r\n":
                    pos += 1
        if pos >= n:
            raise FormatError("header ended early", offset=pos)
        start = pos
        while pos < n and data[pos] not in _PGM_WHITESPACE:
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise FormatError(f"{name} is not an integer: {token!r}", offset=start)
        if int(token) <= 0:
            raise FormatError(f"{name} must be positive, got {int(token)}", offset=start)
        values.append(int(token))
    width, height, maxval = values
    if maxval != 255:
        raise FormatError(f"maxval must be 255, got {maxval}", offset=start)
    if pos >= n or data[pos] not in _PGM_WHITESPACE:
        raise FormatError("expected one whitespace byte after maxval", offset=pos)
    have, need = n - pos - 1, width * height
    if have != need:
        raise FormatError(f"payload is {have} bytes, expected {need}",
                          offset=pos + 1 + min(have, need))
    grid = np.frombuffer(data, np.uint8, offset=pos + 1).reshape(height, width)
    return grid.astype(np.float64)


def _pgm_outcome(decode):
    """The grid's shape and bytes, or the FormatError's message and offset."""
    try:
        grid = decode()
    except FormatError as exc:
        return str(exc), exc.offset
    return grid.shape, grid.tobytes()


_whitespace_runs = st.lists(st.sampled_from(list(_PGM_WHITESPACE)), min_size=1,
                            max_size=3).map(bytes)
_comments = st.tuples(st.lists(st.sampled_from(list(b"a #5\t\x0b")), max_size=4).map(bytes),
                      st.sampled_from([b"\r", b"\n", b""])).map(lambda t: b"#" + t[0] + t[1])
_gaps = st.lists(st.one_of(_whitespace_runs, _comments), min_size=1, max_size=3).map(b"".join)
_FAULTS = ("P6", "no gap", "junk", "digits", "payload", "cut")


@st.composite
def _pgm_files(draw):
    """A P5 file with 1 to 9 payload bytes, its header tokens set apart by
    runs of whitespace and comments, and up to two faults: magic P6, no gap
    after the magic, a junk byte in a token, a token replaced by another
    digit run, a payload of another length from 0 to 9 bytes, or the data
    cut short."""
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    faults = draw(st.sets(st.sampled_from(_FAULTS), max_size=2))
    tokens = [b"%d" % width, b"%d" % height, draw(st.sampled_from([b"255", b"0255"]))]
    if "junk" in faults:
        i = draw(st.integers(0, 2))
        at = draw(st.integers(0, len(tokens[i])))
        junk = draw(st.sampled_from([b"#", b"+", b"-", b"\x00", b"\xff"]))
        tokens[i] = tokens[i][:at] + junk + tokens[i][at:]
    if "digits" in faults:
        tokens[draw(st.integers(0, 2))] = draw(
            st.text("0123456789", min_size=1, max_size=4)).encode()
    # a '#' right after a token is part of it, so only the magic meets a comment
    gaps = [b"" if "no gap" in faults else draw(_gaps)] + [
        draw(_whitespace_runs) + draw(_gaps) for _ in tokens[1:]]
    size = draw(st.integers(0, 9)) if "payload" in faults else width * height
    data = b"".join([b"P6" if "P6" in faults else b"P5"]
                    + [gap + token for gap, token in zip(gaps, tokens)]
                    + [draw(st.sampled_from([bytes([b]) for b in _PGM_WHITESPACE])),
                       draw(st.binary(min_size=size, max_size=size))])
    return data[:draw(st.integers(0, len(data)))] if "cut" in faults else data


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("grammar") / "h.pgm"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=_pgm_files())
@example(data=b"P5 2 2 255")
@example(data=b"P5 1 2 0 \x00\x00")
@example(data=b"P5 1 1 254\n\x00")
@example(data=b"P5#c\r1\x0c1\x0b255\n\x00")
@example(data=b"P5 1 1 # runs to the end")
def test_pgm_header_grammar_matches_a_byte_by_byte_scan(pgm_path, data):
    pgm_path.write_bytes(data)
    assert _pgm_outcome(lambda: read_pgm(pgm_path)) == _pgm_outcome(
        lambda: _reference_decode_pgm(data))


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
