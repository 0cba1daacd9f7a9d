import json
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from fresnelstego import (ParameterError, StegoError, compare, default_key_path, embed,
                          extract, load_key, metrics, quantize_u8, read_image, read_pgm,
                          write_float_image, write_image, write_pgm)
from fresnelstego.cli import build_parser, cli_main
from fresnelstego.numerics import as_image
from synth import textured_image

DESK_KEY_TEXT = """\
wavelength_nm = 632.8
pitch_nm = 10000
distance_cm = 5
arnold_iterations = 12
strength = 0.08
"""

REPORT_FIELDS = ("mse", "psnr_db", "cc", "ssim", "luminance", "contrast", "structure")


@pytest.fixture
def workspace(tmp_path):
    host = textured_image(128, 41)
    secret = textured_image(64, 42, rolloff=6.0)
    write_pgm(host, tmp_path / "host.pgm")
    write_pgm(secret, tmp_path / "secret.pgm")
    (tmp_path / "desk.key").write_text(DESK_KEY_TEXT)
    shutil.copy(default_key_path(), tmp_path / "default.key")
    return tmp_path


def run(*argv):
    return cli_main([str(a) for a in argv])


def test_arnold_period_prints_and_exits_zero(capsys):
    assert run("arnold", "period", "--size", 512) == 0
    assert capsys.readouterr().out == "384\n"


def test_metrics_identical_images(workspace, capsys):
    code = run("metrics", "--a", workspace / "host.pgm", "--b", workspace / "host.pgm")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mse = 0.0"
    assert lines[1] == "psnr_db = inf"
    assert lines[2] == "cc = 1.0"
    assert lines[3].startswith("ssim = ")
    assert [line.split(" = ")[0] for line in lines] == list(REPORT_FIELDS)


def test_metrics_json(workspace, capsys):
    code = run("metrics", "--a", workspace / "host.pgm", "--b", workspace / "host.pgm",
               "--json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mse"] == 0.0
    assert payload["psnr_db"] == "inf"
    assert payload["cc"] == 1.0
    assert list(payload) == list(REPORT_FIELDS)


def test_embed_extract_round_trip(workspace, capsys):
    code = run("embed", "--host", workspace / "host.pgm",
               "--secret", workspace / "secret.pgm",
               "--key", workspace / "desk.key",
               "--out", workspace / "embedded.fimg")
    assert code == 0
    report_lines = capsys.readouterr().out.splitlines()
    assert len(report_lines) == 7
    assert report_lines[0].startswith("mse = ")

    code = run("extract", "--embedded", workspace / "embedded.fimg",
               "--host", workspace / "host.pgm",
               "--key", workspace / "desk.key",
               "--out", workspace / "recovered.fimg")
    assert code == 0
    recovered = read_image(workspace / "recovered.fimg")
    secret = read_pgm(workspace / "secret.pgm")
    assert np.max(np.abs(recovered - secret)) < 1e-6


def test_embed_u8_mode_writes_pgm(workspace, capsys):
    code = run("embed", "--host", workspace / "host.pgm",
               "--secret", workspace / "secret.pgm",
               "--key", workspace / "desk.key",
               "--mode", "u8",
               "--out", workspace / "embedded8.pgm")
    assert code == 0
    data = (workspace / "embedded8.pgm").read_bytes()
    assert data.startswith(b"P5\n")
    # the printed report scores the quantized file that was written
    mse_line = capsys.readouterr().out.splitlines()[0]
    written = read_pgm(workspace / "embedded8.pgm")
    host = read_pgm(workspace / "host.pgm")
    printed_mse = float(mse_line.split(" = ")[1])
    assert printed_mse == pytest.approx(float(np.mean((written - host) ** 2)), rel=1e-12)


def test_extract_to_pgm_quantizes(workspace):
    run("embed", "--host", workspace / "host.pgm",
        "--secret", workspace / "secret.pgm",
        "--key", workspace / "desk.key",
        "--out", workspace / "e.fimg")
    code = run("extract", "--embedded", workspace / "e.fimg",
               "--host", workspace / "host.pgm",
               "--key", workspace / "desk.key",
               "--out", workspace / "r.pgm")
    assert code == 0
    recovered = read_pgm(workspace / "r.pgm")
    secret = read_pgm(workspace / "secret.pgm")
    assert np.array_equal(recovered, quantize_u8(secret))


@pytest.mark.parametrize("mode", ("float", "u8"))
@pytest.mark.parametrize("reader", ("modulus", "coherent"))
def test_extract_reader_flag_gives_the_librarys_bytes(workspace, capsys, mode, reader):
    embedded = workspace / ("e.fimg" if mode == "float" else "e.pgm")
    assert run("embed", "--host", workspace / "host.pgm", "--secret",
               workspace / "secret.pgm", "--key", workspace / "desk.key",
               "--out", embedded, "--mode", mode) == 0
    argv = ["extract", "--embedded", embedded, "--host", workspace / "host.pgm",
            "--key", workspace / "desk.key", "--out", workspace / "r.fimg"]
    if reader != "modulus":  # the default
        argv += ["--reader", reader]
    assert run(*argv) == 0
    expected = extract(read_image(embedded), read_pgm(workspace / "host.pgm"),
                       load_key(workspace / "desk.key"), reader=reader)
    assert read_image(workspace / "r.fimg").tobytes() == expected.tobytes()
    # the command quantizes its recovery in place to write a PGM
    argv[argv.index("--out") + 1] = workspace / "r.pgm"
    assert run(*argv) == 0
    write_pgm(expected, workspace / "expected.pgm")
    assert (workspace / "r.pgm").read_bytes() == (workspace / "expected.pgm").read_bytes()


def test_arnold_scramble_unscramble_files(workspace):
    assert run("arnold", "scramble", "--in", workspace / "host.pgm",
               "--n", 7, "--out", workspace / "s.pgm") == 0
    assert run("arnold", "unscramble", "--in", workspace / "s.pgm",
               "--n", 7, "--out", workspace / "u.pgm") == 0
    assert (workspace / "u.pgm").read_bytes() == (workspace / "host.pgm").read_bytes()
    scrambled = read_pgm(workspace / "s.pgm")
    host = read_pgm(workspace / "host.pgm")
    assert not np.array_equal(scrambled, host)
    assert np.array_equal(np.sort(scrambled.ravel()), np.sort(host.ravel()))


def test_histogram_output(workspace, capsys):
    assert run("histogram", "--in", workspace / "secret.pgm") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 256
    counts = {}
    for line in lines:
        value, count = line.split()
        counts[int(value)] = int(count)
    assert sorted(counts) == list(range(256))
    assert sum(counts.values()) == 64 * 64


def test_usage_errors_exit_one(capsys):
    assert run() == 1
    assert run("bogus") == 1
    assert run("embed", "--host", "x") == 1
    assert run("arnold") == 1
    # integers are an optional '-' and ASCII digits: no '+', '_' or other digits
    for bad in ("abc", "+12", "1_2", "\u0661\u0662"):
        assert run("arnold", "scramble", "--in", "x", "--n", bad, "--out", "y") == 1
        assert run("arnold", "period", "--size", bad) == 1
    assert capsys.readouterr().err != ""


def test_data_errors_exit_two(workspace, capsys):
    assert run("metrics", "--a", workspace / "missing.pgm",
               "--b", workspace / "host.pgm") == 2
    bad = workspace / "bad.pgm"
    bad.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    assert run("histogram", "--in", bad) == 2
    small = workspace / "small.pgm"
    write_pgm(np.zeros((4, 4)), small)
    assert run("metrics", "--a", workspace / "host.pgm", "--b", small) == 2
    # constant inputs leave correlation undefined
    assert run("metrics", "--a", small, "--b", small) == 2
    # a host side of 2 mod 4 breaks the shape rule
    odd_half = workspace / "odd_half.pgm"
    write_pgm(textured_image(102, 3), odd_half)
    write_pgm(textured_image(51, 4), workspace / "secret51.pgm")
    assert run("embed", "--host", odd_half, "--secret", workspace / "secret51.pgm",
               "--key", workspace / "desk.key", "--out", workspace / "o.fimg") == 2
    # a 1x1 image is a fault in the data like a 2x3 one, not a bad spec
    for shape in ((1, 1), (2, 3)):
        write_pgm(np.zeros(shape), small)
        for op in ("scramble", "unscramble"):
            assert run("arnold", op, "--in", small, "--n", 1, "--out", workspace / "o.pgm") == 2
    assert capsys.readouterr().err != ""


def test_overflowing_data_exits_two(workspace, capsys):
    # the key is sound; the samples overflow the report, which is a data error
    write_float_image(textured_image(16, 5), workspace / "h16.fimg")
    write_float_image(np.full((8, 8), 1e300), workspace / "huge.fimg")
    write_float_image(np.full((8, 8), -1e300), workspace / "neg_huge.fimg")
    # finite moments whose products overflow
    write_float_image(1e80 * textured_image(16, 6), workspace / "scaled.fimg")
    for mode in ("float", "u8"):
        assert run("embed", "--host", workspace / "h16.fimg",
                   "--secret", workspace / "huge.fimg", "--key", workspace / "default.key",
                   "--out", workspace / "o.fimg", "--mode", mode) == 2
    assert run("metrics", "--a", workspace / "huge.fimg",
               "--b", workspace / "neg_huge.fimg") == 2
    assert run("metrics", "--a", workspace / "scaled.fimg",
               "--b", workspace / "scaled.fimg") == 2
    assert "too large to score" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ("float", "u8"))
def test_overflowing_secret_prints_one_error_line(workspace, mode):
    # the secret's spectrum overflows; the command reports that once, as its
    # error, and no numpy warning reaches stderr
    write_pgm(textured_image(64, 7), workspace / "h64.pgm")
    write_float_image(np.full((32, 32), 1e307), workspace / "huge.fimg")
    done = subprocess.run(
        [sys.executable, "-m", "fresnelstego", "embed", "--host", workspace / "h64.pgm",
         "--secret", workspace / "huge.fimg", "--key", workspace / "default.key",
         "--out", workspace / "o.out", "--mode", mode], capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["error: grid contains non-finite samples"]
    assert not (workspace / "o.out").exists()


def _u8_inputs(side):
    """(host, secret) of each kind of u8 embed input at one host side."""
    host = textured_image(side, side + 1)
    secret = textured_image(side // 2, side + 2, rolloff=6.0)
    half = (side // 2, side // 2)
    checker = np.indices((side, side)).sum(axis=0) % 2.0
    return {
        "ordinary": (host, secret),
        "constant-host": (np.full((side, side), 128.0), secret),
        "zero-host": (np.zeros((side, side)), secret),
        "host-above-255": (host + 300.0, secret),
        "negative-host": (-host, secret),
        "host-at-1e-200": (1e-200 * host, secret),
        "two-level-host-1e-170": (1e-170 * checker, secret),
        "span-above-1e-60": (4e-60 / 255.0 * host, secret),
        "span-below-1e-60": (2.5e-61 / 255.0 * host, secret),
        "host-below-1e60": (0.99e60 / 255.0 * host, secret),
        "host-above-1e60": (1.01e60 / 255.0 * host, secret),
        "host-times-1e80": (1e80 * host, secret),
        "secret-1e300": (host, np.full(half, 1e300)),
        "secret-minus-1e300": (host, np.full(half, -1e300)),
        "secret-near-1e60": (host, 1e58 * secret),
        "zero-secret": (host, np.zeros(half)),
    }


U8_KINDS = tuple(_u8_inputs(8))


# (exit code, file written) for one kind of each outcome: a constant host
# fails embed's report; above 255 the written grid is constant and fails
U8_OUTCOMES = {"ordinary": (0, True), "constant-host": (2, False),
               "host-above-255": (2, True)}


def _as_command(flow, *args):
    """flow(*args) with its outcome mapped as the CLI maps it: (exit code,
    stdout, stderr), the report flow returns, if any, printed as the CLI
    prints one."""
    try:
        report = flow(*args)
    except ParameterError as exc:
        return 3, "", f"error: {exc}\n"
    except StegoError as exc:
        return 2, "", f"error: {exc}\n"
    fields = asdict(report).items() if report is not None else ()
    return 0, "".join(f"{name} = {float(value)!r}\n" for name, value in fields), ""


def _embed_then_write(host_path, secret_path, key_path, out, mode):
    """embed as the library composes it: embed, with its float report, then
    the writer; the u8 command reports the written file scored against the
    host instead."""
    host = read_image(host_path)
    result = embed(host, read_image(secret_path), load_key(key_path))
    if mode == "u8":
        return compare(host, write_pgm(result.embedded, out))
    write_float_image(result.embedded, out)
    return result.report


def _extract_then_write(embedded_path, host_path, key_path, out):
    recovered = extract(read_image(embedded_path), read_image(host_path), load_key(key_path))
    write_image(recovered, out)


def _contents(*paths):
    """Each file's bytes, or None where there is no file; the files are removed."""
    found = [path.read_bytes() if path.exists() else None for path in paths]
    for path in paths:
        path.unlink(missing_ok=True)
    return found


@pytest.mark.parametrize("kind", U8_KINDS)
def test_u8_embed_matches_embed_then_compare(workspace, capsys, kind):
    # the exit code, stdout, stderr and the file, or its absence, on every
    # path, in either mode; a float file is extracted by the command and by
    # the library, and the two recoveries compared the same way
    for side in (8, 16, 64):
        host, secret = _u8_inputs(side)[kind]
        write_float_image(host, workspace / "h.fimg")
        write_float_image(secret, workspace / "s.fimg")
        inputs = (workspace / "h.fimg", workspace / "s.fimg", workspace / "default.key")
        for mode in ("u8", "float"):
            outs = (workspace / f"cli.{mode}", workspace / f"ref.{mode}")
            code = run("embed", "--host", inputs[0], "--secret", inputs[1], "--key", inputs[2],
                       "--out", outs[0], "--mode", mode)
            seen = capsys.readouterr()
            expected = _as_command(_embed_then_write, *inputs, outs[1], mode)
            assert (code, seen.out, seen.err) == expected, (side, mode)
            if mode == "float" and outs[0].exists():
                recs = (workspace / "cli.rec", workspace / "ref.rec")
                code = run("extract", "--embedded", outs[0], "--host", inputs[0],
                           "--key", inputs[2], "--out", recs[0])
                seen = capsys.readouterr()
                expected = _as_command(_extract_then_write, outs[1], inputs[0], inputs[2],
                                       recs[1])
                assert (code, seen.out, seen.err) == expected, (side, "extract")
                files = _contents(*recs)
                assert files[0] == files[1], (side, "extract")
            files = _contents(*outs)
            assert files[0] == files[1], (side, mode)
            if mode == "u8" and kind in U8_OUTCOMES:
                assert (code, files[0] is not None) == U8_OUTCOMES[kind], side


def test_embed_scores_once_in_either_mode(workspace, monkeypatch):
    # the u8 command scores only the written grid; float mode only embed's
    write_pgm(textured_image(64, 7), workspace / "h64.pgm")
    write_pgm(textured_image(32, 8, rolloff=6.0), workspace / "s64.pgm")
    calls = []
    scores = metrics._scores

    def counting_scores(*args, **kwargs):
        calls.append(1)
        return scores(*args, **kwargs)

    monkeypatch.setattr(metrics, "_scores", counting_scores)
    for mode in ("float", "u8"):
        calls.clear()
        assert run("embed", "--host", workspace / "h64.pgm", "--secret", workspace / "s64.pgm",
                   "--key", workspace / "default.key", "--out", workspace / "o.out",
                   "--mode", mode) == 0
        assert len(calls) == 1, mode


def test_commands_scan_each_grid_once(workspace, monkeypatch):
    # the benchmark's flow, PGM host and secret and a float embedded file:
    # the commands trust the grids read_image returns, so embed scans only
    # the grid it writes, and extract the embedded file as it is read and
    # the grid it writes, which is also its guard against an overflow
    write_pgm(textured_image(64, 7), workspace / "h64.pgm")
    write_pgm(textured_image(32, 8, rolloff=6.0), workspace / "s64.pgm")
    scanned = []
    isfinite = np.isfinite

    def counting_isfinite(x, *args, **kwargs):
        scanned.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    for mode in ("u8", "float"):
        scanned.clear()
        assert run("embed", "--host", workspace / "h64.pgm", "--secret", workspace / "s64.pgm",
                   "--key", workspace / "default.key", "--out", workspace / "e.out",
                   "--mode", mode) == 0
        assert scanned == [(64, 64)], mode
    scanned.clear()
    assert run("extract", "--embedded", workspace / "e.out", "--host", workspace / "h64.pgm",
               "--key", workspace / "default.key", "--out", workspace / "r.fimg") == 0
    assert sorted(scanned) == [(32, 32), (64, 64)]


def _traced_peak(*argv):
    """Bytes a warm in-process command allocates at its peak beyond what it
    started with; numpy reports its array buffers to tracemalloc."""
    assert run(*argv) == 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


_HOST_256 = 256 * 256 * 8  # bytes of one float64 host grid


def test_u8_embed_peaks_no_higher_than_float_embed(workspace, capsys):
    # the u8 command quantizes the embedded image in place, so it needs no
    # grid the float command does not; 4 KiB covers interpreter objects,
    # where a quantized copy would add a whole host grid
    write_pgm(textured_image(256, 7), workspace / "h.pgm")
    write_pgm(textured_image(128, 8, rolloff=6.0), workspace / "s.pgm")
    peaks = {mode: _traced_peak("embed", "--host", workspace / "h.pgm", "--secret",
                                workspace / "s.pgm", "--key", workspace / "default.key",
                                "--out", workspace / f"e.{mode}", "--mode", mode)
             for mode in ("float", "u8")}
    assert peaks["u8"] <= peaks["float"] + 4096, peaks


@pytest.mark.parametrize("reader", ("modulus", "coherent"))
def test_extract_peak_memory(workspace, capsys, reader):
    # Held at once, in host grids: the embedded image (1), whose memory
    # then carries the transforms, and the host (1), with either the
    # lattice difference (1/2) and numpy's two 64 KiB iteration buffers
    # that form it (1/4 at a 256 host), or later the result (1/4) and, for
    # coherent, the complex product it is taken from (1/2). So 2.75 grids,
    # and 64 KiB of slack for interpreter objects; a work grid of its own
    # would add 1/2.
    write_pgm(textured_image(256, 7), workspace / "h.pgm")
    write_pgm(textured_image(128, 8, rolloff=6.0), workspace / "s.pgm")
    assert run("embed", "--host", workspace / "h.pgm", "--secret", workspace / "s.pgm",
               "--key", workspace / "default.key", "--out", workspace / "e.fimg") == 0
    peak = _traced_peak("extract", "--embedded", workspace / "e.fimg", "--host",
                        workspace / "h.pgm", "--key", workspace / "default.key",
                        "--out", workspace / "r.fimg", "--reader", reader)
    assert peak <= 2.75 * _HOST_256 + 64 * 1024, peak / _HOST_256


def test_readers_return_checked_grids(workspace):
    # what the commands rely on: as_image hands a read grid back unchanged
    write_float_image(textured_image(8, 1), workspace / "g.fimg")
    for path in (workspace / "host.pgm", workspace / "g.fimg"):
        grid = read_image(path)
        assert as_image(grid) is grid, path.name


def test_key_errors_exit_three(workspace, capsys):
    short = workspace / "short.key"
    short.write_text("wavelength_nm = 632.8\n")
    assert run("embed", "--host", workspace / "host.pgm",
               "--secret", workspace / "secret.pgm",
               "--key", short, "--out", workspace / "o.fimg") == 3
    negative = workspace / "neg.key"
    negative.write_text(DESK_KEY_TEXT.replace("strength = 0.08", "strength = -2"))
    assert run("embed", "--host", workspace / "host.pgm",
               "--secret", workspace / "secret.pgm",
               "--key", negative, "--out", workspace / "o.fimg") == 3
    assert run("arnold", "period", "--size", 1) == 3
    assert run("arnold", "scramble", "--in", workspace / "host.pgm",
               "--n", -1, "--out", workspace / "o.pgm") == 3
    assert capsys.readouterr().err != ""


def test_non_utf8_key_file_exits_three(workspace, capsys):
    bad = workspace / "bad.key"
    bad.write_bytes(DESK_KEY_TEXT.encode() + b"# \xff\n")
    assert run("embed", "--host", workspace / "host.pgm",
               "--secret", workspace / "secret.pgm",
               "--key", bad, "--out", workspace / "o.fimg") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err
    assert err.count("\n") == 1


def test_key_file_with_byte_order_mark(workspace, capsys):
    (workspace / "bom.key").write_bytes(b"\xef\xbb\xbf" + (workspace / "default.key").read_bytes())
    results = []
    for name in ("default.key", "bom.key"):
        out = workspace / f"{name}.fimg"
        assert run("embed", "--host", workspace / "host.pgm",
                   "--secret", workspace / "secret.pgm",
                   "--key", workspace / name, "--out", out) == 0
        results.append((capsys.readouterr(), out.read_bytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("command", [(), ("embed",), ("extract",), ("metrics",),
                                     ("arnold",), ("arnold", "scramble"),
                                     ("arnold", "unscramble"), ("arnold", "period"),
                                     ("histogram",)], ids=lambda c: "-".join(c) or "top-level")
def test_help_returns_zero(command, capsys):
    # --help prints and returns like any other command; it does not exit
    assert run(*command, "--help") == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: fresnelstego") and "--help" in out
    assert err == ""


def test_shared_parser_keeps_no_state(workspace, capsys):
    # cli_main reuses one parser per process: no command may leave anything
    # in it that changes a later command's outcome or the help text
    assert build_parser() is build_parser()
    fresh_help = build_parser.__wrapped__().format_help()
    short = workspace / "short.key"
    short.write_text("wavelength_nm = 632.8\n")
    pair = ("--host", workspace / "host.pgm", "--key", workspace / "desk.key")
    commands = [
        (1, ("embed", "--host", "x"), None),
        (3, ("embed", "--host", workspace / "host.pgm", "--secret", workspace / "secret.pgm",
             "--key", short, "--out", workspace / "bad.fimg"), None),
        (0, ("arnold", "period", "--size", 12), None),
        (0, ("metrics", "--a", workspace / "host.pgm", "--b", workspace / "host.pgm",
             "--json"), None),
        (2, ("metrics", "--a", workspace / "host.pgm", "--b", workspace / "secret.pgm"), None),
        (0, ("embed", "--secret", workspace / "secret.pgm", *pair,
             "--out", workspace / "e.fimg"), "e.fimg"),
        (0, ("extract", "--embedded", workspace / "e.fimg", *pair,
             "--out", workspace / "r.fimg"), "r.fimg"),
    ]

    def one_pass():
        seen = []
        for code, argv, out_name in commands:
            assert run(*argv) == code
            out, err = capsys.readouterr()
            seen.append((out, err, (workspace / out_name).read_bytes() if out_name else None))
        for _, _, out_name in commands:
            if out_name:  # the next pass must write its own files
                (workspace / out_name).unlink()
        return seen

    def help_text(*argv):
        assert run(*argv, "--help") == 0
        return capsys.readouterr().out

    def parsed(parser):
        return [vars(parser.parse_args([str(a) for a in argv]))
                for code, argv, _ in commands if code != 1]

    first = one_pass()
    assert first[0][1] == ("usage error: the following arguments are required: "
                           "--secret, --key, --out\n")
    assert first[2][0] == "12\n"
    assert help_text() == fresh_help
    embed_help = help_text("embed")
    assert one_pass() == first
    assert help_text() == fresh_help
    assert help_text("embed") == embed_help
    # what earlier commands in this process left is caught here too
    assert parsed(build_parser()) == parsed(build_parser.__wrapped__())


def test_key_with_overflowing_phase_exits_three(workspace, capsys):
    # pitch 1e-200 m is finite, but its Nyquist frequency squared is not
    tiny = workspace / "tiny.key"
    tiny.write_text(DESK_KEY_TEXT.replace("pitch_nm = 10000", "pitch_nm = 1e-191"))
    for mode in ("float", "u8"):
        assert run("embed", "--host", workspace / "host.pgm",
                   "--secret", workspace / "secret.pgm", "--key", tiny,
                   "--out", workspace / "o.pgm", "--mode", mode) == 3
        assert "non-finite Fresnel phase" in capsys.readouterr().err


def test_zero_strength_extract_exits_three(workspace):
    zero = workspace / "zero.key"
    zero.write_text(DESK_KEY_TEXT.replace("strength = 0.08", "strength = 0"))
    assert run("embed", "--host", workspace / "host.pgm",
               "--secret", workspace / "secret.pgm",
               "--key", zero, "--out", workspace / "z.fimg") == 0
    assert run("extract", "--embedded", workspace / "z.fimg",
               "--host", workspace / "host.pgm",
               "--key", zero, "--out", workspace / "r.fimg") == 3


def test_repeated_runs_are_byte_identical(workspace):
    for out_name in ("one.fimg", "two.fimg"):
        run("embed", "--host", workspace / "host.pgm",
            "--secret", workspace / "secret.pgm",
            "--key", workspace / "desk.key",
            "--out", workspace / out_name)
    assert (workspace / "one.fimg").read_bytes() == (workspace / "two.fimg").read_bytes()


def test_default_key_round_trip(workspace):
    # the shipped key file works end to end at full scale parameters
    run("embed", "--host", workspace / "host.pgm",
        "--secret", workspace / "secret.pgm",
        "--key", workspace / "default.key",
        "--out", workspace / "d.fimg")
    code = run("extract", "--embedded", workspace / "d.fimg",
               "--host", workspace / "host.pgm",
               "--key", workspace / "default.key",
               "--out", workspace / "dr.fimg")
    assert code == 0
    recovered = read_image(workspace / "dr.fimg")
    secret = read_pgm(workspace / "secret.pgm")
    assert np.max(np.abs(recovered - secret)) < 1e-6
