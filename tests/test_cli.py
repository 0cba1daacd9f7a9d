import json
import shutil

import numpy as np
import pytest

from fresnelstego import (default_key_path, quantize_u8, read_image, read_pgm,
                          write_float_image, write_pgm)
from fresnelstego.cli import cli_main
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
    assert run("arnold", "scramble", "--in", "x", "--n", "abc", "--out", "y") == 1
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
    assert capsys.readouterr().err != ""


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
