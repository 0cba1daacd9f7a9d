"""SHA-256 digests of the package's outputs, to show that a change keeps them.

Prints one JSON object, keyed by case, over embed (the embedded grid and
its report) and extract of float and u8 deliveries, the public transforms
and scores, the Fresnel pair at odd sides, the scores at sides of several
kernel leaves and in each memory layout, the private DCT on complex grids
of each layout, the operator pair behind stego_pipeline._operator, the
CLI commands run in-process (exit code, stdout, stderr and the bytes of
every file written), error cases (exception type and message), read_pgm
on headers that exercise its whitespace and comment grammar, and the list
of warnings all of them raised.

Run it against two source trees and compare:

    PYTHONPATH=<old>/src python tests/digests.py > before.json
    PYTHONPATH=src python tests/digests.py --against before.json

With --against, it prints each key whose digest differs from that file's,
or is on only one side, and exits 1 if there is any. Needs only numpy,
the package and synth.py beside it; pytest does not collect it.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from fresnelstego import (ArnoldSpec, FresnelParams, StegoKey, cc, compare, dct2,
                          default_key_path, dwt2, embed, extract, fresnelet_analyze,
                          fresnelet_synthesize, idct2, idwt2, magnitude, mse,
                          parse_key_text, period, propagate, propagate_inverse, psnr,
                          psnr_from_mse, quantize_u8, read_float_image, read_image,
                          read_pgm, scramble, ssim, unscramble, write_float_image,
                          write_pgm)
from fresnelstego import _fft
from fresnelstego.arnold import _layout
from fresnelstego.cli import cli_main
from fresnelstego.stego_pipeline import _operator
from synth import textured_image

SIDES = (8, 12, 20, 64, 100, 256)
STEPS = (5, 7, 12, 13, 14)  # n mod 3 picks the lattice: all three are here
DISTANCES = (0.0, 0.05, 2.0)
DESK = FresnelParams(632.8e-9, 0.05, 10e-6)
DESK_KEY = StegoKey(DESK, 12, 0.08)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            data = f"{part.dtype}{part.shape}".encode() + part.tobytes()
        elif isinstance(part, bytes):
            data = part
        else:
            data = repr(part).encode()
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def _outcome(call):
    """What call returns, or its exception's type and message."""
    try:
        return call()
    except Exception as exc:  # every error case is a digest, not a stop
        return f"{type(exc).__name__}: {exc}"


def pipeline_cases(out):
    for side in SIDES:
        host = textured_image(side, side)
        secret = textured_image(side // 2, side + 1, rolloff=6.0)
        for steps in STEPS:
            for distance in DISTANCES:
                key = StegoKey(FresnelParams(632.8e-9, distance, 10e-6), steps, 0.08)
                case = f"{side}/n{steps}/z{distance}"
                result = embed(host, secret, key)
                out[f"embed/{case}"] = _digest(result.embedded, result.report)
                out[f"extract/float/{case}"] = _digest(
                    _outcome(lambda: extract(result.embedded, host, key)))
                delivered = quantize_u8(result.embedded)
                out[f"extract/u8/{case}"] = _digest(
                    delivered, _outcome(lambda: compare(host, delivered)),
                    _outcome(lambda: extract(delivered, host, key)))


def transform_cases(out):
    img = textured_image(64, 3)
    other = textured_image(64, 4)
    bands = dwt2(img)
    out["propagate"] = _digest(propagate(img, DESK))
    out["propagate_inverse"] = _digest(propagate_inverse(img + 1j * other, DESK))
    out["dct2"] = _digest(dct2(img))
    out["idct2"] = _digest(idct2(img))
    out["dwt2"] = _digest(*bands)
    out["idwt2"] = _digest(idwt2(bands))
    out["fresnelet_analyze"] = _digest(*fresnelet_analyze(img, DESK))
    out["fresnelet_synthesize"] = _digest(fresnelet_synthesize(bands, DESK))
    out["magnitude"] = _digest(magnitude(img - 1j * other))
    for steps in (1, 12, 47):
        spec = ArnoldSpec(64, steps)
        out[f"scramble/n{steps}"] = _digest(scramble(img, spec))
        out[f"unscramble/n{steps}"] = _digest(unscramble(img, spec))
    out["period"] = _digest([period(size) for size in (2, 3, 10, 64, 100, 480, 1024)])
    for size in (4096, 65537, 1_000_003):
        out[f"period/{size}"] = _digest(period(size))
    out["quantize_u8"] = _digest(quantize_u8(3.0 * img - 200.5))
    out["scores"] = _digest(mse(img, other), psnr(img, other), cc(img, other),
                            ssim(img, other), compare(img, other),
                            [psnr_from_mse(m) for m in (1e-320, 1.0, 1e300)])


def odd_side_cases(out):
    """The Fresnel pair at odd sides, on real and complex fields, at each of
    DISTANCES and a metre-range key whose phases reach about 1e7 rad."""
    rng = np.random.default_rng(13)
    keys = {f"z{d}": FresnelParams(632.8e-9, d, 10e-6) for d in DISTANCES}
    keys["metre"] = FresnelParams(632.8e-9, 1.0, 0.3e-6)
    for side in (1, 3, 5, 127):
        real = rng.standard_normal((side, side))
        field = real + 1j * rng.standard_normal((side, side))
        for name, params in keys.items():
            for label, transform in (("propagate", propagate),
                                     ("propagate_inverse", propagate_inverse)):
                out[f"{label}/{side}/{name}"] = _digest(
                    transform(real, params), transform(field, params))


def score_cases(out):
    """The scores at sides of 2 and of 8 or more kernel leaves, on C-ordered,
    Fortran-ordered and strided pairs."""
    rng = np.random.default_rng(11)
    for side in (129, 362):
        # non-integer samples over many magnitudes, so every sum rounds
        wide = [rng.uniform(0.0, 255.0, (2 * side, 2 * side))
                * 10.0 ** rng.uniform(-3.0, 3.0, (2 * side, 2 * side)) for _ in range(2)]
        wide[1] += rng.standard_normal(wide[1].shape) * 7.5
        a, b = (w[:side, :side].copy() for w in wide)
        layouts = {"c": (a, b),
                   "fortran": (np.asfortranarray(a), np.asfortranarray(b)),
                   "strided": (wide[0][::2, 1::2], wide[1][::2, 1::2])}
        for layout, (x, y) in layouts.items():
            for name, score in (("mse", mse), ("psnr", psnr), ("cc", cc),
                                ("ssim", ssim), ("compare", compare)):
                out[f"scores/{side}/{layout}/{name}"] = _digest(score(x, y))


def dct_cases(out):
    rng = np.random.default_rng(9)
    for side in (6, 50, 128):
        shape = (3 * side, 2 * side)
        big = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # a fresh grid per call, as overwrite transforms it in place
        layouts = {"c": lambda: big[:side, :side].copy(),
                   "fortran": lambda: np.asfortranarray(big[:side, :side]),
                   "strided": lambda: big.copy()[1::3, ::2]}
        for layout, grid in layouts.items():
            for name, transform in (("dctn", _fft.dctn), ("idctn", _fft.idctn)):
                for overwrite in (False, True):
                    a = grid()
                    out[f"_fft/{name}/{side}/{layout}/overwrite={overwrite}"] = _digest(
                        transform(a, overwrite), a)


def operator_cases(out):
    rng = np.random.default_rng(5)
    for side in (16, 64, 128):
        for steps in (5, 7, 12):
            key = StegoKey(DESK, steps, 0.08)
            shape = _layout(side, steps)[1].shape
            for name, mask in (("full", None), ("masked", rng.random(shape) < 0.7)):
                a = _operator(key, side, mask)
                x = rng.standard_normal(a.shape[1])
                y = rng.standard_normal(a.shape[0])
                out[f"operator/{side}/n{steps}/{name}"] = _digest(
                    a.shape, a.matvec(x), a.rmatvec(y))


def _cli(workdir, *argv):
    """Digest of one in-process command: exit code, streams and files."""
    before = set(os.listdir(workdir))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([str(arg) for arg in argv])
    made = sorted(set(os.listdir(workdir)) - before)
    files = [(name, (workdir / name).read_bytes()) for name in made]
    for name in made:  # each command starts from the same files
        (workdir / name).unlink()
    return _digest(code, stdout.getvalue(), stderr.getvalue(), files)


def cli_cases(out):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cwd = os.getcwd()
        os.chdir(work)  # relative paths keep the temporary name out of messages
        try:
            (work / "k.key").write_bytes(default_key_path().read_bytes())
            for side in (12, 64):
                write_pgm(textured_image(side, 7), work / f"h{side}.pgm")
                write_float_image(textured_image(side // 2, 8, rolloff=6.0),
                                  work / f"s{side}.fimg")
                for mode, suffix in (("float", "fimg"), ("u8", "pgm")):
                    embedded = f"e{side}.{suffix}"
                    embed_argv = ("embed", "--host", f"h{side}.pgm", "--secret",
                                  f"s{side}.fimg", "--key", "k.key", "--out", embedded,
                                  "--mode", mode)
                    out[f"cli/embed/{side}/{mode}"] = _cli(work, *embed_argv)
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli_main(list(embed_argv))  # the input of what follows
                    for target in ("r.fimg", "r.pgm"):
                        out[f"cli/extract/{side}/{mode}/{target}"] = _cli(
                            work, "extract", "--embedded", embedded, "--host",
                            f"h{side}.pgm", "--key", "k.key", "--out", target)
                    out[f"cli/metrics/{side}/{mode}"] = _cli(
                        work, "metrics", "--a", f"h{side}.pgm", "--b", embedded)
                    out[f"cli/metrics-json/{side}/{mode}"] = _cli(
                        work, "metrics", "--a", f"h{side}.pgm", "--b", embedded, "--json")
                    out[f"cli/histogram/{side}/{mode}"] = _cli(
                        work, "histogram", "--in", embedded)
                for op in ("scramble", "unscramble"):
                    out[f"cli/arnold/{side}/{op}"] = _cli(
                        work, "arnold", op, "--in", f"h{side}.pgm", "--n", 5,
                        "--out", "p.pgm")
            out["cli/arnold/period"] = _cli(work, "arnold", "period", "--size", 480)
            (work / "huge.fimg").write_bytes(
                b"FIMG\n32 32\n" + np.full((32, 32), 1e307).astype("<f8").tobytes())
            (work / "p5digit.pgm").write_bytes(b"P510 1 255\n" + bytes(10))
            (work / "bad.key").write_bytes(b"wavelength_nm = 632.8\nstrength = -1\n")
            for mode in ("float", "u8"):
                out[f"cli/error/overflowing-secret/{mode}"] = _cli(
                    work, "embed", "--host", "h64.pgm", "--secret", "huge.fimg", "--key",
                    "k.key", "--out", "o.out", "--mode", mode)
            out["cli/error/p5-digit"] = _cli(work, "histogram", "--in", "p5digit.pgm")
            out["cli/error/missing-file"] = _cli(work, "histogram", "--in", "absent.pgm")
            out["cli/error/usage"] = _cli(work, "arnold", "period", "--size", "+4")
            out["cli/error/bad-key"] = _cli(
                work, "extract", "--embedded", "h64.pgm", "--host", "h64.pgm", "--key",
                "bad.key", "--out", "r.fimg")
        finally:
            os.chdir(cwd)


def error_cases(out):
    host = textured_image(64, 7)
    huge = np.full((32, 32), 1e307)
    corner = host[:4, :4]
    weak = StegoKey(DESK, 12, 1e-320)
    calls = {
        "embed/overflowing-secret": lambda: embed(host, huge, DESK_KEY),
        "embed/nan-secret": lambda: embed(host, np.full((32, 32), np.nan), DESK_KEY),
        "embed/host-side": lambda: embed(np.zeros((6, 6)), np.zeros((3, 3)), DESK_KEY),
        "embed/secret-shape": lambda: embed(host, np.zeros((30, 30)), DESK_KEY),
        "extract/zero-strength": lambda: extract(host, host, StegoKey(DESK, 12, 0.0)),
        "extract/subnormal-strength": lambda: extract(host + 1.0, host, weak),
        "extract/overflowing-dct": lambda: extract(
            np.full((64, 64), 1e307), np.zeros((64, 64)), StegoKey(DESK, 12, 1.0)),
        "extract/shape-mismatch": lambda: extract(host, np.zeros((32, 32)), DESK_KEY),
        "propagate/overflow": lambda: propagate(np.full((64, 64), 3e306), DESK),
        "dct2/overflow": lambda: dct2(np.full((64, 64), 1e308)),
        "idwt2/overflow": lambda: idwt2([np.full((32, 32), 1e308)] * 4),
        "magnitude/overflow": lambda: magnitude(np.full((4, 4), 1.5e308 + 1.5e308j)),
        "compare/constant": lambda: compare(np.zeros((4, 4)), corner),
        "compare/too-large": lambda: compare(np.full((4, 4), 1e300), -1e300 * corner),
        "key/negative-strength": lambda: StegoKey(DESK, 12, -1.0),
        "key/text": lambda: parse_key_text("wavelength_nm = x\n"),
        "period/odd-size": lambda: period(1),
        "arnold/spec": lambda: ArnoldSpec(0, 1),
        "operator/zero-strength": lambda: _operator(StegoKey(DESK, 12, 0.0), 16),
    }
    for name, call in calls.items():
        out[f"error/{name}"] = _digest(_outcome(call))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        for name, data, reader in (
                ("pgm/p5-digit", b"P510 1 255\n" + bytes(10), read_pgm),
                ("image/p5-digit", b"P510 1 255\n" + bytes(10), read_image),
                ("pgm/p5-alone", b"P5", read_pgm),
                ("pgm/p5-comment", b"P5#c\n2 1 255\n" + bytes(2), read_pgm),
                ("pgm/maxval", b"P5\n2 1\n254\n" + bytes(2), read_pgm),
                ("pgm/short", b"P5\n2 2\n255\n" + bytes(3), read_pgm),
                ("pgm/trailing", b"P5\n2 2\n255\n" + bytes(5), read_pgm),
                ("image/magic", b"GIF89a", read_image),
                ("float/dims", b"FIMG\n2\n", read_float_image)):
            path.write_bytes(data)
            out[f"error/{name}"] = _digest(_outcome(lambda: reader(path)))


def pgm_header_cases(out):
    """read_pgm's outcome on headers that exercise the PGM whitespace and
    comment grammar."""
    headers = {
        "comment-after-magic": b"P5# made by hand\r\n2 1 255\n" + bytes([7, 200]),
        "comment-to-end": b"P5 2 1 # maxval never comes",
        "cr-line-ends": b"P5\r2 1\r255\r" + bytes([1, 2]),
        "vt-ff-separators": b"P5\x0b2\x0c1\x0b\x0c255\x0c" + bytes([3, 4]),
        "hash-in-width": b"P5 2#x 1 255\n" + bytes(2),
        "maxval-0255": b"P5 2 1 0255\n" + bytes([5, 6]),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.pgm"
        for name, data in headers.items():
            path.write_bytes(data)
            out[f"pgm/header/{name}"] = _digest(_outcome(lambda: read_pgm(path)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path,
                        help="an earlier run's JSON to compare with")
    args = parser.parse_args(argv)
    out = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for cases in (pipeline_cases, transform_cases, odd_side_cases, score_cases,
                      dct_cases, operator_cases, cli_cases, error_cases, pgm_header_cases):
            cases(out)
    # every warning any case raised, without the source location
    out["warnings"] = _digest([f"{w.category.__name__}: {w.message}" for w in caught])
    if args.against is None:
        print(json.dumps(out, indent=1, sort_keys=True))
        return 0
    before = json.loads(args.against.read_text())
    differ = sorted(k for k in before.keys() | out.keys() if before.get(k) != out.get(k))
    print("\n".join(differ) if differ else f"all {len(out)} digests equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
