"""tracemalloc peaks of the package's public calls and CLI commands.

Prints one JSON object, keyed by side and call, of the bytes each call
allocates at its peak beyond what was allocated when it started, at host
sides 64, 256 and 512 (secrets of half the side). Each call runs once
untimed first, so the key's cached factor and layout are built outside
the measured call, as in a warm process. Covers embed, extract with each
reader on float and u8 deliveries, compare, the codecs, the transforms,
the Arnold map, and the CLI commands run in-process on a PGM host and
secret and the shipped key: embed in each mode, extract of the float
embedding to each container with each reader, metrics, histogram and
arnold scramble. numpy reports its array buffers to tracemalloc, so the
figures count the grids a call makes, and they repeat exactly run to run
on one numpy.

Run it against two source trees and compare:

    PYTHONPATH=<old>/src python tests/memory.py > before.json
    PYTHONPATH=src python tests/memory.py --against before.json

With --against, it prints each key whose peak differs from that file's,
before and after in bytes and in host grids (side * side float64), and
exits 1 if any peak rose by GRAIN bytes or more, or a key is on only one
side. Needs only numpy, the package and synth.py beside it; pytest does
not collect it.
"""
import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

from fresnelstego import (ArnoldSpec, DataError, compare, dct2, default_key_path, dwt2,
                          embed, extract, fresnelet_analyze, idct2, idwt2, load_key,
                          propagate, quantize_u8, read_float_image, read_image, read_pgm,
                          scramble, write_float_image, write_image, write_pgm)
from fresnelstego.cli import cli_main
from synth import textured_image

SIDES = (64, 256, 512)
GRAIN = 1024  # a smaller rise is interpreter objects, not samples


def peak(call) -> int:
    """Bytes call allocates at its peak beyond what it started with, warm."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([str(arg) for arg in argv])
    if code != 0:
        raise DataError(f"{argv[0]} exited {code}")


def library_cases(out, side, work):
    key = load_key(default_key_path())
    host = textured_image(side, 7)
    secret = textured_image(side // 2, 8, rolloff=6.0)
    embedded = embed(host, secret, key).embedded
    delivered = quantize_u8(embedded)
    calls = {
        "embed": lambda: embed(host, secret, key),
        "compare": lambda: compare(host, embedded),
        "quantize_u8": lambda: quantize_u8(embedded),
        "propagate": lambda: propagate(secret, key.fresnel),
        "dct2": lambda: dct2(host),
        "idct2": lambda: idct2(host),
        "dwt2": lambda: dwt2(host),
        "idwt2": lambda: idwt2(dwt2(host)),
        "fresnelet_analyze": lambda: fresnelet_analyze(secret, key.fresnel),
        "scramble": lambda: scramble(host, ArnoldSpec(side, 12)),
        "write_pgm": lambda: write_pgm(embedded, work / "w.pgm"),
        "write_float_image": lambda: write_float_image(embedded, work / "w.fimg"),
        "write_image/pgm": lambda: write_image(embedded, work / "w.pgm"),
        "write_image/fimg": lambda: write_image(embedded, work / "w.fimg"),
    }
    for name, grid in (("float", embedded), ("u8", delivered)):
        for reader in ("modulus", "coherent"):
            calls[f"extract/{reader}/{name}"] = (
                lambda grid=grid, reader=reader: extract(grid, host, key, reader=reader))
    for name, call in calls.items():
        out[f"{side}/{name}"] = peak(call)
    write_pgm(embedded, work / "r.pgm")
    write_float_image(embedded, work / "r.fimg")
    for name, call in {"read_pgm": lambda: read_pgm(work / "r.pgm"),
                       "read_float_image": lambda: read_float_image(work / "r.fimg"),
                       "read_image/pgm": lambda: read_image(work / "r.pgm"),
                       "read_image/fimg": lambda: read_image(work / "r.fimg")}.items():
        out[f"{side}/{name}"] = peak(call)


def cli_cases(out, side, work):
    write_pgm(textured_image(side, 7), work / "h.pgm")
    write_pgm(textured_image(side // 2, 8, rolloff=6.0), work / "s.pgm")
    (work / "k.key").write_bytes(default_key_path().read_bytes())
    embed_argv = ("embed", "--host", "h.pgm", "--secret", "s.pgm", "--key", "k.key")
    for mode, target in (("float", "e.fimg"), ("u8", "e.pgm")):
        out[f"{side}/cli/embed/{mode}"] = peak(
            lambda: _cli(*embed_argv, "--out", target, "--mode", mode))
    for reader in ("modulus", "coherent"):
        for target in ("r.fimg", "r.pgm"):
            out[f"{side}/cli/extract/{reader}/{target}"] = peak(lambda: _cli(
                "extract", "--embedded", "e.fimg", "--host", "h.pgm", "--key", "k.key",
                "--out", target, "--reader", reader))
    out[f"{side}/cli/metrics"] = peak(lambda: _cli("metrics", "--a", "h.pgm", "--b", "e.fimg"))
    out[f"{side}/cli/histogram"] = peak(lambda: _cli("histogram", "--in", "e.fimg"))
    out[f"{side}/cli/arnold-scramble"] = peak(lambda: _cli(
        "arnold", "scramble", "--in", "e.fimg", "--n", 5, "--out", "p.pgm"))


def _grids(key: str, nbytes: int) -> str:
    side = int(key.split("/", 1)[0])
    return f"{nbytes / (side * side * 8):.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path,
                        help="an earlier run's JSON to compare with")
    args = parser.parse_args(argv)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cwd = os.getcwd()
        os.chdir(work)  # the CLI commands take relative paths
        try:
            for side in SIDES:
                library_cases(out, side, work)
                cli_cases(out, side, work)
        finally:
            os.chdir(cwd)
    if args.against is None:
        print(json.dumps(out, indent=1, sort_keys=True))
        return 0
    before = json.loads(args.against.read_text())
    rose = False
    for key in sorted(before.keys() | out.keys()):
        old, new = before.get(key), out.get(key)
        if old == new:
            continue
        if old is None or new is None:
            print(f"{key}: only {'after' if old is None else 'before'}")
            rose = True
            continue
        rose |= new >= old + GRAIN
        print(f"{key}: {old} -> {new} bytes, {_grids(key, old)} -> {_grids(key, new)} grids")
    if not rose:
        print(f"no peak of {len(out)} rose by {GRAIN} bytes or more")
    return 1 if rose else 0


if __name__ == "__main__":
    sys.exit(main())
