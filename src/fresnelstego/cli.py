"""Command-line surface.

Exit codes: 0 success, 1 usage problems, 2 unreadable or malformed input
data (file format, shape, non-finite samples or statistics, undefined
correlation, OS errors), 3 invalid key material or parameters.

Outputs are deterministic: the same inputs and flags produce byte-identical
files and stdout on every run.

embed and extract pass the grids read_image returns to the private cores
stego_pipeline._embed and _extract, so each input is checked once, by
its reader, and extract's result by its writer before the file is opened,
so a recovery that overflows raises DataError and leaves no file. embed
--mode u8 reports on the quantized grid it writes; it computes the float
report only when metrics._bounded cannot rule out an error in it, and
only to raise that error before the file is written. A delivery that
clips to one gray level, as from a host wholly above 255 or below 0, is
written and then exits 2 on its undefined correlation; the library's
embed, which scores the float grid, succeeds.

cli_main builds its argparse parser once per process and reuses it:
parse_args writes only into a fresh Namespace, and each subcommand's
handler is a default stored at build time.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .arnold import ArnoldSpec, period, scramble, unscramble
from .errors import ParameterError, ShapeError, StegoError
from .formats import (load_key, quantize_u8, read_image, write_float_image,
                      write_image, write_pgm)
from .metrics import MetricsReport, _bounded, _compare, compare
from .stego_pipeline import _embed, _extract

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_KEY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _integer(text: str) -> int:
    # int() would also take a '+', '_' separators and non-ASCII digits; the
    # message is the one argparse gives for type=int
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call; every caller shares it
    and must not change it."""
    parser = _Parser(
        prog="fresnelstego",
        description="Hide, recover, and score grayscale images carried in "
                    "the transform coefficients of a cover image.")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("embed", help="hide a secret image inside a host image")
    cmd.add_argument("--host", required=True, help="square cover image, side divisible by 4")
    cmd.add_argument("--secret", required=True, help="square image with side half the host's")
    cmd.add_argument("--key", required=True, help="key file")
    cmd.add_argument("--out", required=True, help="output path")
    cmd.add_argument("--mode", choices=("float", "u8"), default="float",
                     help="float writes the lossless container; u8 quantizes to PGM")
    cmd.set_defaults(run=_cmd_embed)

    cmd = commands.add_parser("extract", help="recover the hidden image")
    cmd.add_argument("--embedded", required=True, help="image produced by embed")
    cmd.add_argument("--host", required=True, help="the original cover image")
    cmd.add_argument("--key", required=True, help="the key used at embed time")
    cmd.add_argument("--out", required=True, help="output path (.pgm quantizes)")
    cmd.set_defaults(run=_cmd_extract)

    cmd = commands.add_parser("metrics", help="compare two images")
    cmd.add_argument("--a", required=True)
    cmd.add_argument("--b", required=True)
    cmd.add_argument("--json", action="store_true", help="one JSON object instead of lines")
    cmd.set_defaults(run=_cmd_metrics)

    cmd = commands.add_parser("arnold", help="scrambling utilities")
    arnold_commands = cmd.add_subparsers(dest="arnold_command", required=True)
    for name, op in (("scramble", scramble), ("unscramble", unscramble)):
        sub = arnold_commands.add_parser(name, help=f"{name} a square image")
        sub.add_argument("--in", dest="in_path", required=True)
        sub.add_argument("--n", type=_integer, required=True, help="step count")
        sub.add_argument("--out", required=True)
        sub.set_defaults(run=_cmd_permute, op=op)
    sub = arnold_commands.add_parser("period", help="print the cycle length for a grid side")
    sub.add_argument("--size", type=_integer, required=True)
    sub.set_defaults(run=_cmd_period)

    cmd = commands.add_parser("histogram", help="print 256 'bin count' lines")
    cmd.add_argument("--in", dest="in_path", required=True)
    cmd.set_defaults(run=_cmd_histogram)

    return parser


def _print_report(report: MetricsReport) -> None:
    for name, value in asdict(report).items():
        print(f"{name} = {float(value)!r}")


def _cmd_embed(args) -> int:
    host = read_image(args.host)
    embedded = _embed(host, read_image(args.secret), load_key(args.key))
    if args.mode == "u8":
        if not _bounded(host, embedded):  # raise before the write where embed would
            _compare(host, embedded)
        report = _compare(host, write_pgm(embedded, args.out))
    else:
        report = _compare(host, embedded)
        write_float_image(embedded, args.out)
    _print_report(report)
    return EXIT_OK


def _cmd_extract(args) -> int:
    embedded = read_image(args.embedded)
    write_image(_extract(embedded, read_image(args.host), load_key(args.key)), args.out)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    report = compare(read_image(args.a), read_image(args.b))
    if args.json:
        payload = {name: ("inf" if math.isinf(value) else value)
                   for name, value in asdict(report).items()}
        print(json.dumps(payload))
    else:
        _print_report(report)
    return EXIT_OK


def _cmd_period(args) -> int:
    print(period(args.size))
    return EXIT_OK


def _cmd_permute(args) -> int:
    img = read_image(args.in_path)
    rows, cols = img.shape
    if rows != cols or rows < 2:  # a fault in the data (exit 2), checked before the spec
        raise ShapeError(f"image must be square with a side of at least 2, got {rows}x{cols}")
    spec = ArnoldSpec(size=rows, iterations=args.n)
    write_image(args.op(img, spec), args.out)
    return EXIT_OK


def _cmd_histogram(args) -> int:
    img = quantize_u8(read_image(args.in_path))
    counts = np.bincount(img.astype(np.int64).ravel(), minlength=256)
    for value, count in enumerate(counts):
        print(value, int(count))
    return EXIT_OK


def cli_main(argv=None) -> int:
    """Run one command and return its exit code."""
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit:  # argparse exits after printing --help; error() raises instead
        return EXIT_OK
    try:
        return args.run(args)
    except (StegoError, OSError) as exc:  # KeyFileError is a ParameterError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_KEY if isinstance(exc, ParameterError) else EXIT_DATA


def main() -> None:
    sys.exit(cli_main())

