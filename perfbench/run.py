"""fresnelstego benchmark: embed+extract pairs in one closed loop.

    python3 perfbench/run.py --workload lib-256-onekey --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from that
checkout's `src` by absolute path, never from an installed copy or a
relative PYTHONPATH. One client issues checked requests back to back,
each an embed+extract pair on seeded inputs (see worker.py for the three
workloads). With --trace 0 the last stdout line carries the end-to-end
metrics; --trace 1 runs the outside-in tracer (tracer.py) instead and
reports per-layer figures per pair. Earlier lines give the same figures
with sample counts, the raw wall-clock figures, and the run environment.

Times are normalized. The machine this was built on changes speed by up
to half in phases of seconds to minutes, so raw wall-clock figures of two
runs of the same code differ by more than any useful bound. Each program
pair therefore runs next to the same pair on reference/, a frozen copy of
the package. Each program call's latency is divided by the median latency
of the reference's nearest calls of the same kind, which gauges the
machine's speed at that moment, and scaled by the reference's median in
REFERENCE_SPEED; percentiles are taken over these normalized latencies.
Throughput is scaled by the reference's time over the program's. A figure
reads as the program's latency or throughput on a machine running the
reference at that speed; the phases cancel in the ratio.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
from scipy.special import betainc

from worker import WORKLOADS

SETUP_RUNS = 3  # program and reference interpreter couples per run; setup_s is their median

LOCAL = 2  # reference calls on each side of a program call that gauge the machine's speed

# The reference copy's own figures, the scale of each normalized metric:
# medians of its raw figures over five seeds on a 2-vCPU Intel Xeon KVM
# guest (Python 3, numpy/scipy as in each run's `env` line).
REFERENCE_SPEED = {
    "lib-256-onekey": {"embed_ms": 10.04, "extract_ms": 7.336, "pairs_per_s": 54.54,
                       "setup_s": 0.3622},
    "lib-1024-keychurn": {"embed_ms": 237.5, "extract_ms": 180.7, "pairs_per_s": 1.691,
                          "setup_s": 0.9625},
    "cli-512-files": {"embed_ms": 60.59, "extract_ms": 48.38, "pairs_per_s": 11.65,
                      "setup_s": 0.4640},
}
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def child(role: str, args, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        sys.exit(f"error: {role} process did not finish within {timeout:.0f} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"error: {role} process exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def l2_bytes_per_core():
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "2":
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * {"K": 1024, "M": 1 << 20}[size[-1]]
        except (OSError, ValueError, KeyError):
            return None
    return None


def environment(workload: str, imported: str) -> dict:
    host = WORKLOADS[workload] ** 2
    # float64 host, embedded, secret and recovered grids, complex128 secret field
    working_set = 8 * (2 * host + 2 * host // 4) + 16 * host // 4
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "working_set_bytes_computed": working_set,
        "l2_bytes_per_core": l2_bytes_per_core(),
        "src": str(SRC),
        "fresnelstego_file": imported,
    }


def p90(values):
    """Harrell-Davis estimate of the 90th percentile: a weighted mean of all
    order statistics, steadier on a few dozen samples than the one or two
    a plain percentile interpolates between."""
    n = len(values)
    cdf = betainc(0.9 * (n + 1), 0.1 * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ np.sort(values))


def loop_metrics(workload, rows, lines):
    """Normalized latency percentiles, and checked pairs per second of
    program time. A row is (embed ns, [extract ns, ...], pair ns, ok) for
    the program, then (embed ns, [extract ns, ...], pair ns) for the
    reference. Every extract call counts, the wrong-key one included."""
    speed = REFERENCE_SPEED[workload]
    embeds = [(r[0], r[4]) for r in rows if r[0] is not None]
    extracts = [both for r in rows if len(r[1]) == len(r[5]) for both in zip(r[1], r[5])]
    metrics = {}
    for name, both in (("embed", embeds), ("extract", extracts)):
        if len(both) < 2:
            sys.exit(f"error: {len(both)} {name} calls completed, too few to report")
        program, reference = (np.array(side) / 1e6 for side in zip(*both))
        local = [np.median(reference[max(0, i - LOCAL):i + LOCAL + 1]) for i in range(len(both))]
        normalized = speed[f"{name}_ms"] * program / local
        metrics[f"{name}_ms_p50"] = (float(np.median(normalized)), "ms")
        metrics[f"{name}_ms_p90"] = (p90(normalized), "ms")
        beyond = int(np.sum(normalized > metrics[f"{name}_ms_p90"][0]))
        lines.append(f"{name}: n={len(both)}, {beyond} beyond p90; raw program p50 = "
                     f"{np.median(program):.4f} ms, p90 = {p90(program):.4f} ms; raw "
                     f"reference p50 = {np.median(reference):.4f} ms, "
                     f"p90 = {p90(reference):.4f} ms")
    program_s = sum(r[2] for r in rows) / 1e9
    reference_s = sum(r[6] for r in rows) / 1e9
    metrics["pairs_per_s"] = (speed["pairs_per_s"] * reference_s / program_s, "1/s")
    lines.append(f"pairs: n={len(rows)}; raw program {len(rows) / program_s:.4f}/s, "
                 f"raw reference {len(rows) / reference_s:.4f}/s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "fresnelstego" / "__init__.py").is_file():
        sys.exit(f"error: no fresnelstego sources at {SRC}; run from a checkout of the repository")
    OUT.mkdir(exist_ok=True)

    # program and reference interpreters alternate, so each couple sees one machine speed
    setups = [] if args.trace else [child(role, args, 120) for _ in range(SETUP_RUNS)
                                    for role in ("setup", "reference-setup")]
    loop = child("loop", args, args.seconds + 120)

    for s in setups[1::2]:
        if s["failed"]:  # the yardstick itself is broken; no figure would mean anything
            sys.exit("error: reference copy failed its set-up pair: " + "; ".join(s["messages"]))
    program_setups = setups[::2]
    attempted = loop["attempted"] + sum(s["attempted"] for s in program_setups)
    failed = loop["failed"] + sum(s["failed"] for s in program_setups)
    messages = loop["messages"] + [m for s in program_setups for m in s["messages"]]
    lines = [f"{args.workload} seed {args.seed}: {loop['pairs']} timed pairs, "
             f"{failed} failed of {attempted} attempted"]
    correct = failed == 0
    if args.trace:
        from tracer import metric_catalogue
        metrics = {name: (loop["layers"][name], unit)
                   for name, (unit, _) in metric_catalogue().items()}
        for problem in loop["consistency"]:
            lines.append(f"trace inconsistency: {problem}")
            correct = False
    else:
        metrics = loop_metrics(args.workload, loop["rows"], lines)
        setup_s = [s["setup_s"] for s in setups]
        ratios = [p / r for p, r in zip(setup_s[::2], setup_s[1::2])]
        metrics["setup_s"] = (REFERENCE_SPEED[args.workload]["setup_s"]
                              * statistics.median(ratios), "s")
        metrics["peak_rss_mb"] = (loop["peak_rss_kb"] / 1024.0, "MB")
        metrics["pass_ratio"] = (1.0 - failed / attempted, "ratio")
        lines.append(f"failed_ratio = {failed / attempted} ({failed} of {attempted})")
        lines.append("raw setup s, program/reference = " + ", ".join(
            f"{p:.4f}/{r:.4f}" for p, r in zip(setup_s[::2], setup_s[1::2])))
    lines += [f"{name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"failure: {m}" for m in messages]
    lines.append("env " + json.dumps(environment(args.workload, loop["fresnelstego_file"])))
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
