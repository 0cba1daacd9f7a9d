"""Consistency check of the benchmark's own tracing.

Two traced runs on one seed must give identical per-layer call counts,
and each must pass its span check (every pair's self times sum to its
root span's duration, and no library call runs outside a pair):

    python3 perfbench/selfcheck.py

Exits 0 when every workload passes, 1 otherwise.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from worker import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 1
SECONDS = 4.0  # per traced run


def traced(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=SECONDS + 300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = (traced(workload) for _ in range(2))
        calls = [{name: m["value"] for name, m in run["metrics"].items()
                  if name.endswith(".calls")} for run in (first, second)]
        differing = sorted(name for name in calls[0] if calls[0][name] != calls[1].get(name))
        passed = first["correct"] and second["correct"] and not differing
        ok &= passed
        print(f"{workload}: {'ok' if passed else 'FAILED'} "
              f"({len(calls[0])} call counts, correct={first['correct']}/{second['correct']}"
              + (f", differing: {', '.join(differing)}" if differing else "") + ")")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
