"""One benchmark process. run.py starts it; it prints one JSON line.

Roles:
  setup            a fresh interpreter makes the inputs, then times
                   everything from `import fresnelstego` (key load
                   included) to the end of the first checked pair.
  reference-setup  the same with the frozen copy in reference/.
  loop             makes the inputs, imports both packages, runs one
                   untimed warm-up cycle of each, then runs checked pairs
                   back to back for --seconds: one closed-loop client, no
                   threads. Each program pair is followed or preceded (the
                   order alternates by cycle) by the same pair on the
                   reference copy, so both see the same machine speed.
                   With --trace 1 there is no reference; untraced and
                   traced blocks alternate, half the time each.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

import checks
import inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = {  # name -> host side
    "lib-256-onekey": 256,
    "lib-1024-keychurn": 1024,
    "cli-512-files": 512,
}
POOL = 3  # distinct seeded (host, secret) pairs each workload cycles through
TRACE_BLOCKS = 3  # untraced/traced block pairs in a traced run


class Library:
    """embed then extract through the library on in-memory arrays."""

    cycle = 1

    def __init__(self, seed, host_side, churn):
        self.seed, self.host_side, self.churn = seed, host_side, churn
        self.pool = inputs.image_pairs(seed, host_side, POOL)
        self.keys = {}  # package name -> the one key, when keys do not churn

    def _key(self, fs, values):
        return fs.StegoKey(
            fresnel=fs.FresnelParams(values.wavelength, values.distance, values.pitch),
            arnold_iterations=values.arnold_iterations, strength=values.strength)

    def load(self, fs):
        if not self.churn:
            self.keys[fs.__name__] = self._key(fs, inputs.draw_key(self.seed, 0, self.host_side))

    def pair(self, fs, i):
        host, secret = self.pool[i % POOL]
        if self.churn:
            key = self._key(fs, inputs.draw_key(self.seed, i, self.host_side))
        else:
            key = self.keys[fs.__name__]
        t0 = perf_counter_ns()
        embedded = fs.embed(host, secret, key).embedded
        t1 = perf_counter_ns()
        recovered = fs.extract(embedded, host, key)
        t2 = perf_counter_ns()
        extracts = [t2 - t1]
        problems = [checks.round_trip(recovered, secret)]
        if self.churn:
            # a plan cache keyed on too little would make this extract succeed
            wrong = fs.StegoKey(fresnel=key.fresnel, strength=key.strength,
                                arnold_iterations=key.arnold_iterations + 1)
            t3 = perf_counter_ns()
            garbled = fs.extract(embedded, host, wrong)
            extracts.append(perf_counter_ns() - t3)
            problems.append(checks.wrong_key(garbled, secret))
        return t1 - t0, extracts, problems


class Cli:
    """cli_main in-process on PGM files and a key file. Even requests embed
    --mode float and extract that file; odd ones embed --mode u8, checked on
    the PSNR of the delivered file alone, since 8-bit extraction misses the
    round-trip threshold by design."""

    cycle = 2

    def __init__(self, seed, host_side, workdir):
        self.dir = workdir
        self.pool = inputs.image_pairs(seed, host_side, POOL)
        for n, (host, secret) in enumerate(self.pool):
            inputs.write_pgm(host, workdir / f"host{n}.pgm")
            inputs.write_pgm(secret, workdir / f"secret{n}.pgm")
        (workdir / "k.key").write_text(inputs.draw_key(seed, 0, host_side).key_text())

    def load(self, fs):
        pass  # each command loads the key file itself

    def _run(self, fs, *argv):
        out = Path(argv[argv.index("--out") + 1])
        out.unlink(missing_ok=True)  # a failed command must not leave a stale file to check
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = perf_counter_ns()
            code = fs.cli.cli_main([str(a) for a in argv])
            elapsed = perf_counter_ns() - t0
        if code != 0:
            raise checks.CheckFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return elapsed

    def pair(self, fs, i):
        n = i % POOL
        d = self.dir
        host, secret, key = d / f"host{n}.pgm", d / f"secret{n}.pgm", d / "k.key"
        if i % 2:
            embed_ns = self._run(fs, "embed", "--host", host, "--secret", secret, "--key", key,
                                 "--out", d / "emb.pgm", "--mode", "u8")
            return embed_ns, [], [checks.u8_delivery(checks.read_pgm(d / "emb.pgm"),
                                                       self.pool[n][0])]
        embed_ns = self._run(fs, "embed", "--host", host, "--secret", secret, "--key", key,
                             "--out", d / "emb.fimg", "--mode", "float")
        extract_ns = self._run(fs, "extract", "--embedded", d / "emb.fimg", "--host", host,
                               "--key", key, "--out", d / "rec.fimg")
        return embed_ns, [extract_ns], [checks.round_trip(checks.read_fimg(d / "rec.fimg"),
                                                        self.pool[n][1])]


def make_workload(name, seed, workdir):
    if name == "cli-512-files":
        return Cli(seed, WORKLOADS[name], workdir)
    return Library(seed, WORKLOADS[name], churn=name == "lib-1024-keychurn")


def import_package(name: str, root: Path):
    """Import package `name` from directory `root`, and nowhere else."""
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    fs = importlib.import_module(name)
    importlib.import_module(f"{name}.cli")
    if not Path(fs.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"imported {fs.__file__}, not the sources under {root}")
    return fs


def import_program():
    return import_package("fresnelstego", SRC)


def import_reference():
    return import_package("reference", HERE)


class Loop:
    """Runs pairs back to back and keeps the counts."""

    def __init__(self, workload, fs, reference=None):
        self.workload, self.fs, self.reference = workload, fs, reference
        self.next_id = 0
        self.attempted = self.failed = 0
        self.messages = []

    def run(self, seconds, rows=None, tracer=None):
        """Whole cycles until `seconds` have passed; returns (pairs, elapsed s).

        With `rows`, each pair appends (embed ns, [extract ns, ...],
        pair ns, ok), then, with a reference, the reference's (embed ns,
        [extract ns, ...], pair ns) for the same pair."""
        start = perf_counter()
        pairs = 0
        cycles = 0
        while True:
            for _ in range(self.workload.cycle):
                if self.reference is None:
                    row = self.one(tracer)
                elif cycles % 2:
                    ref = self.one_reference(self.next_id)
                    row = self.one() + ref
                else:
                    row = self.one()
                    row += self.one_reference(self.next_id - 1)
                if rows is not None:
                    rows.append(row)
                pairs += 1
            cycles += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                return pairs, elapsed

    def one(self, tracer=None):
        i = self.next_id
        self.next_id += 1
        self.attempted += 1
        scope = tracer.pair(i) if tracer else contextlib.nullcontext()
        t0 = perf_counter_ns()
        try:
            with scope:
                e, x, problems = self.workload.pair(self.fs, i)
        except Exception as exc:  # a raised error fails the pair, and the loop goes on
            e, x = None, []
            problems = [f"{type(exc).__name__}: {exc}"]
        pair_ns = perf_counter_ns() - t0
        problems = [p for p in problems if p]
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"pair {i}: " + "; ".join(problems))
        return e, x, pair_ns, not problems

    def one_reference(self, i):
        """Pair `i` on the frozen copy. It is the yardstick, not the
        program under test, so a failure here stops the run."""
        t0 = perf_counter_ns()
        e, x, problems = self.workload.pair(self.reference, i)
        pair_ns = perf_counter_ns() - t0
        problems = [p for p in problems if p]
        if problems:
            raise SystemExit(f"reference copy failed pair {i}: " + "; ".join(problems))
        return e, x, pair_ns


def role_setup(args, workload, importer):
    t0 = perf_counter()
    fs = importer()
    workload.load(fs)
    loop = Loop(workload, fs)
    loop.one()
    return {"setup_s": perf_counter() - t0, "attempted": loop.attempted,
            "failed": loop.failed, "messages": loop.messages}


def role_loop(args, workload):
    fs = import_program()
    workload.load(fs)
    reference = None if args.trace else import_reference()
    if reference is not None:
        workload.load(reference)
    loop = Loop(workload, fs, reference)
    loop.run(0.0)  # warm-up cycle: lazy set-up and first-call costs stay out of the timing
    out = {"fresnelstego_file": str(Path(fs.__file__).resolve())}
    if not args.trace:
        rows = []
        pairs, _ = loop.run(args.seconds, rows)
        out.update(pairs=pairs, rows=rows,
                   peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    else:
        from tracer import Tracer
        tracer = Tracer()
        block = args.seconds / (2 * TRACE_BLOCKS)
        plain_pairs = plain_elapsed = pairs = elapsed = 0
        # untraced and traced blocks alternate, so a drift in machine speed
        # falls on both sides of trace.overhead_pct alike
        for _ in range(TRACE_BLOCKS):
            n, t = loop.run(block)
            plain_pairs, plain_elapsed = plain_pairs + n, plain_elapsed + t
            tracer.install(fs)
            try:
                n, t = loop.run(block, tracer=tracer)
            finally:
                tracer.uninstall()
            pairs, elapsed = pairs + n, elapsed + t
        self_ns = tracer.self_times()
        layers = tracer.metrics(self_ns, pairs)
        layers["trace.pairs"] = pairs
        layers["trace.overhead_pct"] = 100.0 * ((plain_pairs / plain_elapsed)
                                                / (pairs / elapsed) - 1.0)
        tracer.write(OUT / f"spans-{args.workload}.csv")
        out.update(pairs=pairs, layers=layers, consistency=tracer.consistency_errors(self_ns)[:5])
    out.update(attempted=loop.attempted, failed=loop.failed, messages=loop.messages)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "reference-setup", "loop"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = make_workload(args.workload, args.seed, Path(tmp))
        if args.role == "loop":
            result = role_loop(args, workload)
        else:
            importer = import_program if args.role == "setup" else import_reference
            result = role_setup(args, workload, importer)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
