"""Outside-in tracer for the fresnelstego layers.

No source file is edited. install() wraps each public function of the
layer modules, at its bindings in the package namespace and in every
layer module (the names one layer took from another with
`from .x import y` included), with a wrapper that records one span per
call; uninstall() puts the originals back. Spans stay in memory and are
written once, after the run.

A layer is one of the package modules in LAYERS. A module outside them
(one a later change adds, say) is not wrapped, so its time stays in its
caller's self time. A function that a later change deletes, or a layer
module it removes, simply reports 0 calls.
"""
from __future__ import annotations

import csv
import functools
import importlib
import inspect
import importlib.util
import os
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYERS = ("arnold", "numerics", "fresnel", "wavelet_dct", "fresnelet",
          "stego_pipeline", "metrics", "formats", "cli")
ROOT = "pair"

# Sub-layers named by the benchmark: (layer, function names).
GROUPS = {
    "arnold.gather": ("arnold", ("scramble", "unscramble")),
    "numerics.validate": ("numerics", ("as_image", "as_field", "as_grid")),
    "numerics.fft": ("numerics", ("fft2", "ifft2")),
    "wavelet_dct.haar": ("wavelet_dct", ("dwt2", "idwt2")),
    "wavelet_dct.dct": ("wavelet_dct", ("dct2", "idct2")),
    "metrics.compare": ("metrics", ("compare",)),
}

# Per-layer metric name suffix -> (unit, better).
LAYER_METRICS = {
    "calls": ("calls/pair", "lower"),
    "self_ms": ("ms/pair", "lower"),
    "bytes": ("computed_B/pair", "lower"),
    "errors": ("errors/pair", "lower"),
}


def metric_catalogue():
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    out = {f"{layer}.{suffix}": spec
           for layer in LAYERS for suffix, spec in LAYER_METRICS.items()}
    for group in GROUPS:
        out[f"{group}.calls"] = LAYER_METRICS["calls"]
        out[f"{group}.self_ms"] = LAYER_METRICS["self_ms"]
    out["formats.bytes_read"] = ("B/pair", "lower")
    out["formats.bytes_written"] = ("B/pair", "lower")
    out["bench.self_ms"] = ("ms/pair", "lower")
    out["trace.pairs"] = ("count", "higher")
    out["trace.overhead_pct"] = ("%", "lower")
    return out


class Span:
    __slots__ = ("layer", "name", "parent", "pair", "start", "end",
                 "nbytes", "read", "written", "error")

    def __init__(self, layer, name, parent, pair):
        self.layer, self.name, self.parent, self.pair = layer, name, parent, pair
        self.start = self.end = 0
        self.nbytes = self.read = self.written = 0
        self.error = False


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):  # argument tuples, QuadBands, EmbedResult
        return sum(_array_bytes(v) for v in value)
    return 0


def _file_bytes(args) -> int:
    return sum(os.path.getsize(a) for a in args
               if isinstance(a, (str, os.PathLike)) and os.path.isfile(a))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pair = None
        self._patched = []

    def install(self, package) -> None:
        names = [f"{package.__name__}.{layer}" for layer in LAYERS]
        layers = [importlib.import_module(name) for name in names
                  if importlib.util.find_spec(name) is not None]
        modules = [package] + layers
        wrappers = {}
        for module in layers:
            layer = module.__name__.rpartition(".")[2]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and callable(obj) and not inspect.isclass(obj)
                        and getattr(obj, "__module__", None) == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def _open(self, layer, name) -> Span:
        stack = self._stack
        span = Span(layer, name, stack[-1] if stack else None, self._pair)
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, layer, name, fn):
        reads = layer == "formats" and name.startswith(("read", "load"))
        writes = layer == "formats" and name.startswith("write")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            # a formats call nested in another (write_image -> write_pgm)
            # must not count the same file twice
            outermost = span.parent is None or self.spans[span.parent].layer != "formats"
            span.nbytes = _array_bytes(args) + _array_bytes(list(kwargs.values()))
            if reads and outermost:
                span.read = _file_bytes(args)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True  # raised here or passing through; see metrics()
                raise
            finally:
                span.end = perf_counter_ns()
                self._stack.pop()
            span.nbytes += _array_bytes(result)
            if writes and outermost:
                span.written = _file_bytes(args)
            return result

        return traced

    @contextmanager
    def pair(self, pair_id):
        """Root span of one request; every library call inside is its child."""
        self._pair = pair_id
        span = self._open(ROOT, ROOT)
        span.start = perf_counter_ns()
        try:
            yield
        finally:
            span.end = perf_counter_ns()
            self._stack.pop()
            self._pair = None

    def self_times(self) -> list[int]:
        """Each span's duration minus the part of it its children cover."""
        children = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for index, span in enumerate(self.spans):
            covered, reach = 0, span.start
            for child in children.get(index, ()):  # in start order
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.end - span.start - covered)
        return out

    def consistency_errors(self, self_ns) -> list[str]:
        """Spans outside a pair, or pairs whose self times do not sum to the
        root span's duration."""
        errors, sums, roots = [], {}, {}
        for span, own in zip(self.spans, self_ns):
            if span.pair is None:
                errors.append(f"{span.layer}.{span.name} ran outside a pair")
                continue
            sums[span.pair] = sums.get(span.pair, 0) + own
            if span.layer == ROOT:
                roots[span.pair] = span.end - span.start
        for pair_id, duration in roots.items():
            if sums[pair_id] != duration:
                errors.append(f"pair {pair_id}: self times sum to {sums[pair_id]} ns, "
                              f"root span lasts {duration} ns")
        return errors

    def metrics(self, self_ns, pairs: int) -> dict[str, float]:
        """Per-pair totals for each layer and group; 0 where nothing ran."""
        totals = dict.fromkeys(metric_catalogue(), 0.0)
        group_of = {(layer, name): group
                    for group, (layer, names) in GROUPS.items() for name in names}
        # an error counts once, in the span that raised it: the errored span
        # none of whose children errored
        passed_on = {span.parent for span in self.spans if span.error}
        for index, (span, own) in enumerate(zip(self.spans, self_ns)):
            if span.layer == ROOT:
                totals["bench.self_ms"] += own / 1e6
                continue
            prefix = span.layer
            if f"{prefix}.calls" in totals:
                totals[f"{prefix}.calls"] += 1
                totals[f"{prefix}.self_ms"] += own / 1e6
                totals[f"{prefix}.bytes"] += span.nbytes
                totals[f"{prefix}.errors"] += span.error and index not in passed_on
            group = group_of.get((span.layer, span.name))
            if group is not None:
                totals[f"{group}.calls"] += 1
                totals[f"{group}.self_ms"] += own / 1e6
            totals["formats.bytes_read"] += span.read
            totals["formats.bytes_written"] += span.written
        return {name: value / pairs for name, value in totals.items()
                if not name.startswith("trace.")}

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "pair", "layer", "name", "start_ns", "end_ns",
                          "array_bytes", "bytes_read", "bytes_written", "error"))
            for index, s in enumerate(self.spans):
                out.writerow((index, "" if s.parent is None else s.parent, s.pair, s.layer,
                              s.name, s.start, s.end, s.nbytes, s.read, s.written,
                              int(s.error)))
