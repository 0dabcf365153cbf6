"""Span tracing of weilflow from outside its source.

A span is recorded wherever one weilflow module calls a function it imported
from another weilflow module (the tracer replaces that module's name, so
`formula.phi_ladder` and `exterior.charpoly` are wrapped where they are
called), wherever the benchmark calls the package, and around formula's own
stages, so that spans nest as verify -> trace_j -> phi_ladder. A span is named
after the module that defines the function: `bumps.phi_ladder`.

Spans stay in memory as [name, start, end, parent index, op id] and are written
out when the run ends. A span's self time is its duration minus the durations
of its direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import weilflow
import weilflow.cli
from weilflow.bumps import GL_ORDER

# intra-module calls traced on top of the import boundaries
FORMULA_STAGES = ("spectral_side_zero_sum", "trace_j", "spectral_side_closed_form", "geometric_side")
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = "setup"
        self.ladder = {"points": 0, "nodes": 0, "panels_max": 0}
        self.n_max_bits = 0
        self._stack: list = []
        self._patched: list = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, fn):
        """Call fn() as operation op_id under one root span."""
        self.op = op_id
        span = self._open(OP_SPAN)
        try:
            return fn()
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        observe = {"bumps.phi_ladder": self._observe_ladder,
                   "counting.build_count_table": self._observe_counts}.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_ladder(self, args, kwargs, result) -> None:
        count = args[4] if len(args) > 4 else kwargs["count"]
        panels = result[2]
        self.ladder["points"] += count
        self.ladder["nodes"] += panels * GL_ORDER * count
        self.ladder["panels_max"] = max(self.ladder["panels_max"], panels)

    def _observe_counts(self, args, kwargs, result) -> None:
        self.n_max_bits = max(self.n_max_bits, max(n.bit_length() for n in result.counts))

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        """Wrap every traced name; undone by uninstall()."""
        modules = [m for key, m in sys.modules.items()
                   if key == "weilflow" or key.startswith("weilflow.")]
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or not fn.__module__.startswith("weilflow."):
                    continue
                imported = fn.__module__ != module.__name__
                stage = module is weilflow.formula and attr in FORMULA_STAGES
                entry = module is weilflow.cli and attr == "main"
                if imported or stage or entry:
                    name = fn.__module__.rsplit(".", 1)[1] + "." + fn.__name__
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def self_times(self) -> list:
        """Self time of each span, in span order."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]

    def layer_totals(self) -> dict:
        """{span name: (calls, summed self time)} over the whole run."""
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += own
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path: Path, origin: float) -> None:
        """Spans as JSON lines, times in seconds from origin."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "op": op}) + "\n")
