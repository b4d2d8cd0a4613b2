"""Span recorder for the traced benchmark run.

The program is not instrumented. Instead the recorder replaces public
functions at the module attributes their callers look up (for example
``lrdnet.cli.estimate_s`` or ``lrdnet.model.truncated_inverse``) with wrappers
that record one span per call: name, start, end, parent span and op id.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter


def _samples(args, kwargs) -> float:
    """Samples a simulate call produces, burn-in included."""
    return float(kwargs.get("num_samples", args[1] if len(args) > 1 else 0)) + float(
        kwargs.get("burn_in", args[2] if len(args) > 2 else 0)
    )


def _file_mb(position: int):
    def measure(args, kwargs) -> float:
        path = kwargs.get("path", args[position] if len(args) > position else None)
        try:
            return os.path.getsize(path) / 1e6
        except (OSError, TypeError):
            return 0.0

    return measure


# (module, attribute, span name, per-call measure). The same span name may sit
# at several attributes when callers in different modules import the function.
TARGETS = (
    ("lrdnet.cli", "main", "cli.main", None),
    ("lrdnet.cli", "run_experiment", "cli.run_experiment", None),
    ("lrdnet.cli", "random_model", "model.random_model", None),
    ("lrdnet.cli", "validate", "model.validate", None),
    ("lrdnet.model", "validate", "model.validate", None),
    ("lrdnet.model", "truncated_inverse", "polymat.truncated_inverse", None),
    ("lrdnet.wiener", "truncated_inverse", "polymat.truncated_inverse", None),
    ("lrdnet.topology", "truncated_inverse", "polymat.truncated_inverse", None),
    ("lrdnet.cli", "simulate", "sim.simulate", _samples),
    ("lrdnet.cli", "write_csv", "sim.write_csv", _file_mb(1)),
    ("lrdnet.cli", "read_csv", "sim.read_csv", _file_mb(0)),
    ("lrdnet.cli", "estimate_h", "wiener.estimate_h", None),
    ("lrdnet.cli", "estimate_s", "wiener.estimate_s", None),
    ("lrdnet.cli", "edge_test_table", "topology.edge_test_table", None),
    ("lrdnet.topology", "edge_test_table", "topology.edge_test_table", None),
    ("lrdnet.topology", "edge_test", "topology.edge_test", None),
    ("lrdnet.cli", "decide_graph", "topology.decide_graph", None),
    ("lrdnet.cli", "partition_select", "topology.partition_select", None),
)


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "error", "amount")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.error = None
        self.amount = 0.0


class Recorder:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if measure is not None:
                    span.amount = measure(args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a target the program no longer has
        is listed in ``missing`` and its metrics read zero."""
        self.missing = []
        for module_name, attr, name, measure in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, measure))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def top_level_seconds(self) -> dict[int, float]:
        """Summed duration of the spans with no parent, per op."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s.parent < 0:
                out[s.op] = out.get(s.op, 0.0) + (s.end - s.start)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines of [name, op, parent, start_s, end_s, error, amount]."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.op, s.parent, s.start, s.end, s.error, s.amount]) + "\n")


def layer_metrics(rec: Recorder, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, per traced op."""
    own = rec.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    amount: dict[str, float] = {}
    failed: dict[str, int] = {}
    for s, t in zip(rec.spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        amount[s.name] = amount.get(s.name, 0.0) + s.amount
        if s.error is not None:
            failed[s.name] = failed.get(s.name, 0) + 1
    draws = sum(
        1 for s in rec.spans
        if s.name == "model.validate" and s.parent >= 0 and rec.spans[s.parent].name == "model.random_model"
    )
    accepted = calls.get("model.random_model", 0) - failed.get("model.random_model", 0)
    sim_s = self_s.get("sim.simulate", 0.0)

    def per_op(x):
        return x / ops

    out = {}
    for name in (
        "polymat.truncated_inverse", "model.random_model", "model.validate", "sim.simulate",
        "wiener.estimate_s", "topology.edge_test", "topology.partition_select",
    ):
        out[f"{name}.calls"] = (per_op(calls.get(name, 0)), "count/op")
    for name in (
        "polymat.truncated_inverse", "model.random_model", "model.validate", "sim.simulate",
        "sim.write_csv", "sim.read_csv", "wiener.estimate_s", "wiener.estimate_h",
        "topology.edge_test", "topology.edge_test_table", "topology.decide_graph",
        "topology.partition_select", "cli.run_experiment", "cli.main",
    ):
        out[f"{name}.self_ms"] = (per_op(self_s.get(name, 0.0) * 1e3), "ms/op")
    out["model.draw_accept_ratio"] = (accepted / draws if draws else 0.0, "ratio")
    out["sim.samples_per_s"] = (amount.get("sim.simulate", 0.0) / sim_s if sim_s else 0.0, "1/s")
    out["sim.write_csv.mb"] = (per_op(amount.get("sim.write_csv", 0.0)), "MB/op")
    out["sim.read_csv.mb"] = (per_op(amount.get("sim.read_csv", 0.0)), "MB/op")
    out["topology.partition_select.failed"] = (per_op(failed.get("topology.partition_select", 0)), "count/op")
    return out
