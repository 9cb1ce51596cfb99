"""Span tracer that wraps the package from outside, at module boundaries.

``install`` replaces every public function of each layer module, at every
name the package's modules look it up by, with a wrapper that records a
span: layer, name, start, end, parent span and whether it raised.  Classes
that validate in ``__post_init__`` get that method wrapped instead, so a
state built anywhere is charged to its own layer.  ``numpy.linalg.eigh`` /
``eigvalsh``, ``numpy.kron``, the simplex pivot step and the LP constraint
build are counted, not timed.  Nothing is recorded unless ``active`` is set,
which ``run_op`` does for the duration of one operation.

Span times are process CPU time, like the benchmark's op costs.  A layer's
self time is its spans' durations minus the time of their child spans.  The root span of each operation belongs to layer ``op``; its self
time is the share of operation time that no layer span covers.  The
aggregates cover every traced operation; the spans themselves are kept, in
memory until ``write`` is called at exit, for the first ``keep_ops``
operations only, which bounds memory and the size of the written file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from pathlib import Path

LAYERS = ("linalg", "states", "observables", "certification", "simplex", "lhv", "io", "cli")

#: (module, attribute, counter) triples counted while an operation runs.
COUNTED = (
    ("numpy.linalg", "eigh", "linalg.eigh_calls"),
    ("numpy.linalg", "eigvalsh", "linalg.eigh_calls"),
    ("numpy", "kron", "observables.kron_calls"),
    ("hardycert.simplex", "_pivot", "simplex.pivots"),
    ("hardycert.lhv", "strategy_constraint_matrix", "lhv.constraint_builds"),
)


class Tracer:
    def __init__(self, keep_ops: int) -> None:
        self.keep_ops = keep_ops
        self.started = 0
        self.active = False
        self.op_id = -1
        self.spans: list[tuple] = []
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []
        self._patches: list[tuple] = []

    def wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][1] if stack else -1
            frame = [0, tracer.started]
            tracer.started += 1
            stack.append(frame)
            raised = True
            start = time.process_time_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.process_time_ns()
                stack.pop()
                duration = end - start
                tracer.self_ns[layer] += duration - frame[0]
                tracer.total_ns[layer] += duration
                if stack:
                    stack[-1][0] += duration
                tracer.calls[layer] += 1
                tracer.failed[layer] += raised
                if tracer.op_id < tracer.keep_ops:
                    tracer.spans.append((frame[1], parent, tracer.op_id, layer, name, start, end, raised))

        return span

    def count(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def run_op(self, op_id: int, fn, *args):
        """Run one operation under a root span of layer ``op``."""
        self.op_id = op_id
        self.active = True
        try:
            return self.wrap("op", "op", fn)(*args)
        finally:
            self.active = False

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        layer_modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        lookups = [package, *layer_modules.values()]
        for module_name, attr, key in COUNTED:
            owner = importlib.import_module(module_name)
            if hasattr(owner, attr):
                self._patch(owner, attr, self.count(key, getattr(owner, attr)))
        for layer, module in layer_modules.items():
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped = self.wrap(layer, f"{layer}.{name}", value)
                    for owner in lookups:
                        for attr, bound in list(vars(owner).items()):
                            if bound is value:
                                self._patch(owner, attr, wrapped)
                elif inspect.isclass(value) and "__post_init__" in vars(value):
                    post_init = vars(value)["__post_init__"]
                    self._patch(value, "__post_init__", self.wrap(layer, f"{layer}.{name}", post_init))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: id, parent, op, layer, name, start_ns, end_ns, raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write("id\tparent\top\tlayer\tname\tstart_ns\tend_ns\traised\n")
            for span in sorted(self.spans):
                handle.write("\t".join(str(int(v)) if isinstance(v, bool) else str(v) for v in span) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op layer figures: self time, calls, failures and the counters."""
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = tracer.self_ns[layer] / 1e6 / ops
        metrics[f"{layer}.calls"] = tracer.calls[layer] / ops
        metrics[f"{layer}.failed"] = tracer.failed[layer] / ops
    for _, _, key in COUNTED:
        metrics[key] = tracer.counts[key] / ops
    op_ns = tracer.total_ns["op"]
    metrics["trace.uncovered_frac"] = tracer.self_ns["op"] / op_ns if op_ns else 0.0
    return metrics


__all__ = ["LAYERS", "Tracer", "layer_metrics"]
