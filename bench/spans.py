"""In-memory spans around the benchmark's calls into lossprobe.

A span records its name, the layer (module) it times, start, end, parent
span and operation id.  Spans stay in a list until the run ends; then they
are written out as JSON lines and folded into per-call medians, call counts
and per-layer self time.  `NULL` has the same interface and records nothing,
so the untraced replay runs the identical steps.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("primes", "core", "exact", "precision", "mia", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, str, float, float, int, int]] = []
        self.alloc_peak_mb = 0.0
        self._stack: list[int] = []
        self._op = -1
        self._next = 0

    @contextmanager
    def op(self):
        """Root span of the next operation; step spans opened inside nest under it."""
        self._op += 1
        with self.span("bench", "op"):
            yield

    @contextmanager
    def span(self, layer: str, name: str, track_alloc: bool = False):
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        if track_alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if track_alloc:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.alloc_peak_mb = max(self.alloc_peak_mb, peak)
            self._stack.pop()
            self.spans.append((span_id, layer, name, start, end, parent, self._op))

    def write(self, path: Path) -> None:
        keys = ("id", "layer", "name", "start", "end", "parent", "op")
        with path.open("w") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def summary(self) -> dict:
        """Per-call median ms and call count per name, self ms per layer and op."""
        durations: dict[str, list[float]] = {}
        children: dict[int, float] = {}
        for _, _, name, start, end, parent, _ in self.spans:
            durations.setdefault(name, []).append(end - start)
            children[parent] = children.get(parent, 0.0) + (end - start)
        self_time = {layer: 0.0 for layer in (*LAYERS, "bench")}
        ops = set()
        for span_id, layer, _, start, end, _, op in self.spans:
            self_time[layer] += (end - start) - children.get(span_id, 0.0)
            ops.add(op)
        per_op = max(1, len(ops))
        return {
            "calls": {name: len(d) for name, d in durations.items()},
            "ms": {name: 1000 * statistics.median(d) for name, d in durations.items()},
            "self_ms": {layer: 1000 * t / per_op for layer, t in self_time.items()},
            "spans": len(self.spans),
            "alloc_peak_mb": self.alloc_peak_mb,
        }


class _NullTracer:
    @contextmanager
    def op(self):
        yield

    @contextmanager
    def span(self, layer: str, name: str, track_alloc: bool = False):
        yield


NULL = _NullTracer()
