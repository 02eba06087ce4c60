"""In-memory spans around the layer calls the benchmark makes.

A span records a name, its start and end (``time.perf_counter``), the
span that caused it and the trace it belongs to.  Spans are kept in a
list and written out once, when the run ends.  A layer's self time is
its span's duration minus the durations of its direct children; calls
run one at a time, so children never overlap.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float = float("nan")
    count: Optional[int] = None  # work done inside the span, e.g. steps

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans for one process; one open trace at a time."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._trace_id = None

    @contextmanager
    def trace(self, trace_id):
        """Root span ``trace`` for one unit of work (a trace or a sweep call)."""
        if self._stack:
            raise RuntimeError("traces do not nest")
        self._trace_id = trace_id
        try:
            with self.span("trace") as root:
                yield root
        finally:
            self._trace_id = None

    @contextmanager
    def span(self, name):
        if self._trace_id is None:
            raise RuntimeError(f"span {name!r} outside a trace")
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(name, self._trace_id, len(self.spans), parent,
                  time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        """``fn`` with every call recorded as a span named ``name``.

        ``count``, when given, maps the call's result to the amount of
        work it did, which is stored on the span.
        """
        def call(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if count is not None:
                    sp.count = count(result)
                return result
        return call

    def self_times(self):
        """Map span id -> duration minus the durations of its direct children."""
        own = {sp.span_id: sp.duration for sp in self.spans}
        for sp in self.spans:
            if sp.parent_id is not None:
                own[sp.parent_id] -= sp.duration
        return own

    def check_self_times(self):
        """Raise unless every trace's layer self times sum to at most its wall time."""
        own = self.self_times()
        wall, layers = {}, {}
        for sp in self.spans:
            if sp.name == "trace":
                wall[sp.trace_id] = sp.duration
            else:
                layers[sp.trace_id] = layers.get(sp.trace_id, 0.0) + own[sp.span_id]
        for trace_id, total in layers.items():
            # 1 ns slack: the sums are of float differences of the same clock
            if total > wall[trace_id] + 1e-9:
                raise RuntimeError(
                    f"trace {trace_id}: layer self times {total:.6f} s exceed "
                    f"its wall time {wall[trace_id]:.6f} s")

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(sp) for sp in self.spans], fh)
