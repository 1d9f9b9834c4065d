"""In-memory spans for the traced benchmark run.

A span has a name, a start, an end and the index of its parent span.  Spans
stay in memory while the run works and are written out once, at its end.
"""

from __future__ import annotations

import contextlib
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self):
        """Per span: its duration minus the part its children cover."""
        children = [[] for _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for (name, start, end, _), kids in zip(self.spans, children):
            covered, reach = 0.0, start
            for k_start, k_end in sorted(kids):
                k_start, k_end = max(k_start, reach), min(k_end, end)
                if k_end > k_start:
                    covered += k_end - k_start
                    reach = k_end
            out.append(end - start - covered)
        return out

    def self_time_summary(self):
        """Total and median self time in seconds, and span count, per name."""
        grouped = {}
        for span, own in zip(self.spans, self.self_times()):
            grouped.setdefault(span[0], []).append(own)
        return {name: {"count": len(v), "total_s": sum(v),
                       "p50_s": statistics.median(v)}
                for name, v in sorted(grouped.items())}

    def export(self):
        """Spans with times relative to the first, and the self-time summary."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {"self_times": self.self_time_summary(),
                "spans": [{"name": n, "start": s - origin, "end": e - origin,
                           "parent": p} for n, s, e, p in self.spans]}


class NullTracer:
    """Tracer for untraced runs: a span costs one null context."""

    @staticmethod
    def span(name):
        return contextlib.nullcontext()
