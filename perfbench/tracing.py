"""In-memory spans and counts around the benchmark's calls into the library.

A span records its name, start, end and the index of the span that was
open when it began (its parent, -1 at top level).  Spans stay in memory
for the whole traced pass and are summarised when it ends; a layer's
self time is its span's duration minus the time covered by its child
spans.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Untraced:
    """Stand-in for :class:`Tracer` when tracing is off."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


UNTRACED = Untraced()


class Tracer:
    """Collects one span per :meth:`call` and sums :meth:`count` values."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def count(self, name, n=1):
        self.counts[name] += n

    def summary(self, root: str) -> tuple[float, float, dict, dict]:
        """Aggregate the spans under top-level spans called ``root``.

        Returns the total root time, the part of it covered by direct
        child spans, and per-name call counts and self times.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        root_s = covered_s = 0.0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if name == root and parent < 0:
                root_s += end - start
                covered_s += child_time[idx]
                continue
            calls[name] += 1
            self_s[name] += end - start - child_time[idx]
        return root_s, covered_s, calls, self_s
