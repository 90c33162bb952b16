"""In-memory span recorder for the benchmark's traced run.

Spans go around calls into the program's public functions, made from
the benchmark's own files; nothing inside ``repro`` is instrumented.
A span records its name, start, end, the span that was open when it
began (its parent) and a trace id shared by all spans of one unit of
work.  Spans stay in memory until :meth:`Tracer.write` at the end of
the run, so recording costs two clock reads and one list append.

A span's *self time* is its duration minus the durations of its
direct children.  The benchmark is single-threaded while tracing, so
children never overlap and the subtraction is exact.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

# (id, parent id or -1, trace id, name, start ns, end ns)
Span = Tuple[int, int, str, str, int, int]


class Tracer:
    """Collects spans and counts; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent, parent_trace = self._stack[-1] if self._stack else (-1, "")
        trace_id = trace if trace is not None else parent_trace
        self._stack.append((span_id, trace_id))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, trace_id, name, start, end))

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a named count."""
        if self.enabled:
            self.counts[name] += value

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        child_ns: Dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            totals[name] += (end - start - child_ns[span_id]) / 1e9
        return dict(totals)

    def durations_ms(self, name: str) -> List[float]:
        """Wall durations of every span called ``name``, in ms."""
        return [
            (end - start) / 1e6
            for _, _, _, span_name, start, end in self.spans
            if span_name == name
        ]

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, trace, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "trace": trace,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )
