"""
Spans recorded by the benchmark around its own calls into the package, and
the reduction of spans to self time.

A span is ``(id, name, start_ns, end_ns, parent_id, request)``.  Spans stay
in memory until the run ends.  The package itself is never patched: a span
only brackets a call the benchmark makes.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    request: object


class Tracer:
    """Collects spans when enabled; when disabled every method is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request=None):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(sid, name, perf_counter_ns(), 0, parent, request))
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid] = self.spans[sid]._replace(end=perf_counter_ns())

    def add(self, name: str, start: int, end: int, request=None) -> None:
        """Record a span already timed by the caller, under the open span."""
        if self.enabled:
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(len(self.spans), name, start, end, parent, request))


def self_times(spans: list[Span]) -> dict[int, int]:
    """
    Each span's duration minus the part of its interval covered by its
    children (overlapping children are counted once, and only inside the
    parent's interval).
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered, reach = 0, span.start
        for kid in sorted(children[span.id], key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.end - span.start - covered
    return out


def self_by_name(spans: list[Span]) -> dict[str, int]:
    """Total self time in ns per span name."""
    own = self_times(spans)
    totals: dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)
