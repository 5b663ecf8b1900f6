"""In-memory spans around calls into the program, and the arithmetic on them.

A span records its name, start, end, parent and whether the call raised.
Spans stay in memory; the caller reads them when a pass ends. A span's self
time is its duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1          # index of the enclosing span, -1 for a root
    failed: bool = False


class Tracer:
    """Records nested spans and named counters for one pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.events: list[tuple[str, dict]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(idx)
        try:
            yield self.spans[idx]
        except BaseException:
            self.spans[idx].failed = True
            raise
        finally:
            self._open.pop()
            self.spans[idx].end = self.clock()

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(tracer, result, args, kwargs) runs after the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, result, args, kwargs)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent].append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cursor = s.start
            for a, b in sorted(children.get(i, ())):
                a, b = max(a, cursor), min(b, s.end)
                if b > a:
                    covered += b - a
                    cursor = b
            out.append((s.end - s.start) - covered)
        return out

    def totals(self) -> dict[str, dict]:
        """Per name: calls, failures, inclusive seconds and self seconds.

        Inclusive seconds skip spans nested in a span of the same name, so a
        recursive call is not counted twice.
        """
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            t = out.setdefault(s.name, {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["failed"] += int(s.failed)
            t["self_s"] += selfs[i]
            if not self._inside_same_name(i):
                t["s"] += s.end - s.start
        return out

    def _inside_same_name(self, i: int) -> bool:
        name = self.spans[i].name
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False


@contextmanager
def patched(tracer: Tracer, sites):
    """Replace each (module, attribute, span name, counter) with a traced wrapper.

    The wrapper is installed where callers look the name up, so a name that
    one module imported from another is patched in the importing module.
    Originals are restored on exit.
    """
    saved = []
    try:
        for module, attr, name, count in sites:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
