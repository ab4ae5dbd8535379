"""In-memory spans around calls into diagforge's layers.

A traced run replaces layer functions with wrappers at the module attributes
callers look them up through (for example `diagonal.encode`, which `diagonal`
imported from `tableau`), records one span per call, and puts the originals
back afterwards.  Nothing in the package itself is edited.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "info")

    def __init__(self, name, start, end, parent, round_id, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, or -1
        self.round = round_id
        self.info = info  # what `measure` extracted from the result

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._stack: list[int] = []

    def wrap(self, fn, name: str, measure=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            # A recursive call stays inside its caller's span.
            if stack and spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.round)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if measure is not None:  # outside the span: counting is not the layer's time
                span.info = measure(result)
            return result

        return traced

    @contextmanager
    def installed(self, sites):
        """sites: (module, attribute, span name, measure or None) tuples."""
        saved = []
        try:
            for module, attr, name, measure in sites:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, measure))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "round": s.round,
                        }
                    )
                    + "\n"
                )


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return [s.duration - covered(children[i]) for i, s in enumerate(spans)]
