"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files: each layer function
is replaced, under the name its caller looks it up by, with a wrapper
that opens a span, calls the original and closes the span.  A span's
self time is its duration minus the time its direct children cover.
Spans stay in memory as flat tuples and are summed when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Nested wall-clock spans on one thread."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.missing: list[str] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, self.clock(), None, parent])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = self.clock()

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, target: str, span_name: str) -> None:
        """Replace `module.attr` or `module.Class.attr` with a traced wrapper.

        A name that no longer exists is recorded in `missing` and left
        alone, so the layer reads as missing instead of stopping the run.
        """
        owner_path, attr = target.rsplit(".", 1)
        owner = _resolve(owner_path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.append(target)
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        setattr(owner, attr, traced)


def _resolve(path: str):
    """Import the longest module prefix of a dotted path, then walk attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_nesting(spans: list[list], own: list[float], first: int = 0) -> list[str]:
    """Problems with the spans from index `first` on, as readable lines.

    Every span must lie inside its parent, and the self times of each
    root span's subtree must add up to the root's duration.
    """
    problems = []
    root, subtotal = None, 0.0
    for i in range(first, len(spans)):
        name, start, end, parent = spans[i]
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) lies outside its parent {parent}")
        else:
            problems.extend(_root_sum(spans, root, subtotal))
            root, subtotal = i, 0.0
        subtotal += own[i]
    problems.extend(_root_sum(spans, root, subtotal))
    return problems


def _root_sum(spans: list[list], root, subtotal: float) -> list[str]:
    if root is None:
        return []
    name, start, end, _ = spans[root]
    wall = end - start
    if abs(subtotal - wall) > 1e-9 + 1e-9 * wall:
        return [f"root span {root} ({name}): self times sum to {subtotal!r}, wall time {wall!r}"]
    return []


def totals_by_name(spans: list[list], own: list[float]) -> tuple[dict, dict]:
    """Summed self time and summed duration per span name."""
    self_s: dict[str, float] = defaultdict(float)
    wall_s: dict[str, float] = defaultdict(float)
    for (name, start, end, _), mine in zip(spans, own):
        self_s[name] += mine
        wall_s[name] += end - start
    return self_s, wall_s
