"""In-memory span recording and the attribute patching that installs it.

A span holds a name, start, end, the index of the span that was open when it
started (its parent, -1 for none), a group id and an optional tag. Spans of one
training step or one batch share a group id. Spans stay in memory until the
run ends and are written out once.
"""

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "group", "tag")

    def __init__(self, name, start, parent, group, tag):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.group = group
        self.tag = tag


def _root_starts_group(name, parent):
    return parent is None


class Tracer:
    """Records spans around wrapped calls and restores every patch it made.

    `starts_group(name, parent_span)` decides whether a new span opens a new
    group; by default only spans with no parent do.
    """

    def __init__(self, clock=perf_counter, starts_group=_root_starts_group):
        self.clock = clock
        self.starts_group = starts_group
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.group = 0
        self._groups = 0
        self.counts: Counter = Counter()  # exact counts, by metric-like key
        self.group_counts: Counter = Counter()  # (key, group) -> count
        self.seconds: defaultdict = defaultdict(float)  # aggregated time of hot leaves
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str, tag=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if self.starts_group(name, self.spans[parent] if parent >= 0 else None):
            self._groups += 1
            self.group = self._groups
        self.spans.append(Span(name, self.clock(), parent, self.group, tag))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self.stack.pop()

    def current_name(self) -> str | None:
        return self.spans[self.stack[-1]].name if self.stack else None

    def span_wrapper(self, fn, name, tag_of=None, after=None):
        """Wrap `fn` so each call is one span; `tag_of(args, kwargs)` labels it
        and `after(result, args, kwargs)` sees the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name, tag_of(args, kwargs) if tag_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def timing_wrapper(self, fn, key):
        """Wrap a hot leaf: count calls and sum its time without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += self.clock() - start
                self.counts[key] += 1

        return wrapper

    # -- patching ----------------------------------------------------------
    def patch(self, owner, attr: str, value) -> None:
        """Replace owner.attr (a module or class attribute) until unpatch_all."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span as [name, start_s, end_s, parent, group, tag],
        times relative to the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            [s.name, round(s.start - t0, 9), round(s.end - t0, 9), s.parent, s.group, s.tag]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "group", "tag"],
                       "spans": rows}, fh)


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - covered(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]
