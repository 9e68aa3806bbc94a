"""In-memory spans recorded around calls into the ladderlab layers.

A span has a name, a start, an end and the index of its parent span.  Spans
are kept in a list while the benchmark runs and written out when it ends.
Functions called too often for one span per call (the sampler's energy
evaluations, about a hundred per sweep) are traced as leaves: their calls
and time add up in the span they run in.  ``calibrate`` measures what one
traced call costs, so that the traced run can say how much of its wall
time the tracing itself added.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    counts: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)  # leaf name -> [calls, seconds] directly inside

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "counts": self.counts, "leaves": self.leaves}


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        span.start = clock()
        try:
            yield span
        finally:
            span.end = clock()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(arguments, result)`` returns the
        span's counts, with the call's arguments bound by parameter name."""
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if count is not None:
                span.counts = count(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def wrap_leaf(self, name: str, fn):
        """``fn`` as a leaf: no span of its own, its calls and time are
        added to the innermost open span's ``leaves[name]``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tally = spans[stack[-1]].leaves.setdefault(name, [0, 0.0])
                tally[0] += 1
                tally[1] += dt

        return traced

    def overhead_s(self, per_span: float, per_leaf_call: float) -> float:
        """Estimated time the tracing added to the recorded spans."""
        leaf_calls = sum(c for s in self.spans for c, _ in s.leaves.values())
        return len(self.spans) * per_span + leaf_calls * per_leaf_call


def calibrate(calls: int = 20_000, repeats: int = 5) -> tuple[float, float]:
    """Extra seconds a call costs when wrapped in a span and when wrapped as
    a leaf, from alternating timed loops around a function that does
    nothing; medians over ``repeats``."""
    def noop():
        return None

    tracer = Tracer()
    loops = {"plain": noop, "span": tracer.wrap("bench.noop", noop),
             "leaf": tracer.wrap_leaf("bench.noop", noop)}
    times = {key: [] for key in loops}
    with tracer.span("bench.calibrate"):
        for _ in range(repeats):
            for key, fn in loops.items():
                t0 = clock()
                for _ in range(calls):
                    fn()
                times[key].append(clock() - t0)
    plain = statistics.median(times["plain"])
    return tuple(max(statistics.median(times[key]) - plain, 0.0) / calls
                 for key in ("span", "leaf"))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children and its
    leaves cover.

    Spans come from one thread, so children of one parent never overlap and
    their durations simply add up.
    """
    out = [s.duration - sum(t for _, t in s.leaves.values()) for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


@contextmanager
def patched(targets):
    """Temporarily replace attributes: ``targets`` is a list of
    ``(owner, attribute name, replacement)``."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)
