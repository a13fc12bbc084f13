"""In-memory span recorder and self-time arithmetic.

A span is one call across a layer boundary: a name of the form
``<layer>.<function>``, its start and end on the ``perf_counter`` clock, the
span that was open when it started (its parent), and attributes that a
``note`` callback reads off the call's arguments and result.  The recorder is
single-threaded: the parent of a span is the innermost span still open.

Wrappers are installed on module (or class) attributes at the place the
caller looks the name up, and ``restore`` puts every original back.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

Note = Callable[["Span", tuple, dict, Any], None]


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables; restores what it wrapped."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, note: Note | None = None) -> Callable:
        """``fn`` with a span named ``name`` around every call.  An exception
        is recorded as the span's ``error`` attribute and re-raised."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span.attrs["error"] = type(err).__name__
                raise
            finally:
                self._close(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    def install(self, owner: Any, attr: str, name: str, note: Note | None = None) -> None:
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, note))

    def restore(self) -> None:
        """Put back every wrapped attribute, last installed first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span around a block of the caller's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of its interval that its direct
    children cover (children that overlap each other are counted once)."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered_length(kids, span.start, span.end)
        for span, kids in zip(spans, children)
    ]


def per_span_cost(repeats: int = 20000) -> float:
    """Seconds a wrapper adds to one call, from timing a wrapped no-op
    against the bare no-op in this process."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "calibration.noop")
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    t1 = time.perf_counter()
    for _ in range(repeats):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / repeats
