"""In-memory spans for the traced run, and wrappers that record them.

The traced run charges a pass to the program's layers by wrapping each
layer's public entry points from outside the program (see ``traced.py``).
This module holds the parts that do not know the program: a span recorder,
a function wrapper and a generator wrapper. It does not import ``repro``.

A span's *self time* is its duration minus the durations of its direct
children. Spans nest per thread: a span opened on another thread (the
program's resource sampler emits events) has no parent and only adds to
its own name.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float,
                 parent: "Optional[Span]") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """Collects spans and counts in memory until the run writes them out."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, self.clock(), parent)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            if parent is not None:
                parent.child_s += span.duration
            self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name, summed over every span of that name."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return dict(totals)


def wrap_call(recorder: Recorder, fn: Callable, name: "str | Callable",
              after: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span; ``name`` may be a function of the call's args.

    ``after(result, *args, **kwargs)`` runs outside the span, so counting
    what a call produced is not charged to the layer.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        with recorder.span(label):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result
    return wrapper


def wrap_generator(recorder: Recorder, fn: Callable, name: str,
                   count: Optional[str] = None) -> Callable:
    """A generator function whose every ``next()`` is a span ``name``.

    Creating a generator does no work, so the call is not timed; each item
    is. Whatever the consumer does between items (for the kernel, the
    collection pump) falls outside these spans and is charged to its own.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def timed():
            while True:
                with recorder.span(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                if count is not None:
                    recorder.count(count)
                yield item
        return timed()
    return wrapper
