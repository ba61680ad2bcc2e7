"""In-memory spans recorded around calls into the library's public functions.

A span is (name, start, end, parent): the parent is the span that was open
when the call began, so a layer's self time is its duration minus the
time its direct children cover. Nothing here is imported by the library;
the wrappers are installed from outside, around instance methods and the
module-level functions the pipeline calls, and removed afterwards.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
            self._open.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[index][1:3] = start, end

        return traced

    def wrap_iter(self, name: str, it: Iterator) -> Iterator:
        """Time each ``next()`` of an iterator as one span."""
        step = self.wrap(name, lambda: next(it, StopIteration))
        while (item := step()) is not StopIteration:
            yield item

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, the self time of each span in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name].append(end - start - inner)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(
                {"spans": self.spans, "counts": self.counts, "samples": self.samples}, fp
            )


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Temporarily set attributes; restores the originals on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
