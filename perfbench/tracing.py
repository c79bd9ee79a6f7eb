"""Outside-in span tracer for the benchmark's traced runs.

Spans are recorded around calls into the library's public functions, from
the benchmark's own code: either explicitly (``with tracer.span(name)``
around a call the benchmark makes itself) or by temporarily wrapping a
public function or method for the duration of a traced pass
(:func:`instrument`).  Nothing in the library is edited; the wrappers are
installed in the benchmark process only and removed when the pass ends.

Spans are kept in memory as ``(id, name, start, end, parent)`` rows and
written out once, at the end of the run.  A span's self time is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import TextIO


class Tracer:
    """In-memory span recorder with a parent stack and named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        row = [span_id, name, time.perf_counter(), None, parent]
        self.spans.append(row)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            row[3] = time.perf_counter()

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed duration and summed self time."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return out

    def write(self, handle: TextIO, label: str) -> None:
        """Write every span as one JSON line, tagged with the pass ``label``."""
        for span_id, name, start, end, parent in self.spans:
            row = {
                "pass": label,
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
            }
            handle.write(json.dumps(row) + "\n")


def write_spans(path, tracers) -> None:
    """Write the spans of ``(label, tracer)`` pairs to one JSON-lines file."""
    with open(path, "w", encoding="utf-8") as handle:
        for label, tracer in tracers:
            tracer.write(handle, label)


class NullTracer(Tracer):
    """Tracer with tracing off: spans and counters cost one call each."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def add(self, counter: str, amount: float = 1) -> None:
        pass


_DONE = object()


def traced_steps(tracer: Tracer, name: str, iterable):
    """Yield from ``iterable`` with a span around the production of each item."""
    iterator = iter(iterable)
    while True:
        with tracer.span(name):
            item = next(iterator, _DONE)
        if item is _DONE:
            return
        yield item


def _wrapped(tracer: Tracer, name: str, function, after):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = function(*args, **kwargs)
        if after is not None:
            result = after(tracer, args, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, targets):
    """Wrap ``(owner, attribute, span_name, after)`` targets for one pass.

    ``owner`` is a module or class; ``after(tracer, args, result)``, when
    given, records counters from the call and returns the result to hand
    back (possibly wrapped, e.g. by :func:`traced_steps`).  Every original
    is restored on exit, including when the pass raises.
    """
    saved = []
    try:
        for owner, attribute, name, after in targets:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrapped(tracer, name, original, after))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
