"""Outside-in tracing: spans around the calls the benchmark makes into each
layer of the solver, recorded by swapping module attributes for timed
wrappers.  Nothing in the package source is changed; the wrappers are
installed for one traced repetition and removed afterwards.

A span has a name, a start, an end and the index of the span that was open
when it began (its parent).  A span's self time is its duration minus the
durations of its direct children; calls are synchronous, so children never
overlap and the self times of a subtree add up to its root's duration.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory span recorder plus named counters and maxima."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def record_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, fn, name: str, on_result=None, on_error=None):
        """Time every call of ``fn`` as a span called ``name``."""

        def traced(*args, **kwargs):
            self.count(name + ".calls")
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
            return on_result(result) if on_result is not None else result

        traced.__wrapped__ = fn
        return traced

    def inclusive_times(self) -> dict[str, float]:
        """Seconds spent in spans of each name, not counting a span nested in
        a span of the same name twice."""
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if not self._inside_same_name(i):
                out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds of each name's spans not covered by their child spans."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def _inside_same_name(self, i: int) -> bool:
        name = self.spans[i].name
        p = self.spans[i].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False


class NullTracer:
    """Stand-in for an untraced repetition: spans cost nothing."""

    def span(self, name: str):
        return nullcontext()


class TracedNamespace:
    """Proxy for a module such as ``scipy.sparse.linalg``: every callable
    looked up through it is timed as ``<prefix><attribute>``, so a later
    switch of solver function is timed without changing the benchmark.
    Objects with a ``solve`` method that these calls return (sparse factors)
    get their ``solve`` timed as ``solve_name`` and their ``nnz`` recorded
    as the maximum ``fill_name``."""

    def __init__(self, target, tracer: Tracer, prefix: str, solve_name: str, fill_name: str):
        self._target = target
        self._tracer = tracer
        self._prefix = prefix
        self._solve_name = solve_name
        self._fill_name = fill_name
        self._cache: dict = {}

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if not callable(value) or isinstance(value, type):
            return value
        if attr not in self._cache:
            self._cache[attr] = self._tracer.wrap(value, self._prefix + attr, on_result=self._factor)
        return self._cache[attr]

    def _factor(self, result):
        if callable(getattr(result, "solve", None)):
            nnz = getattr(result, "nnz", None)
            if nnz is not None:
                self._tracer.record_max(self._fill_name, float(nnz))
            return TracedFactor(result, self._tracer.wrap(result.solve, self._solve_name))
        return result


class TracedFactor:
    """A factor object whose ``solve`` is timed; other attributes pass through."""

    def __init__(self, factor, traced_solve):
        self._factor = factor
        self.solve = traced_solve

    def __getattr__(self, attr):
        return getattr(self._factor, attr)


class Patches:
    """Attribute swaps undone in reverse order on exit."""

    def __init__(self):
        self._saved: list = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)
        return False
