"""In-memory spans for the benchmark's traced run.

A span records its name, start, end, the span that was open when it began,
and the instance it belongs to.  Spans are opened only in the benchmark's own
files, around each call into a library module, so a span's name is
``<module>.<call>``.  Nothing inside the library is instrumented.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, Iterable, List


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tracer = self._tracer
        self._index = len(tracer.spans)
        parent = tracer._open[-1] if tracer._open else -1
        tracer.spans.append([self._name, perf_counter(), 0.0, parent, tracer.instance])
        tracer._open.append(self._index)
        return self

    def __exit__(self, *exc):
        tracer = self._tracer
        tracer.spans[self._index][2] = perf_counter()
        tracer._open.pop()
        return False


class Tracer:
    """Records every span in memory; :meth:`write` saves them at the end."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, instance]
        self._open: List[int] = []
        self.instance: object = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self, instances: Iterable[object]) -> Dict[str, float]:
        """Total self time per span name over the given instances.

        A span's self time is its duration minus the durations of the spans
        opened directly inside it.
        """
        wanted = set(instances)
        children = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, instance) in enumerate(self.spans):
            if instance in wanted:
                totals[name] += end - start - children[index]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, instance in self.spans:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "instance": instance,
                }
                handle.write(json.dumps(record) + "\n")


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stands in for :class:`Tracer` in the untraced run; records nothing."""

    _span = _NoSpan()
    instance: object = None

    def span(self, name: str) -> _NoSpan:
        return self._span
