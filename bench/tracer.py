"""Span tracer for the benchmark's traced runs.

The tracer wraps library functions from outside the package: each
wrapper records one span (name, layer, start, end, parent span, request
id, optional counts) and is bound into every module namespace that
holds the original function, so calls made through ``from .x import f``
bindings are seen too. Spans stay in memory until the run ends.

Self time is a span's duration minus the part of its interval that its
child spans cover; the union of the children is taken, so overlapping
children are not counted twice.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

# Counts taken at a span boundary: fn(args, kwargs, result) -> {name: number}.
Counter = Callable[[tuple, dict, Any], dict]


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    request: str | None
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "layer": self.layer,
            "request": self.request,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Single-threaded span recorder; ``request`` tags new spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.request: str | None = None
        self._stack: list[Span] = []

    def wrap(self, fn: Callable, name: str, layer: str, counter: Counter | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), parent, name, layer, tracer.request, tracer.clock())
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(
        self,
        modules: Iterable[Any],
        functions: dict[str, tuple[str, Counter | None]],
        methods: dict[str, tuple[type, str, str, Counter | None]],
    ) -> None:
        """Wrap ``functions`` ({"module.attr": (layer, counter)}) and
        ``methods`` ({"module.Class.attr": (class, attr, layer, counter)}).

        A function is found by its defining module and attribute name,
        then replaced by one shared wrapper in every module that binds
        the same object.
        """
        modules = list(modules)
        by_name = {m.__name__: m for m in modules}
        for qualname, (layer, counter) in functions.items():
            mod_name, attr = qualname.rsplit(".", 1)
            original = getattr(by_name[mod_name], attr)
            wrapper = self.wrap(original, qualname, layer, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for qualname, (cls, attr, layer, counter) in methods.items():
            setattr(cls, attr, self.wrap(getattr(cls, attr), qualname, layer, counter))


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


def tail_percentile(values: list[float], q: float, min_beyond: int = 10) -> float:
    """Nearest-rank q-th percentile, refused unless ``min_beyond`` samples exceed its rank."""
    n = len(values)
    rank = max(1, math.ceil(q * n / 100.0))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it, need {min_beyond}"
        )
    return sorted(values)[rank - 1]
