"""Tests of the benchmark tracer: self-time arithmetic, the tail rule, wrapping."""

from __future__ import annotations

import types

import pytest

from tracer import Span, Tracer, covered, self_times, tail_percentile


def span(id, parent, start, end):
    return Span(id=id, parent=parent, name=f"s{id}", layer="x", request=None, start=start, end=end)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == pytest.approx(4.0)
    assert covered(0.0, 10.0, [(4.0, 6.0), (1.0, 2.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == pytest.approx(2.0)
    assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 0, 3.0, 6.0)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(3.0)


def test_self_times_of_nested_spans_sum_to_the_root_duration():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 7.0),
        span(2, 1, 2.0, 3.0),
        span(3, 1, 4.0, 6.0),
        span(4, 3, 5.0, 5.5),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 4.0, 1: 3.0, 2: 1.0, 3: 1.5, 4: 0.5})
    assert sum(selfs.values()) == pytest.approx(spans[0].duration)


def test_tail_percentile_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(200, 0, -1)]
    assert tail_percentile(values, 95) == 190.0
    assert tail_percentile(values, 50) == 100.0
    with pytest.raises(ValueError):
        tail_percentile(values[:199], 95)
    with pytest.raises(ValueError):
        tail_percentile(values, 99)


def test_install_wraps_every_binding_and_records_parents_and_counts():
    def inner(x):
        return [x] * x

    def outer(x):
        return home.inner(x)

    home = types.ModuleType("pkg.home")
    home.inner, home.outer = inner, outer
    user = types.ModuleType("pkg.user")
    user.inner = inner  # as bound by ``from .home import inner``

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install(
        [home, user],
        {
            "pkg.home.inner": ("home", lambda a, k, r: {"items": len(r)}),
            "pkg.home.outer": ("home", None),
        },
        {},
    )
    assert user.inner is home.inner is not inner
    tracer.request = "rep0"
    assert home.outer(3) == [3, 3, 3]
    user.inner(2)
    outer_span, nested, direct = tracer.spans
    assert (outer_span.parent, nested.parent, direct.parent) == (None, outer_span.id, None)
    assert nested.counts == {"items": 3} and direct.counts == {"items": 2}
    assert {s.request for s in tracer.spans} == {"rep0"}
    assert self_times(tracer.spans)[outer_span.id] == pytest.approx(2.0)
