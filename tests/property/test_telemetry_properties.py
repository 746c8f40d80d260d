"""Property-based tests (hypothesis) for the telemetry layer.

The metrics registry's whole design bet is that fixed-bucket histograms
merge *exactly* — so merging must be associative and commutative, and
quantile estimates must be within one bucket of the exact order
statistic no matter how observations are distributed or split across
processes.  The tracing properties run randomly nested real time-trace
scopes: each span's parent is the innermost scope open around it and
the span lies within it, and the parent's clock alignment + clamping
keeps children inside their parents (monotonic nesting) for any clock
offset and clamp window.
"""

from __future__ import annotations

import math
from contextlib import ExitStack

from hypothesis import given, settings, strategies as st

from repro.instrument.telemetry import (
    MetricsRegistry,
    RequestTrace,
    new_span_id,
)
from repro.instrument.timetrace import (
    disable_time_trace,
    enable_time_trace,
    time_trace_scope,
)

FAST = settings(max_examples=60, deadline=None)

BOUNDS = (0.001, 0.01, 0.1, 1.0, 10.0)

observations = st.lists(
    st.floats(
        min_value=1e-6,
        max_value=100.0,
        allow_nan=False,
        allow_infinity=False,
    ),
    max_size=40,
)


def _hist_snapshot(values: list[float]) -> dict:
    reg = MetricsRegistry()
    h = reg.histogram("lat", "l", ("k",), buckets=BOUNDS)
    for v in values:
        h.labels(k="a").observe(v)
    return reg.snapshot()


def _merged(*snaps: dict) -> dict:
    reg = MetricsRegistry()
    for snap in snaps:
        reg.merge(snap)
    return reg.snapshot()


def _exact_parts(snap: dict) -> tuple[dict, list[float]]:
    """Split a snapshot into its exact part (bucket counts, totals,
    quantiles — everything but the float ``sum`` accumulators, which
    are only reproducible up to float addition order) and the sums."""
    import copy

    exact = copy.deepcopy(snap)
    sums: list[float] = []
    for metric in exact.values():
        for row in metric.get("series", []):
            if "sum" in row:
                sums.append(row.pop("sum"))
    return exact, sums


def _assert_equivalent(left: dict, right: dict) -> None:
    import pytest

    exact_l, sums_l = _exact_parts(left)
    exact_r, sums_r = _exact_parts(right)
    assert exact_l == exact_r
    # snapshot() quantizes each sum to 9 decimals, so every snapshot
    # that crosses a merge contributes up to 0.5e-9 of rounding error
    # on top of float addition order (e.g. two snapshots of [1/3] merge
    # to 0.666666666 while the union stream rounds to 0.666666667).
    assert sums_l == pytest.approx(sums_r, rel=1e-9, abs=1e-8)


class TestHistogramMergeAlgebra:
    @FAST
    @given(observations, observations)
    def test_merge_commutative(self, xs, ys):
        a, b = _hist_snapshot(xs), _hist_snapshot(ys)
        _assert_equivalent(_merged(a, b), _merged(b, a))

    @FAST
    @given(observations, observations, observations)
    def test_merge_associative(self, xs, ys, zs):
        a, b, c = map(_hist_snapshot, (xs, ys, zs))
        _assert_equivalent(
            _merged(_merged(a, b), c), _merged(a, _merged(b, c))
        )

    @FAST
    @given(observations, observations)
    def test_merge_equals_union_stream(self, xs, ys):
        # Splitting a stream across two processes and merging loses
        # nothing: identical to observing the union in one registry.
        _assert_equivalent(
            _merged(_hist_snapshot(xs), _hist_snapshot(ys)),
            _hist_snapshot(xs + ys),
        )


class TestQuantileBounds:
    @FAST
    @given(
        observations.filter(bool),
        st.sampled_from([0.5, 0.9, 0.95, 0.99]),
    )
    def test_exact_order_statistic_within_reported_bucket(
        self, values, q
    ):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=BOUNDS)
        for v in values:
            h.observe(v)
        cell = h.labels()
        lo, hi = cell.quantile_bounds(q)
        rank = max(1, min(len(values), math.ceil(q * len(values))))
        exact = sorted(values)[rank - 1]
        assert lo < exact <= hi
        # the point estimate is the bucket's upper bound (or the last
        # finite bound for the overflow bucket)
        assert cell.quantile(q) in (hi, BOUNDS[-1])


#: a random walk of scope opens and closes; scopes left open at the
#: end close innermost first
scope_walks = st.lists(st.booleans(), min_size=1, max_size=30)


def _run_scopes(walk: list[bool], parent_id=None):
    """Open (``True``) and close (``False``) real time-trace scopes
    under a fresh profiler.  Returns the profiler and, per span id, the
    span id of the innermost scope open around it when it opened."""
    disable_time_trace()
    profiler = enable_time_trace(trace_id="t1", parent_id=parent_id)
    expected: dict[str, object] = {}
    opened: list[tuple[ExitStack, str]] = []
    for serial, push in enumerate(walk):
        if push:
            scopes = ExitStack()
            scope = scopes.enter_context(time_trace_scope(f"s{serial}"))
            expected[scope.span_id] = opened[-1][1] if opened else parent_id
            opened.append((scopes, scope.span_id))
        elif opened:
            opened.pop()[0].close()
    for scopes, _ in reversed(opened):
        scopes.close()
    disable_time_trace()
    return profiler, expected


class TestScopeSpans:
    @FAST
    @given(scope_walks)
    def test_parent_is_innermost_enclosing_scope(self, walk):
        profiler, expected = _run_scopes(walk, parent_id="attempt")
        assert {s.span_id for s in profiler.spans} == set(expected)
        by_id = {s.span_id: s for s in profiler.spans}
        for span in profiler.spans:
            assert span.parent_id == expected[span.span_id]
            assert span.trace_id == "t1"
            if span.parent_id in by_id:
                parent = by_id[span.parent_id]
                assert parent.start_ns <= span.start_ns
                assert span.end_ns <= parent.end_ns

    @FAST
    @given(
        scope_walks,
        st.integers(min_value=-(10**12), max_value=10**12),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_adopted_spans_stay_clamped_and_nested(
        self, walk, skew, clamp_start, clamp_width
    ):
        clamp_end = clamp_start + clamp_width
        trace = RequestTrace("t1", "r1")
        attempt_id = new_span_id()
        profiler, _ = _run_scopes(walk, parent_id=attempt_id)
        # a worker whose perf-counter origin differs by `skew`
        worker_anchor = (
            trace._anchor[0],
            trace._anchor[1] + skew,
        )
        trace.merge_worker_spans(
            profiler.spans,
            worker_anchor,
            clamp_start_ns=clamp_start,
            clamp_end_ns=clamp_end,
        )
        adopted = trace.spans
        by_id = {s.span_id: s for s in adopted}
        for span in adopted:
            # inside the attempt window, and still a valid interval
            assert clamp_start <= span.start_ns <= span.end_ns
            assert span.end_ns <= clamp_end
            # no orphans: parents are the attempt span or adopted spans
            assert (
                span.parent_id == attempt_id
                or span.parent_id in by_id
            )
            if span.parent_id in by_id:
                parent = by_id[span.parent_id]
                assert parent.start_ns <= span.start_ns
                assert span.end_ns <= parent.end_ns
