"""Hierarchical scoped timing exported as Chrome ``chrome://tracing`` JSON.

Models clang's ``-ftime-trace`` (``llvm/Support/TimeProfiler``): compiler
layers open a :func:`time_trace_scope` around each phase of paper Fig. 1
(preprocess, parse, Sema directive handling, per-function CodeGen, each
mid-end pass, interpretation).  Each scope records a
:class:`~repro.instrument.telemetry.tracing.SpanRecord` whose span id is
taken when it opens and whose parent is the scope open around it, so
the nesting is known, not reconstructed from intervals.  The compile
service's workers record request-trace spans with the same profiler.

Profiling is *globally* enabled/disabled so that instrumented modules do
not need a profiler handle threaded through every constructor — exactly
how LLVM's ``TimeTraceProfilerInstance`` works.  When disabled,
:func:`time_trace_scope` returns a shared no-op context manager, keeping
the cost of an instrumented call site to one module-global load.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.instrument.telemetry.tracing import (
    SpanLog,
    chrome_events,
    new_span_id,
)


class TimeTraceScope:
    """Context manager recording one hierarchical timing interval."""

    __slots__ = ("profiler", "name", "detail", "span_id", "_start_ns")

    def __init__(
        self, profiler: "TimeTraceProfiler", name: str, detail: str = ""
    ) -> None:
        self.profiler = profiler
        self.name = name
        self.detail = detail
        self.span_id = ""
        self._start_ns = 0

    def __enter__(self) -> "TimeTraceScope":
        self.span_id = new_span_id()
        self.profiler._open.append(self.span_id)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end_ns = time.perf_counter_ns()
        self.profiler._open.pop()
        self.profiler.add_span(
            self.name,
            self._start_ns,
            end_ns,
            self.detail,
            span_id=self.span_id,
        )


class _NullScope:
    """Shared no-op scope returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SCOPE = _NullScope()


class TimeTraceProfiler(SpanLog):
    """Collects the spans of every scope and renders Chrome JSON.

    ``granularity_us`` drops spans shorter than the threshold from the
    JSON output (clang's ``-ftime-trace-granularity``, default 500us
    there; 0 here so tests see every scope).  *trace_id* and
    *parent_id* place the spans in a request trace; top-level scopes
    become children of *parent_id*.  Scopes nest as ``with`` blocks on
    the one thread that compiles, so one stack of open scopes serves.
    """

    def __init__(
        self,
        granularity_us: int = 0,
        trace_id: str = "",
        parent_id: Optional[str] = None,
    ) -> None:
        super().__init__(trace_id, parent_id)
        self.granularity_us = granularity_us
        self.epoch_ns = time.perf_counter_ns()

    def scope(self, name: str, detail: str = "") -> TimeTraceScope:
        return TimeTraceScope(self, name, detail)

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The ``chrome://tracing`` / Perfetto object form."""
        trace_events = chrome_events(
            self.spans,
            self.epoch_ns,
            pid=1,
            granularity_ns=self.granularity_us * 1000,
        )
        for kind, name in (
            ("process_name", "miniclang"),
            ("thread_name", "Compiler"),
        ):
            trace_events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": 0,
                    "name": kind,
                    "args": {"name": name},
                }
            )
        return {
            "traceEvents": trace_events,
            "beginningOfTime": self.epoch_ns // 1000,
        }


#: the active profiler; ``None`` means tracing is off
_active: Optional[TimeTraceProfiler] = None


def enable_time_trace(
    granularity_us: int = 0,
    trace_id: str = "",
    parent_id: Optional[str] = None,
) -> TimeTraceProfiler:
    """Turn tracing on (idempotent); returns the active profiler."""
    global _active
    if _active is None:
        _active = TimeTraceProfiler(granularity_us, trace_id, parent_id)
    return _active


def disable_time_trace() -> Optional[TimeTraceProfiler]:
    """Turn tracing off; returns the profiler that was collecting (if
    any) so the caller can export its spans."""
    global _active
    profiler, _active = _active, None
    return profiler


def active_time_trace() -> Optional[TimeTraceProfiler]:
    return _active


def time_trace_scope(name: str, detail: str = ""):
    """The instrumentation entry point used throughout the compiler."""
    profiler = _active
    if profiler is None:
        return _NULL_SCOPE
    return TimeTraceScope(profiler, name, detail)
