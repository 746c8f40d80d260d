"""Cross-process request tracing for the compile service.

Models OpenTelemetry span/context propagation over the repo's
``-ftime-trace`` machinery (clang's per-invocation Chrome JSON is the
rendering target; clangd's request tracing is the shape).  One span
record, :class:`SpanRecord`, serves both: :class:`SpanLog` is what a
:class:`~repro.instrument.timetrace.TimeTraceProfiler` and a
:class:`RequestTrace` record into, and :func:`chrome_events` is the one
writer of Chrome events for ``-ftime-trace`` and request traces alike.

* the service parent mints a ``trace_id`` per admitted request and
  builds parent-side spans (admission, queue wait, each attempt, breaker
  decisions, cache lookups) in a :class:`RequestTrace`;
* the ``trace_id`` + parent span id travel to the worker inside the
  :class:`~repro.service.request.WorkPayload`; the worker runs its
  pipeline under a time-trace profiler opened on that context, so every
  scope records its span id and parent id as it opens, and ships the
  spans back as they are, together with a wall/monotonic clock anchor
  pair;
* the parent aligns worker timestamps onto its own monotonic timeline
  (:func:`clock_offset_ns` — both processes share the machine's wall
  clock, so the offset between their ``perf_counter_ns`` origins is
  observable), clamps children into their parent attempt span, and
  renders ONE Chrome-JSON trace per request with real ``pid`` rows —
  load it in ``about://tracing`` / Perfetto and the request reads
  admission → queue → attempts → worker pipeline stages across
  processes.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

_span_counter = itertools.count(1)


def new_trace_id() -> str:
    """A fresh random 64-bit trace id (16 hex chars is plenty here)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """Process-unique span id: ``<pid hex>.<counter hex>`` — unique
    across the parent/worker fleet without coordination."""
    return f"{os.getpid():x}.{next(_span_counter):x}"


def clock_anchor() -> tuple[int, int]:
    """``(wall_ns, perf_ns)`` sampled back-to-back: the pair that lets
    another process map this process's monotonic timestamps onto its
    own timeline via the shared wall clock."""
    return (time.time_ns(), time.perf_counter_ns())


def clock_offset_ns(
    remote_anchor: tuple[int, int], local_anchor: tuple[int, int]
) -> int:
    """Add this to a remote ``perf_counter_ns`` timestamp to express it
    on the local monotonic timeline."""
    remote_wall, remote_perf = remote_anchor
    local_wall, local_perf = local_anchor
    return (remote_wall - remote_perf) - (local_wall - local_perf)


@dataclass
class SpanRecord:
    """One completed span.  ``start_ns``/``end_ns`` are monotonic
    timestamps on the *recording* process's clock until alignment."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    detail: str
    start_ns: int
    end_ns: int
    pid: int
    tid: int = 0


class SpanLog:
    """The spans one process records for one trace.

    A span added without an explicit parent is a child of the innermost
    open one: ``_open`` is the stack of open span ids, whose bottom is
    the parent the whole log hangs under (``None`` for a root).
    """

    def __init__(
        self, trace_id: str = "", parent_id: Optional[str] = None
    ) -> None:
        self.trace_id = trace_id
        self.pid = os.getpid()
        self.spans: list[SpanRecord] = []
        self._open: list[Optional[str]] = [parent_id]

    def add_span(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        detail: str = "",
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
    ) -> str:
        """Record one completed span (monotonic local timestamps) and
        return its id."""
        sid = span_id or new_span_id()
        self.spans.append(
            SpanRecord(
                self.trace_id,
                sid,
                self._open[-1] if parent_id is None else parent_id,
                name,
                detail,
                start_ns,
                max(start_ns, end_ns),
                self.pid,
            )
        )
        return sid

    def to_chrome_json(self, indent: int | None = None) -> str:
        """The subclass's ``chrome_trace()`` as JSON text."""
        return json.dumps(self.chrome_trace(), indent=indent)


def chrome_events(
    spans: Iterable[SpanRecord],
    origin_ns: int,
    *,
    pid: Optional[int] = None,
    granularity_ns: int = 0,
) -> list[dict]:
    """Chrome ``"X"`` (complete) events for *spans*, enclosing spans
    first: timestamps in microseconds since *origin_ns*, span ids in
    ``args``.  *pid* overrides every span's pid; spans shorter than
    *granularity_ns* are dropped."""
    events = []
    for span in spans:
        duration_ns = span.end_ns - span.start_ns
        if duration_ns < granularity_ns:
            continue
        args: dict = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        if span.detail:
            args["detail"] = span.detail
        events.append(
            {
                "ph": "X",
                "pid": span.pid if pid is None else pid,
                "tid": span.tid,
                "ts": (span.start_ns - origin_ns) / 1000.0,
                "dur": duration_ns / 1000.0,
                "name": span.name,
                "args": args,
            }
        )
    events.sort(key=lambda entry: (entry["ts"], -entry["dur"]))
    return events


class RequestTrace(SpanLog):
    """Parent-side builder of one request's cross-process trace; spans
    added without a parent are children of the root request span."""

    def __init__(
        self, trace_id: str, request_id: Optional[str] = None
    ) -> None:
        self.root_span_id = new_span_id()
        super().__init__(trace_id, self.root_span_id)
        self.request_id = request_id
        self._anchor = clock_anchor()

    def close(
        self, name: str, start_ns: int, end_ns: int, detail: str = ""
    ) -> None:
        """Record the root span covering the whole request; it is the
        one span of the trace without a parent."""
        self.add_span(
            name, start_ns, end_ns, detail, span_id=self.root_span_id
        )
        self.spans[-1].parent_id = None

    # ------------------------------------------------------------------
    def merge_worker_spans(
        self,
        spans: Iterable[SpanRecord],
        worker_anchor: tuple[int, int],
        clamp_start_ns: int,
        clamp_end_ns: int,
    ) -> None:
        """Align a worker's spans (already parented under the attempt
        span the payload carried) onto the parent timeline.

        The wall/monotonic anchor pair shipped in the
        :class:`~repro.service.request.WorkOutcome` gives the clock
        offset; after shifting, spans are clamped into the attempt
        interval so nesting stays monotonic even when the wall clocks
        disagree by more than the pipe latency.
        """
        offset = clock_offset_ns(worker_anchor, self._anchor)
        for span in spans:
            start_ns = min(
                max(span.start_ns + offset, clamp_start_ns), clamp_end_ns
            )
            end_ns = min(
                max(span.end_ns + offset, start_ns), clamp_end_ns
            )
            self.spans.append(
                replace(span, start_ns=start_ns, end_ns=end_ns)
            )

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """One ``about://tracing`` / Perfetto JSON object for this
        request, with real OS pids and span ids in ``args`` (the ids are
        what the integration tests verify parentage with)."""
        if not self.spans:
            return {"traceEvents": [], "trace_id": self.trace_id}
        events = chrome_events(
            self.spans, min(s.start_ns for s in self.spans)
        )
        for pid in dict.fromkeys(e["pid"] for e in events):
            role = (
                "miniclang-serve (parent)"
                if pid == self.pid
                else f"miniclang-worker (pid {pid})"
            )
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": role},
                }
            )
        return {
            "traceEvents": events,
            "trace_id": self.trace_id,
            "request_id": self.request_id,
        }


@dataclass
class TraceRecorder:
    """Sink for completed request traces.

    With ``directory`` set (``miniclang-serve -ftrace-requests[=DIR]``)
    every finished request writes ``DIR/<request_id>.trace.json``; the
    in-memory ``traces`` list keeps the most recent ones either way so
    library callers and tests can inspect them without touching disk.
    """

    directory: Optional[str] = None
    keep: int = 64
    traces: list[RequestTrace] = field(default_factory=list)
    written: list[str] = field(default_factory=list)

    def record(self, trace: RequestTrace) -> Optional[str]:
        self.traces.append(trace)
        del self.traces[: -self.keep]
        if self.directory is None:
            return None
        os.makedirs(self.directory, exist_ok=True)
        safe_id = (trace.request_id or trace.trace_id).replace(
            os.sep, "_"
        )
        path = os.path.join(self.directory, f"{safe_id}.trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trace.to_chrome_json(indent=1))
        self.written.append(path)
        return path
