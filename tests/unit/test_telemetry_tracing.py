"""Unit tests for cross-process request tracing
(:mod:`repro.instrument.telemetry.tracing`) and the JSONL event log
(:mod:`repro.instrument.telemetry.events`)."""

from __future__ import annotations

import io
import json
import os

from repro.instrument.telemetry import (
    EventLog,
    RequestTrace,
    SpanRecord,
    TraceRecorder,
    chrome_events,
    clock_anchor,
    clock_offset_ns,
    new_span_id,
    new_trace_id,
    read_jsonl,
)

class TestIds:
    def test_trace_ids_unique(self):
        assert new_trace_id() != new_trace_id()

    def test_span_ids_carry_pid_and_are_unique(self):
        a, b = new_span_id(), new_span_id()
        assert a != b
        assert a.startswith(f"{os.getpid():x}.")


class TestClockAlignment:
    def test_offset_maps_remote_onto_local_timeline(self):
        local = (1_000_000, 500)
        # remote wall clock agrees; its perf counter origin differs
        remote = (1_000_000, 9_500)
        offset = clock_offset_ns(remote, local)
        # remote perf 9_500 happened at wall 1_000_000 == local perf 500
        assert 9_500 + offset == 500

    def test_real_anchors_round_trip_near_zero(self):
        a = clock_anchor()
        b = clock_anchor()
        # two anchors in the same process: offset is just the sampling
        # skew, far under a millisecond
        assert abs(clock_offset_ns(a, b)) < 1_000_000


class TestRequestTrace:
    def test_worker_spans_aligned_and_clamped(self):
        trace = RequestTrace("t1", "r1")
        attempt_id = new_span_id()
        # worker timeline: anchor far from the parent's
        worker_anchor = (trace._anchor[0], trace._anchor[1] + 777)
        worker_spans = [
            SpanRecord(
                "t1",
                "w.1",
                attempt_id,
                "Parse",
                "",
                100,
                10**15,  # far past the attempt window
                4242,
            )
        ]
        trace.merge_worker_spans(
            worker_spans,
            worker_anchor,
            clamp_start_ns=1_000,
            clamp_end_ns=2_000,
        )
        (span,) = trace.spans
        assert span.parent_id == attempt_id
        assert 1_000 <= span.start_ns <= span.end_ns <= 2_000

    def test_chrome_trace_has_pid_rows_and_span_args(self):
        trace = RequestTrace("t1", "r1")
        trace.add_span("queue-wait", 0, 50)
        trace.merge_worker_spans(
            [
                SpanRecord(
                    "t1", "w.1", trace.root_span_id, "Parse", "", 10, 20, 4242
                )
            ],
            trace._anchor,
            0,
            100,
        )
        trace.close("ServiceRequest", 0, 100)
        data = trace.chrome_trace()
        xs = [e for e in data["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in xs} == {os.getpid(), 4242}
        assert len(metas) == 2  # one process_name row per pid
        assert all("span_id" in e["args"] for e in xs)
        json.loads(trace.to_chrome_json())

    def test_durations_are_microseconds_relative_to_origin(self):
        trace = RequestTrace("t1")
        trace.add_span("a", 5_000, 7_000)
        trace.close("root", 5_000, 9_000)
        xs = {
            e["name"]: e
            for e in trace.chrome_trace()["traceEvents"]
            if e["ph"] == "X"
        }
        assert xs["a"]["ts"] == 0.0
        assert xs["a"]["dur"] == 2.0
        assert xs["root"]["dur"] == 4.0
        assert xs["root"]["args"]["parent_id"] is None
        assert xs["a"]["args"]["parent_id"] == trace.root_span_id


class TestChromeEvents:
    def test_enclosing_span_first_and_granularity(self):
        spans = [
            SpanRecord("t", "b", "a", "inner", "", 1_000, 2_000, 7),
            SpanRecord("t", "a", None, "outer", "d", 1_000, 9_000, 7),
            SpanRecord("t", "c", "a", "tiny", "", 3_000, 3_100, 7),
        ]
        events = chrome_events(spans, 1_000, pid=1, granularity_ns=500)
        assert [e["name"] for e in events] == ["outer", "inner"]
        assert events[0] == {
            "ph": "X",
            "pid": 1,
            "tid": 0,
            "ts": 0.0,
            "dur": 8.0,
            "name": "outer",
            "args": {"span_id": "a", "parent_id": None, "detail": "d"},
        }


class TestTraceRecorder:
    def test_writes_one_file_per_request(self, tmp_path):
        recorder = TraceRecorder(directory=str(tmp_path))
        trace = RequestTrace("t1", "r00001")
        trace.close("ServiceRequest", 0, 10)
        path = recorder.record(trace)
        assert path is not None and os.path.exists(path)
        assert os.path.basename(path) == "r00001.trace.json"
        data = json.load(open(path))
        assert data["trace_id"] == "t1"

    def test_memory_only_with_bounded_keep(self):
        recorder = TraceRecorder(keep=2)
        for i in range(5):
            t = RequestTrace(f"t{i}", f"r{i}")
            t.close("ServiceRequest", 0, 1)
            assert recorder.record(t) is None
        assert [t.trace_id for t in recorder.traces] == ["t3", "t4"]
        assert recorder.written == []


class TestEventLog:
    def test_emit_drops_none_and_flushes_lines(self):
        stream = io.StringIO()
        log = EventLog(stream=stream, clock=lambda: 12.5)
        log.emit("submit", request_id="r1", trace_id=None, attempt=0)
        log.emit("response", request_id="r1", status="ok")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2 and log.emitted == 2
        first = json.loads(lines[0])
        assert first == {
            "ts": 12.5,
            "event": "submit",
            "request_id": "r1",
            "attempt": 0,
        }

    def test_path_roundtrip_via_read_jsonl(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path=path) as log:
            log.emit("a", x=1)
            log.emit("b", y=2)
        records = read_jsonl(path)
        assert [r["event"] for r in records] == ["a", "b"]

    def test_requires_exactly_one_sink(self):
        import pytest

        with pytest.raises(ValueError):
            EventLog()
