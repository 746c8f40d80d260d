"""End-to-end tests for the service telemetry stack: cross-process
request tracing, the metrics registry, worker-stat aggregation, and the
JSONL event log — real worker processes throughout.
"""

from __future__ import annotations

import io
import json
import os

from repro.instrument.stats import STATS
from repro.instrument.telemetry import EventLog, read_jsonl
from repro.service import (
    STATUS_OK,
    CompileRequest,
    CompileService,
    RetryPolicy,
    ServiceConfig,
)

HELLO = """\
int printf(const char *fmt, ...);
int main() {
  #pragma omp tile sizes(2)
  for (int i = 0; i < 6; i += 1)
    printf("i%d ", i);
  printf("\\n");
  return 0;
}
"""

BAD = "int main() { return undeclared; }\n"


def make_service(**overrides) -> CompileService:
    kwargs = dict(
        workers=2,
        deadline_s=15.0,
        retry=RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.05
        ),
        quarantine_dir=None,
    )
    kwargs.update(overrides)
    return CompileService(ServiceConfig(**kwargs))


class TestRequestTracing:
    def test_single_request_one_trace_two_processes(self, tmp_path):
        """The acceptance criterion: one traced request produces ONE
        Chrome-JSON covering parent-side orchestration AND worker-side
        pipeline stages, with real pids from at least two OS processes
        and correct parent/child nesting throughout."""
        trace_dir = str(tmp_path / "traces")
        with make_service(
            trace_requests=True, trace_dir=trace_dir
        ) as svc:
            (response,) = svc.process_batch(
                [CompileRequest(source=HELLO, action="run")]
            )
        assert response.status == STATUS_OK
        assert response.trace_id

        files = os.listdir(trace_dir)
        assert len(files) == 1  # one request -> one trace file
        data = json.load(open(os.path.join(trace_dir, files[0])))
        assert data["trace_id"] == response.trace_id

        xs = [e for e in data["traceEvents"] if e["ph"] == "X"]
        pids = {e["pid"] for e in xs}
        assert os.getpid() in pids
        assert len(pids) >= 2  # parent + at least one worker process

        # the parent-side request anatomy is all there
        names = {e["name"] for e in xs}
        assert "ServiceRequest" in names
        assert "queue-wait" in names
        assert "breaker-decision" in names
        assert "attempt-0" in names
        # ... and so are worker-side pipeline stages
        worker_names = {
            e["name"] for e in xs if e["pid"] != os.getpid()
        }
        assert worker_names, "no worker spans shipped back"

        # nesting: every span's parent exists, children sit inside
        # their parents on the (aligned) timeline
        by_id = {e["args"]["span_id"]: e for e in xs}
        roots = 0
        for e in xs:
            parent_id = e["args"].get("parent_id")
            if parent_id is None:
                roots += 1
                continue
            assert parent_id in by_id, f"orphan span {e['name']}"
            parent = by_id[parent_id]
            assert parent["ts"] <= e["ts"] + 1e-6
            assert (
                e["ts"] + e["dur"]
                <= parent["ts"] + parent["dur"] + 1e-6
            )
        assert roots == 1  # exactly one root: the request itself

        # worker spans were clamped into their attempt's interval
        attempt = next(e for e in xs if e["name"] == "attempt-0")
        for e in xs:
            if e["pid"] == os.getpid():
                continue
            assert attempt["ts"] <= e["ts"] + 1e-6
            assert (
                e["ts"] + e["dur"]
                <= attempt["ts"] + attempt["dur"] + 1e-6
            )

    def test_untraced_requests_write_nothing(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        with make_service(trace_dir=None) as svc:
            (response,) = svc.process_batch(
                [CompileRequest(source=HELLO)]
            )
        assert response.status == STATUS_OK
        assert response.trace_id is None
        assert not os.path.exists(trace_dir)


class TestWorkerStatsAggregation:
    def test_failed_requests_still_report_worker_stats(self):
        """Regression: worker-side statistics were only merged on
        success, so failed attempts' parse/sema work silently vanished
        from the parent's registry."""
        before = STATS.counter_values()
        with make_service(
            retry=RetryPolicy(max_attempts=1)
        ) as svc:
            (response,) = svc.process_batch(
                [CompileRequest(source=BAD)]
            )
        assert not response.ok
        delta = STATS.delta_since(before)
        assert delta.get("parser.external-decls-parsed", 0) > 0
        assert delta.get("lexer.raw-tokens", 0) > 0

    def test_worker_attempt_metrics_cross_the_boundary(self):
        with make_service() as svc:
            svc.process_batch(
                [CompileRequest(source=HELLO, action="run")]
            )
            snap = svc.metrics.snapshot()
        rows = snap["worker_attempt_duration_seconds"]["series"]
        assert sum(r["count"] for r in rows) >= 1
        assert all(r["sum"] > 0 for r in rows)


class TestMetricsAccounting:
    def test_requests_in_equals_terminal_statuses_mixed_batch(self):
        """A mixed batch — successes, compile errors, worker kills,
        poison inputs — must balance: every admitted request shows up
        in exactly one terminal-status counter and exactly once in the
        latency histogram."""
        batch = []
        for i in range(12):
            if i % 4 == 1:
                batch.append(CompileRequest(source=BAD))
            elif i % 4 == 2:
                batch.append(
                    CompileRequest(
                        source=HELLO + f"// kill {i}\n",
                        action="run",
                        inject_faults=("service-worker-exit",),
                        fault_attempts=1,
                    )
                )
            elif i % 4 == 3:
                batch.append(
                    CompileRequest(
                        source=HELLO + f"// poison {i}\n",
                        inject_faults=("service-worker",),
                        fault_attempts=-1,
                    )
                )
            else:
                batch.append(
                    CompileRequest(source=HELLO + f"// ok {i}\n")
                )
        with make_service(breaker_threshold=3) as svc:
            responses = svc.process_batch(batch)
            snap = svc.metrics.snapshot()
        assert all(r is not None and r.status for r in responses)

        assert CompileService.ledger_problems(snap, len(batch)) == []
        terminal = {
            row["labels"]["status"]: row["value"]
            for row in snap["service_responses_total"]["series"]
        }
        # and the python-level statuses agree with the counters
        got = {}
        for r in responses:
            got[r.status] = got.get(r.status, 0) + 1
        assert got == terminal


class TestEventLogCorrelation:
    def test_events_share_the_response_trace_id(self, tmp_path):
        stream = io.StringIO()
        log = EventLog(stream=stream)
        with make_service(
            trace_requests=True, event_log=log
        ) as svc:
            (response,) = svc.process_batch(
                [CompileRequest(source=HELLO, action="run")]
            )
        events = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
        ]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "submit"
        assert kinds[-1] == "response"
        assert "dispatch" in kinds and "attempt-complete" in kinds
        # every event of this request carries the same trace id
        assert {e.get("trace_id") for e in events} == {
            response.trace_id
        }
        assert events[-1]["status"] == STATUS_OK

    def test_serve_cli_writes_all_telemetry_files(self, tmp_path):
        from repro.driver import serve

        src = tmp_path / "hello.c"
        src.write_text(HELLO)
        trace_dir = tmp_path / "traces"
        metrics_json = tmp_path / "metrics.json"
        metrics_prom = tmp_path / "metrics.prom"
        events_path = tmp_path / "events.jsonl"
        code = serve.main(
            [
                "--workers",
                "1",
                f"-ftrace-requests={trace_dir}",
                "--metrics-json",
                str(metrics_json),
                "--metrics-prom",
                str(metrics_prom),
                "--log-jsonl",
                str(events_path),
                str(src),
            ]
        )
        assert code == 0
        assert len(os.listdir(trace_dir)) == 1
        snap = json.loads(metrics_json.read_text())
        assert "service_request_duration_seconds" in snap
        prom = metrics_prom.read_text()
        assert "# TYPE service_requests_total counter" in prom
        records = read_jsonl(str(events_path))
        assert records[0]["event"] == "submit"
        assert records[-1]["event"] == "response"
