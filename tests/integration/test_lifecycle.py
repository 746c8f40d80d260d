"""Service lifecycle: graceful drain on SIGTERM, durable state across
restarts, worker recycling, and heartbeat recovery."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.instrument.stats import STATS
from repro.service import (
    STATUS_CIRCUIT_OPEN,
    STATUS_RESOURCE_EXHAUSTED,
    CompileRequest,
    CompileService,
    RetryPolicy,
    ServiceConfig,
    load_state,
)

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

SOURCE = """\
int printf(const char *fmt, ...);
int main() {
  int sum = 0;
  #pragma omp tile sizes(2)
  for (int i = 0; i < 8; i += 1)
    sum += i;
  printf("sum %d\\n", sum);
  return 0;
}
"""


def _request(index: int, **kwargs) -> CompileRequest:
    kwargs.setdefault("action", "compile")
    return CompileRequest(
        source=SOURCE.replace("sum %d", f"sum[{index}] %d"),
        filename=f"life-{index}.c",
        deadline_s=10.0,
        **kwargs,
    )


def _serve(argv, tmp_path, **popen_kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.setdefault("MINICLANG_QUARANTINE_DIR", str(tmp_path / "q"))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.driver.serve", *argv],
        env=env,
        cwd=str(tmp_path),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **popen_kwargs,
    )


# ----------------------------------------------------------------------
# SIGTERM -> drain -> snapshot -> exit 0
# ----------------------------------------------------------------------
_SLOW = """\
int printf(const char *fmt, ...);
int main() {{
  int sum = 0;
  for (int i = 0; i < {iterations}; i += 1)
    sum += i * {index};
  printf("sum %d\\n", sum);
  return 0;
}}
"""


def _iterations_lasting(seconds: float, probe: int = 20000) -> int:
    """Loop length of a :data:`_SLOW` program that runs for at least
    *seconds* on this host's default engine (at least 40000)."""
    from repro.pipeline import run_source

    source = _SLOW.format(iterations=probe, index=1)
    started = time.monotonic()
    run_source(source)
    elapsed = max(time.monotonic() - started, 1e-3)
    return max(40000, int(probe * seconds / elapsed))


def _wait_for_ok_response(log_path, proc, timeout_s: float) -> None:
    """Block until the ``--log-jsonl`` stream records a request answered
    ``ok`` (the status lines on stderr only follow the whole batch)."""
    import json

    give_up = time.monotonic() + timeout_s
    while time.monotonic() < give_up:
        assert proc.poll() is None, "server exited before answering"
        if log_path.exists():
            for line in log_path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                if (
                    record.get("event") == "response"
                    and record.get("status") == "ok"
                ):
                    return
        time.sleep(0.05)
    raise AssertionError("no request answered ok in time")


class TestGracefulDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        # The signal lands as soon as one request has been answered.
        # Each request runs for at least a second, so the 19 left on
        # the single worker outlast the 1 s drain deadline many times
        # over whatever the engine's speed or the host's load.
        iterations = _iterations_lasting(1.0)
        sources = []
        for i in range(20):
            path = tmp_path / f"in-{i}.c"
            path.write_text(
                _SLOW.format(iterations=iterations, index=i),
                encoding="utf-8",
            )
            sources.append(str(path))
        state_dir = tmp_path / "state"
        events = tmp_path / "events.jsonl"
        proc = _serve(
            [
                *sources,
                "--run",
                "--workers",
                "1",
                "--state-dir",
                str(state_dir),
                "--drain-timeout",
                "1.0",
                "--log-jsonl",
                str(events),
            ],
            tmp_path,
        )
        try:
            _wait_for_ok_response(events, proc, timeout_s=120)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        proc.send_signal(signal.SIGTERM)
        try:
            _, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        assert proc.returncode == 0, stderr
        assert "SIGTERM received: draining" in stderr
        assert "exiting 0" in stderr
        summary = re.search(r"drained: (\d+) served, (\d+) shed", stderr)
        assert summary is not None, stderr
        served, shed = int(summary.group(1)), int(summary.group(2))
        # The drain deadline shed work, and every request is accounted
        # for: served or shed, nothing lost.
        assert shed >= 1, stderr
        assert served + shed == len(sources), stderr
        # Each shed request got a structured answer, not silence.
        statuses = re.findall(
            r"^miniclang-serve: r\d+ \S+: (\S+)", stderr, re.MULTILINE
        )
        assert len(statuses) == len(sources), stderr
        assert statuses.count("resource-exhausted") == shed, stderr
        # The state snapshot survived the stop.
        assert load_state(str(state_dir)) is not None

    def test_drain_mode_rejects_new_admissions(self):
        before = STATS.counter_values()
        with CompileService(
            ServiceConfig(workers=1, quarantine_dir=None)
        ) as service:
            service.begin_drain(5.0)
            response = service.submit(_request(0))
            assert response is not None
            assert response.status == STATUS_RESOURCE_EXHAUSTED
            assert "draining" in response.detail
        delta = STATS.delta_since(before)
        assert delta.get("service.drain-rejected", 0) == 1

    def test_drain_deadline_sheds_inflight(self):
        clock = time.monotonic
        with CompileService(
            ServiceConfig(
                workers=1,
                quarantine_dir=None,
                deadline_s=30.0,
                retry=RetryPolicy(max_attempts=1),
            )
        ) as service:
            # A worker hang outlives any sane drain deadline.
            service.submit(
                _request(
                    0,
                    inject_faults=("service-worker-hang",),
                    fault_attempts=-1,
                )
            )
            started = clock()
            service.begin_drain(0.3)
            service.drain()
            assert clock() - started < 10.0
            responses = list(service.responses.values())
            assert len(responses) == 1
            assert (
                responses[0].status == STATUS_RESOURCE_EXHAUSTED
            )
            assert "drain deadline" in responses[0].detail


# ----------------------------------------------------------------------
# Durable state across a restart
# ----------------------------------------------------------------------
class TestStateAcrossRestart:
    def test_quarantine_survives_restart(self, tmp_path):
        state_dir = str(tmp_path / "state")
        poison = _request(
            7,
            inject_faults=("service-worker",),
            fault_attempts=-1,
        )

        def config() -> ServiceConfig:
            return ServiceConfig(
                workers=1,
                quarantine_dir=str(tmp_path / "quarantine"),
                state_dir=state_dir,
                breaker_threshold=2,
                breaker_cooldown_s=600.0,
                retry=RetryPolicy(
                    max_attempts=2, base_delay_s=0.01, max_delay_s=0.02
                ),
            )

        with CompileService(config()) as first:
            [response] = first.process_batch([poison])
            assert response.status == STATUS_CIRCUIT_OPEN
            fingerprint = poison.fingerprint()
            assert fingerprint in first.quarantined

        saved = load_state(state_dir)
        assert saved is not None
        assert fingerprint in saved.quarantined
        assert saved.breakers[fingerprint]["state"] == "open"

        before = STATS.counter_values()
        with CompileService(config()) as second:
            assert fingerprint in second.quarantined
            resubmit = second.submit(poison)
            second.drain()
            assert resubmit.status == STATUS_CIRCUIT_OPEN
            # Rejected at admission: no worker attempt was re-burned.
            assert resubmit.attempts == 0
        delta = STATS.delta_since(before)
        assert delta.get("service.quarantine-restored", 0) == 1
        assert delta.get("service.state-restores", 0) == 1

    def test_corrupt_state_degrades_to_fresh_start(self, tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "state.json").write_text("garbage")
        with CompileService(
            ServiceConfig(
                workers=1,
                quarantine_dir=None,
                state_dir=str(state_dir),
            )
        ) as service:
            [response] = service.process_batch([_request(1)])
            assert response.ok
        assert (state_dir / "state.json.corrupt").exists()


# ----------------------------------------------------------------------
# Worker recycling and heartbeat
# ----------------------------------------------------------------------
class TestWorkerLifecycle:
    def test_max_requests_recycles_without_loss(self):
        before = STATS.counter_values()
        with CompileService(
            ServiceConfig(
                workers=1,
                quarantine_dir=None,
                worker_max_requests=2,
            )
        ) as service:
            responses = service.process_batch(
                [_request(i) for i in range(6)]
            )
        assert len(responses) == 6
        assert all(r.ok for r in responses)
        delta = STATS.delta_since(before)
        assert delta.get("service.worker-recycled", 0) >= 1

    def test_heartbeat_replaces_dead_idle_worker(self):
        before = STATS.counter_values()
        with CompileService(
            ServiceConfig(
                workers=1,
                quarantine_dir=None,
                heartbeat_interval_s=0.01,
            )
        ) as service:
            [first] = service.process_batch([_request(0)])
            assert first.ok
            worker = service.pool.workers[0]
            worker.proc.kill()
            worker.proc.join(timeout=10)
            # Force the next health check and run it.
            service._last_heartbeat_at = -1e9
            service._check_worker_health(time.monotonic())
            assert service.pool.workers[0].proc.is_alive()
            [second] = service.process_batch([_request(1)])
            assert second.ok
        delta = STATS.delta_since(before)
        assert delta.get("service.worker-heartbeat-restarts", 0) == 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
