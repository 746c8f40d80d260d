"""Integration tests for the resilient compile service.

Real worker processes, real compiles, deterministic chaos via
``-finject-fault`` specs armed per (request, attempt) — every failure
below is reproducible, no flaky sleeps.  Deadlines and backoff are kept
tiny so the whole file stays fast.
"""

from __future__ import annotations

import pytest

from repro.pipeline import run_source
from repro.service import (
    STATUS_CIRCUIT_OPEN,
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_RESOURCE_EXHAUSTED,
    STATUS_TIMEOUT,
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

TRANSFORMED = """\
int printf(const char *fmt, ...);
int main() {
  int sum = 0;
  #pragma omp tile sizes(3)
  for (int i = 0; i < 9; i += 1)
    sum += i;
  #pragma omp unroll partial(2)
  for (int j = 0; j < 4; j += 1)
    sum += j;
  printf("sum=%d\\n", sum);
  return 0;
}
"""


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


class TestBasicServing:
    def test_run_and_compile_batch(self):
        with make_service() as svc:
            run, compile_ = svc.process_batch(
                [
                    CompileRequest(source=HELLO, action="run"),
                    CompileRequest(source=HELLO, action="compile"),
                ]
            )
        assert run.status == STATUS_OK
        assert run.output == "i0 i1 i2 i3 i4 i5 \n"
        assert run.exit_code == 0
        assert run.attempts == 1 and run.retries == 0
        assert compile_.status == STATUS_OK
        assert "define" in compile_.output
        assert compile_.mode_used == "shadow"

    def test_irbuilder_mode_served_natively(self):
        with make_service() as svc:
            [response] = svc.process_batch(
                [
                    CompileRequest(
                        source=HELLO, action="run", mode="irbuilder"
                    )
                ]
            )
        assert response.status == STATUS_OK
        assert response.mode_used == "irbuilder"
        assert not response.degraded

    def test_user_error_is_terminal_without_retry(self):
        with make_service() as svc:
            [response] = svc.process_batch(
                [CompileRequest(source=BAD, action="compile")]
            )
        assert response.status == STATUS_ERROR
        assert response.attempts == 1  # never retried
        assert "undeclared" in response.diagnostics

    def test_guest_exit_code_passes_through(self):
        with make_service() as svc:
            [response] = svc.process_batch(
                [
                    CompileRequest(
                        source="int main() { return 7; }\n",
                        action="run",
                    )
                ]
            )
        assert response.status == STATUS_OK
        assert response.exit_code == 7


class TestFaultRecovery:
    def test_worker_death_is_retried(self):
        with make_service() as svc:
            [response] = svc.process_batch(
                [
                    CompileRequest(
                        source=HELLO,
                        action="run",
                        inject_faults=("service-worker-exit",),
                        fault_attempts=1,
                    )
                ]
            )
        assert response.status == STATUS_OK
        assert response.output == "i0 i1 i2 i3 i4 i5 \n"
        assert response.attempts == 2
        assert response.retries == 1

    def test_hang_is_killed_at_deadline_and_retried(self):
        with make_service() as svc:
            [response] = svc.process_batch(
                [
                    CompileRequest(
                        source=HELLO,
                        action="run",
                        deadline_s=1.0,
                        inject_faults=("service-worker-hang",),
                        fault_attempts=1,
                    )
                ]
            )
        assert response.status == STATUS_OK
        assert response.attempts == 2

    def test_transient_ice_is_retried_on_same_mode(self):
        with make_service() as svc:
            [response] = svc.process_batch(
                [
                    CompileRequest(
                        source=HELLO,
                        action="run",
                        inject_faults=("service-worker",),
                        fault_attempts=1,
                    )
                ]
            )
        assert response.status == STATUS_OK
        assert response.mode_used == "shadow"  # no degradation needed
        assert not response.degraded
        assert response.attempts == 2

    def test_other_requests_survive_a_poison_neighbor(self):
        with make_service() as svc:
            responses = svc.process_batch(
                [
                    CompileRequest(source=HELLO, action="run"),
                    CompileRequest(
                        source=HELLO + "// poison\n",
                        action="run",
                        inject_faults=("service-worker-exit",),
                        fault_attempts=-1,
                    ),
                    CompileRequest(
                        source=HELLO + "// second\n", action="run"
                    ),
                ]
            )
        assert responses[0].status == STATUS_OK
        assert responses[1].status == STATUS_CIRCUIT_OPEN
        assert responses[2].status == STATUS_OK


class TestCircuitBreaker:
    def test_poison_trips_breaker_within_threshold(self, tmp_path):
        quarantine = str(tmp_path / "quarantine")
        with make_service(quarantine_dir=quarantine) as svc:
            poison = CompileRequest(
                source=HELLO,
                action="run",
                inject_faults=("service-worker",),
                fault_attempts=-1,
            )
            [response] = svc.process_batch([poison])
            assert response.status == STATUS_CIRCUIT_OPEN
            assert response.attempts <= svc.config.breaker_threshold
            assert response.reproducer_path is not None
            repro_dir = tmp_path / "quarantine"
            [entry] = list(repro_dir.iterdir())
            assert (entry / "repro.c").read_text() == HELLO
            assert (entry / "cmd").exists()

            # resubmission is rejected at admission, no workers burned
            rejection = svc.submit(
                CompileRequest(
                    source=HELLO,
                    action="run",
                    inject_faults=("service-worker",),
                    fault_attempts=-1,
                )
            )
            assert rejection is not None
            assert rejection.status == STATUS_CIRCUIT_OPEN
            assert rejection.attempts == 0

    def test_distinct_inputs_have_independent_breakers(self):
        with make_service() as svc:
            [poisoned] = svc.process_batch(
                [
                    CompileRequest(
                        source=HELLO,
                        action="run",
                        inject_faults=("service-worker",),
                        fault_attempts=-1,
                    )
                ]
            )
            assert poisoned.status == STATUS_CIRCUIT_OPEN
            # same source *without* the poison faults: different
            # fingerprint, healthy breaker
            [healthy] = svc.process_batch(
                [CompileRequest(source=HELLO, action="run")]
            )
            assert healthy.status == STATUS_OK


class TestGracefulDegradation:
    def test_irbuilder_failure_degrades_to_shadow(self):
        """The paper's dual representation as fault tolerance: with the
        IRBuilder path deterministically broken, the service serves the
        same program from the shadow-AST path and the output matches a
        direct in-process shadow compile byte for byte."""
        with make_service() as svc:
            [response] = svc.process_batch(
                [
                    CompileRequest(
                        source=TRANSFORMED,
                        action="run",
                        mode="irbuilder",
                        inject_faults=("service-irbuilder",),
                        fault_attempts=-1,
                    )
                ]
            )
        assert response.status == STATUS_DEGRADED
        assert response.ok
        assert response.degraded
        assert response.mode_used == "shadow"
        direct = run_source(TRANSFORMED, enable_irbuilder=False)
        assert response.output == direct.stdout
        assert "degraded" in response.detail

    def test_shadow_failure_degrades_to_irbuilder(self):
        with make_service() as svc:
            [response] = svc.process_batch(
                [
                    CompileRequest(
                        source=TRANSFORMED,
                        action="run",
                        mode="shadow",
                        inject_faults=("service-shadow",),
                        fault_attempts=-1,
                    )
                ]
            )
        assert response.status == STATUS_DEGRADED
        assert response.mode_used == "irbuilder"
        direct = run_source(TRANSFORMED, enable_irbuilder=True)
        assert response.output == direct.stdout

    def test_no_degrade_flag_fails_hard(self):
        with make_service(allow_degraded=False) as svc:
            [response] = svc.process_batch(
                [
                    CompileRequest(
                        source=TRANSFORMED,
                        action="run",
                        mode="irbuilder",
                        inject_faults=("service-irbuilder",),
                        fault_attempts=-1,
                    )
                ]
            )
        # with no fallback the breaker quarantines the input instead
        assert response.status == STATUS_CIRCUIT_OPEN
        assert not response.degraded


class TestAdmissionControl:
    def test_overload_sheds_with_structured_response(self):
        with make_service(queue_capacity=2) as svc:
            requests = [
                CompileRequest(
                    source=HELLO + f"// v{i}\n", action="run"
                )
                for i in range(4)
            ]
            responses = svc.process_batch(requests)
        statuses = [r.status for r in responses]
        assert statuses[:2] == [STATUS_OK, STATUS_OK]
        assert statuses[2:] == [
            STATUS_RESOURCE_EXHAUSTED,
            STATUS_RESOURCE_EXHAUSTED,
        ]
        for shed in responses[2:]:
            assert shed.attempts == 0
            assert "capacity" in shed.detail


class TestDeadlineBudget:
    def test_retry_that_cannot_fit_the_budget_is_suppressed(self):
        """An always-ICE input whose first backoff alone outlasts the
        propagated budget: the service answers ``timeout`` at once
        instead of scheduling a retry nobody will wait for."""
        from repro.instrument.stats import STATS

        before = STATS.counter_values()
        with make_service(
            retry=RetryPolicy(
                max_attempts=3, base_delay_s=5.0, max_delay_s=5.0
            ),
        ) as svc:
            [response] = svc.process_batch(
                [
                    CompileRequest(
                        source=HELLO,
                        budget_s=2.0,
                        allow_degraded=False,
                        inject_faults=("service-worker",),
                        fault_attempts=-1,
                    )
                ]
            )
        delta = STATS.delta_since(before)
        assert response.status == STATUS_TIMEOUT
        assert response.attempts == 1
        assert (
            "remaining retries suppressed by deadline budget"
            in response.detail
        )
        assert delta.get("service.budget-suppressed-retries", 0) >= 1
        assert "service.retries" not in delta


class TestHedging:
    def test_straggler_gets_hedged_and_request_still_resolves(self):
        """First attempt hangs; after hedge_delay a duplicate runs on
        the other worker and wins long before the straggler's
        deadline."""
        with make_service(hedge_delay_s=0.3) as svc:
            [response] = svc.process_batch(
                [
                    CompileRequest(
                        source=HELLO,
                        action="run",
                        deadline_s=10.0,
                        inject_faults=("service-worker-hang",),
                        fault_attempts=1,
                    )
                ]
            )
        assert response.status == STATUS_OK
        assert response.hedged
        assert response.attempts == 2
        assert response.retries == 0  # the hedge is not a retry
        assert response.duration_s < 10.0  # did not wait for deadline


class TestMiniChaos:
    def test_mixed_chaos_batch_zero_lost_requests(self, tmp_path):
        """A small in-test chaos batch: every request gets exactly one
        terminal response (the CI-scale batch lives in
        repro.service.chaos)."""
        from repro.service.chaos import main as chaos_main

        code = chaos_main(
            [
                "--count",
                "16",
                "--kill-every",
                "5",
                "--hang-every",
                "0",
                "--poison",
                "1",
                "--workers",
                "2",
                "--deadline",
                "10",
                "--quarantine-dir",
                str(tmp_path / "q"),
            ]
        )
        assert code == 0
