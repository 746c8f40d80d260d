"""Pure-unit tests for the compile-service policy objects.

No worker processes anywhere in this file: the retry policy is plain
arithmetic over an injected RNG, the circuit breaker takes a fake clock,
and the admission queue is a counter exercise — the whole point of
keeping policy separate from the pool mechanism.
"""

from __future__ import annotations

import random

import pytest

from repro.service import (
    STATUS_OK,
    AdmissionQueue,
    CircuitBreaker,
    CompileRequest,
    CompileResponse,
    CompileService,
    RetryPolicy,
    other_mode,
)
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_unjittered_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            max_attempts=6,
            base_delay_s=0.1,
            multiplier=2.0,
            max_delay_s=0.5,
            jitter=0.0,
        )
        delays = [policy.backoff(i) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.2, jitter=0.5
        )
        for seed in range(50):
            rng = random.Random(seed)
            for i in range(3):
                lo, hi = policy.bounds(i)
                delay = policy.backoff(i, rng)
                assert lo <= delay <= hi

    def test_bounds_envelope(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.25)
        lo, hi = policy.bounds(0)
        assert lo == pytest.approx(0.75)
        assert hi == pytest.approx(1.25)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -0.1},
            {"multiplier": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=30.0):
        clock = FakeClock()
        return CircuitBreaker(threshold, cooldown, clock), clock

    def test_closed_allows_and_counts_to_threshold(self):
        breaker, _ = self.make(threshold=3)
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.record_failure()  # the tripping failure
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_success_resets_consecutive_failures(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()  # count restarted
        assert breaker.state == CLOSED

    def test_half_open_after_cooldown_grants_single_probe(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one
        assert not breaker.allow()

    def test_probe_success_closes(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert breaker.allow()  # no probe rationing when closed

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker, clock = self.make(threshold=3, cooldown=5.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        assert breaker.record_failure()  # half-open failure trips again
        assert breaker.state == OPEN
        assert breaker.trips == 2
        assert not breaker.allow()
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.1)
        assert breaker.allow()

    def test_stranded_probe_is_regranted_after_cooldown(self):
        """A granted probe whose request never reports back (e.g. shed
        at admission) must not wedge the breaker half-open forever."""
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        # probe never reports...
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.1)
        assert breaker.allow()  # re-granted, breaker self-heals

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


# ----------------------------------------------------------------------
# AdmissionQueue
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_sheds_over_capacity_counting_in_flight(self):
        queue = AdmissionQueue(capacity=2)
        assert queue.offer("a")
        assert queue.offer("b")
        assert not queue.offer("c")  # shed
        assert queue.shed_count == 1
        assert queue.pop() == "a"
        # popped work is in flight: still over capacity
        assert not queue.offer("c")
        queue.release()
        assert queue.offer("c")
        assert queue.load == 2

    def test_requeue_returns_to_head_without_shedding(self):
        queue = AdmissionQueue(capacity=1)
        queue.offer("a")
        item = queue.pop()
        queue.requeue(item)
        assert queue.pop() == "a"
        assert queue.shed_count == 0

    def test_release_without_pop_raises(self):
        queue = AdmissionQueue(capacity=1)
        with pytest.raises(RuntimeError):
            queue.release()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)


# ----------------------------------------------------------------------
# Request fingerprints and response shape
# ----------------------------------------------------------------------
class TestRequestTypes:
    def test_fingerprint_stable_and_behavior_sensitive(self):
        request = CompileRequest(source="int main() { return 0; }")
        assert request.fingerprint() == request.fingerprint()
        same = CompileRequest(source="int main() { return 0; }")
        assert request.fingerprint() == same.fingerprint()
        for variant in (
            CompileRequest(source="int main() { return 1; }"),
            CompileRequest(
                source="int main() { return 0; }", mode="irbuilder"
            ),
            CompileRequest(
                source="int main() { return 0; }", action="run"
            ),
            CompileRequest(
                source="int main() { return 0; }",
                inject_faults=("service-worker",),
            ),
            CompileRequest(
                source="int main() { return 0; }",
                inject_faults=("service-worker",),
                fault_attempts=-1,
            ),
        ):
            assert request.fingerprint() != variant.fingerprint()
        # identity fields don't change the fingerprint
        renamed = CompileRequest(
            source="int main() { return 0; }",
            filename="other.c",
            request_id="r1",
            deadline_s=1.0,
        )
        assert request.fingerprint() == renamed.fingerprint()

    def test_faults_for_attempt_windows(self):
        request = CompileRequest(
            source="x",
            inject_faults=("service-worker-exit",),
            fault_attempts=2,
        )
        assert request.faults_for_attempt(0)
        assert request.faults_for_attempt(1)
        assert not request.faults_for_attempt(2)
        poison = CompileRequest(
            source="x",
            inject_faults=("service-worker",),
            fault_attempts=-1,
        )
        assert all(poison.faults_for_attempt(i) for i in range(10))

    def test_response_roundtrip(self):
        response = CompileResponse(
            request_id="r1",
            status=STATUS_OK,
            output="ir",
            attempts=2,
            retries=1,
        )
        assert response.ok
        payload = response.to_dict()
        assert payload["status"] == "ok"
        assert payload["attempts"] == 2
        assert payload["retries"] == 1

    def test_other_mode_is_an_involution(self):
        assert other_mode("shadow") == "irbuilder"
        assert other_mode("irbuilder") == "shadow"


class TestLedgerProblems:
    def snapshot(self, requests, responses, counts, buckets):
        return {
            "service_requests_total": {"series": [{"value": requests}]},
            "service_responses_total": {
                "series": [{"labels": {"status": "ok"}, "value": responses}]
            },
            "service_request_duration_seconds": {
                "series": [
                    {
                        "labels": {"outcome": "ok"},
                        "count": counts,
                        "buckets": buckets,
                    }
                ]
            },
        }

    def test_exact_ledger_has_no_problems(self):
        snap = self.snapshot(3, 3, 3, [2, 1, 0])
        assert CompileService.ledger_problems(snap, 3) == []

    def test_each_condition_is_reported(self):
        snap = self.snapshot(4, 2, 2, [1, 0, 0])
        problems = CompileService.ledger_problems(snap, 3)
        assert problems == [
            "service_requests_total=4 != 3",
            "requests in != sum of terminal statuses: 3 vs 2",
            "latency histogram lost observations: 2 != 3",
            "latency bucket counts disagree with series total for "
            "outcome ok",
        ]
