"""Request/response types of the compile service.

A :class:`CompileRequest` is one unit of admission: a source buffer plus
the knobs of one ``miniclang`` invocation (action, representation,
optimization, execution parameters) and the service-level controls
(per-attempt deadline, fault-injection specs for chaos testing).  A
:class:`CompileResponse` is the *terminal* answer the service guarantees
for every admitted request — success, degraded success, or a structured
error — never silence.

Everything here is plain picklable data: a request crosses the parent →
worker pipe inside a :class:`WorkPayload` and its outcome comes back as
a :class:`WorkOutcome` (a :class:`repro.pipeline.RequestOutcome` plus
attempt telemetry), so a worker death can never strand unpicklable
state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.pipeline import RequestOutcome

# ----------------------------------------------------------------------
# Terminal response statuses
# ----------------------------------------------------------------------
#: compiled/ran on the requested representation
STATUS_OK = "ok"
#: succeeded, but on the *other* representation than requested
STATUS_DEGRADED = "degraded"
#: deterministic user failure (diagnostics / guest trap) — not retried
STATUS_ERROR = "error"
#: internal failure persisted through retries and degradation
STATUS_ICE = "ice"
#: every attempt overran its wall-clock deadline
STATUS_TIMEOUT = "timeout"
#: the per-input circuit breaker is open (poison input quarantined)
STATUS_CIRCUIT_OPEN = "circuit-open"
#: shed at admission: the bounded queue is over capacity
STATUS_RESOURCE_EXHAUSTED = "resource-exhausted"

#: every status the service may resolve a request with
TERMINAL_STATUSES = frozenset(
    {
        STATUS_OK,
        STATUS_DEGRADED,
        STATUS_ERROR,
        STATUS_ICE,
        STATUS_TIMEOUT,
        STATUS_CIRCUIT_OPEN,
        STATUS_RESOURCE_EXHAUSTED,
    }
)

#: the two coexisting representations (paper §2 / §3)
MODES = ("shadow", "irbuilder")


def other_mode(mode: str) -> str:
    """The fallback representation for graceful degradation."""
    return "shadow" if mode == "irbuilder" else "irbuilder"


@dataclass
class CompileRequest:
    """One admission unit.  ``deadline_s`` is the *per-attempt*
    wall-clock budget enforced by the parent (a worker that overruns it
    is killed and the attempt retried); ``fault_attempts`` controls on
    how many leading attempts ``inject_faults`` is armed (``-1`` = every
    attempt, the poison-input simulation)."""

    source: str
    filename: str = "<service>"
    action: str = "compile"  # "compile" | "run"
    mode: str = "shadow"  # "shadow" | "irbuilder"
    optimize: bool = False
    num_threads: int = 4
    entry: str = "main"
    defines: dict[str, str] = field(default_factory=dict)
    fuel: Optional[int] = None
    strip_omp_transforms: bool = False
    deadline_s: Optional[float] = None  # None = service default
    #: *total* remaining wall-clock budget across all attempts —
    #: deadline propagation (the gRPC model): a network caller stamps
    #: each hop with what is *left* of its budget, the service clamps
    #: every attempt deadline to it and never schedules a retry that
    #: could not finish inside it.  None = unbounded (per-attempt
    #: ``deadline_s`` still applies).  Not part of the fingerprint:
    #: the budget describes the caller's patience, not the input.
    budget_s: Optional[float] = None
    allow_degraded: bool = True
    inject_faults: tuple[str, ...] = ()
    fault_attempts: int = 1
    request_id: Optional[str] = None
    #: distributed-tracing context: minted at admission when request
    #: tracing is enabled (callers may preset it to join an existing
    #: trace, OpenTelemetry-style)
    trace_id: Optional[str] = None

    def fingerprint(self) -> str:
        """Stable identity of the *input* for the circuit breaker.

        Covers everything that determines how an attempt behaves —
        source, action, representation, execution knobs and the armed
        fault specs (which stand in for input-dependent compiler bugs in
        chaos tests) — so one poison input cannot open the breaker for
        unrelated healthy traffic.
        """
        key = json.dumps(
            [
                self.source,
                self.action,
                self.mode,
                self.optimize,
                self.num_threads,
                self.entry,
                sorted(self.defines.items()),
                self.fuel,
                self.strip_omp_transforms,
                list(self.inject_faults),
                self.fault_attempts,
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]

    def faults_for_attempt(self, attempt: int) -> tuple[str, ...]:
        """The fault specs armed for 0-based attempt index *attempt*."""
        if not self.inject_faults:
            return ()
        if self.fault_attempts < 0 or attempt < self.fault_attempts:
            return self.inject_faults
        return ()


@dataclass
class CompileResponse:
    """The terminal answer for one request."""

    request_id: str
    status: str
    output: str = ""  # IR text (compile) or guest stdout (run)
    exit_code: Optional[int] = None
    diagnostics: str = ""
    detail: str = ""
    mode_used: Optional[str] = None
    degraded: bool = False
    attempts: int = 0
    retries: int = 0
    hedged: bool = False
    duration_s: float = 0.0
    #: admission -> first dispatch (0.0 for rejected/cached requests)
    queue_wait_s: float = 0.0
    #: trace id of the request's merged cross-process trace (None when
    #: request tracing was off)
    trace_id: Optional[str] = None
    reproducer_path: Optional[str] = None
    #: served from the service's response cache (no worker ran)
    cache_hit: bool = False
    #: fanned out from a coalesced single-flight leader's execution
    coalesced: bool = False
    #: compile-stat deltas shipped back from the winning worker
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_DEGRADED)

    def to_dict(self) -> dict:
        """Every field but ``stats``, in declaration order, with the
        two durations rounded to the microsecond."""
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "stats"
        }
        data["duration_s"] = round(self.duration_s, 6)
        data["queue_wait_s"] = round(self.queue_wait_s, 6)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CompileResponse":
        """Rebuild a response from :meth:`to_dict` output (the service's
        response-cache wire format); unknown keys are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(
            **{k: v for k, v in data.items() if k in known}
        )


# ----------------------------------------------------------------------
# The wire format between the service parent and its workers
# ----------------------------------------------------------------------
@dataclass
class WorkPayload:
    """One attempt, as sent to a worker.

    ``request`` is the admitted request with this attempt's ``mode``,
    its armed ``inject_faults`` and its trace context filled in: a set
    ``trace_id`` makes the worker run the attempt under a time-trace
    session and ship the spans back, parented under
    ``parent_span_id`` (the parent's attempt span)."""

    request: CompileRequest
    attempt: int
    #: directory of the shared on-disk compilation cache; None disables
    #: worker-side artifact caching for this attempt
    cache_dir: Optional[str] = None
    #: fsync cache writes before rename (``-fcache-durable``)
    cache_durable: bool = False
    parent_span_id: Optional[str] = None


@dataclass
class WorkOutcome(RequestOutcome):
    """One attempt's result, as received from a worker: the pipeline's
    outcome plus the attempt's telemetry."""

    #: wall time of the attempt inside the worker
    duration_s: float = 0.0
    #: the worker profiler's pipeline spans
    #: (:class:`~repro.instrument.telemetry.SpanRecord`), parented under
    #: ``WorkPayload.parent_span_id``; empty when the attempt was not
    #: traced
    spans: list = field(default_factory=list)
    #: worker OS pid plus its (wall_ns, perf_ns) clock anchor — what
    #: the parent needs to align span timestamps onto its own timeline
    pid: int = 0
    wall_anchor_ns: int = 0
    perf_anchor_ns: int = 0
