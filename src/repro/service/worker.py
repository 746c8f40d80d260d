"""The worker-process side of the compile service.

``worker_main`` is the child entry point: a loop that receives
:class:`~repro.service.request.WorkPayload` objects over a pipe,
executes them through the request-scoped pipeline entry point
(:func:`repro.pipeline.execute_request`) and ships a
:class:`~repro.service.request.WorkOutcome` back.  One pipeline per
worker, one request at a time — crash isolation comes from the process
boundary, not from shared-state discipline.

Per-payload fault arming: the parent decides which ``-finject-fault``
specs apply to each attempt and the worker arms exactly those around the
execution, so chaos failures are a deterministic function of
``(request, attempt)`` even across worker restarts.  Three service-level
sites are interpreted here rather than inside the pipeline:

* ``service-worker-exit`` — ``os._exit``: a hard death the parent sees
  as a broken pipe (the OOM-kill / segfault simulation);
* ``service-worker-hang`` — sleep far past any deadline, forcing the
  parent's wall-clock enforcement to kill and retry;
* ``service-irbuilder`` / ``service-shadow`` — representation-specific
  failures, the deterministic trigger for graceful degradation;
* ``service-worker`` — a mode-independent ICE (the poison-input stand-in).
"""

from __future__ import annotations

import os
import time

from repro.instrument.faultinject import FAULTS, InjectedFault
from repro.instrument.telemetry import MetricsRegistry, clock_anchor
from repro.instrument.timetrace import (
    disable_time_trace,
    enable_time_trace,
)
from repro.service.request import WorkOutcome, WorkPayload

#: how long a "hung" worker sleeps — effectively forever next to any
#: realistic per-attempt deadline
_HANG_SLEEP_S = 3600.0

#: per-process compilation caches, one per cache directory.  Workers
#: share the *disk* tier through the directory; the memory tier (and
#: the live-module memo) is private to each worker process.
_CACHES: dict = {}


def _cache_for(cache_dir, durable: bool = False):
    if cache_dir is None:
        return None
    cache = _CACHES.get((cache_dir, durable))
    if cache is None:
        from repro.cache import CompilationCache

        cache = CompilationCache(cache_dir, durable=durable)
        _CACHES[(cache_dir, durable)] = cache
    return cache


def _attempt_cache(payload: WorkPayload):
    """The cache this attempt compiles through.

    A fault-armed attempt must really run the pipeline — an
    artifact-cache hit would skip the armed site entirely — *except*
    when every armed site is a ``storage`` one: those live inside the
    disk tier, so bypassing the cache would be bypassing the fault.
    """
    if payload.inject_faults:
        sites = (spec.partition(":")[0] for spec in payload.inject_faults)
        if any(FAULTS.scope_of(site) != "storage" for site in sites):
            return None
    return _cache_for(
        getattr(payload, "cache_dir", None),
        getattr(payload, "cache_durable", False),
    )


def _finalize(payload: WorkPayload, outcome: WorkOutcome) -> WorkOutcome:
    """Attach the telemetry sidecar to an outgoing outcome: this
    worker's pid and clock anchor (for span alignment in the parent),
    any captured pipeline spans, and the per-attempt metrics snapshot
    the parent merges exactly (fixed-bucket histograms)."""
    outcome.pid = os.getpid()
    outcome.wall_anchor_ns, outcome.perf_anchor_ns = clock_anchor()
    metrics = MetricsRegistry()
    metrics.histogram(
        "worker_attempt_duration_seconds",
        "Per-attempt wall time inside the worker process",
        ("kind", "mode"),
    ).labels(kind=outcome.kind, mode=payload.mode).observe(
        outcome.duration_s
    )
    metrics.counter(
        "worker_attempts_total",
        "Attempts executed by worker processes",
        ("kind",),
    ).labels(kind=outcome.kind).inc()
    outcome.metrics = metrics.snapshot()
    return outcome


def execute_payload(payload: WorkPayload) -> WorkOutcome:
    """Run one attempt in this process and classify the outcome."""
    from repro.pipeline import execute_request

    FAULTS.disarm_all()
    for spec in payload.inject_faults:
        FAULTS.arm_spec(spec)
    started = time.perf_counter()
    try:
        try:
            FAULTS.hit("service-worker-exit")
        except InjectedFault:
            os._exit(9)  # simulate SIGKILL (OOM killer)
        try:
            FAULTS.hit("service-worker-hang")
        except InjectedFault:
            time.sleep(_HANG_SLEEP_S)
        try:
            FAULTS.hit("service-worker")
            FAULTS.hit(
                "service-irbuilder"
                if payload.mode == "irbuilder"
                else "service-shadow"
            )
        except InjectedFault as exc:
            return _finalize(
                payload,
                WorkOutcome(
                    request_id=payload.request_id,
                    attempt=payload.attempt,
                    kind="ice",
                    detail=str(exc),
                    duration_s=time.perf_counter() - started,
                ),
            )
        # Distributed tracing: with a propagated trace context, run the
        # whole attempt under a fresh time-trace session opened on that
        # context and ship its spans back alongside the result.
        traced = payload.trace_id is not None
        if traced:
            disable_time_trace()  # defensive: never inherit a session
            profiler = enable_time_trace(
                trace_id=payload.trace_id,
                parent_id=payload.parent_span_id,
            )
        try:
            outcome = execute_request(
                payload.source,
                filename=payload.filename,
                action=payload.action,
                mode=payload.mode,
                optimize=payload.optimize,
                num_threads=payload.num_threads,
                entry=payload.entry,
                defines=payload.defines,
                fuel=payload.fuel,
                strip_omp_transforms=payload.strip_omp_transforms,
                cache=_attempt_cache(payload),
            )
        finally:
            if traced:
                disable_time_trace()
        result = WorkOutcome(
            request_id=payload.request_id,
            attempt=payload.attempt,
            kind=outcome.kind,
            output=outcome.output,
            exit_code=outcome.exit_code,
            diagnostics=outcome.diagnostics,
            detail=outcome.detail,
            stats=outcome.stats,
            duration_s=time.perf_counter() - started,
        )
        if traced:
            result.spans = profiler.spans
        return _finalize(payload, result)
    finally:
        FAULTS.disarm_all()


def worker_main(conn, worker_id: int) -> None:
    """Child-process request loop.  Exits on the ``None`` sentinel, a
    closed pipe, or a hard injected death."""
    try:
        while True:
            try:
                payload = conn.recv()
            except (EOFError, KeyboardInterrupt):
                break
            if payload is None:
                break
            outcome = execute_payload(payload)
            try:
                conn.send(outcome)
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()
