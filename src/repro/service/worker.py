"""The worker-process side of the compile service.

``worker_main`` is the child entry point: a loop that receives
:class:`~repro.service.request.WorkPayload` objects over a pipe,
executes them through the request-scoped pipeline entry point
(:func:`repro.pipeline.execute_request`) and ships a
:class:`~repro.service.request.WorkOutcome` back.  One pipeline per
worker, one request at a time — crash isolation comes from the process
boundary, not from shared-state discipline.

Per-payload fault arming: the parent decides which ``-finject-fault``
specs apply to each attempt (the payload request's ``inject_faults``)
and the worker arms exactly those around the execution, so chaos
failures are a deterministic function of ``(request, attempt)`` even
across worker restarts.  Three service-level
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
from repro.instrument.telemetry import clock_anchor
from repro.instrument.timetrace import (
    disable_time_trace,
    enable_time_trace,
)
from repro.pipeline import RequestOutcome, execute_request
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
    faults = payload.request.inject_faults
    if faults:
        sites = (spec.partition(":")[0] for spec in faults)
        if any(FAULTS.scope_of(site) != "storage" for site in sites):
            return None
    return _cache_for(payload.cache_dir, payload.cache_durable)


def _run_attempt(payload: WorkPayload) -> RequestOutcome:
    """The attempt itself: the service-level fault sites, then the
    pipeline."""
    request = payload.request
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
            if request.mode == "irbuilder"
            else "service-shadow"
        )
    except InjectedFault as exc:
        return RequestOutcome(kind="ice", detail=str(exc))
    return execute_request(
        request.source,
        filename=request.filename,
        action=request.action,
        mode=request.mode,
        optimize=request.optimize,
        num_threads=request.num_threads,
        entry=request.entry,
        defines=request.defines,
        fuel=request.fuel,
        strip_omp_transforms=request.strip_omp_transforms,
        cache=_attempt_cache(payload),
    )


def execute_payload(payload: WorkPayload) -> WorkOutcome:
    """Run one attempt in this process and classify the outcome.

    With a propagated trace context the whole attempt runs under a
    fresh time-trace session opened on that context, and its spans
    ship back with the outcome."""
    request = payload.request
    FAULTS.disarm_all()
    for spec in request.inject_faults:
        FAULTS.arm_spec(spec)
    profiler = None
    if request.trace_id is not None:
        disable_time_trace()  # defensive: never inherit a session
        profiler = enable_time_trace(
            trace_id=request.trace_id,
            parent_id=payload.parent_span_id,
        )
    started = time.perf_counter()
    try:
        result = WorkOutcome(**vars(_run_attempt(payload)))
    finally:
        if profiler is not None:
            disable_time_trace()
        FAULTS.disarm_all()
    result.duration_s = time.perf_counter() - started
    if profiler is not None:
        result.spans = profiler.spans
    result.pid = os.getpid()
    result.wall_anchor_ns, result.perf_anchor_ns = clock_anchor()
    return result


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
