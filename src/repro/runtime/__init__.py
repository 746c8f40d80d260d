"""Simulated OpenMP runtime (libomp-compatible ``__kmpc_*`` subset).

Substitutes for hardware threads + libomp: thread teams are additional
interpreter :class:`~repro.interp.interpreter.ExecutionContext` objects
scheduled with exactly the result of stepping them **round-robin, one
instruction at a time** — deterministic, reproducible interleaving that
still exercises real barrier semantics, per-thread worksharing bounds,
dynamic/guided chunk dispatch and critical sections (via native
spinlocks).  Wall-clock parallelism is *not*
simulated; the observable OpenMP semantics (iteration→thread mapping,
lastprivate, reductions) are.
"""

from repro.runtime.kmp import OpenMPRuntime
from repro.runtime.schedule import (
    DispatchState,
    ScheduleKindRT,
    static_partition,
)
from repro.runtime.team import Team, TeamError

__all__ = [
    "DispatchState",
    "OpenMPRuntime",
    "ScheduleKindRT",
    "Team",
    "TeamError",
    "static_partition",
]
