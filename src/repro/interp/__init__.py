"""IR interpreter: executes :class:`repro.ir.Module` programs.

Stands in for the CPU so the reproduction can *run* compiled programs and
check the semantic-equivalence claims (original loop vs shadow-AST
transformed vs OpenMPIRBuilder-generated).  Key properties:

* flat byte-addressable memory with C layout (LP64),
* a *stepping* execution engine: one instruction per :meth:`step` call,
  which lets the simulated OpenMP runtime interleave team threads
  deterministically (round-robin) and implement real barriers,
* native hooks for the ``__kmpc_*`` runtime (:mod:`repro.runtime`) and a
  small libc subset (printf, abort, malloc, ...).
"""

from repro.interp.memory import Memory, MemoryError_, MemoryLimitExceeded
from repro.interp.interpreter import (
    DeadlockError,
    ExecutionContext,
    ExecutionTimeout,
    Interpreter,
    InterpreterError,
    SchedulerSnapshot,
    TeamError,
    ThreadSnapshot,
    Trap,
    scheduler_snapshot,
)

__all__ = [
    "DeadlockError",
    "ExecutionContext",
    "ExecutionTimeout",
    "Interpreter",
    "InterpreterError",
    "Memory",
    "MemoryError_",
    "MemoryLimitExceeded",
    "SchedulerSnapshot",
    "TeamError",
    "ThreadSnapshot",
    "Trap",
    "scheduler_snapshot",
]
