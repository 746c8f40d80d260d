"""Execution engines for optimized IR.

Two engines share one machine definition (memory model, natives,
simulated OpenMP runtime, profiles, guardrails) and differ only in
instruction dispatch:

* ``closures`` — the production engine and the default
  (:class:`repro.exec.engine.ClosureInterpreter`), which lowers each
  function to generated Python code with operands resolved to dense
  register slots;
* ``interp`` — the reference tree-walking interpreter
  (:class:`repro.interp.interpreter.Interpreter`), run only when asked
  for: as the differential oracle's reference and behind
  ``-fexec=interp``.

:func:`create_interpreter` is the single selection point used by the
pipeline, the differential oracle and the benchmark harness.

The closure engine's statistics (``exec.*``) are registered here, so a
process that only merges them, such as a service parent whose workers
run the programs, still describes them.
"""

from __future__ import annotations

from typing import Any

from repro.instrument import STATS, get_statistic
from repro.interp.interpreter import Interpreter
from repro.ir.module import Module

#: calls into generated code, counted by the engine's two loops (the
#: name predates the code's loop nests; ``BENCH_exec.json`` reads it)
DISPATCHES = get_statistic(
    "exec", "trace-dispatches", "Calls into generated code"
)
#: inlined ops bound to a single-step closure on their first step
BINDS = get_statistic(
    "exec", "first-step-binds",
    "Inlined ops bound to their single-step closure",
)
#: each generated function or op-template source compiled, by its length:
#: the count is how many, the sum their bytes.  A histogram, not a
#: statistic, because it depends on what the process ran before (the
#: code table is process-wide), and a request's statistics do not.
SOURCE_BYTES = STATS.histogram(
    "exec.source-bytes",
    "Bytes of each generated source compiled",
    buckets=(256, 512, 1024, 2048, 4096, 8192, 16384),
)
COMPILE_SECONDS = STATS.histogram(
    "exec.source-compile-seconds",
    "compile() time of each newly generated source",
)

#: engine names accepted by ``-fexec=`` and ``create_interpreter``
ENGINES = ("interp", "closures")


def create_interpreter(
    module: Module, engine: str = "closures", **kwargs: Any
) -> Interpreter:
    """Instantiate the requested execution engine over *module*
    (``"closures"`` unless the reference ``"interp"`` is asked for).

    Both engines accept the same constructor keywords
    (``profile_detail``, ``memory_limit``, ``max_call_depth``, ...) and
    honour the same run-time guardrails.
    """
    if engine == "interp":
        return Interpreter(module, **kwargs)
    if engine == "closures":
        from repro.exec.engine import ClosureInterpreter

        return ClosureInterpreter(module, **kwargs)
    raise ValueError(
        f"unknown execution engine {engine!r} "
        f"(expected one of {', '.join(ENGINES)})"
    )


def profile_fingerprint(profile) -> dict:
    """Engine-comparable digest of an ExecutionProfile.

    Two runs of the same program under different engines must produce
    equal fingerprints: total/per-thread retired instructions, barrier
    accounting, fork counts and (when detailed) per-block counts."""
    return {
        "total_instructions": profile.total_instructions,
        "fork_count": profile.fork_count,
        "barrier_episodes": profile.barrier_episodes,
        "threads": [
            (ctx.gtid, ctx.thread_id, ctx.instructions_retired,
             ctx.barrier_waits)
            for ctx in profile.contexts
        ],
        "block_counts": {
            f"{fn}:{block}": count
            for (fn, block), count in sorted(profile.block_counts.items())
        },
    }
