"""The closure-compiled execution engine.

:class:`ClosureInterpreter` is a drop-in :class:`Interpreter` that runs
generated code (see :mod:`repro.exec.compiler`) instead of walking the
instruction tree.  Everything *around* stepping — memory model,
globals, natives, the simulated OpenMP runtime, profiles, guardrails —
is inherited unchanged, which is what makes the engine-differential
oracle meaningful: the two engines share one definition of the machine
and differ only in how an instruction's semantics are dispatched.

Parity contract (asserted by the sixth oracle and the integration
suite):

* byte-identical stdout and return value for every program;
* identical :class:`~repro.instrument.ExecutionProfile` — total and
  per-thread retired-instruction counts, barrier waits/episodes, fork
  counts, and detailed block counts;
* identical guardrail behaviour: one fuel budget per ``run()``, shared
  by every thread and charged once per retired instruction; the
  wall-clock deadline is polled once for each multiple of 4096 the
  budget crosses (serial code polls it up to one loop iteration before
  the crossing); fuel runs out on the same instruction with the same
  scheduler snapshot; and the deliberate quirk that fuel exhaustion
  fires even when the final instruction completed the program is
  preserved;
* identical scheduler semantics: :class:`repro.runtime.team.Team`'s
  round-robin, ``critical`` spin order, FIFO dynamic dispatch and
  deadlock detection interleave exactly as under the reference
  interpreter's one instruction per ``step()``;
* identical register values wherever code outside the generated code
  reads them.  On both engines every integer register holds its type's
  unsigned bit pattern (a native's result and an entry point's host
  arguments are wrapped to their types), so signed reads need no mask.
  Generated code keeps a block-local value (used only later in its own
  block or by a phi copy leaving it) in a Python local, and stores it to
  the register file before a closure of its block runs and wherever the
  code stops inside the block, so the single steps after it see the
  registers stepping would have left.

Each dispatch calls a function's generated code for one kind of run
(see :mod:`repro.exec.compiler`) with the most instructions it may
retire and charges what it returns.  The code runs loop nests in place;
it stops before a call, ``ret`` or ``unreachable``, after a ``switch``,
at an edge into another kind of op, and at a loop header or entry where
the ops up to the next one would not fit:

* serial fuel: the budget stays above 0 and short of the next
  deadline-poll boundary; when the code cannot go on before the
  boundary the loop polls the deadline there and lets it run on to the
  next one.  Stopping early is always safe: the rest is single-stepped;
* team fuel: a member runs thread-local code (register-only ops and its
  private stack slots, such as a worksharing loop's ``.omp.ub``) ahead
  of the lockstep clock only while the budget proves the exhaustion
  point lies beyond it, and at most ``LOCAL_BURST_CAP`` per visit;
* a raise retires exactly the ops before the raiser and the raiser;
* a detailed profile's block counts are charged by the code itself,
  printed with the counting (the profile mode is part of its key).

Team lockstep steps each non-local instruction through
``BlockCode.ops``, the serial loop steps calls, ``ret`` and what is left
at the fuel boundary, and an armed fault injector steps every
instruction (the fault sweep counts ``interp-step`` hits).  An inlined
op is bound to its single-step closure on its first such step
(:func:`repro.exec.compiler._first_step`), so a serial program binds
none unless it nears the end of its fuel.

Known (documented) divergence: when *malformed* IR falls off the end of
a block, the closure engine counts that final fetch as a retired
instruction before raising, while the tree walker raises on the bounds
check first.  Verified IR never hits this path.
"""

from __future__ import annotations

from typing import Any

from repro.instrument.faultinject import FAULTS
from repro.interp.interpreter import (
    ExecutionContext, ExecutionTimeout, Interpreter, ThreadState,
    scheduler_snapshot,
)
from repro.ir.module import Function, Module

from repro.exec import DISPATCHES
from repro.exec.compiler import ClosureCompiler, ClosureFrame, CompiledFunction
from repro.ir.instructions import CallInst

#: most thread-local instructions one team member retires per
#: scheduler visit, so a register-only loop in a team still lets the
#: scheduler poll the wall-clock deadline
LOCAL_BURST_CAP = 1 << 12


class ClosureContext(ExecutionContext):
    """One logical thread executing compiled closures.

    Subclasses the reference context so the OpenMP runtime, the team
    scheduler and the profile registry treat it identically; only frame
    representation and stepping differ."""

    interp: "ClosureInterpreter"

    # ------------------------------------------------------------------
    def _new_frame(self, fn: Function, args: list[Any]) -> ClosureFrame:
        return ClosureFrame(self.interp.code_for(fn), args, self.stack_ptr)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Retire exactly one instruction — same granularity as the
        reference, used by the team scheduler for every instruction it
        does not retire as part of a thread-local run."""
        if self.state is not ThreadState.RUNNABLE:
            return
        frame = self.stack[-1]
        if FAULTS.armed:
            FAULTS.hit("interp-step")
        self.instructions_retired += 1
        profile = self.interp.profile
        if profile.detailed:
            profile.count_block(frame.fn.name, frame.bc.block.name)
        frame.ops[frame.index](self, frame)

    def run_to_completion(self, fuel: int | None = None) -> Any:
        """Serial loop: runs serial code per dispatch, as much of it as
        the budget allows, and single-steps everything else.
        Accounting (fuel charged per retired instruction, deadline
        polled when the budget crosses a multiple of 4096, barrier
        pass-through for single-threaded contexts) matches the
        reference loop's."""
        interp = self.interp
        budget = fuel if fuel is not None else interp.default_fuel
        #: the deadline is polled once the budget reaches this multiple
        #: of 4096
        poll_at = (budget - 1) & ~0xFFF
        profile = interp.profile
        detailed = profile.detailed
        stack = self.stack
        faults = FAULTS
        RUNNABLE = ThreadState.RUNNABLE
        BARRIER = ThreadState.BARRIER
        DONE = ThreadState.DONE
        while self.state is not DONE:
            if self.state is BARRIER:
                # Single-threaded contexts pass barriers trivially.
                self.state = RUNNABLE
                self.waiting_at = None
            frame = stack[-1]
            # Serial code back to back: none of it can push or pop a
            # frame, change the thread's state or arm a fault.  The
            # instructions it retires are charged to the thread when the
            # batch ends (or before anything reads the count).
            if not faults.armed:
                #: the budget when the uncharged part of the batch began
                start = budget
                #: the code leaves at least this much of the budget: it
                #: stops at the next deadline poll and before the fuel
                #: runs out
                floor = poll_at if poll_at > 0 else 1
                dispatches = 0
                while True:
                    run = frame.bc.runs[frame.index]
                    if run is None:
                        break
                    dispatches += 1
                    try:
                        n = run[0](self, frame, budget - floor)
                    except BaseException:
                        # The code has noted how many of its ops ran,
                        # up to the one that raised.
                        DISPATCHES.inc(dispatches)
                        self.instructions_retired += (
                            start - budget + frame.unwound
                        )
                        raise
                    if not n:
                        if floor == 1 or budget - floor > 0x1000:
                            break
                        # The code cannot go on before the deadline-poll
                        # boundary: poll now, then it may run up to the
                        # next boundary (or up to the end of the fuel).
                        self.instructions_retired += start - budget
                        start = budget
                        interp.check_deadline()
                        poll_at -= 0x1000
                        floor = poll_at if poll_at > 0 else 1
                        continue
                    budget -= n
                    if budget <= poll_at:
                        self.instructions_retired += start - budget
                        start = budget
                        interp.check_deadline()
                        poll_at = (budget - 1) & ~0xFFF
                        floor = poll_at if poll_at > 0 else 1
                if dispatches:
                    DISPATCHES.inc(dispatches)
                self.instructions_retired += start - budget
            if faults.armed:
                faults.hit("interp-step")
            self.instructions_retired += 1
            if detailed:
                profile.count_block(frame.fn.name, frame.bc.block.name)
            # A parallel region forked by this instruction draws its
            # team's fuel from the same budget and hands back the rest.
            interp.fuel_left = budget - 1
            frame.ops[frame.index](self, frame)
            budget = interp.fuel_left
            if budget <= 0:
                raise ExecutionTimeout(
                    "execution fuel exhausted (infinite loop?)",
                    scheduler_snapshot(interp),
                )
            if budget <= poll_at:
                interp.check_deadline()
                poll_at = (budget - 1) & ~0xFFF
        return self.return_value

    # ------------------------------------------------------------------
    # Thread-local runs (team scheduling)
    # ------------------------------------------------------------------
    def local_run_retirer(self):
        """:meth:`retire_local_runs`, or None when this thread may fork
        a nested parallel region: a nested team's instructions all
        retire inside one lockstep step, so the budget could not bound
        how far ahead of the lockstep clock another member may run."""
        if self.interp.may_fork(self.stack[0].fn):
            return None
        return self.retire_local_runs

    def retire_local_runs(self, budget: int, members: int, lead: int) -> int:
        """Run thread-local code back to back; returns how many
        instructions retired.

        *lead* is how many lockstep rounds this thread's next
        instruction already lies ahead of the team's current round.
        Whenever the code goes on from a loop header or an entry,
        ``budget - total > members * (lead + total)`` holds for the
        *total* retired by the next one: every instruction lockstep
        would retire up to then fits in the budget, so fuel cannot run
        out before it and the exhaustion point and snapshot stay exact.
        At most
        ``LOCAL_BURST_CAP`` retire per call, so the scheduler keeps
        polling the deadline."""
        if FAULTS.armed:
            return 0
        frame = self.stack[-1]
        #: the most instructions this call may retire
        most = min(
            LOCAL_BURST_CAP, (budget - members * lead - 1) // (members + 1)
        )
        retired = 0
        dispatches = 0
        while True:
            run = frame.bc.local_runs[frame.index]
            if run is None:
                break
            dispatches += 1
            n = run[0](self, frame, most - retired)
            if not n:
                break
            retired += n
        if dispatches:
            DISPATCHES.inc(dispatches)
        self.instructions_retired += retired
        return retired


class ClosureInterpreter(Interpreter):
    """Interpreter whose contexts execute pre-compiled closures.

    Compilation is per-interpreter-instance because global addresses,
    function pseudo-addresses and resolved natives are baked into the
    closures; it is lazy and memoized per function, so a program only
    pays for what it calls."""

    engine_name = "closures"

    def __init__(self, module: Module, **kwargs: Any) -> None:
        super().__init__(module, **kwargs)
        self._compiler = ClosureCompiler(self)
        self._code: dict[int, CompiledFunction] = {}
        self._may_fork: dict[int, bool] = {}

    # ------------------------------------------------------------------
    def code_for(self, fn: Function) -> CompiledFunction:
        """Memoized compilation.  The shell is registered *before* the
        fill so mutually recursive functions link against it; call ops
        read the shell's tables only at execution time, by which point
        every reachable function has been filled."""
        code = self._code.get(id(fn))
        if code is None:
            code = CompiledFunction(fn)
            self._code[id(fn)] = code
            self._compiler.compile(code)
        return code

    def may_fork(self, fn: Function) -> bool:
        """Whether running *fn* can reach ``__kmpc_fork_call``: directly,
        through any guest callee, or through an indirect call (assumed
        to).  Memoized per root function."""
        result = self._may_fork.get(id(fn))
        if result is None:
            result = False
            seen = {id(fn)}
            todo = [fn]
            while todo and not result:
                for block in todo.pop().blocks:
                    for inst in block.instructions:
                        callee = isinstance(inst, CallInst) and inst.callee
                        if callee is False or id(callee) in seen:
                            continue
                        if not isinstance(callee, Function) or (
                            callee.name == "__kmpc_fork_call"
                        ):
                            result = True
                        seen.add(id(callee))
                        todo.append(callee)
            self._may_fork[id(fn)] = result
        return result

    # ------------------------------------------------------------------
    def spawn_context(
        self, fn: Function, args: list[Any], thread_id: int = 0
    ) -> ClosureContext:
        return ClosureContext(self, fn, args, thread_id=thread_id)

    # ------------------------------------------------------------------
    def describe_code(self) -> str:
        """Deterministic rendering of every compiled dispatch table
        (definition order, name/slot based — no object identities), the
        artifact the compilation-determinism property test compares."""
        return "\n\n".join(
            self.code_for(fn).describe()
            for fn in self.module.functions.values() if not fn.is_declaration
        )
