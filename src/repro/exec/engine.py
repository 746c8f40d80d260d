"""The closure-compiled execution engine.

:class:`ClosureInterpreter` is a drop-in :class:`Interpreter` that
executes pre-compiled closures (see :mod:`repro.exec.compiler`) instead
of walking the instruction tree.  Everything *around* stepping — memory
model, globals, natives, the simulated OpenMP runtime, profiles,
guardrails — is inherited unchanged, which is what makes the
engine-differential oracle meaningful: the two engines share one
definition of the machine and differ only in how an instruction's
semantics are dispatched.

Parity contract (asserted by the sixth oracle and the integration
suite):

* byte-identical stdout and return value for every program;
* identical :class:`~repro.instrument.ExecutionProfile` — total and
  per-thread retired-instruction counts, barrier waits/episodes, fork
  counts, and detailed block counts;
* identical guardrail behaviour: one fuel budget per ``run()``, shared
  by every thread and charged once per retired instruction; the
  wall-clock deadline is polled once for each multiple of 4096 the
  budget crosses (a serial trace polls it up to one lap before the
  crossing); fuel runs out on the same instruction with the same
  scheduler snapshot; and the deliberate quirk that fuel exhaustion
  fires even when the final instruction completed the program is
  preserved;
* identical scheduler semantics: :class:`repro.runtime.team.Team`'s
  round-robin, ``critical`` spin order, FIFO dynamic dispatch and
  deadlock detection interleave exactly as under the reference
  interpreter's one instruction per ``step()``;
* identical register values wherever code outside a trace reads them.
  On both engines every integer register holds its type's unsigned bit
  pattern (a native's result and an entry point's host arguments are
  wrapped to their types), so signed reads need no mask.  A trace keeps a block-local value (used only
  later in its own block or by a phi copy leaving it) in a Python
  local, and stores it to the register file before a closure of its
  block runs and wherever the trace stops inside the block, so the
  single steps after it see the registers stepping would have left.

The engine retires whole traces per dispatch (see
:mod:`repro.exec.compiler`) without breaking that contract.  A trace
follows its branches into blocks of the same kind of run and loops over
the edge back to its first block; the engine passes it the most
instructions it may retire and charges what it returns:

* what a trace follows: an unconditional ``br`` into a qualifying block
  not yet in the trace; at a ``condbr`` the edge back to the first
  block closes the loop, else at most one edge is followed (the true
  edge when it qualifies), and the other is a side exit.  A trace stops
  before calls, ``ret``, ``unreachable`` and after a ``switch``;
* serial fuel: a trace starts a lap only if the budget still exceeds 0
  after it, and stops at the deadline-poll boundary; when the next lap
  would cross the boundary the loop polls the deadline there and lets
  the trace run on to the next boundary, so fuel runs out on the same
  instruction with the same snapshot and the deadline is polled once
  per 4096 instructions.  Stopping early is always safe: the rest is
  single-stepped;
* team fuel: a member retires a thread-local trace (register-only ops,
  and loads and stores of its private stack slots such as a
  worksharing loop's ``.omp.ub``) ahead of the lockstep clock only
  while the remaining budget proves the exhaustion point lies beyond
  the lap, re-checked before each lap, and at most
  ``LOCAL_BURST_CAP`` per scheduler visit;
* a raise inside a trace, in any block of any lap, retires exactly the
  ops before the raiser and the raiser itself, as stepping would;
* detailed profiles charge each block of a trace its own count when the
  trace exits or raises (:func:`repro.exec.compiler.charge_trace`).

Everything else single-steps through ``BlockCode.ops``: team lockstep
steps each non-local instruction, the serial loop steps calls, ``ret``
and what is left at the fuel boundary, and an armed fault injector
steps every instruction, because the fault sweep counts
``interp-step`` hits.  An inlined op is bound to its single-step
closure on its first such step (:func:`repro.exec.compiler._first_step`),
so a serial program binds none unless it nears the end of its fuel.

Known (documented) divergence: when *malformed* IR falls off the end of
a block, the closure engine counts that final fetch as a retired
instruction before raising, while the tree walker raises on the bounds
check first.  Verified IR never hits this path.
"""

from __future__ import annotations

from typing import Any

from repro.instrument.faultinject import FAULTS
from repro.interp.interpreter import (
    ExecutionContext,
    ExecutionTimeout,
    Interpreter,
    ThreadState,
    scheduler_snapshot,
)
from repro.ir.module import Function, Module

from repro.exec import DISPATCHES
from repro.exec.compiler import (
    ClosureCompiler,
    ClosureFrame,
    CompiledFunction,
    charge_trace,
)
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
        """Serial loop: retires a serial trace per dispatch, as much of
        it as the budget allows, and single-steps everything else.
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
            # Serial traces back to back: none of them can push or pop
            # a frame, change the thread's state or arm a fault.  The
            # instructions they retire are charged to the thread when
            # the batch ends (or before anything reads the count).
            if not faults.armed:
                #: the budget when the uncharged part of the batch began
                start = budget
                #: a trace leaves at least this much of the budget: it
                #: stops at the next deadline poll and before the fuel
                #: runs out
                floor = poll_at if poll_at > 0 else 1
                dispatches = 0
                while True:
                    index = frame.index
                    bc = frame.bc
                    run = bc.runs[index]
                    if run is None:
                        break
                    dispatches += 1
                    try:
                        n = run[0](self, frame, budget - floor)
                    except BaseException:
                        # The trace has noted how many of its ops ran,
                        # up to the one that raised.
                        n = frame.unwound
                        DISPATCHES.inc(dispatches)
                        self.instructions_retired += start - budget + n
                        if detailed:
                            charge_trace(
                                profile, frame.fn.name,
                                bc.runs[index][0].path, n,
                            )
                        raise
                    if not n:
                        if floor == 1 or budget - floor > 0x1000:
                            break
                        # A lap would cross the deadline-poll boundary:
                        # poll now, then the trace may run up to the
                        # next boundary (or up to the end of the fuel).
                        self.instructions_retired += start - budget
                        start = budget
                        interp.check_deadline()
                        poll_at -= 0x1000
                        floor = poll_at if poll_at > 0 else 1
                        continue
                    if detailed:
                        charge_trace(
                            profile, frame.fn.name, bc.runs[index][0].path, n
                        )
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
        """Retire thread-local traces back to back; returns how many
        instructions retired.

        *lead* is how many lockstep rounds this thread's next
        instruction already lies ahead of the team's current round.
        Before each lap of a trace, ``budget - total > members * (lead
        + total)`` must hold for the *total* retired after it: every
        instruction lockstep would retire up to the lap's last one then
        fits in the budget, so fuel cannot run out before it and the
        exhaustion point and snapshot stay exact.  At most
        ``LOCAL_BURST_CAP`` retire per call, so the scheduler keeps
        polling the deadline."""
        if FAULTS.armed:
            return 0
        frame = self.stack[-1]
        profile = self.interp.profile
        detailed = profile.detailed
        #: the most instructions this call may retire
        most = min(
            LOCAL_BURST_CAP, (budget - members * lead - 1) // (members + 1)
        )
        retired = 0
        dispatches = 0
        while True:
            bc = frame.bc
            index = frame.index
            run = bc.local_runs[index]
            if run is None:
                break
            dispatches += 1
            n = run[0](self, frame, most - retired)
            if not n:
                break
            if detailed:
                charge_trace(
                    profile, frame.fn.name, bc.local_runs[index][0].path, n
                )
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
                        if not isinstance(inst, CallInst):
                            continue
                        callee = inst.callee
                        if (
                            not isinstance(callee, Function)
                            or callee.name == "__kmpc_fork_call"
                        ):
                            result = True
                        elif id(callee) not in seen:
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
        parts = []
        for fn in self.module.functions.values():
            if fn.is_declaration:
                continue
            parts.append(self.code_for(fn).describe())
        return "\n\n".join(parts)
