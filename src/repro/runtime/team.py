"""Thread team execution: deterministic lockstep scheduling.

A :class:`Team` owns one :class:`ExecutionContext` per simulated thread
and runs them with exactly the result of stepping them one instruction
at a time in thread order.  Barriers block a context
(``ThreadState.BARRIER``) until every team member is blocked or
finished, then release all of them — real barrier semantics without OS
threads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.instrument import get_statistic
from repro.interp.interpreter import (
    DeadlockError,
    ExecutionContext,
    ExecutionTimeout,
    TeamError,
    ThreadState,
    scheduler_snapshot,
)

_DEADLOCKS = get_statistic(
    "crash-recovery",
    "deadlocks-detected",
    "All-threads-blocked conditions detected by the team scheduler",
)

if TYPE_CHECKING:
    from repro.runtime.kmp import OpenMPRuntime


class Team:
    def __init__(
        self,
        runtime: "OpenMPRuntime",
        contexts: list[ExecutionContext],
    ) -> None:
        self.runtime = runtime
        self.contexts = contexts
        for ctx in contexts:
            ctx.team = self
        #: shared dispatch state (dynamic/guided/static-chunked loops)
        self.dispatch = None
        #: counts completed barrier episodes (for debugging/tests)
        self.barrier_generation = 0
        #: `single` construct arrival bookkeeping, keyed by call site id
        self.single_done: set[int] = set()

    @property
    def size(self) -> int:
        return len(self.contexts)

    # ------------------------------------------------------------------
    def run(self, fuel: int) -> int:
        """Run the team to completion on *fuel*; returns the fuel left.

        The result is lockstep's: round after round, one ``step()`` per
        runnable member in thread order.  Each member keeps a clock,
        the lockstep round of its next instruction.  Instructions that
        touch only the member's own registers and private stack slots
        and cannot raise (its thread-local runs, see
        :mod:`repro.exec.compiler`) are invisible to teammates, so the
        member retires them eagerly and adds their number to its clock;
        every other instruction retires in (clock, thread index) order,
        which is lockstep's order.  The end-of-round
        checks run once per distinct clock value: barrier release or
        deadlock when nothing is runnable, the lock-deadlock check when
        every runnable member spun.  Reference contexts have no local
        runs, so for them this loop is plain lockstep.

        A member's step changes only its own state, so whether every
        member still runnable after a round spins on a lock is known by
        the round's end without a second scan."""
        interp = self.runtime.interp
        RUNNABLE = ThreadState.RUNNABLE
        DONE = ThreadState.DONE
        contexts = self.contexts
        size = len(contexts)
        aheads = [ctx.local_run_retirer() for ctx in contexts]
        if None in aheads:
            aheads = [None] * size
        members = [
            (i, ctx, ctx.step, ahead)
            for i, (ctx, ahead) in enumerate(zip(contexts, aheads))
        ]
        clocks = [0] * size
        budget = fuel
        #: the deadline is polled once the budget reaches this multiple
        #: of 4096
        poll_at = (budget - 1) & ~0xFFF
        now = 0  # the lockstep round being run
        while True:
            all_done = True
            any_runnable = False
            all_spin = True
            following = -1  # the next round with a runnable member
            for i, ctx, step, ahead in members:
                state = ctx.state
                if state is RUNNABLE:
                    any_runnable = True
                    clock = clocks[i]
                    if clock == now:
                        # A parallel region forked by this step draws
                        # from the same budget.
                        interp.fuel_left = budget - 1
                        step()
                        budget = interp.fuel_left
                        if budget <= 0:
                            raise ExecutionTimeout(
                                "team execution fuel exhausted",
                                scheduler_snapshot(interp),
                            )
                        clock += 1
                        state = ctx.state
                        if state is RUNNABLE and ctx.waiting_on_lock is None:
                            all_spin = False
                            if ahead is not None:
                                n = ahead(budget, size, clock - now)
                                clock += n
                                budget -= n
                        if budget <= poll_at:
                            interp.check_deadline()
                            poll_at = (budget - 1) & ~0xFFF
                        clocks[i] = clock
                    else:
                        # Ahead of this round on local instructions.
                        all_spin = False
                    if state is RUNNABLE and (
                        following < 0 or clock < following
                    ):
                        following = clock
                if state is not DONE:
                    all_done = False
            if all_done:
                return budget
            if not any_runnable:
                # This was lockstep's empty round: release everyone
                # into the round after it.
                self._release_barrier_or_deadlock(interp)
                now = max(clocks) + 1
                clocks = [now] * size
            else:
                if all_spin:
                    self._check_lock_deadlock(interp)
                now = following

    def _release_barrier_or_deadlock(self, interp) -> None:
        """No thread can step: release the barrier, or report why the
        team can never make progress again."""
        waiting = [
            ctx
            for ctx in self.contexts
            if ctx.state == ThreadState.BARRIER
        ]
        if not waiting:
            raise TeamError(
                "team deadlock: no runnable thread and no "
                "barrier to release"
            )
        finished = [ctx for ctx in self.contexts if ctx.done]
        if finished:
            # A barrier releases only when *every* member arrives; a
            # finished teammate never will.  This is the classic
            # "barrier under a thread-divergent if" bug.
            waiters = ", ".join(
                f"thread {ctx.gtid} (tid {ctx.thread_id}) at "
                f"{ctx.waiting_at or 'a barrier'}"
                for ctx in waiting
            )
            gone = ", ".join(str(ctx.gtid) for ctx in finished)
            _DEADLOCKS.inc()
            raise DeadlockError(
                f"deadlock detected: {waiters}; teammate(s) gtid {gone} "
                "already finished and can never reach the barrier",
                scheduler_snapshot(interp),
            )
        for ctx in waiting:
            ctx.state = ThreadState.RUNNABLE
            ctx.waiting_at = None
        self.barrier_generation += 1
        interp.profile.barrier_episodes += 1

    def _check_lock_deadlock(self, interp) -> None:
        """Spinning threads stay RUNNABLE; called after a round in which
        every thread still runnable spins on a lock, it decides whether
        anyone left can release one."""
        runnable = [
            ctx
            for ctx in self.contexts
            if ctx.state == ThreadState.RUNNABLE
        ]
        if not runnable:
            return
        # Every runnable thread spins.  Progress is only possible if
        # some spinner already owns the lock it waits on (re-entry) or
        # an owner is a runnable non-spinning member — but there are
        # none of those here, so check ownership.
        for ctx in runnable:
            owner = self.runtime.locks.get(ctx.waiting_on_lock)
            if owner is None or owner == ctx.gtid:
                return  # lock free (or re-entry): acquires next step
        spinners = ", ".join(
            f"thread {ctx.gtid} (tid {ctx.thread_id}) on lock "
            f"{ctx.waiting_on_lock:#x} held by gtid "
            f"{self.runtime.locks.get(ctx.waiting_on_lock)}"
            for ctx in runnable
        )
        _DEADLOCKS.inc()
        raise DeadlockError(
            f"deadlock detected: every runnable thread spins on a "
            f"critical-section lock no runnable thread can release: "
            f"{spinners}",
            scheduler_snapshot(interp),
        )
