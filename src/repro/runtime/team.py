"""Thread team execution: deterministic round-robin stepping.

A :class:`Team` owns one :class:`ExecutionContext` per simulated thread
and steps them one instruction at a time in thread order.  Barriers block
a context (``ThreadState.BARRIER``) until every team member is blocked or
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


class TeamError(Exception):
    pass


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
    def run(self, fuel: int) -> None:
        """Step the team to completion (deterministic interleaving).

        One ``step()`` per runnable member per round, in thread order.
        A member's step changes only its own state, so whether every
        member still runnable after the round spins on a lock is known
        by the round's end without a second scan."""
        interp = self.runtime.interp
        RUNNABLE = ThreadState.RUNNABLE
        DONE = ThreadState.DONE
        members = [(ctx, ctx.step) for ctx in self.contexts]
        budget = fuel
        while True:
            all_done = True
            any_runnable = False
            all_spin = True
            for ctx, step in members:
                state = ctx.state
                if state is RUNNABLE:
                    any_runnable = True
                    step()
                    budget -= 1
                    if budget <= 0:
                        raise ExecutionTimeout(
                            "team execution fuel exhausted",
                            scheduler_snapshot(interp),
                        )
                    if (budget & 0xFFF) == 0:
                        interp.check_deadline()
                    state = ctx.state
                    if state is RUNNABLE and ctx.waiting_on_lock is None:
                        all_spin = False
                if state is not DONE:
                    all_done = False
            if all_done:
                return
            if not any_runnable:
                self._release_barrier_or_deadlock(interp)
            elif all_spin:
                self._check_lock_deadlock(interp)

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

    # ------------------------------------------------------------------
    def context_for_gtid(self, gtid: int) -> ExecutionContext:
        for ctx in self.contexts:
            if ctx.gtid == gtid:
                return ctx
        raise TeamError(f"no team member with gtid {gtid}")
