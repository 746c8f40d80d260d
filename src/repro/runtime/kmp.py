"""The ``__kmpc_*`` entry points (libomp-compatible subset) plus the
user-facing ``omp_*`` API, implemented as interpreter natives.

Substitution note (DESIGN.md): the paper's implementation targets the real
LLVM OpenMP runtime on hardware threads.  This module preserves the same
ABI and the observable semantics — per-thread static bounds, chunk
dispatch, barriers, critical sections, lastprivate flags — on top of the
deterministic stepping interpreter.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.interp.interpreter import (
    ExecutionContext,
    ExecutionTimeout,
    RETRY,
    ThreadState,
    Trap,
    scheduler_snapshot,
)
from repro.ir.types import IntType, i32, i64
from repro.runtime.schedule import (
    DispatchState,
    ScheduleKindRT,
    static_partition,
)
from repro.runtime.team import Team

if TYPE_CHECKING:
    from repro.interp.interpreter import Interpreter

#: entry points of :meth:`OpenMPRuntime.install` that use their pointer
#: arguments only until they return (LLVM's ``nocapture``): a stack slot
#: whose address goes nowhere else stays private to its thread, so the
#: closure compiler lets its loads and stores join thread-local runs
NOCAPTURE = frozenset(
    {
        "__kmpc_for_static_init_4u",
        "__kmpc_for_static_init_8u",
        "__kmpc_dispatch_next_4u",
        "__kmpc_dispatch_next_8u",
    }
)


class OpenMPRuntime:
    """Per-interpreter OpenMP runtime state."""

    def __init__(self, interp: "Interpreter") -> None:
        self.interp = interp
        #: team size used by the next parallel region
        self.num_threads = 4
        self._pushed_num_threads: int | None = None
        #: stack of active teams (nested parallelism is serialized)
        self.team_stack: list[Team] = []
        #: critical-section locks: lock address -> owning gtid
        self.locks: dict[int, int] = {}
        self._next_gtid = 1
        #: statistics for tests/benchmarks
        self.fork_count = 0
        self.barrier_count = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, interp: "Interpreter") -> None:
        natives = {
            "__kmpc_global_thread_num": self._global_thread_num,
            "__kmpc_fork_call": self._fork_call,
            "__kmpc_push_num_threads": self._push_num_threads,
            "__kmpc_barrier": self._barrier,
            "__kmpc_for_static_init_4u": self._static_init(i32),
            "__kmpc_for_static_init_8u": self._static_init(i64),
            "__kmpc_for_static_fini": self._static_fini,
            "__kmpc_dispatch_init_4u": self._dispatch_init(i32),
            "__kmpc_dispatch_init_8u": self._dispatch_init(i64),
            "__kmpc_dispatch_next_4u": self._dispatch_next(i32),
            "__kmpc_dispatch_next_8u": self._dispatch_next(i64),
            "__kmpc_critical": self._critical,
            "__kmpc_end_critical": self._end_critical,
            "__kmpc_master": self._master,
            "__kmpc_end_master": self._noop,
            "__kmpc_single": self._single,
            "__kmpc_end_single": self._noop,
            # user API
            "omp_get_thread_num": self._omp_get_thread_num,
            "omp_get_num_threads": self._omp_get_num_threads,
            "omp_get_max_threads": self._omp_get_max_threads,
            "omp_set_num_threads": self._omp_set_num_threads,
            "omp_in_parallel": self._omp_in_parallel,
            "omp_get_wtime": self._omp_get_wtime,
        }
        for name, impl in natives.items():
            interp.register_native(name, impl)

    # ------------------------------------------------------------------
    # Thread identity
    # ------------------------------------------------------------------
    def _global_thread_num(self, interp, ctx: ExecutionContext, args):
        return ctx.gtid

    def _omp_get_thread_num(self, interp, ctx, args):
        team = ctx.team
        if team is None:
            return 0
        return ctx.thread_id

    def _omp_get_num_threads(self, interp, ctx, args):
        team = ctx.team
        return team.size if team is not None else 1

    def _omp_get_max_threads(self, interp, ctx, args):
        return self._pushed_num_threads or self.num_threads

    def _omp_set_num_threads(self, interp, ctx, args):
        self.num_threads = max(1, int(args[0]))
        return None

    def _omp_in_parallel(self, interp, ctx, args):
        return 1 if ctx.team is not None and ctx.team.size > 1 else 0

    def _omp_get_wtime(self, interp, ctx, args):
        return time.perf_counter()

    def _noop(self, interp, ctx, args):
        return None

    # ------------------------------------------------------------------
    # Parallel regions
    # ------------------------------------------------------------------
    def _push_num_threads(self, interp, ctx, args):
        self._pushed_num_threads = max(1, int(args[2]))
        return None

    def _fork_call(self, interp, ctx: ExecutionContext, args):
        """``__kmpc_fork_call(loc, nargs, outlined_fn, context_ptr)``.

        Spawns a team executing ``outlined_fn(&gtid, &btid, context)``
        per thread, steps it to completion (round-robin), then returns.
        Nested parallel regions are serialized to a team of one, as
        permitted by OpenMP (and done by libomp by default).

        The team runs on what is left of the forking thread's fuel
        (``interp.fuel_left``, this instruction already charged) and
        hands back the rest.  Its thread stacks and id cells are freed
        afterwards unless something else (``malloc``) moved the break
        while the region ran.
        """
        _loc, _nargs, fn_addr, context_ptr = (
            args[0],
            args[1],
            int(args[2]),
            int(args[3]),
        )
        outlined = interp.memory.function_at(fn_addr)
        if outlined is None:
            raise Trap("fork_call: invalid outlined function pointer")
        team_size = self._pushed_num_threads or self.num_threads
        self._pushed_num_threads = None
        if ctx.team is not None:
            team_size = 1  # serialize nested parallelism
        fuel = interp.fuel_left
        if fuel <= 0:
            raise ExecutionTimeout(
                "team execution fuel exhausted",
                scheduler_snapshot(interp),
            )
        self.fork_count += 1
        interp.profile.fork_count += 1

        memory = interp.memory
        mark = memory.watermark()
        contexts: list[ExecutionContext] = []
        for tid in range(team_size):
            gtid = self._next_gtid
            self._next_gtid += 1
            gtid_addr = interp.memory.allocate(4)
            btid_addr = interp.memory.allocate(4)
            interp.memory.store(i32, gtid_addr, gtid)
            interp.memory.store(i32, btid_addr, tid)
            # Route through the engine hook so the closure engine's
            # contexts join the team instead of reference ones.
            thread_ctx = interp.spawn_context(
                outlined,
                [gtid_addr, btid_addr, context_ptr],
                thread_id=tid,
            )
            thread_ctx.gtid = gtid
            contexts.append(thread_ctx)
        team = Team(self, contexts)
        spawned = memory.watermark()
        self.team_stack.append(team)
        try:
            interp.fuel_left = team.run(fuel)
        finally:
            self.team_stack.pop()
        if memory.watermark() == spawned:
            memory.release_to(mark)
        return None

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def _barrier(self, interp, ctx: ExecutionContext, args):
        self.barrier_count += 1
        if ctx.team is not None and ctx.team.size > 1:
            ctx.state = ThreadState.BARRIER
            ctx.barrier_waits += 1
            ctx.waiting_at = (
                f"barrier (episode {ctx.team.barrier_generation + 1}) "
                f"in @{ctx.frame.fn.name}"
            )
        return None

    # ------------------------------------------------------------------
    # Static worksharing
    # ------------------------------------------------------------------
    def _static_init(self, ty: IntType):
        def impl(interp, ctx: ExecutionContext, args):
            (
                _loc,
                _gtid,
                schedtype,
                p_last,
                p_lower,
                p_upper,
                p_stride,
                _incr,
                chunk,
            ) = args
            mem = interp.memory
            team = ctx.team
            team_size = team.size if team is not None else 1
            tid = ctx.thread_id if team is not None else 0
            lower = mem.load(ty, int(p_lower))
            upper = mem.load(ty, int(p_upper))
            # Unsigned entry point (_4u/_8u): a zero-iteration space
            # arrives as upper = lower - 1 (mod 2^n); libomp computes the
            # trip count modularly and hands every thread an empty slice.
            trip = ty.wrap(upper - lower + 1)
            if trip == 0:
                mem.store(ty, int(p_lower), lower + 1)
                mem.store(ty, int(p_upper), lower)
                mem.store(i32, int(p_last), 0)
                return None
            kind = ScheduleKindRT(int(schedtype))
            if kind == ScheduleKindRT.STATIC:
                my_lower, my_upper, is_last = static_partition(
                    lower, upper, team_size, tid
                )
            else:
                # Static chunked used through the static path degrades to
                # the first chunk; codegen routes chunked schedules
                # through the dispatch path instead.
                chunk_size = max(1, int(chunk))
                my_lower = lower + tid * chunk_size
                my_upper = min(my_lower + chunk_size - 1, upper)
                is_last = my_upper == upper
                mem.store(ty, int(p_stride), team_size * chunk_size)
            mem.store(ty, int(p_lower), my_lower % (1 << ty.bits))
            mem.store(
                ty,
                int(p_upper),
                my_upper % (1 << ty.bits),
            )
            mem.store(i32, int(p_last), 1 if is_last else 0)
            return None

        return impl

    def _static_fini(self, interp, ctx, args):
        return None

    # ------------------------------------------------------------------
    # Dynamic dispatch
    # ------------------------------------------------------------------
    def _dispatch_init(self, ty: IntType):
        def impl(interp, ctx: ExecutionContext, args):
            _loc, _gtid, schedtype, lower, upper, stride, chunk = args
            team = ctx.team
            kind = ScheduleKindRT(int(schedtype))
            lower = ty.to_signed(int(lower))
            upper = ty.to_signed(int(upper))
            state = DispatchState(
                kind=kind,
                lower=lower,
                upper=upper,
                stride=int(stride),
                chunk=int(chunk),
                num_threads=team.size if team is not None else 1,
            )
            if team is None:
                # Serial worksharing: keep the state on the runtime.
                self._serial_dispatch = state
            else:
                if team.dispatch is None:
                    team.dispatch = state
                team.dispatch.initialized += 1
            return None

        return impl

    def _dispatch_next(self, ty: IntType):
        def impl(interp, ctx: ExecutionContext, args):
            _loc, _gtid, p_last, p_lower, p_upper, p_stride = args
            mem = interp.memory
            team = ctx.team
            state: DispatchState | None
            if team is None:
                state = getattr(self, "_serial_dispatch", None)
            else:
                state = team.dispatch
            if state is None:
                return 0
            tid = ctx.thread_id if team is not None else 0
            result = state.next_chunk(tid)
            if result is None:
                # libomp implies a barrier when the dispatch finishes;
                # our codegen emits an explicit barrier after the loop,
                # so just report exhaustion.  Reset shared state when all
                # threads have drained.
                state.initialized -= 1
                if state.initialized <= 0:
                    if team is None:
                        self._serial_dispatch = None
                    else:
                        team.dispatch = None
                return 0
            my_lower, my_upper, is_last = result
            mem.store(ty, int(p_lower), my_lower % (1 << ty.bits))
            mem.store(ty, int(p_upper), my_upper % (1 << ty.bits))
            mem.store(ty, int(p_stride), 1)
            mem.store(i32, int(p_last), 1 if is_last else 0)
            return 1

        return impl

    # ------------------------------------------------------------------
    # Mutual exclusion / single / master
    # ------------------------------------------------------------------
    def _critical(self, interp, ctx: ExecutionContext, args):
        lock_addr = int(args[2])
        owner = self.locks.get(lock_addr)
        if owner is not None and owner != ctx.gtid:
            ctx.waiting_on_lock = lock_addr
            return RETRY  # spin until released
        self.locks[lock_addr] = ctx.gtid
        ctx.waiting_on_lock = None
        return None

    def _end_critical(self, interp, ctx: ExecutionContext, args):
        lock_addr = int(args[2])
        if self.locks.get(lock_addr) == ctx.gtid:
            del self.locks[lock_addr]
        return None

    def _master(self, interp, ctx: ExecutionContext, args):
        return 1 if ctx.thread_id == 0 else 0

    def _single(self, interp, ctx: ExecutionContext, args):
        team = ctx.team
        if team is None:
            return 1
        # First thread to arrive at this call site executes the region.
        site = id(ctx.frame.block.instructions[ctx.frame.index])
        if site in team.single_done:
            return 0
        team.single_done.add(site)
        return 1
