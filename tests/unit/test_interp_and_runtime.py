"""Unit tests: interpreter semantics + the simulated OpenMP runtime."""

import pytest

from repro.interp import Interpreter, Trap
from repro.interp.memory import Memory
from repro.ir import (
    ArrayType,
    FunctionType,
    IRBuilder,
    Module,
    double_t,
    i8,
    i16,
    i32,
    i64,
    ptr,
    void_t,
)
from repro.ir.instructions import BinOp, CastOp, ICmpPred
from repro.runtime.schedule import (
    DispatchState,
    ScheduleKindRT,
    static_partition,
)


class TestMemory:
    def test_int_roundtrip(self):
        mem = Memory()
        addr = mem.allocate(8)
        for ty, value in [(i8, 200), (i16, 40000), (i32, 2**31), (i64, 2**63)]:
            mem.store(ty, addr, value)
            assert mem.load(ty, addr) == ty.wrap(value)

    def test_float_roundtrip(self):
        mem = Memory()
        addr = mem.allocate(8)
        mem.store(double_t, addr, 3.25)
        assert mem.load(double_t, addr) == 3.25

    def test_pointer_roundtrip(self):
        mem = Memory()
        addr = mem.allocate(8)
        mem.store(ptr, addr, 0xDEAD)
        assert mem.load(ptr, addr) == 0xDEAD

    def test_null_access_traps(self):
        mem = Memory()
        with pytest.raises(Exception):
            mem.load(i32, 0)

    def test_alignment(self):
        mem = Memory()
        mem.allocate(1)
        addr = mem.allocate(8, align=8)
        assert addr % 8 == 0

    def test_cstring(self):
        mem = Memory()
        addr = mem.allocate(16)
        mem.write_bytes(addr, b"hi\x00junk")
        assert mem.read_cstring(addr) == "hi"

    def test_grows_on_demand(self):
        mem = Memory(size=64)
        addr = mem.allocate(1024)
        mem.store(i64, addr + 1000, 7)
        assert mem.load(i64, addr + 1000) == 7

    def test_function_addresses(self):
        mem = Memory()
        mod = Module("m")
        fn = mod.add_function("g", FunctionType(void_t, []))
        addr = mem.address_of_function(fn)
        assert mem.function_at(addr) is fn
        assert mem.address_of_function(fn) == addr  # stable


def build_and_run(build, args=None, fn_type=None, fuel=None):
    mod = Module("t")
    fn = mod.add_function("main", fn_type or FunctionType(i32, []))
    entry = fn.append_block("entry")
    b = IRBuilder(mod)
    b.folding_enabled = False  # exercise the interpreter, not the folder
    b.set_insert_point(entry)
    build(mod, fn, b)
    interp = Interpreter(mod)
    return interp.run("main", args or [], fuel=fuel), interp


class TestInterpreterArithmetic:
    def test_signed_division_truncates(self):
        def build(mod, fn, b):
            out = b.binop(
                BinOp.SDIV, b.const_int(i32, -7), b.const_int(i32, 2)
            )
            b.ret(out)

        result, _ = build_and_run(build)
        assert i32.to_signed(result) == -3

    def test_srem_sign_follows_dividend(self):
        def build(mod, fn, b):
            out = b.binop(
                BinOp.SREM, b.const_int(i32, -7), b.const_int(i32, 2)
            )
            b.ret(out)

        result, _ = build_and_run(build)
        assert i32.to_signed(result) == -1

    def test_unsigned_wraparound(self):
        def build(mod, fn, b):
            out = b.binop(
                BinOp.ADD,
                b.const_int(i32, 0xFFFFFFFF),
                b.const_int(i32, 2),
            )
            b.ret(out)

        result, _ = build_and_run(build)
        assert result == 1

    def test_ashr_vs_lshr(self):
        def build_a(mod, fn, b):
            b.ret(
                b.binop(
                    BinOp.ASHR, b.const_int(i32, -8), b.const_int(i32, 1)
                )
            )

        result, _ = build_and_run(build_a)
        assert i32.to_signed(result) == -4

    def test_division_by_zero_traps(self):
        def build(mod, fn, b):
            b.ret(
                b.binop(
                    BinOp.UDIV, b.const_int(i32, 1), b.const_int(i32, 0)
                )
            )

        with pytest.raises(Trap):
            build_and_run(build)

    def test_trunc_sext_zext(self):
        def build(mod, fn, b):
            wide = b.cast(CastOp.SEXT, b.const_int(i8, -1), i64)
            narrowed = b.cast(CastOp.TRUNC, wide, i32)
            b.ret(narrowed)

        result, _ = build_and_run(build)
        assert i32.to_signed(result) == -1


class TestInterpreterControlFlow:
    def test_phi_loop_sum(self):
        def build(mod, fn, b):
            header = fn.append_block("header")
            body = fn.append_block("body")
            done = fn.append_block("done")
            b.br(header)
            b.set_insert_point(header)
            iv = b.phi(i32, "iv")
            acc = b.phi(i32, "acc")
            cmp = b.icmp(ICmpPred.SLT, iv, b.const_int(i32, 10))
            b.cond_br(cmp, body, done)
            b.set_insert_point(body)
            nacc = b.add(acc, iv)
            niv = b.add(iv, b.const_int(i32, 1))
            b.br(header)
            iv.add_incoming(b.const_int(i32, 0), fn.entry_block)
            iv.add_incoming(niv, body)
            acc.add_incoming(b.const_int(i32, 0), fn.entry_block)
            acc.add_incoming(nacc, body)
            b.set_insert_point(done)
            b.ret(acc)

        result, _ = build_and_run(build)
        assert result == 45

    def test_swapping_phis_parallel_copy(self):
        """Two phis that swap each other must read pre-jump values."""

        def build(mod, fn, b):
            header = fn.append_block("header")
            body = fn.append_block("body")
            done = fn.append_block("done")
            b.br(header)
            b.set_insert_point(header)
            a = b.phi(i32, "a")
            c = b.phi(i32, "c")
            count = b.phi(i32, "n")
            cmp = b.icmp(ICmpPred.SLT, count, b.const_int(i32, 3))
            b.cond_br(cmp, body, done)
            b.set_insert_point(body)
            ncount = b.add(count, b.const_int(i32, 1))
            b.br(header)
            a.add_incoming(b.const_int(i32, 1), fn.entry_block)
            a.add_incoming(c, body)  # swap
            c.add_incoming(b.const_int(i32, 2), fn.entry_block)
            c.add_incoming(a, body)  # swap
            count.add_incoming(b.const_int(i32, 0), fn.entry_block)
            count.add_incoming(ncount, body)
            b.set_insert_point(done)
            b.ret(a)

        result, _ = build_and_run(build)
        # after 3 swaps: a,c = 2,1 -> 1,2 -> 2,1 => a == 2
        assert result == 2

    def test_fuel_exhaustion(self):
        def build(mod, fn, b):
            loop = fn.append_block("loop")
            b.br(loop)
            b.set_insert_point(loop)
            b.br(loop)

        from repro.interp import InterpreterError

        with pytest.raises(InterpreterError, match="fuel"):
            build_and_run(build, fuel=1000)

    def test_unreachable_traps(self):
        def build(mod, fn, b):
            b.unreachable()

        with pytest.raises(Trap):
            build_and_run(build)

    def test_switch(self):
        def build(mod, fn, b):
            c1 = fn.append_block("c1")
            c2 = fn.append_block("c2")
            dflt = fn.append_block("dflt")
            sw = b.switch(fn.args[0], dflt)
            sw.add_case(1, c1)
            sw.add_case(2, c2)
            for block, value in ((c1, 10), (c2, 20), (dflt, 0)):
                b.set_insert_point(block)
                b.ret(b.const_int(i32, value))

        result, _ = build_and_run(
            lambda m, f, b: build(m, f, b),
            args=[2],
            fn_type=FunctionType(i32, [i32]),
        )
        assert result == 20


class TestNativeLibc:
    def test_printf(self):
        from repro.pipeline import run_source

        r = run_source(
            'int main(void) { printf("%d|%s|%c|%5.2f\\n", -3, "ok", 65, 1.5); return 0; }',
            openmp=False,
        )
        assert r.stdout == "-3|ok|A| 1.50\n"

    def test_malloc_memset(self):
        from repro.pipeline import run_source

        src = r"""
        int main(void) {
          int *p = malloc(4 * sizeof(int));
          memset(p, 0, 4 * sizeof(int));
          p[2] = 9;
          printf("%d %d\n", p[0], p[2]);
          free(p);
          return 0;
        }
        """
        assert run_source(src, openmp=False).stdout == "0 9\n"

    def test_abort_traps(self):
        from repro.pipeline import run_source

        with pytest.raises(Trap):
            run_source("int main(void) { abort(); return 0; }", openmp=False)


class TestStaticPartition:
    def test_even_split(self):
        slices = [static_partition(0, 15, 4, t) for t in range(4)]
        assert slices == [
            (0, 3, False),
            (4, 7, False),
            (8, 11, False),
            (12, 15, True),
        ]

    def test_uneven_split_extra_to_first(self):
        slices = [static_partition(0, 9, 4, t) for t in range(4)]
        sizes = [ub - lb + 1 for lb, ub, _ in slices]
        assert sizes == [3, 3, 2, 2]
        assert slices[3][2] is True  # last thread has last iteration

    def test_more_threads_than_iterations(self):
        slices = [static_partition(0, 1, 4, t) for t in range(4)]
        nonempty = [s for s in slices if s[0] <= s[1]]
        assert len(nonempty) == 2
        empty = [s for s in slices if s[0] > s[1]]
        assert len(empty) == 2

    def test_zero_trip(self):
        lb, ub, last = static_partition(0, -1, 4, 0)
        assert lb > ub and not last

    def test_covers_space_exactly(self):
        for trip in (1, 7, 16, 33):
            covered = []
            for t in range(4):
                lb, ub, _ = static_partition(0, trip - 1, 4, t)
                covered.extend(range(lb, ub + 1))
            assert sorted(covered) == list(range(trip))

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_slices_shrink_with_team(self, threads):
        """Each thread's slice of 1200 iterations is about 1/T."""
        sizes = []
        for t in range(threads):
            lb, ub, _ = static_partition(0, 1199, threads, t)
            sizes.append(max(0, ub - lb + 1))
        assert sum(sizes) == 1200
        assert max(sizes) <= (1200 + threads - 1) // threads + 1


def max_thread_work(kind, chunk, n=256, threads=4):
    """Worst per-thread cost of a triangular workload (iteration i
    costs i) under *kind*; None is the static partition.  Dispatch is
    greedy: the least-loaded thread asks for the next chunk, as under
    real dynamic scheduling."""
    work = [0] * threads
    if kind is None:
        for t in range(threads):
            lb, ub, _ = static_partition(0, n - 1, threads, t)
            work[t] = sum(range(lb, ub + 1))
        return max(work)
    state = DispatchState(
        kind=kind,
        lower=0,
        upper=n - 1,
        stride=1,
        chunk=chunk,
        num_threads=threads,
    )
    while True:
        t = min(range(threads), key=lambda k: work[k])
        nxt = state.next_chunk(t)
        if nxt is None:
            return max(work)
        work[t] += sum(range(nxt[0], nxt[1] + 1))


class TestDispatchState:
    def make(self, kind, trip, chunk, threads=4):
        return DispatchState(
            kind=kind,
            lower=0,
            upper=trip - 1,
            stride=1,
            chunk=chunk,
            num_threads=threads,
        )

    def test_dynamic_chunks_cover_space(self):
        state = self.make(ScheduleKindRT.DYNAMIC_CHUNKED, 10, 3)
        seen = []
        while True:
            nxt = state.next_chunk(0)
            if nxt is None:
                break
            lb, ub, _ = nxt
            seen.extend(range(lb, ub + 1))
        assert seen == list(range(10))

    def test_dynamic_last_flag(self):
        state = self.make(ScheduleKindRT.DYNAMIC_CHUNKED, 6, 4)
        first = state.next_chunk(0)
        second = state.next_chunk(1)
        assert first[2] is False
        assert second[2] is True

    def test_static_chunked_round_robin(self):
        state = self.make(ScheduleKindRT.STATIC_CHUNKED, 12, 2, threads=3)
        # thread t gets chunks t, t+3, ...
        assert state.next_chunk(0) == (0, 1, False)
        assert state.next_chunk(1) == (2, 3, False)
        assert state.next_chunk(2) == (4, 5, False)
        assert state.next_chunk(0) == (6, 7, False)
        assert state.next_chunk(2) == (10, 11, True)

    def test_guided_decreasing_chunks(self):
        state = self.make(ScheduleKindRT.GUIDED_CHUNKED, 64, 1, threads=4)
        sizes = []
        while True:
            nxt = state.next_chunk(0)
            if nxt is None:
                break
            lb, ub, _ = nxt
            sizes.append(ub - lb + 1)
        assert sum(sizes) == 64
        assert sizes[0] >= sizes[-1]
        assert sizes[0] == 8  # 64 / (2*4)

    def test_guided_respects_minimum_chunk(self):
        state = self.make(ScheduleKindRT.GUIDED_CHUNKED, 100, 5)
        sizes = []
        while (nxt := state.next_chunk(0)) is not None:
            sizes.append(nxt[1] - nxt[0] + 1)
        assert all(sz >= 5 or sum(sizes) == 100 for sz in sizes)

    def test_dynamic_beats_static_on_imbalance(self):
        """On a triangular workload static's worst thread carries ~2x
        the ideal total/T, while dynamic's approaches the ideal."""
        ideal = sum(range(256)) / 4
        static_worst = max_thread_work(None, 0)
        dynamic_worst = max_thread_work(ScheduleKindRT.DYNAMIC_CHUNKED, 4)
        assert static_worst > 1.5 * ideal
        assert dynamic_worst < 1.3 * ideal
        assert dynamic_worst < static_worst


class TestTeamExecution:
    def test_barrier_synchronizes(self):
        """Threads at a barrier wait for the whole team: phase 1 writes
        must all land before any phase 2 read."""
        from repro.pipeline import run_source

        src = r"""
        int main(void) {
          int stage1[4];
          int ok = 1;
          #pragma omp parallel num_threads(4)
          {
            int me = omp_get_thread_num();
            stage1[me] = me + 1;
            #pragma omp barrier
            int total = 0;
            for (int i = 0; i < 4; i += 1) total += stage1[i];
            if (total != 10) ok = 0;
          }
          printf("ok=%d\n", ok);
          return 0;
        }
        """
        assert run_source(src).stdout == "ok=1\n"

    def test_executed_schedule_agrees_with_model(self):
        """The compiled program under schedule(dynamic) spreads the
        imbalanced iterations at least as evenly as static."""
        from repro.pipeline import run_source

        src = r"""
        int main(void) {
          int work[4] = {0, 0, 0, 0};
          #pragma omp parallel for schedule(%s) num_threads(4)
          for (int i = 0; i < 64; i += 1) {
            int me = omp_get_thread_num();
            #pragma omp critical
            { work[me] += i; }
          }
          int mx = 0;
          for (int t = 0; t < 4; t += 1) if (work[t] > mx) mx = work[t];
          printf("%%d\n", mx);
          return 0;
        }
        """
        static_max = int(run_source(src % "static").stdout)
        dynamic_max = int(run_source(src % "dynamic, 2").stdout)
        assert dynamic_max <= static_max

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_reduction_team_size_sweep(self, threads):
        from repro.pipeline import run_source

        src = r"""
        int main(void) {
          long acc = 0;
          #pragma omp parallel for reduction(+: acc)
          for (int i = 0; i < 1200; i += 1)
            acc += i;
          printf("%d\n", (int)acc);
          return 0;
        }
        """
        result = run_source(src, num_threads=threads)
        assert int(result.stdout) == sum(range(1200))
        assert result.profile.total_instructions == result.instruction_count

    def test_nested_parallel_serialized(self):
        from repro.pipeline import run_source

        src = r"""
        int main(void) {
          int counts[4];
          #pragma omp parallel num_threads(4)
          {
            int me = omp_get_thread_num();
            int inner = 0;
            #pragma omp parallel
            { inner = omp_get_num_threads(); }
            counts[me] = inner;
          }
          printf("%d %d %d %d\n", counts[0], counts[1], counts[2], counts[3]);
          return 0;
        }
        """
        assert run_source(src).stdout == "1 1 1 1\n"

    def test_critical_serializes_increments(self):
        from repro.pipeline import run_source

        src = r"""
        int main(void) {
          int counter = 0;
          #pragma omp parallel num_threads(4)
          {
            for (int i = 0; i < 50; i += 1) {
              #pragma omp critical
              { counter += 1; }
            }
          }
          printf("%d\n", counter);
          return 0;
        }
        """
        assert run_source(src).stdout == "200\n"

    def test_race_without_critical_detectable(self):
        """Sanity check that the interleaving is real: without critical,
        the same program loses updates."""
        from repro.pipeline import run_source

        src = r"""
        int main(void) {
          int counter = 0;
          #pragma omp parallel num_threads(4)
          {
            for (int i = 0; i < 50; i += 1)
              counter += 1;
          }
          printf("%d\n", counter);
          return 0;
        }
        """
        value = int(run_source(src).stdout)
        assert value < 200  # the deterministic interleave loses updates

    def test_master_only_thread_zero(self):
        from repro.pipeline import run_source

        src = r"""
        int main(void) {
          int hits = 0;
          #pragma omp parallel num_threads(4)
          {
            #pragma omp master
            { hits += 1; }
          }
          printf("%d\n", hits);
          return 0;
        }
        """
        assert run_source(src).stdout == "1\n"

    def test_single_executes_once(self):
        from repro.pipeline import run_source

        src = r"""
        int main(void) {
          int hits = 0;
          #pragma omp parallel num_threads(4)
          {
            #pragma omp single
            { hits += 1; }
          }
          printf("%d\n", hits);
          return 0;
        }
        """
        assert run_source(src).stdout == "1\n"

    def test_omp_api_outside_parallel(self):
        from repro.pipeline import run_source

        src = r"""
        int main(void) {
          printf("%d %d %d\n", omp_get_thread_num(),
                 omp_get_num_threads(), omp_in_parallel());
          return 0;
        }
        """
        assert run_source(src).stdout == "0 1 0\n"
