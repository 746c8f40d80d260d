"""Worksharing schedules, data-sharing clauses, and edge-case iteration
spaces, executed under both representations."""

import pytest

from tests.conftest import run_both, run_c


class TestScheduleIterationMapping:
    MAP_SRC = r"""
    int main(void) {
      int owner[%(n)d];
      #pragma omp parallel for schedule(%(sched)s) num_threads(%(t)d)
      for (int i = 0; i < %(n)d; i += 1)
        owner[i] = omp_get_thread_num();
      for (int i = 0; i < %(n)d; i += 1) printf("%%d", owner[i]);
      printf("\n");
      return 0;
    }
    """

    def owners(self, sched, n=16, t=4, irb=False):
        src = self.MAP_SRC % {"sched": sched, "n": n, "t": t}
        return run_c(src, enable_irbuilder=irb).stdout.strip()

    def test_static_contiguous_blocks(self):
        owners = self.owners("static")
        assert owners == "0000111122223333"

    def test_static_uneven(self):
        owners = self.owners("static", n=10)
        # 10/4: first two threads get 3, last two get 2.
        assert owners == "0001112233"

    def test_static_chunked_round_robin(self):
        owners = self.owners("static, 2")
        assert owners == "0011223300112233"

    def test_dynamic_all_covered_once(self):
        owners = self.owners("dynamic, 3", n=16)
        assert len(owners) == 16
        assert set(owners) <= {"0", "1", "2", "3"}

    def test_guided_all_covered(self):
        owners = self.owners("guided", n=16)
        assert len(owners) == 16

    @pytest.mark.parametrize(
        "sched", ["static", "static, 2", "dynamic", "guided"]
    )
    def test_representations_agree_on_mapping(self, sched):
        src = self.MAP_SRC % {"sched": sched, "n": 16, "t": 4}
        run_both(src)

    def test_single_thread_gets_everything(self):
        owners = self.owners("static", n=8, t=1)
        assert owners == "00000000"

    def test_more_threads_than_iterations(self):
        owners = self.owners("static", n=2, t=4)
        assert owners == "01"


class TestZeroAndEdgeTrips:
    @pytest.mark.parametrize(
        "loop",
        [
            "for (int i = 0; i < 0; i += 1)",
            "for (int i = 10; i < 10; i += 1)",
            "for (int i = 10; i < 2; i += 1)",
        ],
    )
    def test_zero_trip_workshare(self, loop):
        src = (
            "int main(void) { int count = 0;\n"
            "#pragma omp parallel for\n"
            f"{loop} count += 1;\n"
            'printf("%d\\n", count); return 0; }'
        )
        legacy, _ = run_both(src)
        assert legacy.stdout == "0\n"

    def test_zero_trip_inner_collapse(self):
        src = r"""
        int main(void) {
          int count = 0;
          #pragma omp parallel for collapse(2)
          for (int i = 0; i < 4; i += 1)
            for (int j = 0; j < 0; j += 1)
              count += 1;
          printf("%d\n", count);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert legacy.stdout == "0\n"

    def test_single_iteration(self):
        src = r"""
        int main(void) {
          int v = -1;
          #pragma omp parallel for
          for (int i = 5; i < 6; i += 1) v = i;
          printf("%d\n", v);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert legacy.stdout == "5\n"

    def test_downward_loop(self):
        src = r"""
        int main(void) {
          int mask = 0;
          #pragma omp parallel for reduction(|: mask)
          for (int i = 7; i >= 0; i -= 1)
            mask |= 1 << i;
          printf("%d\n", mask);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert legacy.stdout == "255\n"

    def test_stride_loop_values(self):
        src = r"""
        int main(void) {
          int sum = 0;
          #pragma omp parallel for reduction(+: sum)
          for (int i = 3; i <= 30; i += 4) sum += i;
          printf("%d\n", sum);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert int(legacy.stdout) == sum(range(3, 31, 4))


class TestCollapse:
    def test_collapse_covers_full_space(self):
        src = r"""
        int main(void) {
          int grid[6][7];
          #pragma omp parallel for collapse(2)
          for (int i = 0; i < 6; i += 1)
            for (int j = 0; j < 7; j += 1)
              grid[i][j] = i * 7 + j;
          int ok = 1;
          for (int i = 0; i < 6; i += 1)
            for (int j = 0; j < 7; j += 1)
              if (grid[i][j] != i * 7 + j) ok = 0;
          printf("%d\n", ok);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert legacy.stdout == "1\n"

    def test_collapse_balances_work(self):
        """collapse(2) distributes the 4x8=32-point space over 4 threads
        8 iterations each; without collapse only the 4 outer iterations
        are distributed."""
        src = r"""
        int main(void) {
          int owner[32];
          #pragma omp parallel for collapse(2)
          for (int i = 0; i < 4; i += 1)
            for (int j = 0; j < 8; j += 1)
              owner[i * 8 + j] = omp_get_thread_num();
          int counts[4] = {0, 0, 0, 0};
          for (int k = 0; k < 32; k += 1) counts[owner[k]] += 1;
          printf("%d %d %d %d\n", counts[0], counts[1], counts[2], counts[3]);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert legacy.stdout == "8 8 8 8\n"

    def test_collapse_three_deep(self):
        src = r"""
        int main(void) {
          int sum = 0;
          #pragma omp parallel for collapse(3) reduction(+: sum)
          for (int i = 0; i < 3; i += 1)
            for (int j = 0; j < 3; j += 1)
              for (int k = 0; k < 3; k += 1)
                sum += i * 9 + j * 3 + k;
          printf("%d\n", sum);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert int(legacy.stdout) == sum(range(27))


class TestDataSharing:
    def test_private_uninitialized_copy(self):
        src = r"""
        int main(void) {
          int tmp = 999;
          int ok = 1;
          #pragma omp parallel for private(tmp)
          for (int i = 0; i < 8; i += 1) {
            tmp = i;
            if (tmp != i) ok = 0;
          }
          printf("%d %d\n", ok, tmp);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        ok, tmp = legacy.stdout.split()
        assert ok == "1"
        assert tmp == "999"  # original untouched

    def test_firstprivate_copies_in(self):
        src = r"""
        int main(void) {
          int base = 40;
          int out[4];
          #pragma omp parallel for firstprivate(base)
          for (int i = 0; i < 4; i += 1) {
            base += i;
            out[i] = base;
          }
          printf("%d\n", base);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert legacy.stdout == "40\n"  # original unchanged

    def test_lastprivate_takes_final_iteration(self):
        src = r"""
        int main(void) {
          int last = -1;
          #pragma omp parallel for lastprivate(last)
          for (int i = 0; i < 10; i += 1)
            last = i * 100;
          printf("%d\n", last);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert legacy.stdout == "900\n"

    def test_lastprivate_with_dynamic_schedule(self):
        src = r"""
        int main(void) {
          int last = -1;
          #pragma omp parallel for schedule(dynamic, 2) lastprivate(last)
          for (int i = 0; i < 11; i += 1)
            last = i;
          printf("%d\n", last);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert legacy.stdout == "10\n"

    @pytest.mark.parametrize(
        "op,expected",
        [
            ("+: acc", str(sum(range(20)))),
            ("*: acc", "0"),  # multiplied by 0 at i==0... acc starts 1
            ("max: acc", "19"),
            ("min: acc", "0"),
        ],
    )
    def test_reduction_operators(self, op, expected):
        init = "1" if "*" in op else ("-99" if "max" in op else "99" if "min" in op else "0")
        src = rf"""
        int main(void) {{
          int acc = {init};
          #pragma omp parallel for reduction({op})
          for (int i = 0; i < 20; i += 1) {{
            {"acc += i;" if "+" in op else ""}
            {"acc *= i;" if "*" in op else ""}
            {"if (i > acc) acc = i;" if "max" in op else ""}
            {"if (i < acc) acc = i;" if "min" in op else ""}
          }}
          printf("%d\n", acc);
          return 0;
        }}
        """
        legacy, _ = run_both(src)
        if "max" in op:
            assert int(legacy.stdout) == 19
        elif "min" in op:
            assert int(legacy.stdout) == 0
        elif "*" in op:
            assert int(legacy.stdout) == 0
        else:
            assert int(legacy.stdout) == sum(range(20))

    def test_reduction_double(self):
        src = r"""
        int main(void) {
          double total = 0.0;
          #pragma omp parallel for reduction(+: total)
          for (int i = 0; i < 16; i += 1)
            total += 0.5;
          printf("%g\n", total);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert legacy.stdout == "8\n"

    def test_conflicting_clauses_rejected(self):
        from repro.pipeline import CompilationError

        src = r"""
        int main(void) {
          int x = 0;
          #pragma omp parallel for private(x) reduction(+: x)
          for (int i = 0; i < 4; i += 1) x += 1;
          return 0;
        }
        """
        with pytest.raises(CompilationError) as err:
            run_c(src)
        assert "cannot appear in both" in str(err.value)

    def test_nowait_skips_barrier(self):
        src = r"""
        int main(void) {
          #pragma omp parallel
          {
            #pragma omp for nowait
            for (int i = 0; i < 4; i += 1) ;
          }
          printf("done\n");
          return 0;
        }
        """
        result = run_c(src)
        assert result.stdout == "done\n"
        # Only the parallel-region end behaviour remains; the explicit
        # worksharing barrier was skipped.
        assert result.interpreter.omp.barrier_count == 0

    def test_for_barrier_counted_without_nowait(self):
        src = r"""
        int main(void) {
          #pragma omp parallel
          {
            #pragma omp for
            for (int i = 0; i < 4; i += 1) ;
          }
          return 0;
        }
        """
        result = run_c(src)
        assert result.interpreter.omp.barrier_count >= 1


class TestOrphanedWorksharing:
    def test_for_outside_parallel_runs_serially(self):
        src = r"""
        int main(void) {
          int sum = 0;
          #pragma omp for
          for (int i = 0; i < 10; i += 1) sum += i;
          printf("%d\n", sum);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert int(legacy.stdout) == 45

    def test_simd_directive(self):
        src = r"""
        int main(void) {
          int sum = 0;
          #pragma omp simd reduction(+: sum)
          for (int i = 0; i < 10; i += 1) sum += i * i;
          printf("%d\n", sum);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert int(legacy.stdout) == sum(i * i for i in range(10))

    def test_barrier_standalone_outside_parallel(self):
        src = r"""
        int main(void) {
          #pragma omp barrier
          printf("after\n");
          return 0;
        }
        """
        assert run_c(src).stdout == "after\n"


class TestLinearCounters:
    """OpenMP 5.1 makes the iteration variable of a ``simd`` loop linear
    (lastprivate under ``collapse``): declared outside its ``for``, it
    holds its sequential final value after the loop.  ``for`` and
    ``taskloop`` keep the original value, as GCC does."""

    SRC = r"""
    int main(void) {
      int i = 42; int j = 42; int k = 42; int sum = 0;
      #pragma omp simd reduction(+: sum)
      for (i = 0; i < 3; i += 1) sum += i;
      #pragma omp parallel
      {
        #pragma omp for simd reduction(+: sum)
        for (j = 0; j < 5; j += 1) sum += j;
      }
      #pragma omp simd
      for (k = 10; k > 2; k -= 3) sum += k;
      printf("%d %d %d %d\n", sum, i, j, k);
      int p = 42; int q = 42; int c = 42;
      #pragma omp simd collapse(2)
      for (p = 0; p < 3; p += 1)
        for (q = 0; q < 2; q += 1) sum += p * q;
      #pragma omp parallel for simd schedule(dynamic, 2)
      for (c = 0; c < 7; c += 1) sum += c;
      printf("%d %d %d\n", p, q, c);
      int d = 42; int t = 42;
      #pragma omp parallel for
      for (d = 0; d < 4; d += 1) sum += d;
      #pragma omp taskloop
      for (t = 0; t < 4; t += 1) sum += t;
      printf("after=%d %d\n", d, t);
      return 0;
    }
    """

    # Zero iterations: nothing is assigned, as in clang (the final
    # values are emitted under the loop's precondition).
    ZERO_TRIP_SRC = r"""
    int main(void) {
      int n = 0; int a = 42; int b = 42;
      #pragma omp simd
      for (a = 0; a < n; a += 1) n += 1;
      #pragma omp parallel for simd
      for (b = 5; b < n; b += 1) n += 1;
      printf("%d %d\n", a, b);
      return 0;
    }
    """

    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    def test_final_values(self, optimize):
        legacy, _ = run_both(self.SRC, optimize=optimize)
        assert legacy.stdout == "34 3 5 1\n3 2 7\nafter=42 42\n"

    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    def test_zero_trip_keeps_original(self, optimize):
        legacy, _ = run_both(self.ZERO_TRIP_SRC, optimize=optimize)
        assert legacy.stdout == "42 42\n"


def test_clause_variable_after_loop_in_region():
    """Inside a parallel region, a variable named in a worksharing
    loop's data-sharing clause is the shared one again after the loop
    (it was a fresh copy re-initialized from its declaration)."""
    src = r"""
    int main(void) {
      int x = 5; int y = 7;
      #pragma omp parallel num_threads(2)
      {
        #pragma omp for private(x)
        for (int i = 0; i < 4; i++) x = i;
        #pragma omp for lastprivate(y)
        for (int i = 0; i < 4; i++) y = i * 10;
        #pragma omp single
        printf("%d %d\n", x, y);
      }
      printf("%d %d\n", x, y);
      return 0;
    }
    """
    legacy, _ = run_both(src)
    assert legacy.stdout == "5 30\n5 30\n"
