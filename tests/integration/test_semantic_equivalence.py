"""E7: the paper's §1.1 semantic-equivalence claim, checked by execution.

"The code above is semantically equivalent to the following version where
the loop is unrolled manually by the programmer" — we compile BOTH
versions, run them on the simulated OpenMP runtime, and require identical
results; and we require both AST representations to agree with each other.
"""

import pytest

from tests.conftest import run_both, run_c

# The paper's motivating example (§1.1), made observable.
DIRECTIVE_VERSION = r"""
void record(int *out, int i, int tid);
int main(void) {
  int N = %(N)d;
  int out[128];
  int tids[128];
  for (int k = 0; k < N; k += 1) { out[k] = -1; tids[k] = -1; }
  #pragma omp parallel for
  #pragma omp unroll partial(2)
  for (int i = 0; i < N; i += 1) {
    out[i] = i * i;
    tids[i] = omp_get_thread_num();
  }
  for (int k = 0; k < N; k += 1) printf("%%d:%%d ", out[k], tids[k]);
  printf("\n");
  return 0;
}
"""

MANUAL_VERSION = r"""
int main(void) {
  int N = %(N)d;
  int out[128];
  int tids[128];
  for (int k = 0; k < N; k += 1) { out[k] = -1; tids[k] = -1; }
  #pragma omp parallel for
  for (int i = 0; i < N; i += 2) {
    out[i] = i * i;
    tids[i] = omp_get_thread_num();
    if (i + 1 < N) {
      out[i + 1] = (i + 1) * (i + 1);
      tids[i + 1] = omp_get_thread_num();
    }
  }
  for (int k = 0; k < N; k += 1) printf("%%d:%%d ", out[k], tids[k]);
  printf("\n");
  return 0;
}
"""


class TestPaperSection11Equivalence:
    @pytest.mark.parametrize("n", [8, 16, 17, 31])
    def test_directive_equals_manual_unroll(self, n):
        """`parallel for` + `unroll partial(2)` computes the same values
        AND the same iteration->thread mapping as the manually unrolled
        loop (the unrolled loop's logical iterations are what the
        consuming worksharing directive distributes)."""
        directive = run_c(DIRECTIVE_VERSION % {"N": n})
        manual = run_c(MANUAL_VERSION % {"N": n})
        assert directive.stdout == manual.stdout

    @pytest.mark.parametrize("n", [8, 17])
    def test_both_representations_agree(self, n):
        run_both(DIRECTIVE_VERSION % {"N": n})

    def test_directive_close_to_manual_cost(self):
        """Same result, and within 4x the interpreted instructions of
        the hand-unrolled loop at -O1.  The directive version keeps
        strip-mine bookkeeping (trip-count materialization, the `&&`
        tile guard, per-iteration user-variable reconstruction) that a
        production mid-end would erase."""
        directive = run_c(
            r"""
            int main(void) {
              long acc = 0;
              #pragma omp unroll partial(2)
              for (int i = 0; i < 1000; i += 1) acc += i;
              printf("%d\n", (int)acc);
              return 0;
            }
            """,
            optimize=True,
        )
        manual = run_c(
            r"""
            int main(void) {
              long acc = 0;
              int i = 0;
              for (; i + 1 < 1000; i += 2) {
                acc += i;
                acc += i + 1;
              }
              for (; i < 1000; i += 1) acc += i;
              printf("%d\n", (int)acc);
              return 0;
            }
            """,
            optimize=True,
        )
        assert directive.stdout == manual.stdout
        assert directive.instruction_count / manual.instruction_count < 4.0


UNROLL_VALUES_ONLY = r"""
int main(void) {
  int sum = 0;
  #pragma omp unroll %(clause)s
  for (int i = %(lb)d; i < %(ub)d; i += %(step)d)
    sum += i * 2 + 1;
  printf("%%d\n", sum);
  return 0;
}
"""


class TestUnrollPreservesSemantics:
    @pytest.mark.parametrize(
        "clause", ["partial(2)", "partial(3)", "partial(8)", "partial"]
    )
    @pytest.mark.parametrize(
        "lb,ub,step",
        [(0, 10, 1), (7, 17, 3), (0, 7, 2), (5, 5, 1), (0, 100, 7)],
    )
    def test_partial_unroll_all_shapes(self, clause, lb, ub, step):
        src = UNROLL_VALUES_ONLY % {
            "clause": clause,
            "lb": lb,
            "ub": ub,
            "step": step,
        }
        reference = sum(
            i * 2 + 1 for i in range(lb, ub, step)
        )
        legacy, irb = run_both(src)
        assert int(legacy.stdout) == reference

    @pytest.mark.parametrize(
        "lb,ub,step", [(0, 6, 1), (1, 10, 4), (3, 3, 1)]
    )
    def test_full_unroll(self, lb, ub, step):
        src = UNROLL_VALUES_ONLY % {
            "clause": "full",
            "lb": lb,
            "ub": ub,
            "step": step,
        }
        reference = sum(i * 2 + 1 for i in range(lb, ub, step))
        legacy, irb = run_both(src)
        assert int(legacy.stdout) == reference

    def test_unroll_heuristic_mode(self):
        src = UNROLL_VALUES_ONLY % {
            "clause": "",
            "lb": 0,
            "ub": 12,
            "step": 1,
        }
        legacy, _ = run_both(src)
        assert int(legacy.stdout) == sum(i * 2 + 1 for i in range(12))

    @pytest.mark.parametrize("optimize", [False, True])
    def test_unroll_with_midend(self, optimize):
        """With -O the LoopUnroll pass actually duplicates; results must
        not change."""
        src = UNROLL_VALUES_ONLY % {
            "clause": "partial(4)",
            "lb": 0,
            "ub": 37,
            "step": 2,
        }
        reference = sum(i * 2 + 1 for i in range(0, 37, 2))
        result = run_c(src, optimize=optimize)
        assert int(result.stdout) == reference


COMPOSED = r"""
int main(void) {
  int order[64];
  int pos = 0;
  #pragma omp unroll full
  #pragma omp unroll partial(2)
  for (int i = 7; i < 17; i += 3) {
    order[pos] = i;
    pos += 1;
  }
  printf("pos=%d vals=", pos);
  for (int k = 0; k < pos; k += 1) printf("%d ", order[k]);
  printf("\n");
  return 0;
}
"""


class TestDirectiveComposition:
    def test_paper_listing5_composition_executes(self):
        """unroll full over unroll partial(2): 'effectively equivalent to
        just being unrolled completely' — same iterations, same order."""
        result = run_c(COMPOSED)
        assert result.stdout == "pos=4 vals=7 10 13 16 \n"

    def test_composition_with_midend(self):
        result = run_c(COMPOSED, optimize=True)
        assert result.stdout == "pos=4 vals=7 10 13 16 \n"

    def test_worksharing_consumes_transformed_loop(self):
        """`parallel for` over `tile`: the generated (floor) loop is what
        gets distributed (paper §4's composition direction)."""
        src = r"""
        int main(void) {
          int hits[100];
          for (int k = 0; k < 100; k += 1) hits[k] = 0;
          #pragma omp parallel for
          #pragma omp tile sizes(4)
          for (int i = 0; i < 100; i += 1)
            hits[i] += 1;
          int total = 0;
          for (int k = 0; k < 100; k += 1) total += hits[k];
          printf("%d\n", total);
          return 0;
        }
        """
        result = run_c(src)
        assert int(result.stdout) == 100

    def test_consuming_full_unroll_is_an_error(self):
        """A fully unrolled loop leaves no loop to associate with."""
        from repro.pipeline import CompilationError

        src = r"""
        int main(void) {
          #pragma omp parallel for
          #pragma omp unroll full
          for (int i = 0; i < 4; i += 1) ;
          return 0;
        }
        """
        with pytest.raises(CompilationError) as err:
            run_c(src)
        assert "fully unrolled" in str(err.value)


class TestEquivalenceAcrossSchedules:
    SRC = r"""
    int main(void) {
      int N = 40;
      int out[40];
      int sum = 0;
      #pragma omp parallel for schedule(%(sched)s) reduction(+: sum)
      for (int i = 0; i < N; i += 1) {
        out[i] = 3 * i + 1;
        sum += out[i];
      }
      int check = 0;
      for (int i = 0; i < N; i += 1) check += out[i];
      printf("%%d %%d\n", sum, check);
      return 0;
    }
    """

    @pytest.mark.parametrize(
        "sched",
        ["static", "static, 3", "dynamic", "dynamic, 5", "guided"],
    )
    def test_all_schedules_compute_same_values(self, sched):
        legacy, irb = run_both(self.SRC % {"sched": sched})
        sum_v, check = map(int, legacy.stdout.split())
        expected = sum(3 * i + 1 for i in range(40))
        assert sum_v == expected
        assert check == expected
