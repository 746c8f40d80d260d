"""E6 + E11: unroll metadata flow and the remainder loop.

E11 (paper §2.2): a non-consumed unroll attaches ``llvm.loop.unroll.*``
metadata without duplicating any code in the front-end; heuristic mode
leaves the decision to the mid-end pass.

E6 (paper Listing 2): the mid-end LoopUnroll pass turns the annotated
loop into a main loop processing F iterations per backedge plus a
remainder loop — and "handles the case when the iteration count is not a
multiple of the unroll factor".
"""

import re

import pytest

from repro.ir.metadata import (
    UNROLL_ENABLE,
    UNROLL_FULL,
    get_unroll_count,
    has_flag,
)
from repro.midend import LoopInfo, LoopUnrollPass, default_pass_pipeline

from tests.conftest import compile_c, run_both, run_c


def loop_metadata_of(result, fn_name="f"):
    fn = result.module.get_function(fn_name)
    found = []
    for block in fn.blocks:
        term = block.terminator
        if term is not None and "llvm.loop" in term.metadata:
            found.append(term.metadata["llvm.loop"])
    return found


class TestE11MetadataOnly:
    def test_partial_unroll_emits_count_metadata(self):
        src = """
        void body(int);
        void f(int N) {
          #pragma omp unroll partial(4)
          for (int i = 0; i < N; ++i) body(i);
        }
        """
        result = compile_c(src)
        mds = loop_metadata_of(result)
        assert len(mds) == 1
        assert get_unroll_count(mds[0]) == 4

    def test_no_front_end_duplication(self):
        """The body call appears exactly once in the emitted IR — no
        duplication until the mid-end (paper §2.1)."""
        src = """
        void body(int);
        void f(int N) {
          #pragma omp unroll partial(8)
          for (int i = 0; i < N; ++i) body(i);
        }
        """
        result = compile_c(src)
        text = result.ir_text()
        assert text.count("call void @body") == 1

    def test_full_unroll_emits_full_metadata(self):
        src = """
        void body(int);
        void f(void) {
          #pragma omp unroll full
          for (int i = 0; i < 6; ++i) body(i);
        }
        """
        result = compile_c(src)
        mds = loop_metadata_of(result)
        assert len(mds) == 1
        assert has_flag(mds[0], UNROLL_FULL)
        assert result.ir_text().count("call void @body") == 1

    def test_heuristic_mode_emits_enable(self):
        """No clause: 'the compiler decides what to do' — metadata lets
        the LoopUnroll pass apply its profitability heuristic."""
        src = """
        void body(int);
        void f(int N) {
          #pragma omp unroll
          for (int i = 0; i < N; ++i) body(i);
        }
        """
        result = compile_c(src)
        mds = loop_metadata_of(result)
        assert len(mds) == 1
        assert has_flag(mds[0], UNROLL_ENABLE)
        assert get_unroll_count(mds[0]) is None

    def test_clang_loop_pragma_same_mechanism(self):
        """#pragma clang loop unroll_count(N) uses the same LoopHintAttr
        lowering the shadow-AST unroll reuses."""
        src = """
        void body(int);
        void f(int N) {
          #pragma clang loop unroll_count(3)
          for (int i = 0; i < N; ++i) body(i);
        }
        """
        result = compile_c(src, openmp=False)
        mds = loop_metadata_of(result)
        assert len(mds) == 1
        assert get_unroll_count(mds[0]) == 3

    def test_irbuilder_partial_tags_inner_tile_loop(self):
        src = """
        void body(int);
        void f(int N) {
          #pragma omp unroll partial(4)
          for (int i = 0; i < N; ++i) body(i);
        }
        """
        result = compile_c(src, enable_irbuilder=True)
        mds = loop_metadata_of(result)
        assert len(mds) == 1
        assert get_unroll_count(mds[0]) == 4


class TestE6RemainderLoop:
    SRC = """
    void body(int);
    void f(int N) {
      #pragma omp unroll partial(4)
      for (int i = 0; i < N; ++i) body(i);
    }
    """

    def test_pass_creates_main_plus_remainder(self):
        result = compile_c(self.SRC)
        pass_ = LoopUnrollPass()
        fn = result.module.get_function("f")
        assert pass_.run_on_function(fn)
        # The strip-mined inner loop has a compound (&&) condition, so it
        # takes the conditional-exit scheme; the loop structure still
        # duplicates the body 4x.
        assert pass_.stats.total >= 1
        text_after = result.ir_text()
        assert text_after.count("call void @body") == 4

    def test_simple_loop_gets_remainder_shape(self):
        """A plain annotated loop (clang loop hint) gets the exact
        Listing 2 shape: strengthened main header + original loop as
        remainder."""
        src = """
        void body(int);
        void f(int N) {
          #pragma clang loop unroll_count(4)
          for (int i = 0; i < N; ++i) body(i);
        }
        """
        result = compile_c(src, openmp=False)
        fn = result.module.get_function("f")
        pass_ = LoopUnrollPass()
        assert pass_.run_on_function(fn)
        assert pass_.stats.partially_unrolled == 1
        assert pass_.stats.remainder_loops_created == 1
        loops = LoopInfo(fn).loops
        headers = {l.header.name for l in loops}
        assert any("unrolled" in h for h in headers)  # main loop
        assert "for.cond" in headers  # remainder = original loop
        # Main loop carries 4 body calls, remainder 1.
        assert result.ir_text().count("call void @body") == 5

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 101])
    def test_remainder_semantics_every_modulus(self, n):
        src = (
            """
        int main(void) {
          int sum = 0;
          int n = %d;
          #pragma omp unroll partial(4)
          for (int i = 0; i < n; ++i) sum += 2 * i + 1;
          printf("%%d\\n", sum);
          return 0;
        }
        """
            % n
        )
        expected = sum(2 * i + 1 for i in range(n))
        plain = run_c(src)
        optimized = run_c(src, optimize=True)
        assert int(plain.stdout) == expected
        assert int(optimized.stdout) == expected

    def test_optimized_executes_fewer_backedges(self):
        """The unrolled main loop reduces dynamic instruction count."""
        src = r"""
        int main(void) {
          int sum = 0;
          #pragma clang loop unroll_count(8)
          for (int i = 0; i < 1000; ++i) sum += i;
          printf("%d\n", sum);
          return 0;
        }
        """
        plain = run_c(src, openmp=False)
        optimized = run_c(src, openmp=False, optimize=True)
        assert plain.stdout == optimized.stdout
        assert (
            optimized.instruction_count < plain.instruction_count
        )

    def test_full_unroll_removes_loop_entirely(self):
        src = """
        void body(int);
        void f(void) {
          #pragma omp unroll full
          for (int i = 0; i < 5; ++i) body(i);
        }
        """
        result = compile_c(src)
        default_pass_pipeline().run(result.module)
        fn = result.module.get_function("f")
        assert LoopInfo(fn).loops == []
        assert result.ir_text().count("call void @body") == 5

    @pytest.mark.parametrize(
        "hint", ["unroll(enable)", "unroll_count(3)"]
    )
    def test_hinted_do_loop_is_left_rolled(self, hint):
        """A ``do`` loop's latch is its exiting conditional branch,
        which no unroll strategy re-links: the pass skips the loop
        instead of stopping on it."""
        src = f"""
        int main(void) {{
          int i = 8, s = 0;
          #pragma clang loop {hint}
          do {{ i -= 1; s += i; }} while (i > 0);
          printf("%d\\n", s);
          return 0;
        }}
        """
        for result in run_both(src, optimize=True):
            assert result.stdout == "28\n"
            assert result.exit_code == 0


class TestE6UnrollInstructionCounts:
    N = 2000
    SRC = r"""
    int main(void) {
      long acc = 0;
      %(pragma)s
      for (int i = 0; i < %(n)d; i += 1)
        acc += i;
      printf("%%d\n", (int)acc);
      return 0;
    }
    """

    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    def test_omp_unroll_factor_sweep(self, factor):
        pragma = f"#pragma omp unroll partial({factor})" if factor > 1 else ""
        result = run_c(
            self.SRC % {"pragma": pragma, "n": self.N}, optimize=True
        )
        assert int(result.stdout) == sum(range(self.N))

    def test_unroll_reduces_dynamic_instructions(self):
        """The headline shape: the unrolled loop (after the mid-end)
        executes fewer instructions than the plain loop, monotonically
        with the factor and with diminishing returns."""
        counts = {}
        for factor in (1, 4, 8):
            pragma = (
                f"#pragma clang loop unroll_count({factor})"
                if factor > 1
                else ""
            )
            counts[factor] = run_c(
                self.SRC % {"pragma": pragma, "n": self.N},
                openmp=False,
                optimize=True,
            ).instruction_count
        assert counts[4] < counts[1]
        assert counts[8] < counts[4]
        assert (counts[4] - counts[8]) < (counts[1] - counts[4])
