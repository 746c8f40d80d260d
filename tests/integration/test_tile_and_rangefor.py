"""E15 (tile semantics) + E10 (range-for de-sugaring, paper Listing
'rangeloop')."""

import pytest

from repro.astlib import stmts as s
from tests.conftest import compile_c, run_both, run_c


def tile_traversal(n, m, si, sj):
    """Reference traversal order of a tiled i/j nest."""
    order = []
    for fi in range(0, n, si):
        for fj in range(0, m, sj):
            for i in range(fi, min(fi + si, n)):
                for j in range(fj, min(fj + sj, m)):
                    order.append((i, j))
    return order


TILE_SRC = r"""
int main(void) {
  int n = %(n)d; int m = %(m)d;
  int order[512]; int pos = 0;
  #pragma omp tile sizes(%(si)d, %(sj)d)
  for (int i = 0; i < n; i += 1)
    for (int j = 0; j < m; j += 1) {
      order[pos] = i * 100 + j;
      pos += 1;
    }
  printf("%%d:", pos);
  for (int k = 0; k < pos; k += 1) printf("%%d ", order[k]);
  printf("\n");
  return 0;
}
"""


class TestTileSemantics:
    @pytest.mark.parametrize(
        "n,m,si,sj",
        [
            (6, 6, 2, 3),     # rectangular, sizes divide evenly
            (7, 5, 2, 2),     # both extents non-multiples
            (4, 4, 8, 8),     # tiles larger than the space
            (5, 1, 2, 1),     # degenerate inner dimension
            (1, 1, 1, 1),
            (8, 8, 1, 1),     # unit tiles = original order
        ],
    )
    def test_traversal_order_both_representations(self, n, m, si, sj):
        src = TILE_SRC % {"n": n, "m": m, "si": si, "sj": sj}
        legacy, irb = run_both(src)
        count, _, values = legacy.stdout.partition(":")
        got = [int(v) for v in values.split()]
        expected = [
            i * 100 + j for i, j in tile_traversal(n, m, si, sj)
        ]
        assert int(count) == n * m
        assert got == expected

    def test_1d_tile(self):
        src = r"""
        int main(void) {
          int order[16]; int pos = 0;
          #pragma omp tile sizes(4)
          for (int i = 0; i < 10; i += 1) { order[pos] = i; pos += 1; }
          for (int k = 0; k < pos; k += 1) printf("%d ", order[k]);
          printf("\n");
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert legacy.stdout.split() == [str(i) for i in range(10)]

    def test_3d_tile(self):
        src = r"""
        int main(void) {
          int sum = 0; int count = 0;
          #pragma omp tile sizes(2, 2, 2)
          for (int i = 0; i < 3; i += 1)
            for (int j = 0; j < 4; j += 1)
              for (int k = 0; k < 5; k += 1) {
                sum += i * 100 + j * 10 + k;
                count += 1;
              }
          printf("%d %d\n", sum, count);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        expected = sum(
            i * 100 + j * 10 + k
            for i in range(3)
            for j in range(4)
            for k in range(5)
        )
        assert legacy.stdout.split() == [str(expected), "60"]

    def test_tiling_improves_locality_proxy(self):
        """A column-major walk from row-major loops: the sum of
        |address delta| between consecutive touches (a reuse-distance
        proxy) drops under any square tile, and a full-matrix tile
        degenerates back to the untiled order."""
        src = r"""
        int main(void) {
          long reuse = 0;
          int last = 0;
          %(pragma)s
          for (int i = 0; i < 24; i += 1)
            for (int j = 0; j < 24; j += 1) {
              int delta = j * 24 + i - last;
              if (delta < 0) delta = -delta;
              reuse += delta;
              last = j * 24 + i;
            }
          printf("%%d\n", (int)reuse);
          return 0;
        }
        """

        def reuse(size):
            pragma = f"#pragma omp tile sizes({size}, {size})" if size else ""
            return int(run_c(src % {"pragma": pragma}).stdout)

        untiled = reuse(0)
        assert all(reuse(size) < untiled for size in (2, 4, 8))
        assert reuse(24) == untiled

    def test_tile_requires_sizes_clause(self):
        from repro.pipeline import CompilationError

        with pytest.raises(CompilationError) as err:
            run_c(
                "int main(void) {\n"
                "#pragma omp tile\n"
                "for (int i = 0; i < 4; i += 1) ;\n"
                "return 0; }"
            )
        assert "sizes" in str(err.value)

    def test_tile_size_must_be_positive_constant(self):
        from repro.pipeline import CompilationError

        with pytest.raises(CompilationError) as err:
            run_c(
                "int main(void) {\n"
                "#pragma omp tile sizes(0)\n"
                "for (int i = 0; i < 4; i += 1) ;\n"
                "return 0; }"
            )
        assert "positive" in str(err.value)

    def test_tile_nest_depth_mismatch(self):
        from repro.pipeline import CompilationError

        with pytest.raises(CompilationError) as err:
            run_c(
                "int main(void) {\n"
                "#pragma omp tile sizes(2, 2)\n"
                "for (int i = 0; i < 4; i += 1) ;\n"
                "return 0; }"
            )
        assert "nested" in str(err.value)

    def test_parallel_for_over_tile(self):
        """Worksharing over the generated floor loop covers everything
        exactly once regardless of representation."""
        src = r"""
        int main(void) {
          int hits[64];
          for (int k = 0; k < 64; k += 1) hits[k] = 0;
          #pragma omp parallel for
          #pragma omp tile sizes(4, 4)
          for (int i = 0; i < 8; i += 1)
            for (int j = 0; j < 8; j += 1)
              hits[i * 8 + j] += 1;
          int bad = 0;
          for (int k = 0; k < 64; k += 1)
            if (hits[k] != 1) bad += 1;
          printf("bad=%d\n", bad);
          return 0;
        }
        """
        legacy, irb = run_both(src)
        assert legacy.stdout == "bad=0\n"


class TestE10RangeForDesugaring:
    """Paper Listing 'rangeloop': three stages of the same loop."""

    def test_desugared_children_present(self):
        """The CXXForRangeStmt keeps the de-sugared helper statements
        (__range/__begin/__end, cond, inc) as children — Listing (b)."""
        src = "void f(void) { int data[4]; for (int &x : data) ; }"
        result = compile_c(src, syntax_only=True)
        loop = result.function("f").body.statements[1]
        assert isinstance(loop, s.CXXForRangeStmt)
        names = [
            st.single_decl.name
            for st in (loop.range_stmt, loop.begin_stmt, loop.end_stmt)
        ]
        assert names == ["__range1", "__begin1", "__end1"]
        assert loop.loop_variable.name == "x"

    def test_three_variable_distinction(self):
        """Val is the *loop user variable*, __begin the *loop iteration
        variable*, and the logical counter is a normalized unsigned int
        (paper Fig. caption)."""
        from repro.sema.canonical_loop import analyze_canonical_loop

        src = "void f(void) { double data[8]; for (double &v : data) ; }"
        result = compile_c(src, syntax_only=True)
        loop = result.function("f").body.statements[1]
        analysis = analyze_canonical_loop(
            result.ast_context, result.diagnostics, loop
        )
        # loop iteration variable: the pointer __begin1
        assert analysis.iter_var.name == "__begin1"
        assert analysis.iter_var.type.spelling() == "double *"
        # loop user variable: v (a reference)
        assert loop.loop_variable.name == "v"
        assert loop.loop_variable.type.spelling() == "double &"
        # logical counter: unsigned, pointer-width
        assert analysis.logical_type.is_unsigned_integer()
        assert (
            result.ast_context.type_width(analysis.logical_type) == 64
        )

    def test_all_three_stages_execute_identically(self):
        """Listing (a) range-for == Listing (b) iterator de-sugaring ==
        Listing (c) logical-iteration de-sugaring."""
        stage_a = r"""
        int main(void) {
          double c[6] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
          double total = 0.0;
          for (double &val : c) { val = val * 2.0; total += val; }
          printf("%g %g %g\n", total, c[0], c[5]);
          return 0;
        }
        """
        stage_b = r"""
        int main(void) {
          double c[6] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
          double total = 0.0;
          double *__begin = c;
          double *__end = c + 6;
          for (; __begin != __end; ++__begin) {
            double *val = __begin;
            *val = *val * 2.0;
            total += *val;
          }
          printf("%g %g %g\n", total, c[0], c[5]);
          return 0;
        }
        """
        stage_c = r"""
        int main(void) {
          double c[6] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
          double total = 0.0;
          double *__begin = c;
          double *__end = c + 6;
          ptrdiff_t distance = __end - __begin;
          for (long __i = 0; __i < distance; ++__i) {
            double *val = __begin + __i;
            *val = *val * 2.0;
            total += *val;
          }
          printf("%g %g %g\n", total, c[0], c[5]);
          return 0;
        }
        """
        outputs = {
            run_c(code, openmp=False).stdout
            for code in (stage_a, stage_b, stage_c)
        }
        assert len(outputs) == 1
        assert outputs.pop() == "42 2 12\n"

    def test_range_for_under_every_directive(self):
        src = r"""
        int main(void) {
          int data[12];
          for (int i = 0; i < 12; i += 1) data[i] = i + 1;
          long product_like = 0;
          #pragma omp parallel for reduction(+: product_like)
          for (int &x : data)
            product_like += x * x;
          printf("%d\n", (int)product_like);
          return 0;
        }
        """
        legacy, irb = run_both(src)
        assert int(legacy.stdout) == sum(
            (i + 1) ** 2 for i in range(12)
        )

    def test_tile_of_range_for(self):
        """Loop transformations apply to range-based for loops too."""
        src = r"""
        int main(void) {
          int data[10];
          for (int i = 0; i < 10; i += 1) data[i] = i;
          int order[10]; int pos = 0;
          #pragma omp tile sizes(4)
          for (int &x : data) { order[pos] = x; pos += 1; }
          for (int k = 0; k < pos; k += 1) printf("%d ", order[k]);
          printf("\n");
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert legacy.stdout.split() == [str(i) for i in range(10)]

    def test_unroll_of_range_for(self):
        src = r"""
        int main(void) {
          double data[7] = {1, 2, 3, 4, 5, 6, 7};
          double sum = 0.0;
          #pragma omp unroll partial(3)
          for (double &v : data) sum += v;
          printf("%g\n", sum);
          return 0;
        }
        """
        legacy, _ = run_both(src)
        assert legacy.stdout == "28\n"
