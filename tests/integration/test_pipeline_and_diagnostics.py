"""E1 (component layers), E13 (shadow-AST diagnostic quality), E14 (AST
size of the two representations), and driver-level behaviour."""

import pytest

from repro.astlib import omp
from repro.astlib.visitor import count_nodes
from repro.diagnostics import Severity
from repro.pipeline import CompilationError, compile_source

from tests.conftest import compile_c, run_c


class TestE1PipelineLayers:
    """Fig. 1: each layer consumes the previous layer's output; the same
    SourceLocation identifies a character across all of them."""

    SRC = "int x = 1;\nint bad = undeclared_name;\n"

    def test_location_flows_from_lexer_to_diagnostic(self):
        result = compile_c(self.SRC, syntax_only=True, strict=False)
        errors = list(result.diagnostics.errors())
        assert errors
        ploc = result.source_manager.get_presumed_loc(
            errors[0].location
        )
        assert ploc.line == 2
        line_text = result.source_manager.get_line_text(
            errors[0].location
        )
        assert "undeclared_name" in line_text

    def test_rendered_diagnostic_has_caret(self):
        result = compile_c(self.SRC, syntax_only=True, strict=False)
        text = result.diagnostics_text()
        assert "<input>:2:11: error:" in text
        assert "^" in text

    def test_include_crosses_layers(self):
        result = compile_c(
            '#include "lib.h"\nint y = LIB_VALUE;\n',
            syntax_only=True,
            virtual_files={"lib.h": "#define LIB_VALUE 77\n"},
        )
        decl = result.translation_unit.lookup("y")
        assert decl.init.ignore_implicit_casts().value == 77

    def test_preprocessor_conditional_selects_transformation(self):
        """The paper's motivation: choose different optimizations per
        target 'by using the preprocessor ... while using the same source
        code'."""
        src = r"""
        int main(void) {
          int sum = 0;
        #ifdef WIDE_CORE
          #pragma omp unroll partial(8)
        #else
          #pragma omp unroll partial(2)
        #endif
          for (int i = 0; i < 20; i += 1) sum += i;
          printf("%d\n", sum);
          return 0;
        }
        """
        narrow = run_c(src)
        wide = run_c(src, defines={"WIDE_CORE": "1"})
        assert narrow.stdout == wide.stdout == "190\n"

    def test_full_stack_compile_and_run(self):
        src = r"""
        int fib(int n) {
          if (n < 2) return n;
          return fib(n - 1) + fib(n - 2);
        }
        int main(void) { printf("%d\n", fib(12)); return 0; }
        """
        assert run_c(src, openmp=False).stdout == "144\n"

    def test_syntax_only_skips_codegen(self):
        result = compile_c("int f(void) { return 1; }", syntax_only=True)
        assert result.module is None


class TestE13ShadowDiagnostics:
    """Paper §2: diagnostics over the shadow AST leak internal names like
    '.capture_expr.' but should point at a representative source location
    of the literal loop."""

    SRC = """
void body(int);
void f(int N) {
  #pragma omp unroll full
  #pragma omp unroll partial(2)
  for (int i = 0; i < N; i += 1)
    body(i);
}
"""

    def compile_failing(self):
        return compile_c(self.SRC, syntax_only=True, strict=False)

    def test_error_emitted(self):
        result = self.compile_failing()
        assert result.diagnostics.has_errors()

    def test_note_leaks_internal_name(self):
        """The exact diagnostic text the paper quotes."""
        result = self.compile_failing()
        text = result.diagnostics_text()
        assert (
            "read of non-const variable '.capture_expr.' is not "
            "allowed in a constant expression" in text
        )

    def test_note_has_representative_location(self):
        """'a representative source location for the associated literal
        loop can be used' — the note points at the for-loop line."""
        result = self.compile_failing()
        error = next(iter(result.diagnostics.errors()))
        assert error.notes
        note = error.notes[0]
        assert note.location is not None and note.location.is_valid()
        ploc = result.source_manager.get_presumed_loc(note.location)
        line = result.source_manager.get_line_text(note.location)
        assert "for (int i = 0; i < N" in line

    def test_note_severity(self):
        result = self.compile_failing()
        error = next(iter(result.diagnostics.errors()))
        assert error.notes[0].severity == Severity.NOTE

    def test_constant_bounds_compose_cleanly(self):
        """With constant bounds the materialized '.capture_expr.' is
        const and folds, so the same composition succeeds."""
        src = self.SRC.replace("int N)", "void)").replace("i < N", "i < 8")
        result = compile_c(src, syntax_only=True)
        assert not result.diagnostics.has_errors()


class TestE14RepresentationSize:
    """Paper §3: the canonical representation reduces the Sema-resolved
    meta information from ~36 shadow nodes to 3."""

    SRC = """
void body(int);
void f(int N) {
  #pragma omp parallel for
  for (int i = 0; i < N; i += 1)
    body(i);
}
"""

    def directive(self, irbuilder: bool):
        result = compile_c(
            self.SRC, syntax_only=True, enable_irbuilder=irbuilder
        )
        return result.function("f").body.statements[0]

    def test_shadow_capacity_matches_paper(self):
        assert omp.OMPLoopDirective.shadow_capacity(1) >= 36

    def test_shadow_directive_populates_many_helpers(self):
        directive = self.directive(irbuilder=False)
        assert isinstance(directive, omp.OMPLoopDirective)
        assert directive.shadow_node_count() >= 15

    def canonical_loop(self, directive):
        wrapper = directive.captured_stmt.body
        while not isinstance(wrapper, omp.OMPCanonicalLoop):
            wrapper = list(wrapper.children())[0]
        return wrapper

    def test_canonical_loop_has_exactly_three_meta_nodes(self):
        directive = self.directive(irbuilder=True)
        assert self.canonical_loop(directive).meta_node_count() == 3

    def test_measured_sizes(self):
        """The figures EXPERIMENTS.md (E14) and README quote: 22
        populated shadow slots in a 241-node directive subtree, against
        3 meta nodes in a 52-node one."""
        shadow = self.directive(irbuilder=False)
        assert shadow.shadow_node_count() == 22
        assert count_nodes(shadow, include_shadow=True) == 241
        canonical = self.directive(irbuilder=True)
        assert self.canonical_loop(canonical).meta_node_count() == 3
        assert count_nodes(canonical, include_shadow=True) == 52

    def test_canonical_tree_smaller_than_shadow_tree(self):
        shadow = self.directive(irbuilder=False)
        canonical = self.directive(irbuilder=True)
        shadow_total = count_nodes(shadow, include_shadow=True)
        canonical_total = count_nodes(canonical, include_shadow=True)
        assert canonical_total < shadow_total


class TestDriverCLI:
    def run_cli(self, args, source):
        import io
        import sys

        from repro.driver.cli import main

        path = None
        import tempfile, os

        with tempfile.NamedTemporaryFile(
            "w", suffix=".c", delete=False
        ) as fh:
            fh.write(source)
            path = fh.name
        old_stdout = sys.stdout
        sys.stdout = io.StringIO()
        try:
            code = main([*args, path])
            output = sys.stdout.getvalue()
        finally:
            sys.stdout = old_stdout
            os.unlink(path)
        return code, output

    SRC = r"""
int main(void) {
  int sum = 0;
  #pragma omp unroll partial(2)
  for (int i = 0; i < 10; i += 1) sum += i;
  printf("%d\n", sum);
  return sum;
}
"""

    def test_emit_llvm_default(self):
        code, out = self.run_cli([], self.SRC)
        assert code == 0
        assert "define i32 @main" in out
        assert "llvm.loop.unroll.count" in out

    def test_ast_dump(self):
        code, out = self.run_cli(["-ast-dump"], self.SRC)
        assert code == 0
        assert "OMPUnrollDirective" in out
        assert "OMPPartialClause" in out
        assert "unrolled.iv.i" not in out  # shadow hidden

    def test_ast_dump_shadow(self):
        code, out = self.run_cli(["-ast-dump-shadow"], self.SRC)
        assert "unrolled.iv.i" in out

    def test_run_flag(self):
        code, out = self.run_cli(["--run"], self.SRC)
        assert out == "45\n"
        assert code == 45

    def test_run_with_irbuilder(self):
        code, out = self.run_cli(
            ["--run", "-fopenmp-enable-irbuilder"], self.SRC
        )
        assert out == "45\n"

    def test_run_optimized(self):
        code, out = self.run_cli(["--run", "-O"], self.SRC)
        assert out == "45\n"

    def test_syntax_only_quiet(self):
        code, out = self.run_cli(["-fsyntax-only"], self.SRC)
        assert code == 0
        assert out == ""

    def test_define_flag(self):
        src = r"""
int main(void) { printf("%d\n", VALUE); return 0; }
"""
        code, out = self.run_cli(["--run", "-D", "VALUE=33"], src)
        assert out == "33\n"

    def test_no_openmp_ignores_pragma(self):
        code, out = self.run_cli(
            ["--run", "-fno-openmp"], self.SRC
        )
        assert out == "45\n"

    def test_error_exit_code(self):
        code, _ = self.run_cli([], "int broken(void) { return x; }")
        assert code == 1
