"""The staged compile driver (:mod:`repro.pipeline`): one stage
sequence behind ``compile_source``, ``compile_source_cached``,
``run_source`` and the CLI — a cold cached miss preprocesses once,
every ``-O`` path runs the same mid-end+verify stage, and LoopUnroll
clones loop nests with their phis remapped."""

from __future__ import annotations

import pytest

from repro.cache import CompilationCache
from repro.driver.cli import main
from repro.driver.exitcodes import EXIT_ICE
from repro.midend.dce import DeadCodeEliminationPass
from repro.pipeline import (
    CompilationError,
    compile_source,
    compile_source_cached,
    run_source,
)
from repro.preprocessor import Preprocessor

PROGRAM = """\
int printf(const char *fmt, ...);
int main() {
  int sum = 0;
  #pragma omp unroll partial(2)
  #pragma omp tile sizes(3)
  for (int i = 0; i < 17; i += 1)
    sum += i;
  printf("after %d\\n", sum);
  return 0;
}
"""

WARNS = """\
int main() {
  int *p = 5;
  return 0;
}
"""

#: four errors: with -ferror-limit=2 the third becomes the fatal note
ERRORS = """\
int main() {
  return a + b + c + d;
}
"""


@pytest.fixture
def lex_calls(monkeypatch):
    calls = []
    original = Preprocessor.lex_all

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Preprocessor, "lex_all", counting)
    return calls


class TestColdMiss:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_preprocesses_once(self, lex_calls, optimize):
        cc = compile_source_cached(
            PROGRAM, CompilationCache(), optimize=optimize
        )
        assert cc.resumed_from is None
        assert len(lex_calls) == 1

    def test_warnings_match_the_uncached_compile(self):
        cc = compile_source_cached(WARNS, CompilationCache())
        assert "warning" in cc.diagnostics_text
        assert cc.diagnostics_text == (
            compile_source(WARNS).diagnostics_text()
        )

    @pytest.mark.parametrize("error_limit", [0, 2])
    def test_errors_match_the_uncached_compile(self, error_limit):
        with pytest.raises(CompilationError) as cached:
            compile_source_cached(
                ERRORS, CompilationCache(), error_limit=error_limit
            )
        with pytest.raises(CompilationError) as cold:
            compile_source(ERRORS, error_limit=error_limit)
        assert str(cached.value) == str(cold.value)
        fatal = "too many errors emitted" in str(cold.value)
        assert fatal == bool(error_limit)

    def test_preprocessor_warning_is_never_replayed_away(self):
        """A ``#warning`` leaves no token behind, so a token-stream hit
        on a clean artifact would drop it."""
        cache = CompilationCache()
        compile_source_cached(PROGRAM, cache)
        warned = "#warning heads up\n" + PROGRAM
        for _ in range(2):
            cc = compile_source_cached(warned, cache)
            assert cc.resumed_from is None
            assert cc.diagnostics_text == (
                compile_source(warned).diagnostics_text()
            )


class TestMidendStage:
    def test_optimize_matches_the_cached_driver(self):
        for irbuilder in (False, True):
            result = compile_source(
                PROGRAM, enable_irbuilder=irbuilder, optimize=True
            )
            cc = compile_source_cached(
                PROGRAM,
                CompilationCache(),
                enable_irbuilder=irbuilder,
                optimize=True,
            )
            assert result.ir_text() == cc.ir_text
            assert result.ir_text() != compile_source(
                PROGRAM, enable_irbuilder=irbuilder
            ).ir_text()

    def test_stats_cover_the_midend(self):
        stats = compile_source(PROGRAM, optimize=True).stats
        assert any(name.startswith("loop-unroll.") for name in stats)
        assert not any(
            name.startswith("loop-unroll.")
            for name in compile_source(PROGRAM).stats
        )

    @pytest.mark.parametrize("irbuilder", [False, True])
    def test_unroll_over_tile_runs_correctly(self, irbuilder):
        out = run_source(
            PROGRAM, enable_irbuilder=irbuilder, optimize=True
        )
        assert out.stdout == "after 136\n"


class TestCliVerifiesAfterMidend:
    @pytest.fixture
    def broken_dce(self, monkeypatch):
        original = DeadCodeEliminationPass.run_on_function

        def drop_terminator(self, fn):
            original(self, fn)
            if fn.name == "main":
                fn.blocks[-1].instructions.pop()
            return True

        monkeypatch.setattr(
            DeadCodeEliminationPass, "run_on_function", drop_terminator
        )

    @pytest.mark.parametrize(
        "flags", [["-O"], ["-O", "--run"], ["-O", "-emit-llvm"]]
    )
    def test_invalid_pass_output_is_an_ice(
        self, tmp_path, capsys, broken_dce, flags
    ):
        path = tmp_path / "prog.c"
        path.write_text(PROGRAM)
        assert main([*flags, str(path)]) == EXIT_ICE
        assert "define" not in capsys.readouterr().out
