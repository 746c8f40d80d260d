"""Unit tests for the memoized pipeline entry point
(:func:`repro.pipeline.compile_source_cached`): the four resume levels,
byte identity against the uncached pipeline, the diagnostics replay
gate, and cold-path error handling."""

from __future__ import annotations

import pytest

from repro.cache import CompilationCache
from repro.pipeline import (
    CompilationError,
    compile_source,
    compile_source_cached,
)

PROGRAM = """\
int printf(const char *fmt, ...);
int main() {
  int sum = 0;
  #pragma omp tile sizes(3)
  for (int i = 0; i < 9; i += 1)
    sum += i;
  printf("sum=%d\\n", sum);
  return 0;
}
"""

#: nonzero integer-to-pointer initialization: compiles with a warning,
#: whose rendered caret embeds a line/column number
WARNS = """\
int main() {
  int *p = 5;
  return 0;
}
"""


def cold_ir(source: str, **kwargs) -> str:
    return compile_source(source, **kwargs).ir_text()


class TestResumeLevels:
    def test_cold_then_exact(self):
        cache = CompilationCache()
        first = compile_source_cached(PROGRAM, cache)
        assert not first.hit and first.resumed_from is None
        second = compile_source_cached(PROGRAM, cache)
        assert second.hit and second.resumed_from == "exact"
        assert second.origin == "memory"
        assert second.ir_text == first.ir_text == cold_ir(PROGRAM)

    def test_comment_edit_resumes_at_tokens(self):
        cache = CompilationCache()
        compile_source_cached(PROGRAM, cache)
        edited = "// a comment the preprocessor strips\n" + PROGRAM
        second = compile_source_cached(edited, cache)
        assert second.hit and second.resumed_from == "tokens"
        assert second.ir_text == cold_ir(PROGRAM)

    def test_optimize_flip_resumes_at_module(self):
        cache = CompilationCache()
        compile_source_cached(PROGRAM, cache)
        opt = compile_source_cached(PROGRAM, cache, optimize=True)
        assert opt.resumed_from == "module"
        assert opt.ir_text == cold_ir(PROGRAM, optimize=True)
        # and the memoized module was not corrupted by the pass
        # pipeline: the unoptimized artifact still replays bit-exact
        again = compile_source_cached(PROGRAM, cache)
        assert again.resumed_from == "exact"
        assert again.ir_text == cold_ir(PROGRAM)

    def test_optimized_repeat_is_an_exact_hit(self):
        cache = CompilationCache()
        compile_source_cached(PROGRAM, cache, optimize=True)
        again = compile_source_cached(PROGRAM, cache, optimize=True)
        assert again.hit and again.resumed_from == "exact"

    def test_mode_change_is_not_a_final_artifact_hit(self):
        cache = CompilationCache()
        compile_source_cached(PROGRAM, cache)
        other = compile_source_cached(
            PROGRAM, cache, enable_irbuilder=True
        )
        assert other.resumed_from not in ("exact", "tokens")
        assert other.ir_text == cold_ir(
            PROGRAM, enable_irbuilder=True
        )


class TestDiskTier:
    def test_exact_hit_across_cache_instances(self, tmp_path):
        d = str(tmp_path / "cache")
        warm = compile_source_cached(PROGRAM, CompilationCache(d))
        fresh = CompilationCache(d)  # new process simulation
        replay = compile_source_cached(PROGRAM, fresh)
        assert replay.hit and replay.resumed_from == "exact"
        assert replay.origin == "disk"
        assert replay.ir_text == warm.ir_text


class TestDiagnostics:
    def test_warning_replays_byte_identically(self):
        cache = CompilationCache()
        first = compile_source_cached(WARNS, cache)
        assert "integer to pointer" in first.diagnostics_text
        second = compile_source_cached(WARNS, cache)
        assert second.hit
        assert second.diagnostics_text == first.diagnostics_text

    def test_shifted_warning_is_not_replayed_with_stale_carets(self):
        """A comment edit keeps the token stream identical but moves the
        warning to another line: the artifact's rendered caret (keyed to
        the original source) must not be replayed verbatim."""
        cache = CompilationCache()
        compile_source_cached(WARNS, cache)
        shifted = "// pushes everything down one line\n" + WARNS
        second = compile_source_cached(shifted, cache)
        reference = compile_source(shifted, strict=True)
        assert (
            second.diagnostics_text == reference.diagnostics_text()
        )
        assert "3:" in second.diagnostics_text  # the *shifted* line

    def test_clean_compile_replays_across_comment_edits(self):
        cache = CompilationCache()
        compile_source_cached(PROGRAM, cache)
        second = compile_source_cached("// c\n" + PROGRAM, cache)
        assert second.resumed_from == "tokens"
        assert second.diagnostics_text == ""


class TestErrors:
    def test_errors_propagate_and_are_never_cached(self):
        cache = CompilationCache()
        bad = "int main() { return undeclared; }\n"
        with pytest.raises(CompilationError):
            compile_source_cached(bad, cache)
        assert len(cache.memory) == 0
        with pytest.raises(CompilationError):  # still a real compile
            compile_source_cached(bad, cache)

    def test_cache_does_not_change_error_text(self):
        cache = CompilationCache()
        bad = "int main() { return undeclared; }\n"
        with pytest.raises(CompilationError) as cached_exc:
            compile_source_cached(bad, cache)
        with pytest.raises(CompilationError) as cold_exc:
            compile_source(bad, strict=True)
        assert str(cached_exc.value) == str(cold_exc.value)
