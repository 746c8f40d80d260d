"""Property-based engine equivalence.

Two properties back the closure engine:

* **No divergence** — programs drawn from the fuzzer's generator (the
  same distribution the 200-seed campaign samples),
  hypothesis-generated loop nests and programs calling guest helper
  functions never produce different stdout, exit codes or execution
  profiles across engines.
* **Deterministic compilation** — compiling the same IR twice yields
  the same dispatch table (the closure engine's analogue of
  reproducible codegen), rendered via ``describe_code()`` which is
  name/slot-based and free of object identities.

Seeds are fixed (``derandomize=True``) so CI failures reproduce
locally.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import create_interpreter, profile_fingerprint
from repro.pipeline import compile_source, run_source
from repro.testing.generator import generate_program

pytestmark = pytest.mark.exec_differential

FIXED = settings(max_examples=12, deadline=None, derandomize=True)


def assert_engines_agree(source: str, num_threads: int = 3, **kwargs):
    """Run *source* on both engines, assert equal stdout, exit code and
    profile, and return the reference run."""
    interp = run_source(
        source,
        num_threads=num_threads,
        profile_detail=True,
        exec_engine="interp",
        **kwargs,
    )
    closures = run_source(
        source,
        num_threads=num_threads,
        profile_detail=True,
        exec_engine="closures",
        **kwargs,
    )
    assert closures.stdout == interp.stdout
    assert closures.exit_code == interp.exit_code
    assert profile_fingerprint(
        closures.interpreter.profile
    ) == profile_fingerprint(interp.interpreter.profile)
    return interp


class TestGeneratedProgramsNeverDiverge:
    @FIXED
    @given(seed=st.integers(min_value=1, max_value=100_000))
    def test_generator_corpus(self, seed):
        program = generate_program(seed)
        stdout = assert_engines_agree(program.source).stdout
        if program.expected_stdout is not None:
            assert stdout == program.expected_stdout

    @FIXED
    @given(
        n=st.integers(min_value=0, max_value=9),
        m=st.integers(min_value=1, max_value=6),
        tile=st.integers(min_value=1, max_value=4),
        factor=st.integers(min_value=1, max_value=4),
    )
    def test_transformed_nests(self, n, m, tile, factor):
        src = rf"""
int main(void) {{
  long acc = 0;
  #pragma omp tile sizes({tile}, {tile})
  for (int i = 0; i < {n}; i += 1)
    for (int j = 0; j < {m}; j += 1)
      acc += i * 17 + j;
  #pragma omp unroll partial({factor})
  for (int k = 0; k < {n + m}; k += 1)
    acc -= k;
  printf("%d\n", (int)acc);
  return 0;
}}
"""
        assert_engines_agree(src)

    @FIXED
    @given(
        n=st.integers(min_value=0, max_value=16),
        chunk=st.integers(min_value=1, max_value=5),
        threads=st.integers(min_value=1, max_value=4),
    )
    def test_worksharing_interleaving(self, n, chunk, threads):
        """Dynamic scheduling makes printf order a function of the
        exact round-robin interleaving — the sharpest observable
        surface of scheduler parity."""
        src = rf"""
int main(void) {{
  #pragma omp parallel for schedule(dynamic, {chunk}) \
      num_threads({threads})
  for (int i = 0; i < {n}; i += 1)
    printf("%d:%d ", omp_get_thread_num(), i);
  printf("\n");
  return 0;
}}
"""
        assert_engines_agree(src, num_threads=threads)


class TestGuestCallProgramsNeverDiverge:
    """The fuzzer's generator never emits a call to a guest function,
    so this property covers what it cannot: helper functions with
    direct and mutual recursion, a global mutated in the callee,
    pointer arguments and callee stack arrays, optionally called from
    a thread team.  Both engines must agree with each other and with a
    Python model of the program."""

    @FIXED
    @given(
        g0=st.integers(min_value=0, max_value=50),
        c=st.integers(min_value=1, max_value=9),
        a=st.integers(min_value=1, max_value=9),
        depth=st.integers(min_value=0, max_value=10),
        n=st.integers(min_value=1, max_value=12),
        s=st.integers(min_value=-5, max_value=20),
        e=st.integers(min_value=0, max_value=15),
        m=st.integers(min_value=0, max_value=9),
        parallel=st.booleans(),
        optimize=st.booleans(),
    )
    def test_helper_functions(
        self, g0, c, a, depth, n, s, e, m, parallel, optimize
    ):
        pragma = (
            "#pragma omp parallel for reduction(+: par)" if parallel else ""
        )
        src = rf"""
int g = {g0};
int calls = 0;
void bump(int v) {{ g = (g * {c} + v) % 1000; calls += 1; }}
int rec(int n, int acc) {{
  bump(n);
  if (n <= 0) return acc;
  return rec(n - 1, (acc * {a} + n) % 997);
}}
int is_odd(int n);
int is_even(int n) {{ if (n == 0) return 1; return is_odd(n - 1); }}
int is_odd(int n) {{ if (n == 0) return 0; return is_even(n - 1); }}
void fill(int *p, int n, int s) {{
  int tmp[4];
  for (int i = 0; i < 4; i += 1) tmp[i] = s + i;
  for (int i = 0; i < n; i += 1) p[i] = tmp[i % 4] * (i + 1);
}}
int total(int *p, int n) {{
  int t = 0;
  for (int i = 0; i < n; i += 1) t += p[i];
  return t;
}}
int sq(int x) {{ return x * x; }}
int main(void) {{
  int buf[{n}];
  fill(buf, {n}, {s});
  int r = rec({depth}, 1);
  int t = total(buf, {n});
  int par = 0;
  {pragma}
  for (int i = 0; i < {m}; i += 1)
    par += sq(i);
  printf("%d %d %d %d %d %d\n", r, g, calls, t, is_even({e}), par);
  return r % 7;
}}
"""
        g, calls, acc = g0, 0, 1
        for k in range(depth, -1, -1):
            g, calls = (g * c + k) % 1000, calls + 1
            if k > 0:
                acc = (acc * a + k) % 997
        t = sum((s + i % 4) * (i + 1) for i in range(n))
        par = sum(i * i for i in range(m))
        expected = f"{acc} {g} {calls} {t} {int(e % 2 == 0)} {par}\n"

        result = assert_engines_agree(src, optimize=optimize)
        assert result.stdout == expected
        assert result.exit_code == acc % 7


class TestClosureCompilationDeterministic:
    SOURCE = r"""
    int helper(int x) { return x * 3 - 1; }
    int main() {
      long acc = 0;
      #pragma omp tile sizes(3)
      for (int i = 0; i < 11; i += 1)
        acc += helper(i);
      printf("%d\n", (int)acc);
      return 0;
    }
    """

    def _dispatch_table(self) -> str:
        result = compile_source(self.SOURCE)
        engine = create_interpreter(result.module, engine="closures")
        return engine.describe_code()

    def test_same_ir_same_dispatch_table(self):
        """Same source -> same IR -> byte-identical dispatch table,
        across independent compiler/engine instances."""
        assert self._dispatch_table() == self._dispatch_table()

    def test_dispatch_table_is_slot_based(self):
        """The rendering must not leak object identities (id()s,
        addresses) — that is what makes the determinism assertion
        meaningful."""
        table = self._dispatch_table()
        assert "0x" not in table
        assert "function @main" in table
        assert "function @helper" in table

    @FIXED
    @given(seed=st.integers(min_value=1, max_value=10_000))
    def test_generated_programs_deterministic(self, seed):
        source = generate_program(seed).source

        def table() -> str:
            result = compile_source(source)
            engine = create_interpreter(
                result.module, engine="closures"
            )
            return engine.describe_code()

        assert table() == table()

    def test_compilation_is_lazy_but_table_is_total(self):
        """describe_code() compiles every defined function (the
        determinism artifact is total) even though execution alone
        compiles only what it calls."""
        result = compile_source(self.SOURCE)
        engine = create_interpreter(result.module, engine="closures")
        table = engine.describe_code()
        assert table.count("function @") >= 2
