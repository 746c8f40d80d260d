"""Engine-differential integration suite.

Every program in the standing corpus (``examples/`` plus the
``tests/conformance/exec/`` cases) runs under both execution engines —
the reference tree-walking interpreter and the closure-compiled engine
— asserting byte-identical stdout, equal exit codes and equal execution
profiles (total and per-thread retired instructions, barrier/fork
accounting, detailed per-block counts).  Guardrail parity is asserted
separately: fuel exhaustion, wall-clock timeout (exit code 124 through
the CLI) and deadlock detection must classify, count and render
identically under ``-fexec=closures``.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.driver.cli import main as cli_main
from repro.driver.exitcodes import EXIT_TIMEOUT, EXIT_USER_ERROR
from repro.exec import compiler, create_interpreter, profile_fingerprint
from repro.interp.interpreter import DeadlockError, ExecutionTimeout
from repro.ir import FunctionType, IRBuilder, Module, i64
from repro.ir.values import ConstantInt
from repro.pipeline import run_source
from tests.conftest import loop_nest_source

pytestmark = pytest.mark.exec_differential

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

CORPUS = sorted(
    glob.glob(os.path.join(REPO_ROOT, "examples", "*.c"))
) + sorted(
    glob.glob(
        os.path.join(REPO_ROOT, "tests", "conformance", "exec", "*.c")
    )
)


def run_both_engines(source: str, **kwargs):
    """Run under both engines; assert the full parity contract."""
    kwargs.setdefault("num_threads", 3)
    kwargs.setdefault("profile_detail", True)
    interp = run_source(source, exec_engine="interp", **kwargs)
    closures = run_source(source, exec_engine="closures", **kwargs)
    assert closures.stdout == interp.stdout, (
        "stdout diverged between engines:\n"
        f"interp:   {interp.stdout!r}\n"
        f"closures: {closures.stdout!r}"
    )
    assert closures.exit_code == interp.exit_code
    assert closures.instruction_count == interp.instruction_count
    # The profile and the retired-instruction counter are two views
    # of the same per-thread data; a mismatch is an instrumentation bug.
    for result in (interp, closures):
        assert result.profile.total_instructions == result.instruction_count
    fp_interp = profile_fingerprint(interp.interpreter.profile)
    fp_closures = profile_fingerprint(closures.interpreter.profile)
    assert fp_closures == fp_interp, (
        "execution profiles diverged between engines"
    )
    return interp, closures


class TestCorpusParity:
    @pytest.mark.parametrize(
        "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
    )
    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    def test_program_parity(self, path, optimize):
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        run_both_engines(source, optimize=optimize)

    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    @pytest.mark.parametrize(
        "source",
        [
            loop_nest_source(depth=2, extent=16),
            r"""
            int main(void) {
              long sum = 0;
              #pragma omp parallel for reduction(+: sum) \
                  schedule(static) num_threads(3)
              for (int i = 0; i < 600; i += 1)
                sum += i * 5 - 2;
              printf("%d\n", (int)sum);
              return 0;
            }
            """,
        ],
        ids=["loop-nest", "worksharing"],
    )
    def test_dispatch_kernel_parity(self, source, optimize):
        """Both engines retire the same instruction stream on the
        exec-bench kernel shapes: the precondition that makes their
        timing ratio pure dispatch overhead."""
        interp, _ = run_both_engines(source, optimize=optimize)
        assert interp.exit_code == 0

    def test_corpus_nonempty(self):
        # the parametrization above silently collects nothing if the
        # corpus moves; pin the floor
        assert len(CORPUS) >= 10


def deep_nest_source(depth: int) -> str:
    """A perfect *depth*-deep loop nest whose every loop runs twice the
    first time it is entered: loop ``d`` counts from loop ``d - 1``'s
    index to 2, so the body runs ``depth + 1`` times, not ``2 ** depth``.
    It prints the sum of the indices over all runs and the run count."""
    names = [f"i{d}" for d in range(depth)]
    lines = ["int main(void) {", "  long sum = 0, count = 0;"]
    for d, name in enumerate(names):
        start = names[d - 1] if d else "0"
        lines.append(f"  for (int {name} = {start}; {name} < 2; {name} += 1)")
    lines.append(f"    {{ sum += {' + '.join(names)}; count += 1; }}")
    lines += ['  printf("%ld %ld\\n", sum, count);', "  return 0;", "}"]
    return "\n".join(lines)


class TestDeepLoopNest:
    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    def test_nest_deeper_than_cpython_allows_whiles(self, optimize):
        """CPython rejects a 21st statically nested ``while``/``try``,
        so the generated code runs the loops past
        ``MAX_NESTED_LOOPS`` on the block-number state of the loop
        holding them; output and detailed profile stay the reference's."""
        assert compiler.MAX_NESTED_LOOPS + 1 < 22
        interp, _ = run_both_engines(deep_nest_source(22), optimize=optimize)
        assert interp.stdout == "253 23\n"

    def test_long_chain_of_blocks(self):
        """600 blocks, each entered by one ``br`` from the one before:
        the generated code prints a block at its only edge in, and that
        nesting stays bounded however long the chain."""
        module = Module("chain")
        fn = module.add_function("main", FunctionType(i64, [i64]))
        b = IRBuilder(module)
        blocks = [fn.append_block(f"b{i}") for i in range(600)]
        x = fn.args[0]
        for i, block in enumerate(blocks):
            b.set_insert_point(block)
            x = b.add(b.mul(x, ConstantInt(i64, 3)), ConstantInt(i64, i))
            if i + 1 < len(blocks):
                b.br(blocks[i + 1])
            else:
                b.ret(x)
        seen = []
        for engine in ("interp", "closures"):
            interp = create_interpreter(
                module, engine=engine, profile_detail=True
            )
            result = interp.run("main", [1])
            seen.append((result, profile_fingerprint(interp.profile)))
        assert seen[0] == seen[1]


class TestRepresentationMatrix:
    """Both engines across both OpenMP representations."""

    SOURCE = r"""
    int main() {
      int sum = 0;
      #pragma omp parallel for reduction(+: sum) schedule(dynamic, 2)
      for (int i = 0; i < 13; i += 1)
        sum += i * 2 + 1;
      printf("sum=%d\n", sum);
      return 0;
    }
    """

    @pytest.mark.parametrize("irbuilder", [False, True])
    @pytest.mark.parametrize("optimize", [False, True])
    def test_matrix(self, irbuilder, optimize):
        interp, _ = run_both_engines(
            self.SOURCE,
            enable_irbuilder=irbuilder,
            optimize=optimize,
        )
        assert interp.stdout == "sum=169\n"


class TestGuardrailParity:
    HANG = "int main() { while (1) {} return 0; }"

    def test_fuel_exhaustion_identical(self):
        outcomes = {}
        for engine in ("interp", "closures"):
            with pytest.raises(ExecutionTimeout) as exc_info:
                run_source(self.HANG, fuel=5000, exec_engine=engine)
            snap = exc_info.value.snapshot
            outcomes[engine] = (
                str(exc_info.value),
                snap.total_instructions,
                len(snap.threads),
                snap.render(),
            )
        assert outcomes["closures"] == outcomes["interp"]

    def test_fuel_boundary_identical(self):
        """The exact fuel value at which a program flips from timeout
        to success must be the same for both engines (shared
        accounting: one unit per retired instruction)."""
        source = "int main() { return 7; }"
        for fuel in range(1, 32):
            results = []
            for engine in ("interp", "closures"):
                try:
                    r = run_source(
                        source, fuel=fuel, exec_engine=engine
                    )
                    results.append(("ok", r.exit_code))
                except ExecutionTimeout:
                    results.append(("timeout", None))
            assert results[0] == results[1], (
                f"fuel accounting diverged at fuel={fuel}: {results}"
            )

    def test_cli_fuel_exit_124(self, tmp_path, capsys):
        path = tmp_path / "hang.c"
        path.write_text(self.HANG)
        for engine in ("interp", "closures"):
            code = cli_main(
                ["--run", f"-fexec={engine}", "--fuel", "5000", str(path)]
            )
            err = capsys.readouterr().err
            assert code == EXIT_TIMEOUT
            assert "Scheduler state at abort:" in err

    def test_deadlock_detection_identical(self):
        source = r"""
        int main() {
          #pragma omp parallel num_threads(2)
          {
            if (omp_get_thread_num() == 0) {
              #pragma omp barrier
            }
          }
          return 0;
        }
        """
        messages = {}
        for engine in ("interp", "closures"):
            with pytest.raises(DeadlockError) as exc_info:
                run_source(source, exec_engine=engine)
            messages[engine] = (
                str(exc_info.value),
                exc_info.value.snapshot.total_instructions,
            )
        assert messages["closures"] == messages["interp"]

    def test_lock_deadlock_detection_identical(self):
        """Thread 0 finishes holding the critical-section lock; the
        team scheduler must prove thread 1's spin hopeless in the same
        round, after the same retired instructions, on both engines."""
        source = r"""
        void __kmpc_critical(void *loc, int gtid, int *lock);
        int lock_word[8];
        int main() {
          #pragma omp parallel num_threads(2)
          {
            __kmpc_critical(0, 0, lock_word);
          }
          return 0;
        }
        """
        messages = {}
        for engine in ("interp", "closures"):
            with pytest.raises(DeadlockError) as exc_info:
                run_source(source, exec_engine=engine)
            messages[engine] = (
                str(exc_info.value),
                exc_info.value.snapshot.total_instructions,
            )
        assert messages["closures"] == messages["interp"]
        message, retired = messages["interp"]
        assert "spins on a critical-section lock" in message
        assert retired == 7

    def test_cli_deadlock_exit_code(self, tmp_path, capsys):
        path = tmp_path / "deadlock.c"
        path.write_text(
            "int main() {\n"
            "  #pragma omp parallel num_threads(2)\n"
            "  {\n"
            "    if (omp_get_thread_num() == 0) {\n"
            "      #pragma omp barrier\n"
            "    }\n"
            "  }\n"
            "  return 0;\n"
            "}\n"
        )
        for engine in ("interp", "closures"):
            code = cli_main(["--run", f"-fexec={engine}", str(path)])
            capsys.readouterr()
            assert code == EXIT_USER_ERROR

    def test_guest_error_parity(self, exec_engine):
        """Runtime traps carry the same classification under either
        engine (parametrized by the shared conftest fixture)."""
        from repro.interp.interpreter import Trap

        source = "int main() { int x = 0; return 1 / x; }"
        with pytest.raises(Trap, match="division by zero"):
            run_source(source, exec_engine=exec_engine)

    def test_recursion_limit_parity(self, exec_engine):
        from repro.interp.interpreter import InterpreterError

        source = "int f(int n) { return f(n + 1); } int main() { return f(0); }"
        with pytest.raises(
            InterpreterError, match="guest call depth exceeded"
        ):
            run_source(source, exec_engine=exec_engine, max_call_depth=64)

    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    def test_indirect_recursion_limit_parity(self, exec_engine, optimize):
        from repro.interp.interpreter import InterpreterError

        source = (
            "int (*fp)(int);\n"
            "int f(int n) { return fp(n + 1); }\n"
            "int main() { fp = f; return f(0); }\n"
        )
        with pytest.raises(InterpreterError) as info:
            run_source(
                source, exec_engine=exec_engine, max_call_depth=64,
                optimize=optimize,
            )
        assert str(info.value) == (
            "guest call depth exceeded the limit of 64 frames while "
            "calling @f (runaway recursion?)"
        )


class TestGuestCalls:
    """Guest-to-guest calls on each engine, checked against literal
    output.  Compiling a call compiles its callee in the middle of the
    caller, so a callee's constant pool must never leak into the
    caller's: a leaked slot reads a wrong value or indexes past the
    caller's register file."""

    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    def test_global_written_in_callee(self, exec_engine, optimize):
        source = r"""
        int g = 0;
        void bump(int v) { g = g + v; }
        int main(void) {
          int x = 5;
          bump(1);
          printf("%d %d\n", x, g);
          return 0;
        }
        """
        result = run_source(
            source, exec_engine=exec_engine, optimize=optimize
        )
        assert result.stdout == "5 1\n"

    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    def test_direct_recursion(self, exec_engine, optimize):
        source = r"""
        int gcd(int a, int b) { if (b == 0) return a; return gcd(b, a % b); }
        long fact(long n) { return n <= 1 ? 1 : n * fact(n - 1); }
        int main(void) {
          long f = fact(15);
          int g = gcd(84, 36);
          printf("%d %ld\n", g, f);
          return 0;
        }
        """
        result = run_source(
            source, exec_engine=exec_engine, optimize=optimize
        )
        assert result.stdout == "12 1307674368000\n"
        assert result.exit_code == 0

    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    def test_mutual_recursion(self, exec_engine, optimize):
        source = r"""
        int is_odd(int n);
        int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
        int main(void) {
          printf("%d %d %d\n", is_even(10), is_odd(7), is_even(9));
          return 0;
        }
        """
        result = run_source(
            source, exec_engine=exec_engine, optimize=optimize
        )
        assert result.stdout == "1 1 0\n"

    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    def test_void_callee_and_callee_allocas(self, exec_engine, optimize):
        source = r"""
        int calls = 0;
        void tick(void) { calls += 1; }
        void fill(int *p, int n, int s) {
          int tmp[3];
          for (int i = 0; i < 3; i += 1) tmp[i] = s * (i + 1);
          for (int i = 0; i < n; i += 1) p[i] = tmp[i % 3] + i;
          tick();
        }
        int sum(int *p, int n) {
          int s = 0;
          for (int i = 0; i < n; i += 1) s += p[i];
          tick();
          return s;
        }
        int main(void) {
          int a[5];
          tick();
          fill(a, 5, 10);
          int s = sum(a, 5);
          printf("%d %d\n", s, calls);
          return 0;
        }
        """
        # a = {10, 21, 32, 13, 24}
        result = run_source(
            source, exec_engine=exec_engine, optimize=optimize
        )
        assert result.stdout == "100 3\n"


class TestGuestHeapRelease:
    """``execute_request`` frees each run's guest heap before it
    returns, whatever the outcome: the interpreter's reference cycles
    would otherwise keep every dead 4 MiB heap alive until a full
    garbage collection."""

    KERNEL = r"""
    int main(void) {
      long sum = 0;
      #pragma omp parallel for reduction(+: sum)
      for (int i = 0; i < 64; i += 1)
        sum += i;
      printf("%ld\n", sum);
      return 0;
    }
    """

    @pytest.mark.parametrize(
        "source, fuel, kind",
        [
            (KERNEL, None, "ok"),
            ("int main() { int x = 0; return 1 / x; }", None, "guest-error"),
            ("int main() { while (1) {} return 0; }", 5000, "timeout"),
        ],
        ids=["ok", "guest-error", "timeout"],
    )
    def test_heap_released_on_every_outcome(
        self, monkeypatch, exec_engine, source, fuel, kind
    ):
        import repro.interp.interpreter as interpreter_module
        from repro.interp.memory import Memory
        from repro.pipeline import execute_request

        heaps: list[Memory] = []

        class RecordingMemory(Memory):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                heaps.append(self)

        monkeypatch.setattr(interpreter_module, "Memory", RecordingMemory)
        outcome = execute_request(
            source, action="run", fuel=fuel, exec_engine=exec_engine
        )
        assert outcome.kind == kind
        assert len(heaps) == 1
        assert heaps[0].data.closed

    def test_traced_memory_bounded_over_back_to_back_runs(self):
        import gc
        import tracemalloc

        from repro.pipeline import execute_request

        def run() -> None:
            outcome = execute_request(
                self.KERNEL, action="run", optimize=True
            )
            assert outcome.output == "2016\n"

        run()
        gc.collect()
        heap = 1 << 22
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(50):
                run()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One live heap at a time; none survives its request.
        assert peak - base < 2 * heap
        assert current - base < heap


class TestEngineInternals:
    """Closure-engine behaviours with no interpreter counterpart."""

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            run_source("int main() { return 0; }", exec_engine="jit")

    def test_cli_rejects_unknown_engine(self, tmp_path, capsys):
        path = tmp_path / "ok.c"
        path.write_text("int main() { return 0; }")
        with pytest.raises(SystemExit):
            cli_main(["--run", "-fexec=jit", str(path)])
        capsys.readouterr()

    def test_lazy_compilation(self):
        """Only functions the program actually calls are compiled."""
        from repro.pipeline import compile_source

        source = r"""
        int used(int x) { return x + 1; }
        int unused(int x) { return x - 1; }
        int main() { return used(41) - 42; }
        """
        result = compile_source(source)
        engine = create_interpreter(result.module, engine="closures")
        assert engine.run("main", []) == 0
        compiled = {
            code.fn.name for code in engine._code.values()
        }
        assert "used" in compiled and "main" in compiled
        assert "unused" not in compiled
