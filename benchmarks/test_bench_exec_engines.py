"""Engine-racing benchmarks: interpreter vs closure-compiled engine.

The pytest-benchmark companion to ``tools/exec_bench.py``: the same
corpus shape (a loop-nest kernel and a worksharing kernel) timed per
engine with the retired-instruction count recorded in ``extra_info``.
Both engines execute identical instruction streams — the recorded
ratio is pure dispatch overhead, which is exactly what the closure
engine exists to remove (``BENCH_exec.json`` tracks the gate).
"""

import pytest

from benchmarks.conftest import (
    make_loop_nest_source,
    profiled_instruction_count,
)
from repro.exec import create_interpreter
from repro.pipeline import compile_source, run_source

pytestmark = pytest.mark.exec_differential

WORKSHARING = r"""
int main(void) {
  long sum = 0;
  #pragma omp parallel for reduction(+: sum) schedule(static) \
      num_threads(3)
  for (int i = 0; i < 600; i += 1)
    sum += i * 5 - 2;
  printf("%d\n", (int)sum);
  return 0;
}
"""


def _compiled_module(source: str):
    return compile_source(source, optimize=True).module


class TestEngineDispatchOverhead:
    @pytest.mark.parametrize("engine", ["interp", "closures"])
    def test_bench_loop_nest(self, benchmark, engine):
        module = _compiled_module(
            make_loop_nest_source(depth=2, extent=24)
        )

        def execute():
            interp = create_interpreter(module, engine=engine)
            assert interp.run("main", []) == 0
            return interp

        interp = benchmark(execute)
        benchmark.extra_info["engine"] = engine
        benchmark.extra_info["instructions"] = (
            interp.instruction_count
        )

    @pytest.mark.parametrize("engine", ["interp", "closures"])
    def test_bench_worksharing(self, benchmark, engine):
        module = _compiled_module(WORKSHARING)

        def execute():
            interp = create_interpreter(module, engine=engine)
            interp.omp.num_threads = 3
            assert interp.run("main", []) == 0
            return interp

        interp = benchmark(execute)
        benchmark.extra_info["engine"] = engine
        benchmark.extra_info["instructions"] = (
            interp.instruction_count
        )

    def test_engines_retire_identical_instruction_streams(self):
        """The precondition that makes the timing ratio meaningful."""
        source = make_loop_nest_source(depth=2, extent=16)
        a = run_source(source, exec_engine="interp")
        b = run_source(source, exec_engine="closures")
        assert a.stdout == b.stdout
        assert profiled_instruction_count(
            a
        ) == profiled_instruction_count(b)
