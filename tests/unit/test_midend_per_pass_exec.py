"""Per-pass execution check: every mid-end pass preserves behaviour.

The ``PassInstrumentation.finish`` hook runs the whole module on the
closures engine after every pass-on-function execution of the -O1
pipeline, and compares stdout and exit code with the generator's
predicted output.  A failure names the pass and the function that
broke the program, so a miscompile is located without bisecting.
"""

from __future__ import annotations

import pytest

from repro.exec import create_interpreter
from repro.instrument.passinstrument import PassInstrumentation
from repro.midend import default_pass_pipeline
from repro.pipeline import compile_source
from repro.testing.generator import generate_program

#: generator programs: first seed and how many (a third with unroll)
GENERATOR_START = 72_000
PROGRAMS = 12


def _programs():
    quota = {True: PROGRAMS // 3, False: PROGRAMS - PROGRAMS // 3}
    out = []
    seed = GENERATOR_START
    while len(out) < PROGRAMS:
        program = generate_program(seed)
        unrolled = any("unroll" in f for f in program.features)
        if (
            sum("unroll" in p for p in program.pragmas) <= 1
            and quota[unrolled] > 0
        ):
            quota[unrolled] -= 1
            out.append(program)
        seed += 1
    return out


def run_module(module) -> tuple[int, str]:
    interp = create_interpreter(module, engine="closures")
    try:
        exit_code = interp.run("main", [])
        return exit_code, interp.output()
    finally:
        interp.memory.release()


class ExecuteAfterEachPass(PassInstrumentation):
    """Runs the module after every pass execution and records the first
    one whose output differs from *expected*."""

    def __init__(self, module, expected: tuple[int, str]) -> None:
        super().__init__()
        self.module = module
        self.expected = expected
        self.checked = 0
        self.failure: str | None = None

    def finish(self, execution, fn, changed) -> None:
        super().finish(execution, fn, changed)
        if self.failure is not None:
            return
        self.checked += 1
        got = run_module(self.module)
        if got != self.expected:
            self.failure = (
                f"after pass '{execution.pass_name}' on function "
                f"'@{execution.function}': exit/stdout {got!r}, "
                f"expected {self.expected!r}"
            )


@pytest.mark.parametrize("mode", ["shadow", "irbuilder"])
@pytest.mark.parametrize(
    "program", _programs(), ids=lambda p: f"gen-{p.seed}"
)
def test_every_pass_execution_preserves_output(program, mode):
    result = compile_source(
        program.source, enable_irbuilder=mode == "irbuilder"
    )
    expected = (0, program.expected_stdout)
    assert run_module(result.module) == expected
    check = ExecuteAfterEachPass(result.module, expected)
    default_pass_pipeline(instrument=check).run(result.module, check)
    assert check.failure is None, check.failure
    assert check.checked >= len(default_pass_pipeline().passes)
