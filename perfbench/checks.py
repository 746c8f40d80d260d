"""Output checks against references computed off the timed path."""

from __future__ import annotations


def ir_mismatch(actual: str, reference: str) -> str | None:
    """``None`` when the IR texts are byte-identical, else the first
    differing line."""
    if actual == reference:
        return None
    got, want = actual.splitlines(), reference.splitlines()
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"IR line {index + 1}: got {a!r}, want {b!r}"
    return f"IR length: got {len(got)} lines, want {len(want)}"


def stdout_mismatch(
    actual: str, expected: str, exit_code: int | None = 0
) -> str | None:
    if exit_code not in (0, None):
        return f"exit code {exit_code}"
    if actual != expected:
        return f"stdout {actual[:80]!r} != expected {expected[:80]!r}"
    return None


def ir_instructions(ir_text: str) -> int:
    """Instructions in printed IR: indented, non-comment lines inside a
    ``define`` body."""
    count = 0
    inside = False
    for line in ir_text.splitlines():
        if line.startswith("define "):
            inside = True
        elif line.startswith("}"):
            inside = False
        elif inside and line.startswith("  ") and not line.lstrip().startswith(";"):
            count += 1
    return count


#: retired-instruction budget of an untimed check run; a miscompiled
#: program that loops fails the check instead of hanging the benchmark
CHECK_FUEL = 5_000_000


def run_module(module, num_threads: int = 4) -> tuple[str, int]:
    """Execute a compiled module off the timed path: ``(stdout, exit
    code)``; an exhausted fuel budget reads as exit code -1."""
    from repro.exec import create_interpreter
    from repro.interp import ExecutionTimeout

    interp = create_interpreter(module)
    interp.omp.num_threads = num_threads
    try:
        code = interp.run("main", [], fuel=CHECK_FUEL)
    except ExecutionTimeout:
        code = -1
    return interp.output(), code
