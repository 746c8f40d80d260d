"""Shared test helpers.

``compile_c`` / ``run_c`` wrap the pipeline with test-friendly defaults;
``run_both`` executes a program under both OpenMP representations (shadow
AST and OMPCanonicalLoop/OpenMPIRBuilder) and asserts identical output —
the paper's central semantic-equivalence property.
"""

from __future__ import annotations

import os

import pytest

from repro.pipeline import CompileResult, RunResult, compile_source, run_source


@pytest.fixture(autouse=True, scope="session")
def _artifact_dirs_in_tmp(tmp_path_factory):
    """Point crash reproducers and quarantine output at a temp dir.

    ``-crash-reproducer-dir`` and ``--quarantine-dir`` default to these
    environment variables, and subprocesses spawned by tests inherit
    them — so a failing test can never strew ``miniclang-crashes/`` or
    ``service-quarantine/`` across the repository root (CI enforces a
    clean tree after the suite)."""
    base = tmp_path_factory.mktemp("artifacts")
    before = {
        key: os.environ.get(key)
        for key in ("MINICLANG_CRASH_DIR", "MINICLANG_QUARANTINE_DIR")
    }
    os.environ["MINICLANG_CRASH_DIR"] = str(base / "crashes")
    os.environ["MINICLANG_QUARANTINE_DIR"] = str(base / "quarantine")
    yield
    for key, value in before.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


@pytest.fixture(params=["interp", "closures"])
def exec_engine(request) -> str:
    """Parametrizes a test over both execution engines (the reference
    tree-walking interpreter and the closure-compiled engine); pass the
    value straight to ``run_source(..., exec_engine=...)``.  Guardrail
    and semantics tests using this fixture assert engine parity by
    construction."""
    return request.param


def compile_c(source: str, **kwargs) -> CompileResult:
    kwargs.setdefault("openmp", True)
    return compile_source(source, **kwargs)


def run_c(source: str, **kwargs) -> RunResult:
    kwargs.setdefault("openmp", True)
    kwargs.setdefault("num_threads", 4)
    return run_source(source, **kwargs)


def run_both(source: str, **kwargs) -> tuple[RunResult, RunResult]:
    """Run under the shadow-AST path and the IRBuilder path; assert the
    observable output matches."""
    legacy = run_c(source, enable_irbuilder=False, **kwargs)
    irbuilder = run_c(source, enable_irbuilder=True, **kwargs)
    assert legacy.stdout == irbuilder.stdout, (
        "representations disagree:\n"
        f"shadow AST: {legacy.stdout!r}\n"
        f"irbuilder:  {irbuilder.stdout!r}"
    )
    return legacy, irbuilder


def loop_nest_source(depth: int, extent: int, pragma: str = "") -> str:
    """A perfectly nested ``depth``-deep loop nest summing its indices
    into a ``long`` and printing the total."""
    lines = ["int main(void) {", "  long acc = 0;"]
    if pragma:
        lines.append(f"  {pragma}")
    for d in range(depth):
        lines.append(f"  for (int i{d} = 0; i{d} < {extent}; i{d} += 1)")
    body = " + ".join(f"i{d}" for d in range(depth))
    lines.append(f"    acc += {body};")
    lines.append('  printf("%d\\n", (int)acc);')
    lines.append("  return 0;")
    lines.append("}")
    return "\n".join(lines)


@pytest.fixture
def fresh_context():
    from repro.astlib.context import ASTContext

    return ASTContext()


@pytest.fixture
def diag_engine():
    from repro.diagnostics import DiagnosticsEngine

    return DiagnosticsEngine()
