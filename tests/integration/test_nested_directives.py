"""Directives nested in the body of a transformed loop (shadow AST).

A shadow-AST transformation copies its loop body with a fresh loop
variable (paper §2).  A directive inside that body is rebuilt through
Sema on the copy, as Clang's ``TreeTransform`` rebuilds an
``OMPExecutableDirective``; sharing the original's Sema-built children
made them read the replaced variable, which nothing assigns, and every
shape below printed a wrong value with exit 0.

Each shape runs in both representations, at O0 and O1, on both
execution engines, and must print what the program prints without any
pragma.  Under the OpenMPIRBuilder a directive nested in a body is
transformed while the enclosing body is still being emitted; the
replaced loops' abandoned blocks are deleted, but never the enclosing
construct's latch or ``for.inc``, which has no predecessor yet.
"""

from __future__ import annotations

import pytest

from repro.instrument.remarks import RemarkKind
from repro.pipeline import compile_source, run_source

BODY = "sum += i * j;"

#: name -> (loop nest with pragmas, expected output)
SHAPES = {
    # The first shapes found miscompiled: i < 16, j < 8.
    "tile-i-unroll-partial-j": (
        "#pragma omp tile sizes(4)\n"
        "for (int i = 0; i < 16; i++) {\n"
        "  #pragma omp unroll partial(2)\n"
        f"  for (int j = 0; j < 8; j++) {BODY}\n"
        "}",
        3360,
    ),
    "unroll-partial-i-unroll-partial-j": (
        "#pragma omp unroll partial(2)\n"
        "for (int i = 0; i < 16; i++) {\n"
        "  #pragma omp unroll partial(2)\n"
        f"  for (int j = 0; j < 8; j++) {BODY}\n"
        "}",
        3360,
    ),
    "tile-i-tile-j": (
        "#pragma omp tile sizes(4)\n"
        "for (int i = 0; i < 16; i++) {\n"
        "  #pragma omp tile sizes(2)\n"
        f"  for (int j = 0; j < 8; j++) {BODY}\n"
        "}",
        3360,
    ),
    "tile-i-unroll-full-j": (
        "#pragma omp tile sizes(4)\n"
        "for (int i = 0; i < 16; i++) {\n"
        "  #pragma omp unroll full\n"
        f"  for (int j = 0; j < 8; j++) {BODY}\n"
        "}",
        3360,
    ),
    "tile-i-if-unroll-partial-j": (
        "#pragma omp tile sizes(4)\n"
        "for (int i = 0; i < 16; i++) {\n"
        "  if (i > 3) {\n"
        "    #pragma omp unroll partial(2)\n"
        f"    for (int j = 0; j < 8; j++) {BODY}\n"
        "  }\n"
        "}",
        3192,
    ),
    "for-i-unroll-partial-j": (
        "for (int i = 0; i < 16; i++) {\n"
        "  #pragma omp unroll partial(2)\n"
        f"  for (int j = 0; j < 8; j++) {BODY}\n"
        "}",
        3360,
    ),
    "for-i-tile-j": (
        "for (int i = 0; i < 16; i++) {\n"
        "  #pragma omp tile sizes(4)\n"
        f"  for (int j = 0; j < 8; j++) {BODY}\n"
        "}",
        3360,
    ),
    "parallel-for-i-unroll-partial-j": (
        "#pragma omp parallel for reduction(+: sum)\n"
        "for (int i = 0; i < 16; i++) {\n"
        "  #pragma omp unroll partial(2)\n"
        f"  for (int j = 0; j < 8; j++) {BODY}\n"
        "}",
        3360,
    ),
    # More shapes: inner bounds that read the replaced variable,
    # a consumed transformation's pre-inits, a clause naming a variable
    # of the copied body, captures of an outlined region, sequences,
    # permuted nests and three levels.
    "tile-i-simd-j-below-i": (
        "#pragma omp tile sizes(4)\n"
        "for (int i = 0; i < 16; i++) {\n"
        "  #pragma omp simd\n"
        "  for (int j = 0; j < i; j++) sum += j;\n"
        "}",
        560,
    ),
    "tile-i-simd-over-tile-j": (
        "#pragma omp tile sizes(4)\n"
        "for (int i = 0; i < 16; i++) {\n"
        "  #pragma omp simd\n"
        "  #pragma omp tile sizes(3)\n"
        f"  for (int j = 0; j < i; j++) {BODY}\n"
        "}",
        6580,
    ),
    "tile-i-simd-reduction-of-body-local": (
        "#pragma omp tile sizes(4)\n"
        "for (int i = 0; i < 16; i++) {\n"
        "  int t = 0;\n"
        "  #pragma omp simd reduction(+: t)\n"
        "  for (int j = 0; j < 8; j++) t += i * j;\n"
        "  sum += t;\n"
        "}",
        3360,
    ),
    "tile-i-parallel-critical": (
        "#pragma omp tile sizes(4)\n"
        "for (int i = 0; i < 16; i++) {\n"
        "  #pragma omp parallel num_threads(1)\n"
        "  {\n"
        "    #pragma omp critical\n"
        "    sum += i;\n"
        "  }\n"
        "}",
        120,
    ),
    "fuse-unroll-partial-inner": (
        "#pragma omp fuse\n"
        "{\n"
        "  for (int i = 0; i < 16; i++) {\n"
        "    #pragma omp unroll partial(3)\n"
        f"    for (int j = 0; j < 8; j++) {BODY}\n"
        "  }\n"
        "  for (int k = 0; k < 5; k++) sum += k;\n"
        "}",
        3370,
    ),
    "interchange-reverse-inner": (
        "#pragma omp interchange\n"
        "for (int i = 0; i < 6; i++)\n"
        "  for (int k = 0; k < 5; k++) {\n"
        "    #pragma omp reverse\n"
        "    for (int j = 0; j < 4; j++) sum += i * 100 + k * 10 + j * i;\n"
        "  }",
        32850,
    ),
    "three-levels": (
        "#pragma omp unroll partial(2)\n"
        "for (int i = 0; i < 7; i++) {\n"
        "  #pragma omp tile sizes(2)\n"
        "  for (int j = 0; j < 5; j++) {\n"
        "    #pragma omp unroll partial(2)\n"
        "    for (int k = 0; k < i; k++) sum += i * j + k;\n"
        "  }\n"
        "}",
        1085,
    ),
}


def program(nest: str) -> str:
    body = "\n".join("  " + line for line in nest.splitlines())
    return (
        "int printf(const char *fmt, ...);\n"
        "int main(void) {\n"
        "  int sum = 0;\n"
        f"{body}\n"
        '  printf("%d\\n", sum);\n'
        "  return 0;\n"
        "}\n"
    )


def strip_pragmas(source: str) -> str:
    return "\n".join(
        line for line in source.splitlines() if "#pragma" not in line
    )


@pytest.mark.parametrize("engine", ["closures", "interp"])
@pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
@pytest.mark.parametrize(
    "enable_irbuilder", [False, True], ids=["shadow", "irbuilder"]
)
@pytest.mark.parametrize("shape", list(SHAPES))
def test_nested_directive_prints_reference(
    shape, enable_irbuilder, optimize, engine
):
    nest, expected = SHAPES[shape]
    source = program(nest)
    assert run_source(strip_pragmas(source)).stdout == f"{expected}\n"
    result = run_source(
        source,
        optimize=optimize,
        exec_engine=engine,
        enable_irbuilder=enable_irbuilder,
    )
    assert result.stdout == f"{expected}\n"
    assert result.exit_code == 0


def test_rebuild_reports_nothing_twice():
    """The nested directive's remark and the outer one's appear once
    each, and the rebuild adds no diagnostic."""
    result = compile_source(program(SHAPES["tile-i-unroll-partial-j"][0]))
    assert result.diagnostics_text() == ""
    passed = [
        r.message for r in result.remarks if r.kind == RemarkKind.PASSED
    ]
    assert passed == [
        "unrolled loop by a factor of 2 (shadow-AST strip-mine; body "
        "duplication deferred to the mid-end)",
        "tiled loop nest of depth 1 with sizes (4)",
    ]
