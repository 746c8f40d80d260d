"""Every consumer over every loop transformation, in both representations.

A consuming directive (worksharing, ``simd``, ``taskloop`` or another
transformation) applies to the loop an inner transformation generates:
in the shadow AST through the inner directive's transformed statement
(paper §2), in the IRBuilder representation through the
``CanonicalLoopInfo`` it returns (paper §3.2, §4).  Each cell of the
matrix compiles one consumer over one inner transformation at O0 and
O1 in both representations and either prints what the program prints
without any pragma (the unfused value for ``fuse``) or gives the
documented diagnostic: a fully or heuristically unrolled loop leaves no
generated loop to consume.
"""

from __future__ import annotations

import pytest

from repro.pipeline import CompilationError, run_source

#: consumer spelling -> the directive name its diagnostics use
CONSUMERS = {
    "for": "for",
    "parallel for reduction(+: sum)": "parallel for",
    "simd": "simd",
    "for simd": "for simd",
    "parallel for simd reduction(+: sum)": "parallel for simd",
    "taskloop": "taskloop",
    "unroll partial(2)": "unroll",
    "tile sizes(3)": "tile",
    "reverse": "reverse",
}

LOOP = "for (int i = 0; i < 10; i++)\n    sum += i * (i + 1);"
NEST = (
    "for (int i = 0; i < 6; i++)\n"
    "    for (int j = 0; j < 5; j++)\n"
    "      sum += i * 7 + j;"
)
SEQUENCE = (
    "{\n"
    "    for (int i = 0; i < 10; i++) sum += i;\n"
    "    for (int k = 0; k < 7; k++) sum += 3 * k;\n"
    "  }"
)

#: inner transformation -> (associated statement, diagnostic or None)
INNER = {
    "unroll partial(2)": (LOOP, None),
    "tile sizes(4)": (LOOP, None),
    "reverse": (LOOP, None),
    "interchange": (NEST, None),
    "fuse": (SEQUENCE, None),
    "unroll full": (
        LOOP,
        "cannot be applied to the '#pragma omp unroll full' construct: "
        "a fully unrolled loop leaves no generated loop to associate with",
    ),
    "unroll": (
        LOOP,
        "cannot be applied to the '#pragma omp unroll' construct without "
        "a 'partial' clause",
    ),
}


def program(consumer: str, inner: str, pragmas: bool = True) -> str:
    lines = [f"  #pragma omp {consumer}", f"  #pragma omp {inner}"]
    return (
        "int printf(const char *fmt, ...);\n"
        "int main(void) {\n"
        "  int sum = 0;\n"
        + ("\n".join(lines) + "\n" if pragmas else "")
        + f"  {INNER[inner][0]}\n"
        '  printf("%d\\n", sum);\n'
        "  return 0;\n"
        "}\n"
    )


@pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
@pytest.mark.parametrize(
    "irbuilder", [False, True], ids=["shadow", "irbuilder"]
)
@pytest.mark.parametrize("inner", list(INNER))
@pytest.mark.parametrize("consumer", list(CONSUMERS))
def test_consumer_over_transformation(consumer, inner, irbuilder, optimize):
    source = program(consumer, inner)
    diagnostic = INNER[inner][1]
    if diagnostic is not None:
        with pytest.raises(CompilationError) as err:
            run_source(
                source, enable_irbuilder=irbuilder, optimize=optimize
            )
        assert not err.value.ice
        assert (
            f"error: '#pragma omp {CONSUMERS[consumer]}' {diagnostic}"
            in err.value.diagnostics_text
        )
        return
    reference = run_source(program(consumer, inner, pragmas=False))
    result = run_source(
        source, enable_irbuilder=irbuilder, optimize=optimize
    )
    assert result.stdout == reference.stdout
    assert result.exit_code == 0
