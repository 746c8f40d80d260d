"""Every function's printed IR defines each ``%`` value name once.

Loop unrolling clones instructions; a clone is named like its cloned
block (the original name plus the block's suffix, such as ``.unroll1``)
and made unique in its function, so unrolled IR does not define
``%add.1`` twice.  Checked over every example and conformance input
outside ``diagnostics/``, in both representations, at O0 and O1.
"""

from __future__ import annotations

import collections
import pathlib
import re

import pytest

from repro.pipeline import compile_source

ROOT = pathlib.Path(__file__).resolve().parents[2]
INPUTS = sorted(ROOT.glob("examples/*.c")) + sorted(
    path
    for path in (ROOT / "tests" / "conformance").rglob("*.c")
    if "diagnostics" not in path.parts
)
#: the name an instruction line defines
DEFINITION = re.compile(r"^\s+%([-\w.$]+) = ", re.M)


def duplicated_names(ir: str) -> dict[str, list[str]]:
    """Function name -> value names its body defines more than once."""
    out = {}
    for chunk in ir.split("\ndefine ")[1:]:
        name = chunk.split("@", 1)[1].split("(", 1)[0]
        counts = collections.Counter(DEFINITION.findall(chunk))
        twice = sorted(k for k, v in counts.items() if v > 1)
        if twice:
            out[name] = twice
    return out


def test_inputs_are_found():
    assert len(INPUTS) >= 40


@pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
@pytest.mark.parametrize("irbuilder", [False, True], ids=["shadow", "irbuilder"])
def test_every_function_defines_each_value_name_once(optimize, irbuilder):
    seen = {}
    for path in INPUTS:
        ir = compile_source(
            path.read_text(), filename=str(path),
            enable_irbuilder=irbuilder, optimize=optimize,
        ).ir_text()
        twice = duplicated_names(ir)
        if twice:
            seen[path.name] = twice
    assert seen == {}


def test_unrolled_copies_carry_their_block_suffix():
    ir = compile_source(
        "int printf(const char *fmt, ...);\n"
        "int main(void) {\n"
        "  long acc = 0;\n"
        "  #pragma omp unroll partial(4)\n"
        "  for (int i = 0; i < 23; i += 1)\n"
        "    acc += i * 6 - 4;\n"
        "  printf(\"%d\\n\", (int)acc);\n"
        "  return 0;\n"
        "}\n",
        optimize=True,
    ).ir_text()
    assert duplicated_names(ir) == {}
    assert "%add.1.unroll1 = add i64 %add.1, %conv.unroll1" in ir
