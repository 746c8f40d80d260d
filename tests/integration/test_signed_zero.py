"""Floating-point zero keeps its sign end to end.

* The closure engine's constant pool keeps ``0.0`` and ``-0.0`` apart:
  a function holding both reads each one back, as the reference
  interpreter does.
* CodeGen negates a float as ``fsub -0.0, x``, so ``-y`` of a zero
  ``y`` is ``-0.0`` (``fsub 0.0, x`` gives ``+0.0``), matching GCC.
"""

from __future__ import annotations

import math

import pytest

from repro.exec import create_interpreter
from repro.ir import FunctionType, IRBuilder, Module, double_t
from repro.ir.instructions import BinaryInst, BinOp
from repro.ir.values import ConstantFP
from repro.pipeline import run_source

pytestmark = pytest.mark.exec_differential


def both_zeros_module() -> Module:
    """``g(y)`` computes ``y * 0.0`` and returns ``y * -0.0``."""
    module = Module("zeros")
    fn = module.add_function("g", FunctionType(double_t, [double_t]))
    b = IRBuilder(module)
    b.folding_enabled = False
    b.set_insert_point(fn.append_block("entry"))
    y = fn.args[0]
    b._insert(BinaryInst(BinOp.FMUL, y, ConstantFP(double_t, 0.0), "z"))
    product = BinaryInst(BinOp.FMUL, y, ConstantFP(double_t, -0.0), "r")
    b.ret(b._insert(product))
    return module


@pytest.mark.parametrize("engine", ["interp", "closures"])
def test_constant_pool_keeps_both_zeros(engine):
    interp = create_interpreter(both_zeros_module(), engine=engine)
    result = interp.run("g", [1.0])
    assert result == 0.0 and math.copysign(1.0, result) == -1.0


NEGATION = """
int printf(const char *fmt, ...);
int main(void) {
  double y = 0.0;
  float f = 0.0f;
  printf("%f %f %f\\n", -y, 1.0 * -0.0, (double)-f);
  return 0;
}
"""


@pytest.mark.parametrize("engine", ["interp", "closures"])
@pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
@pytest.mark.parametrize(
    "irbuilder", [False, True], ids=["shadow", "irbuilder"]
)
def test_float_negation_of_zero_is_negative_zero(engine, optimize, irbuilder):
    result = run_source(
        NEGATION,
        optimize=optimize,
        enable_irbuilder=irbuilder,
        exec_engine=engine,
    )
    assert result.exit_code == 0
    assert result.stdout == "-0.000000 -0.000000 -0.000000\n"
