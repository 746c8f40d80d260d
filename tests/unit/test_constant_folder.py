"""The one constant folder behind the IRBuilder and ``constant-fold``.

For every op, predicate and cast the folder handles, at i1/i8/i32/i64,
f32 and f64, over edge values (0, +-1, min and max, +-0.0, inf, nan):

* (a) the IRBuilder's folded constant is what both engines compute for
  the same instruction built with folding off;
* (b) ``ConstantFoldPass`` folds that instruction to the same constant;
* (c) a fold whose run-time evaluation fails is declined, so the
  instruction stays: division by zero, ``fdiv`` by +-0.0 and ``fptosi``
  of inf or NaN;
* (d) ``(int)(1e308 * 10.0)`` compiles in both representations at O0
  and O1.

The tests use only the IRBuilder and the pass, not the folder's own
functions, so they run against any tree.
"""

from __future__ import annotations

import itertools
import math
import struct

import pytest

from repro.exec import create_interpreter
from repro.interp import Trap
from repro.ir import (
    ConstantFP,
    ConstantInt,
    FunctionType,
    IRBuilder,
    Module,
    double_t,
    float_t,
    i1,
    i8,
    i32,
    i64,
)
from repro.ir.instructions import BinOp, CastOp, ICmpPred, Instruction
from repro.ir.values import Constant
from repro.midend import ConstantFoldPass
from repro.pipeline import compile_source

pytestmark = pytest.mark.exec_differential

INT_TYPES = (i1, i8, i32, i64)
FLOAT_TYPES = (float_t, double_t)
INT_BINOPS = (
    BinOp.ADD, BinOp.SUB, BinOp.MUL, BinOp.AND, BinOp.OR, BinOp.XOR,
    BinOp.SHL, BinOp.LSHR, BinOp.ASHR,
    BinOp.UDIV, BinOp.SDIV, BinOp.UREM, BinOp.SREM,
)
FLOAT_BINOPS = (BinOp.FADD, BinOp.FSUB, BinOp.FMUL, BinOp.FDIV)
FLT_MAX = struct.unpack("<f", b"\xff\xff\x7f\x7f")[0]


def int_edges(ty) -> list[ConstantInt]:
    """0, 1, -1, the signed minimum and maximum of *ty*."""
    half = 1 << (ty.bits - 1)
    values = {0, 1, ty.mask, half, half - 1}
    return [ConstantInt(ty, v) for v in sorted(values)]


def float_edges(ty) -> list[ConstantFP]:
    top = FLT_MAX if ty.bits == 32 else 1.7976931348623157e308
    values = [0.0, -0.0, 1.0, -1.0, top, -top, math.inf, -math.inf, math.nan]
    return [ConstantFP(ty, v) for v in values]


def must_decline(op, operands) -> bool:
    """Whether evaluating *op* over *operands* fails at run time, or
    (``fdiv`` by zero) has no fold that Python computes."""
    if op in (BinOp.UDIV, BinOp.SDIV, BinOp.UREM, BinOp.SREM):
        return operands[1].value == 0
    if op == BinOp.FDIV:
        return operands[1].value == 0.0
    if op == CastOp.FPTOSI:
        return not math.isfinite(operands[0].value)
    return False


class Group:
    """Cases of one op over one type: ``emit(b, operands)`` builds the
    instruction through IRBuilder *b*, returning ``ret_type``."""

    def __init__(self, name, op, ret_type, emit, operand_lists):
        self.name = name
        self.op = op
        self.ret_type = ret_type
        self.emit = emit
        self.operand_lists = operand_lists

    def build(self, folding: bool):
        """A module of one function per case, each returning its
        instruction, and what the builder returned for each case."""
        module = Module(self.name)
        b = IRBuilder(module)
        b.folding_enabled = folding
        built = []
        for k, operands in enumerate(self.operand_lists):
            fn = module.add_function(f"f{k}", FunctionType(self.ret_type, []))
            b.set_insert_point(fn.append_block("entry"))
            value = self.emit(b, operands)
            b.ret(value)
            built.append(value)
        return module, built


def _binop_group(op, ty, edges):
    return Group(
        f"{op.value}-{ty}", op, ty,
        lambda b, xs, op=op: b.binop(op, xs[0], xs[1]),
        list(itertools.product(edges, edges)),
    )


def _cast_group(op, src, dst):
    edges = int_edges(src) if src in INT_TYPES else float_edges(src)
    return Group(
        f"{op.value}-{src}-{dst}", op, dst,
        lambda b, xs, op=op, dst=dst: b.cast(op, xs[0], dst),
        [(x,) for x in edges],
    )


GROUPS: list[Group] = []
for _ty in INT_TYPES:
    for _op in INT_BINOPS:
        GROUPS.append(_binop_group(_op, _ty, int_edges(_ty)))
    for _pred in ICmpPred:
        GROUPS.append(
            Group(
                f"icmp-{_pred.value}-{_ty}", _pred, i1,
                lambda b, xs, p=_pred: b.icmp(p, xs[0], xs[1]),
                list(itertools.product(int_edges(_ty), repeat=2)),
            )
        )
for _ty in FLOAT_TYPES:
    for _op in FLOAT_BINOPS:
        GROUPS.append(_binop_group(_op, _ty, float_edges(_ty)))
for _op, _src, _dst in [
    (CastOp.TRUNC, i64, i32),
    (CastOp.TRUNC, i32, i8),
    (CastOp.TRUNC, i8, i1),
    (CastOp.ZEXT, i1, i32),
    (CastOp.ZEXT, i8, i32),
    (CastOp.ZEXT, i32, i64),
    (CastOp.SEXT, i1, i8),
    (CastOp.SEXT, i8, i32),
    (CastOp.SEXT, i32, i64),
    *[
        (_kind, _src, _dst)
        for _kind in (CastOp.SITOFP, CastOp.UITOFP)
        for _src in INT_TYPES
        for _dst in FLOAT_TYPES
    ],
    (CastOp.FPEXT, float_t, double_t),
    (CastOp.FPTRUNC, double_t, float_t),
    *[
        (CastOp.FPTOSI, _src, _dst)
        for _src in FLOAT_TYPES
        for _dst in (i8, i32, i64)
    ],
]:
    GROUPS.append(_cast_group(_op, _src, _dst))
GROUPS.append(
    Group(
        "select", "select", i32,
        lambda b, xs: b.select(xs[0], xs[1], xs[2]),
        [
            (ConstantInt(i1, c), ConstantInt(i32, 7), ConstantInt(i32, -9))
            for c in (0, 1)
        ],
    )
)


def key(value):
    """A comparable form of a run's result or a constant: floats by bit
    pattern (so -0.0 differs from 0.0), any NaN as one key."""
    if isinstance(value, Constant):
        value = value.value
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return value


def run(interp, name):
    try:
        return interp.run(name, [])
    except Trap as exc:
        return ("trap", str(exc))


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_builder_fold_matches_engines_and_pass(group):
    _, folded = group.build(folding=True)
    module, _ = group.build(folding=False)
    engines = [
        create_interpreter(module, engine=engine)
        for engine in ("interp", "closures")
    ]
    for k, operands in enumerate(group.operand_lists):
        label = f"{group.name} {[key(x) for x in operands]}"
        results = [run(interp, f"f{k}") for interp in engines]
        assert results[0] == results[1] or key(results[0]) == key(
            results[1]
        ), label
        declined = isinstance(folded[k], Instruction)
        # (c) a fold that fails at run time stays an instruction
        assert declined == must_decline(group.op, operands), label
        if not declined:
            # (a) the builder's constant is what the engines compute
            assert key(folded[k]) == key(results[0]), label

    # (b) the pass folds each instruction to the builder's constant
    module, _ = group.build(folding=False)
    for k, fn in enumerate(module.functions.values()):
        ConstantFoldPass().run_on_function(fn)
        returned = fn.entry_block.terminator.value
        label = f"{group.name} {[key(x) for x in group.operand_lists[k]]}"
        if isinstance(folded[k], Instruction):
            assert isinstance(returned, Instruction), label
        else:
            assert isinstance(returned, Constant), label
            assert returned.type is folded[k].type, label
            assert key(returned) == key(folded[k]), label


OVERFLOWING_CAST = """
int printf(const char *fmt, ...);
int main(void) {
  int x = (int)(1e308 * 10.0);
  printf("%d\\n", x);
  return 0;
}
"""


@pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
@pytest.mark.parametrize(
    "irbuilder", [False, True], ids=["shadow", "irbuilder"]
)
def test_constant_fptosi_of_inf_compiles(optimize, irbuilder):
    # (d) the fold is declined, so the cast reaches the IR
    result = compile_source(
        OVERFLOWING_CAST, optimize=optimize, enable_irbuilder=irbuilder
    )
    assert "fptosi double 0x7FF0000000000000 to i32" in result.ir_text()
