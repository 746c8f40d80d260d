"""The IRBuilder (paper §1.3).

Offers convenience functions to create any instruction, inserts them after
the previously inserted instruction, and simplifies expressions on the fly
— constant folding "avoids creating instructions that would later be
optimized away anyway".  The OpenMPIRBuilder (:mod:`repro.ompirbuilder`)
builds on top of it.  The constant folder it folds with (``fold_*``, at
the end of this module) is also the mid-end ``constant-fold`` pass's.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Optional, Sequence

from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BinOp,
    BranchInst,
    CallInst,
    CastInst,
    CastOp,
    CondBranchInst,
    FCmpInst,
    FCmpPred,
    GEPInst,
    ICmpInst,
    ICmpPred,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import (
    FloatType,
    IntType,
    IRType,
    i1,
    void_t,
)
from repro.ir.values import (
    Constant,
    ConstantFP,
    ConstantInt,
    UndefValue,
    Value,
)


class InsertPoint:
    """A (block, index) position; index == len(instructions) is 'end'."""

    def __init__(self, block: BasicBlock | None, index: int = -1) -> None:
        self.block = block
        self.index = index

    @classmethod
    def at_end(cls, block: BasicBlock) -> "InsertPoint":
        return cls(block, len(block.instructions))


class IRBuilder:
    def __init__(self, module: Module) -> None:
        self.module = module
        self._block: BasicBlock | None = None
        self._index = 0
        #: optional hook invoked on every inserted instruction (clang's
        #: IRBuilder "offers a callback interface that can make
        #: modifications on just inserted instructions")
        self.insertion_callback: Optional[
            Callable[[Instruction], None]
        ] = None
        self.folding_enabled = True

    # ==================================================================
    # Insertion point management
    # ==================================================================
    def set_insert_point(
        self, block: BasicBlock, index: int | None = None
    ) -> None:
        self._block = block
        self._index = (
            len(block.instructions) if index is None else index
        )

    def set_insert_point_before(self, inst: Instruction) -> None:
        assert inst.parent is not None
        self._block = inst.parent
        self._index = inst.parent.instructions.index(inst)

    def save_ip(self) -> InsertPoint:
        return InsertPoint(self._block, self._index)

    def restore_ip(self, ip: InsertPoint) -> None:
        self._block = ip.block
        self._index = ip.index

    @property
    def insert_block(self) -> BasicBlock | None:
        return self._block

    @property
    def current_function(self) -> Function | None:
        return self._block.parent if self._block is not None else None

    def _insert(self, inst: Instruction) -> Instruction:
        assert self._block is not None, "no insertion point set"
        name_base = inst.name
        if name_base and self._block.parent is not None:
            inst.name = self._block.parent.unique_name(name_base)
        self._block.insert(self._index, inst)
        self._index += 1
        if self.insertion_callback is not None:
            self.insertion_callback(inst)
        return inst

    # ==================================================================
    # Constants
    # ==================================================================
    def const_int(self, type: IntType, value: int) -> ConstantInt:
        return ConstantInt(type, value)

    def const_fp(self, type: FloatType, value: float) -> ConstantFP:
        return ConstantFP(type, value)

    def undef(self, type: IRType) -> UndefValue:
        return UndefValue(type)

    def true(self) -> ConstantInt:
        return ConstantInt(i1, 1)

    def false(self) -> ConstantInt:
        return ConstantInt(i1, 0)

    # ==================================================================
    # Arithmetic with on-the-fly folding
    # ==================================================================
    def binop(
        self, op: BinOp, lhs: Value, rhs: Value, name: str = ""
    ) -> Value:
        folded = fold_binop(op, lhs, rhs)
        if folded is None:
            folded = _identity(op, lhs, rhs)
        if folded is not None and self.folding_enabled:
            return folded
        return self._insert(BinaryInst(op, lhs, rhs, name or op.value))

    # Shorthands ---------------------------------------------------------
    def add(self, lhs: Value, rhs: Value, name: str = "add") -> Value:
        return self.binop(BinOp.ADD, lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "sub") -> Value:
        return self.binop(BinOp.SUB, lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "mul") -> Value:
        return self.binop(BinOp.MUL, lhs, rhs, name)

    def udiv(self, lhs: Value, rhs: Value, name: str = "udiv") -> Value:
        return self.binop(BinOp.UDIV, lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "sdiv") -> Value:
        return self.binop(BinOp.SDIV, lhs, rhs, name)

    def icmp(
        self, pred: ICmpPred, lhs: Value, rhs: Value, name: str = "cmp"
    ) -> Value:
        folded = fold_icmp(pred, lhs, rhs)
        if folded is not None and self.folding_enabled:
            return folded
        return self._insert(ICmpInst(pred, lhs, rhs, name))

    def fcmp(
        self, pred: FCmpPred, lhs: Value, rhs: Value, name: str = "fcmp"
    ) -> Value:
        return self._insert(FCmpInst(pred, lhs, rhs, name))

    # ==================================================================
    # Casts
    # ==================================================================
    def cast(
        self, op: CastOp, value: Value, to_type: IRType, name: str = ""
    ) -> Value:
        if value.type is to_type and op in (
            CastOp.BITCAST,
            CastOp.TRUNC,
            CastOp.ZEXT,
            CastOp.SEXT,
        ):
            return value
        folded = fold_cast(op, value, to_type)
        if folded is not None and self.folding_enabled:
            return folded
        return self._insert(
            CastInst(op, value, to_type, name or op.value)
        )

    def int_cast(
        self, value: Value, to_type: IntType, signed: bool, name: str = ""
    ) -> Value:
        assert isinstance(value.type, IntType)
        if value.type.bits == to_type.bits:
            return value
        if value.type.bits > to_type.bits:
            return self.cast(CastOp.TRUNC, value, to_type, name or "trunc")
        op = CastOp.SEXT if signed else CastOp.ZEXT
        return self.cast(op, value, to_type, name or op.value)

    # ==================================================================
    # Memory
    # ==================================================================
    def alloca(
        self,
        allocated_type: IRType,
        array_size: Value | None = None,
        name: str = "alloca",
    ) -> AllocaInst:
        return self._insert(
            AllocaInst(allocated_type, array_size, name)
        )  # type: ignore[return-value]

    def load(
        self, loaded_type: IRType, pointer: Value, name: str = "load"
    ) -> Value:
        return self._insert(LoadInst(loaded_type, pointer, name))

    def store(self, value: Value, pointer: Value) -> Instruction:
        return self._insert(StoreInst(value, pointer))

    def gep(
        self,
        element_type: IRType,
        pointer: Value,
        indices: Sequence[Value],
        name: str = "gep",
    ) -> Value:
        return self._insert(
            GEPInst(element_type, pointer, indices, name)
        )

    # ==================================================================
    # Control flow
    # ==================================================================
    def br(self, target: BasicBlock) -> BranchInst:
        return self._insert(BranchInst(target))  # type: ignore

    def cond_br(
        self,
        condition: Value,
        true_block: BasicBlock,
        false_block: BasicBlock,
    ) -> Instruction:
        target = fold_select(condition, true_block, false_block)
        if target is not None and self.folding_enabled:
            return self.br(target)
        return self._insert(
            CondBranchInst(condition, true_block, false_block)
        )

    def switch(
        self, condition: Value, default: BasicBlock
    ) -> SwitchInst:
        return self._insert(SwitchInst(condition, default))  # type: ignore

    def ret(self, value: Value | None = None) -> Instruction:
        return self._insert(ReturnInst(value))

    def unreachable(self) -> Instruction:
        return self._insert(UnreachableInst())

    # ==================================================================
    # Other
    # ==================================================================
    def phi(self, type: IRType, name: str = "phi") -> PhiInst:
        return self._insert(PhiInst(type, name))  # type: ignore

    def select(
        self,
        condition: Value,
        true_value: Value,
        false_value: Value,
        name: str = "select",
    ) -> Value:
        folded = fold_select(condition, true_value, false_value)
        if folded is not None and self.folding_enabled:
            return folded
        return self._insert(
            SelectInst(condition, true_value, false_value, name)
        )

    def call(
        self,
        callee: Function | Value,
        args: Sequence[Value],
        name: str = "",
    ) -> Value:
        if isinstance(callee, Function):
            return_type = callee.return_type
        else:
            return_type = void_t
        if name == "" and not return_type.is_void:
            name = "call"
        return self._insert(
            CallInst(callee, args, return_type, name)
        )


def _identity(op: BinOp, lhs: Value, rhs: Value) -> Value | None:
    """The operand or constant an algebraic identity (``x + 0``,
    ``x * 1``, ``0 * x``, ...) reduces *op* to; the IRBuilder's own
    simplification, which the constant-fold pass does not share."""
    if isinstance(rhs, ConstantInt):
        if rhs.value == 0 and op in (
            BinOp.ADD, BinOp.SUB, BinOp.OR, BinOp.XOR,
            BinOp.SHL, BinOp.LSHR, BinOp.ASHR,
        ):
            return lhs
        if rhs.value == 1 and op in (BinOp.MUL, BinOp.SDIV, BinOp.UDIV):
            return lhs
        if rhs.value == 0 and op == BinOp.MUL:
            return rhs
    if isinstance(lhs, ConstantInt):
        if lhs.value == 0 and op in (BinOp.ADD, BinOp.OR, BinOp.XOR):
            return rhs
        if lhs.value == 1 and op == BinOp.MUL:
            return rhs
        if lhs.value == 0 and op == BinOp.MUL:
            return lhs
    return None


# ======================================================================
# The constant folder
# ======================================================================
# One definition of which instructions over constants fold and to what,
# shared by the IRBuilder (while it builds) and the constant-fold pass
# (once operands became constant), as LLVM's ConstantFolder and
# ConstantFoldInstruction share ConstantFold.cpp.  A fold whose run-time
# evaluation fails is declined: division by zero, ``fdiv`` by +-0.0 and
# ``fptosi`` of inf or NaN stay instructions and fail only if they run.

#: int binop -> its value from the operands' unsigned values ``a``,
#: ``b``, signed values ``sa``, ``sb`` and bit width ``n``
_INT_FOLDS: dict[BinOp, Callable[[int, int, int, int, int], int]] = {
    BinOp.ADD: lambda a, b, sa, sb, n: a + b,
    BinOp.SUB: lambda a, b, sa, sb, n: a - b,
    BinOp.MUL: lambda a, b, sa, sb, n: a * b,
    BinOp.AND: lambda a, b, sa, sb, n: a & b,
    BinOp.OR: lambda a, b, sa, sb, n: a | b,
    BinOp.XOR: lambda a, b, sa, sb, n: a ^ b,
    BinOp.SHL: lambda a, b, sa, sb, n: a << (b % n),
    BinOp.LSHR: lambda a, b, sa, sb, n: a >> (b % n),
    BinOp.ASHR: lambda a, b, sa, sb, n: sa >> (b % n),
    BinOp.UDIV: lambda a, b, sa, sb, n: a // b,
    BinOp.UREM: lambda a, b, sa, sb, n: a % b,
    # C truncates: the quotient rounds toward zero and the remainder
    # takes the dividend's sign
    BinOp.SDIV: lambda a, b, sa, sb, n: (
        abs(sa) // abs(sb) * (1 if (sa < 0) == (sb < 0) else -1)
    ),
    BinOp.SREM: lambda a, b, sa, sb, n: (
        abs(sa) % abs(sb) * (-1 if sa < 0 else 1)
    ),
}
_DIVISIONS = (BinOp.UDIV, BinOp.UREM, BinOp.SDIV, BinOp.SREM)
_FP_FOLDS = {
    BinOp.FADD: operator.add,
    BinOp.FSUB: operator.sub,
    BinOp.FMUL: operator.mul,
    BinOp.FDIV: operator.truediv,
}
_ICMP_FOLDS = {
    ICmpPred.EQ: operator.eq,
    ICmpPred.NE: operator.ne,
    ICmpPred.SLT: operator.lt,
    ICmpPred.SLE: operator.le,
    ICmpPred.SGT: operator.gt,
    ICmpPred.SGE: operator.ge,
    ICmpPred.ULT: operator.lt,
    ICmpPred.ULE: operator.le,
    ICmpPred.UGT: operator.gt,
    ICmpPred.UGE: operator.ge,
}


def fold_binop(op: BinOp, lhs: Value, rhs: Value) -> Constant | None:
    """*op* over two constants as a constant, or None."""
    if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
        fold = _INT_FOLDS.get(op)
        if fold is None or (op in _DIVISIONS and not rhs.value):
            return None
        sa, sb = lhs.signed_value, rhs.signed_value
        value = fold(lhs.value, rhs.value, sa, sb, lhs.type.bits)
        return ConstantInt(lhs.type, value)
    if isinstance(lhs, ConstantFP) and isinstance(rhs, ConstantFP):
        fold = _FP_FOLDS.get(op)
        if fold is None or (op == BinOp.FDIV and not rhs.value):
            return None
        return ConstantFP(lhs.type, fold(lhs.value, rhs.value))
    return None


def fold_icmp(pred: ICmpPred, lhs: Value, rhs: Value) -> ConstantInt | None:
    """*pred* over two integer constants as an i1 constant, or None."""
    if not (isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt)):
        return None
    if pred.is_signed:
        lhs_value, rhs_value = lhs.signed_value, rhs.signed_value
    else:
        lhs_value, rhs_value = lhs.value, rhs.value
    return ConstantInt(i1, _ICMP_FOLDS[pred](lhs_value, rhs_value))


def fold_cast(op: CastOp, value: Value, to_type: IRType) -> Constant | None:
    """*value* cast to *to_type* as a constant, or None."""
    to_int = isinstance(to_type, IntType)
    to_float = isinstance(to_type, FloatType)
    if isinstance(value, ConstantInt):
        if to_int and op in (CastOp.TRUNC, CastOp.ZEXT):
            return ConstantInt(to_type, value.value)
        if to_int and op == CastOp.SEXT:
            return ConstantInt(to_type, value.signed_value)
        if op == CastOp.SITOFP and to_float:
            return ConstantFP(to_type, to_type.from_int(value.signed_value))
        if op == CastOp.UITOFP and to_float:
            return ConstantFP(to_type, to_type.from_int(value.value))
    elif isinstance(value, ConstantFP):
        if op in (CastOp.FPEXT, CastOp.FPTRUNC) and to_float:
            return ConstantFP(to_type, value.value)
        if op == CastOp.FPTOSI and to_int and math.isfinite(value.value):
            return ConstantInt(to_type, int(value.value))
    return None


def fold_select(
    condition: Value, true_value: Value, false_value: Value
) -> Value | None:
    """The value a constant *condition* picks (a select's operand or a
    conditional branch's target), or None."""
    if isinstance(condition, ConstantInt):
        return true_value if condition.value else false_value
    return None


def fold_instruction(inst: Instruction) -> Value | None:
    """The value *inst* folds to, or None."""
    if isinstance(inst, BinaryInst):
        return fold_binop(inst.op, inst.lhs, inst.rhs)
    if isinstance(inst, ICmpInst):
        return fold_icmp(inst.pred, inst.lhs, inst.rhs)
    if isinstance(inst, CastInst):
        return fold_cast(inst.op, inst.value, inst.type)
    if isinstance(inst, SelectInst):
        return fold_select(
            inst.condition, inst.true_value, inst.false_value
        )
    return None
