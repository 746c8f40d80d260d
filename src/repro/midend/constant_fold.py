"""Constant folding over already-built IR.

The IRBuilder folds during construction (paper §1.3); this pass re-folds
instructions whose operands *became* constant — e.g. the per-copy exit
checks left behind by full unrolling once phi chains were resolved.
"""

from __future__ import annotations

from repro.ir.instructions import (
    BinaryInst,
    BinOp,
    BranchInst,
    CastInst,
    CastOp,
    CondBranchInst,
    ICmpInst,
    ICmpPred,
    Instruction,
    SelectInst,
)
from repro.ir.module import Function
from repro.ir.types import IntType
from repro.ir.utils import replace_all_uses_map, resolve_replacement
from repro.ir.values import ConstantInt, Value
from repro.midend.pass_manager import (
    FunctionAnalysisManager,
    FunctionPass,
    PreservedAnalyses,
)


def _fold_instruction(inst) -> Value | None:
    if isinstance(inst, BinaryInst) and isinstance(
        inst.lhs, ConstantInt
    ) and isinstance(inst.rhs, ConstantInt):
        ty = inst.type
        assert isinstance(ty, IntType)
        a, b = inst.lhs.value, inst.rhs.value
        sa, sb = inst.lhs.signed_value, inst.rhs.signed_value
        op = inst.op
        try:
            result = {
                BinOp.ADD: lambda: a + b,
                BinOp.SUB: lambda: a - b,
                BinOp.MUL: lambda: a * b,
                BinOp.AND: lambda: a & b,
                BinOp.OR: lambda: a | b,
                BinOp.XOR: lambda: a ^ b,
                BinOp.SHL: lambda: a << (b % ty.bits),
                BinOp.LSHR: lambda: a >> (b % ty.bits),
                BinOp.ASHR: lambda: sa >> (b % ty.bits),
                BinOp.UDIV: lambda: a // b if b else None,
                BinOp.UREM: lambda: a % b if b else None,
            }[op]()
        except KeyError:
            return None
        if result is None:
            return None
        return ConstantInt(ty, result)
    if isinstance(inst, ICmpInst) and isinstance(
        inst.lhs, ConstantInt
    ) and isinstance(inst.rhs, ConstantInt):
        pred = inst.pred
        a, b = (
            (inst.lhs.signed_value, inst.rhs.signed_value)
            if pred.is_signed
            else (inst.lhs.value, inst.rhs.value)
        )
        result = {
            ICmpPred.EQ: a == b,
            ICmpPred.NE: a != b,
            ICmpPred.SLT: a < b,
            ICmpPred.SLE: a <= b,
            ICmpPred.SGT: a > b,
            ICmpPred.SGE: a >= b,
            ICmpPred.ULT: a < b,
            ICmpPred.ULE: a <= b,
            ICmpPred.UGT: a > b,
            ICmpPred.UGE: a >= b,
        }[pred]
        return ConstantInt(IntType(1), int(result))
    if isinstance(inst, CastInst) and isinstance(
        inst.value, ConstantInt
    ):
        dst = inst.type
        if isinstance(dst, IntType):
            if inst.op in (CastOp.TRUNC, CastOp.ZEXT):
                return ConstantInt(dst, inst.value.value)
            if inst.op == CastOp.SEXT:
                return ConstantInt(dst, inst.value.signed_value)
    if isinstance(inst, SelectInst) and isinstance(
        inst.condition, ConstantInt
    ):
        return (
            inst.true_value
            if inst.condition.value
            else inst.false_value
        )
    return None


class ConstantFoldPass(FunctionPass):
    name = "constant-fold"

    def run(
        self, fn: Function, analyses: FunctionAnalysisManager
    ) -> tuple[bool, PreservedAnalyses]:
        changed = False
        folded_branch = False
        # Iterate to a fixed point (folding feeds folding).
        for _ in range(64):
            #: folded instruction id -> (it, its value); the entry keeps
            #: the erased instruction alive, and so its id unique, until
            #: the sweep's last rewrite
            folds: dict[int, tuple[Instruction, Value]] = {}
            sweep_folded_branch = False
            for block in fn.blocks:
                folded_here = False
                for inst in block.instructions:
                    # Operands are rewritten as the sweep reaches them,
                    # so a fold feeds the folds after it in this sweep.
                    if folds:
                        for op in inst.operands():
                            if id(op) in folds:
                                new = resolve_replacement(folds, op)
                                if new is not inst:
                                    inst.replace_operand(op, new)
                    folded = _fold_instruction(inst)
                    if folded is not None:
                        folds[id(inst)] = (inst, folded)
                        inst.parent = None
                        folded_here = True
                if folded_here:
                    block.instructions[:] = [
                        i for i in block.instructions if i.parent is block
                    ]
                # Fold constant conditional branches.
                term = block.terminator
                if isinstance(term, CondBranchInst) and isinstance(
                    term.condition, ConstantInt
                ):
                    target = (
                        term.true_block
                        if term.condition.value
                        else term.false_block
                    )
                    dead_target = (
                        term.false_block
                        if term.condition.value
                        else term.true_block
                    )
                    for phi in dead_target.phis():
                        phi.incoming = [
                            (v, b)
                            for v, b in phi.incoming
                            if b is not block
                        ]
                    term.erase()
                    block.append(BranchInst(target))
                    sweep_folded_branch = True
            if not folds and not sweep_folded_branch:
                break
            if folds:
                # The uses the sweep reached before their value folded.
                replace_all_uses_map(
                    fn,
                    {
                        key: resolve_replacement(folds, value)
                        for key, (_, value) in folds.items()
                    },
                )
            changed = True
            folded_branch = folded_branch or sweep_folded_branch
        return changed, (
            PreservedAnalyses.none()
            if folded_branch
            else PreservedAnalyses.cfg()
        )
