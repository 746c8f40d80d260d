"""IR verifier.

Checks the structural invariants the interpreter and the mid-end passes
rely on; the CanonicalLoopInfo skeleton invariants (paper §3.2) are checked
separately by :meth:`repro.ompirbuilder.CanonicalLoopInfo.assert_ok`.
"""

from __future__ import annotations

from repro.ir.instructions import (
    BranchInst,
    CallInst,
    CondBranchInst,
    Instruction,
    PhiInst,
    StoreInst,
)
from repro.ir.module import BasicBlock, Function, Module, predecessor_map
from repro.ir.types import IntType
from repro.ir.values import Argument, Constant, GlobalValue, Value


class VerificationError(Exception):
    pass


def verify_module(module: Module) -> None:
    for fn in module.functions.values():
        if not fn.is_declaration and fn.blocks:
            verify_function(fn)


def verify_function(fn: Function) -> None:
    if not fn.blocks:
        return
    defined: set[int] = set()
    for arg in fn.args:
        defined.add(id(arg))
    block_set = set(id(b) for b in fn.blocks)

    # Pass 1: every block has exactly one terminator at the end, and
    # instruction results are recorded.
    for block in fn.blocks:
        if block.parent is not fn:
            raise VerificationError(
                f"{fn.name}: block {block.name} has wrong parent"
            )
        if not block.instructions:
            raise VerificationError(
                f"{fn.name}: block {block.name} is empty"
            )
        term = block.instructions[-1]
        if not term.is_terminator:
            raise VerificationError(
                f"{fn.name}: block {block.name} does not end in a "
                f"terminator (ends in {term.opcode})"
            )
        for inst in block.instructions[:-1]:
            if inst.is_terminator:
                raise VerificationError(
                    f"{fn.name}: terminator in the middle of block "
                    f"{block.name}"
                )
        for inst in block.instructions:
            defined.add(id(inst))
        for succ in block.successors():
            if id(succ) not in block_set:
                raise VerificationError(
                    f"{fn.name}: block {block.name} branches to a block "
                    f"outside the function ({succ.name})"
                )

    # Pass 2: operands are constants, arguments, blocks or instructions
    # of this function; phis agree with predecessors.
    pred_map = predecessor_map(fn)
    for block in fn.blocks:
        preds = pred_map[id(block)]
        pred_ids = set(id(p) for p in preds)
        phi_end = block.non_phi_begin()
        for index, inst in enumerate(block.instructions):
            for op in inst.operands():
                if op is None:
                    raise VerificationError(
                        f"{fn.name}: {inst.opcode} has a None operand"
                    )
                if isinstance(op, Instruction):
                    if id(op) not in defined:
                        raise VerificationError(
                            f"{fn.name}: {inst.opcode} uses an "
                            "instruction from another function"
                        )
                elif not isinstance(
                    op, (Constant, Argument, BasicBlock, GlobalValue)
                ):
                    raise VerificationError(
                        f"{fn.name}: {inst.opcode} has invalid operand "
                        f"{op!r}"
                    )
            if isinstance(inst, PhiInst):
                if index > phi_end:
                    raise VerificationError(
                        f"{fn.name}: phi after non-phi in {block.name}"
                    )
                incoming_ids = set(id(b) for _, b in inst.incoming)
                if incoming_ids != pred_ids:
                    pred_names = sorted(p.name for p in preds)
                    inc_names = sorted(
                        b.name for _, b in inst.incoming
                    )
                    raise VerificationError(
                        f"{fn.name}: phi %{inst.name} in {block.name} "
                        f"incoming blocks {inc_names} != predecessors "
                        f"{pred_names}"
                    )
                for value, _ in inst.incoming:
                    if value.type is not inst.type:
                        raise VerificationError(
                            f"{fn.name}: phi %{inst.name} incoming type "
                            f"mismatch: {value.type} vs {inst.type}"
                        )
            if isinstance(inst, CondBranchInst):
                cond_ty = inst.condition.type
                if not (
                    isinstance(cond_ty, IntType) and cond_ty.bits == 1
                ):
                    raise VerificationError(
                        f"{fn.name}: conditional branch condition is "
                        f"{cond_ty}, expected i1"
                    )

    # Pass 3: entry block has no predecessors.
    if pred_map[id(fn.entry_block)]:
        raise VerificationError(
            f"{fn.name}: entry block has predecessors"
        )
