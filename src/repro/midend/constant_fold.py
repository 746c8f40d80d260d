"""Constant folding over already-built IR.

The IRBuilder folds during construction (paper §1.3); this pass re-folds
instructions whose operands *became* constant — e.g. the per-copy exit
checks left behind by full unrolling once phi chains were resolved.
Both fold by the one set of rules in :mod:`repro.ir.irbuilder`
(:func:`~repro.ir.irbuilder.fold_instruction`); the pass adds only the
sweep to a fixed point and the folding of constant conditional branches,
not the IRBuilder's algebraic identities.
"""

from __future__ import annotations

from repro.ir.instructions import BranchInst, CondBranchInst, Instruction
from repro.ir.irbuilder import fold_instruction, fold_select
from repro.ir.module import Function
from repro.ir.utils import replace_all_uses_map, resolve_replacement
from repro.ir.values import Value
from repro.midend.pass_manager import (
    FunctionAnalysisManager,
    FunctionPass,
    PreservedAnalyses,
)


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
                    folded = fold_instruction(inst)
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
                target = (
                    fold_select(
                        term.condition, term.true_block, term.false_block
                    )
                    if isinstance(term, CondBranchInst)
                    else None
                )
                if target is not None:
                    dead_target = (
                        term.false_block
                        if target is term.true_block
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
