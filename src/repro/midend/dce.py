"""Trivial dead-code elimination: remove side-effect-free instructions
whose results are never used."""

from __future__ import annotations

from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    SelectInst,
    StoreInst,
)
from repro.ir.module import Function
from repro.midend.pass_manager import (
    FunctionAnalysisManager,
    FunctionPass,
    PreservedAnalyses,
)

#: instruction classes safe to delete when unused (loads are pure in our
#: model — no volatile support)
_PURE = (
    BinaryInst,
    ICmpInst,
    FCmpInst,
    CastInst,
    GEPInst,
    SelectInst,
    PhiInst,
    LoadInst,
)


class DeadCodeEliminationPass(FunctionPass):
    name = "dce"

    def run(
        self, fn: Function, analyses: FunctionAnalysisManager
    ) -> tuple[bool, PreservedAnalyses]:
        return self.run_on_function(fn), PreservedAnalyses.cfg()

    def run_on_function(self, fn: Function) -> bool:
        """Delete to a fixed point with a use-count worklist: erasing an
        instruction drops its operands' counts, and an operand whose
        count reaches zero (or, for an alloca, whose only remaining uses
        are stores into it) is deleted next."""
        #: value id -> operand uses by instructions not yet deleted
        uses: dict[int, int] = {}
        #: alloca id -> the stores into it (pointer operand, other value)
        stores_into: dict[int, list[StoreInst]] = {}
        for inst in fn.instructions():
            if (
                isinstance(inst, StoreInst)
                and inst.value is not inst.pointer
            ):
                stores_into.setdefault(id(inst.pointer), []).append(inst)
            for op in inst.operands():
                uses[id(op)] = uses.get(id(op), 0) + 1
        #: deleted instructions, kept referenced (their ids key `uses`)
        dead: dict[int, Instruction] = {}

        def removable(inst: Instruction) -> bool:
            count = uses.get(id(inst), 0)
            if isinstance(inst, AllocaInst):
                return count == len(stores_into.get(id(inst), ()))
            return count == 0 and isinstance(inst, _PURE)

        worklist = [inst for inst in fn.instructions() if removable(inst)]
        while worklist:
            inst = worklist.pop()
            if id(inst) in dead:
                continue
            doomed = [inst]
            if isinstance(inst, AllocaInst):
                doomed += stores_into.get(id(inst), ())
            for victim in doomed:
                dead[id(victim)] = victim
                for op in victim.operands():
                    uses[id(op)] -= 1
                    if (
                        isinstance(op, Instruction)
                        and id(op) not in dead
                        and op.parent is not None
                        and removable(op)
                    ):
                        worklist.append(op)
        if not dead:
            return False
        for block in fn.blocks:
            kept = [i for i in block.instructions if id(i) not in dead]
            if len(kept) != len(block.instructions):
                for inst in block.instructions:
                    if id(inst) in dead:
                        inst.parent = None
                block.instructions[:] = kept
        return True
