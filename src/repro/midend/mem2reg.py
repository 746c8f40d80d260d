"""PromoteMemoryToRegister (mem2reg): alloca slots -> SSA values.

The standard SSA-construction pass (Cytron et al.): for every promotable
alloca — one whose address is only ever used as the direct pointer of
loads and stores — phi nodes are placed at the iterated dominance
frontier of its stores, and a dominator-tree walk renames loads to the
reaching definition.

In this reproduction its job is to erase the memory traffic the
front-end's alloca-based codegen produces (paper-relevant: the shadow
transformed AST's strip-mine bookkeeping becomes nearly free once
promoted, which is why real Clang can afford the representation).
It runs *after* LoopUnroll in the default pipeline so that pass can keep
pattern-matching the memory-form induction variables.
"""

from __future__ import annotations

from repro.ir.instructions import (
    AllocaInst,
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.types import IRType
from repro.ir.utils import remove_unreachable_blocks, resolve_replacement
from repro.ir.values import UndefValue, Value
from repro.midend.dominators import DominatorTree
from repro.midend.pass_manager import (
    FunctionAnalysisManager,
    FunctionPass,
    PreservedAnalyses,
)


from repro.instrument import get_debug_counter, get_statistic

_ALLOCAS_PROMOTED = get_statistic(
    "mem2reg", "allocas-promoted", "Stack slots promoted to SSA registers"
)
#: one occurrence per promotable alloca
#: (-debug-counter=mem2reg-promote=SKIP[,COUNT] suppresses sites)
_PROMOTE_SITE = get_debug_counter(
    "mem2reg-promote",
    "Mem2Reg: each alloca-promotion site",
)


class Mem2RegPass(FunctionPass):
    name = "mem2reg"

    def run(
        self, fn: Function, analyses: FunctionAnalysisManager
    ) -> tuple[bool, PreservedAnalyses]:
        if not fn.blocks:
            return False, PreservedAnalyses.all()
        # Phi insertion assumes every predecessor is reachable (the
        # renaming walk only visits the dominator tree).
        if remove_unreachable_blocks(fn, analyses.reachable()):
            analyses.invalidate(PreservedAnalyses.none())
        # Promotion inserts phis and deletes memory traffic: no edges.
        return self._promote(fn, analyses), PreservedAnalyses.cfg()

    def _promote(
        self, fn: Function, analyses: FunctionAnalysisManager
    ) -> bool:
        promotable = self._find_promotable(fn)
        promotable = {
            alloca: ty
            for alloca, ty in promotable.items()
            if _PROMOTE_SITE.should_execute()
        }
        if not promotable:
            return False
        _ALLOCAS_PROMOTED.inc(len(promotable))
        domtree = analyses.domtree()
        frontiers = domtree.dominance_frontiers()
        children = domtree.children()

        promoted = {id(a) for a in promotable}
        #: inserted phi -> its alloca
        phi_owner: dict[int, AllocaInst] = {}
        #: block id -> the phis inserted into it
        inserted: dict[int, list[PhiInst]] = {}
        defining_blocks = self._defining_blocks(fn, promoted)
        for alloca, ty in promotable.items():
            self._insert_phis(
                fn,
                alloca,
                ty,
                defining_blocks.get(id(alloca), []),
                frontiers,
                phi_owner,
                inserted,
            )
        replacements = self._rename(
            fn, domtree, children, promotable, phi_owner, inserted
        )
        # One walk deletes the now-dead allocas, stores and loads and
        # points every other use of a load at its replacement (phi
        # incomings added before a replacement existed included).
        removed = False
        for block in fn.blocks:
            kept: list[Instruction] = []
            for inst in block.instructions:
                if (
                    isinstance(inst, AllocaInst)
                    and id(inst) in promoted
                ) or (
                    isinstance(inst, (LoadInst, StoreInst))
                    and id(inst.pointer) in promoted
                ):
                    inst.parent = None
                    removed = True
                    continue
                for op in inst.operands():
                    entry = replacements.get(id(op))
                    # (an instruction never gets itself as an operand)
                    if entry is not None and entry[1] is not inst:
                        inst.replace_operand(op, entry[1])
                kept.append(inst)
            block.instructions[:] = kept
        return removed or bool(promotable)

    # ------------------------------------------------------------------
    def _find_promotable(
        self, fn: Function
    ) -> dict[AllocaInst, IRType]:
        """Allocas whose only uses are direct loads and stores-to."""
        allocas: dict[int, AllocaInst] = {}
        escaped: set[int] = set()
        loaded_type: dict[int, IRType] = {}
        for inst in fn.instructions():
            if isinstance(inst, AllocaInst) and inst.array_size is None:
                ty = inst.allocated_type
                # Only scalar slots promote (aggregates need SROA).
                if ty.is_int or ty.is_float or ty.is_pointer:
                    allocas[id(inst)] = inst
            for op in inst.operands():
                if not isinstance(op, AllocaInst):
                    continue
                if isinstance(inst, StoreInst) and inst.pointer is op:
                    if inst.value is op:
                        escaped.add(id(op))
                    continue
                if isinstance(inst, LoadInst) and inst.pointer is op:
                    prev = loaded_type.setdefault(id(op), inst.type)
                    if prev is not inst.type:
                        escaped.add(id(op))  # type-punned slot
                    continue
                escaped.add(id(op))
        result: dict[AllocaInst, IRType] = {}
        for key, alloca in allocas.items():
            if key in escaped:
                continue
            ty = loaded_type.get(key, alloca.allocated_type)
            if ty is not alloca.allocated_type:
                continue  # punned via differing load type
            result[alloca] = ty
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _defining_blocks(
        fn: Function, promoted: set[int]
    ) -> dict[int, list[BasicBlock]]:
        """alloca id (of *promoted*) -> blocks storing to it, once each,
        in function order."""
        blocks: dict[int, list[BasicBlock]] = {}
        for block in fn.blocks:
            for inst in block.instructions:
                if (
                    isinstance(inst, StoreInst)
                    and id(inst.pointer) in promoted
                ):
                    stores = blocks.setdefault(id(inst.pointer), [])
                    if not stores or stores[-1] is not block:
                        stores.append(block)
        return blocks

    def _insert_phis(
        self,
        fn: Function,
        alloca: AllocaInst,
        ty: IRType,
        defining_blocks: list[BasicBlock],
        frontiers: dict[int, list[BasicBlock]],
        phi_owner: dict[int, AllocaInst],
        inserted: dict[int, list[PhiInst]],
    ) -> None:
        worklist = list(defining_blocks)
        has_phi: set[int] = set()
        while worklist:
            block = worklist.pop()
            for join in frontiers.get(id(block), []):
                if id(join) in has_phi:
                    continue
                has_phi.add(id(join))
                phi = PhiInst(
                    ty, fn.unique_name(f"{alloca.name}.phi")
                )
                join.insert(0, phi)
                phi_owner[id(phi)] = alloca
                inserted.setdefault(id(join), []).append(phi)
                worklist.append(join)

    # ------------------------------------------------------------------
    def _rename(
        self,
        fn: Function,
        domtree: DominatorTree,
        children: dict[int, list[BasicBlock]],
        promotable: dict[AllocaInst, IRType],
        phi_owner: dict[int, AllocaInst],
        inserted: dict[int, list[PhiInst]],
    ) -> dict[int, tuple[Instruction, Value]]:
        """Rename loads to their reaching definitions; returns load id
        -> (the load, the value replacing it), for the caller to
        rewrite the load's uses with."""
        stacks: dict[int, list[Value]] = {
            id(a): [] for a in promotable
        }
        undefs: dict[int, Value] = {
            id(a): UndefValue(ty) for a, ty in promotable.items()
        }
        alloca_ids = set(stacks)
        #: load instruction -> replacement value (applied by the
        #: caller, so in-block operand rewriting stays simple)
        load_replacements: dict[int, tuple[Instruction, Value]] = {}

        def current(aid: int) -> Value:
            stack = stacks[aid]
            return stack[-1] if stack else undefs[aid]

        def process_block(block: BasicBlock) -> list[int]:
            """Record defs/uses of one block; returns the push log for
            later unwinding."""
            pushed: list[int] = []
            for inst in block.instructions:
                if isinstance(inst, PhiInst) and id(inst) in phi_owner:
                    aid = id(phi_owner[id(inst)])
                    stacks[aid].append(inst)
                    pushed.append(aid)
                elif isinstance(inst, LoadInst) and id(
                    inst.pointer
                ) in alloca_ids:
                    load_replacements[id(inst)] = (
                        inst,
                        current(id(inst.pointer)),
                    )
                elif isinstance(inst, StoreInst) and id(
                    inst.pointer
                ) in alloca_ids:
                    aid = id(inst.pointer)
                    value = inst.value
                    # The stored value may itself be a load we are about
                    # to replace.
                    if id(value) in load_replacements:
                        value = load_replacements[id(value)][1]
                    stacks[aid].append(value)
                    pushed.append(aid)
            for succ in block.successors():
                for phi in inserted.get(id(succ), ()):
                    incoming = current(id(phi_owner[id(phi)]))
                    if id(incoming) in load_replacements:
                        incoming = load_replacements[id(incoming)][1]
                    phi.add_incoming(incoming, block)
            return pushed

        # Iterative dominator-tree preorder (long unrolled chains would
        # overflow Python's recursion limit).
        work: list[tuple[str, object]] = [("enter", fn.entry_block)]
        while work:
            action, payload = work.pop()
            if action == "enter":
                block = payload  # type: ignore[assignment]
                pushed = process_block(block)
                work.append(("exit", pushed))
                for child in reversed(children.get(id(block), [])):
                    work.append(("enter", child))
            else:
                for aid in reversed(payload):  # type: ignore[arg-type]
                    stacks[aid].pop()

        # Chase chains of loads replaced by other loads.
        return {
            load_id: (load, resolve_replacement(load_replacements, load))
            for load_id, (load, _) in load_replacements.items()
        }
