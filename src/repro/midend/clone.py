"""Instruction/block cloning with value and block remapping (the
machinery behind loop unrolling)."""

from __future__ import annotations

from typing import Dict

from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Value

ValueMap = Dict[int, Value]
BlockMap = Dict[int, BasicBlock]


def remap(value: Value, value_map: ValueMap) -> Value:
    return value_map.get(id(value), value)


def remap_block(block: BasicBlock, block_map: BlockMap) -> BasicBlock:
    return block_map.get(id(block), block)


def clone_instruction(
    inst: Instruction,
    value_map: ValueMap,
    block_map: BlockMap,
    fn: Function | None = None,
    suffix: str = "",
) -> Instruction:
    """Clone one instruction, remapping operands and branch targets.

    Phi nodes are cloned with remapped incoming values/blocks; callers
    that resolve phis away must handle them before calling this.  With
    *fn*, a named clone is named like its cloned block: the original
    name plus *suffix*, made unique in *fn*, so the printed IR defines
    each value name once.
    """
    r = lambda v: remap(v, value_map)
    rb = lambda b: remap_block(b, block_map)
    if isinstance(inst, BinaryInst):
        clone = BinaryInst(inst.op, r(inst.lhs), r(inst.rhs), inst.name)
    elif isinstance(inst, ICmpInst):
        clone = ICmpInst(inst.pred, r(inst.lhs), r(inst.rhs), inst.name)
    elif isinstance(inst, FCmpInst):
        clone = FCmpInst(inst.pred, r(inst.lhs), r(inst.rhs), inst.name)
    elif isinstance(inst, CastInst):
        clone = CastInst(inst.op, r(inst.value), inst.type, inst.name)
    elif isinstance(inst, AllocaInst):
        clone = AllocaInst(
            inst.allocated_type,
            r(inst.array_size) if inst.array_size is not None else None,
            inst.name,
        )
    elif isinstance(inst, LoadInst):
        clone = LoadInst(inst.type, r(inst.pointer), inst.name)
    elif isinstance(inst, StoreInst):
        clone = StoreInst(r(inst.value), r(inst.pointer))
    elif isinstance(inst, GEPInst):
        clone = GEPInst(
            inst.element_type,
            r(inst.pointer),
            [r(i) for i in inst.indices],
            inst.name,
        )
    elif isinstance(inst, BranchInst):
        clone = BranchInst(rb(inst.target))
    elif isinstance(inst, CondBranchInst):
        clone = CondBranchInst(
            r(inst.condition), rb(inst.true_block), rb(inst.false_block)
        )
    elif isinstance(inst, SwitchInst):
        clone = SwitchInst(
            r(inst.condition),
            rb(inst.default),
            [(v, rb(b)) for v, b in inst.cases],
        )
    elif isinstance(inst, ReturnInst):
        clone = ReturnInst(
            r(inst.value) if inst.value is not None else None
        )
    elif isinstance(inst, UnreachableInst):
        clone = UnreachableInst()
    elif isinstance(inst, SelectInst):
        clone = SelectInst(
            r(inst.condition),
            r(inst.true_value),
            r(inst.false_value),
            inst.name,
        )
    elif isinstance(inst, CallInst):
        clone = CallInst(
            r(inst.callee), [r(a) for a in inst.args], inst.type, inst.name
        )
    elif isinstance(inst, PhiInst):
        clone = PhiInst(inst.type, inst.name)
        for value, block in inst.incoming:
            clone.add_incoming(r(value), rb(block))
    else:  # pragma: no cover
        raise NotImplementedError(type(inst).__name__)
    clone.metadata = dict(inst.metadata)
    if fn is not None and clone.name:
        clone.name = fn.unique_name(f"{inst.name}{suffix}")
    value_map[id(inst)] = clone
    return clone


def clone_blocks(
    fn: Function,
    blocks: list[BasicBlock],
    value_map: ValueMap,
    block_map: BlockMap,
    suffix: str,
    skip_phis_in: set[int] | None = None,
) -> list[BasicBlock]:
    """Clone *blocks* into *fn*.

    Three-phase: allocate all blocks (so branch targets remap), clone
    instructions, then remap the cloned phis' incoming values — a phi
    may take a value (e.g. a nested loop's backedge) from a block that
    is cloned after it, like LLVM's ``remapInstructionsInBlocks``.
    Phis in blocks listed in *skip_phis_in* are NOT cloned — the caller
    must have seeded ``value_map`` with their replacement values.
    """
    skip_phis_in = skip_phis_in or set()
    clones: list[BasicBlock] = []
    for block in blocks:
        new_block = fn.append_block(f"{block.name}{suffix}")
        block_map[id(block)] = new_block
        clones.append(new_block)
    phis: list[tuple[PhiInst, PhiInst]] = []
    for block, new_block in zip(blocks, clones):
        for inst in block.instructions:
            if isinstance(inst, PhiInst) and id(block) in skip_phis_in:
                assert id(inst) in value_map, (
                    "phi in skipped block must be pre-seeded"
                )
                continue
            clone = clone_instruction(
                inst, value_map, block_map, fn, suffix
            )
            if isinstance(inst, PhiInst):
                phis.append((inst, clone))
            new_block.append(clone)
    for phi, clone in phis:
        clone.incoming = [
            (remap(value, value_map), remap_block(block, block_map))
            for value, block in phi.incoming
        ]
    return clones
