"""IR surgery utilities shared by the OpenMPIRBuilder and mid-end passes."""

from __future__ import annotations

from repro.ir.module import BasicBlock, Function
from repro.ir.values import Value


def replace_all_uses_map(fn: Function, replacements: dict[int, Value]) -> int:
    """Replace every operand use of each value whose id is a key of
    *replacements* with the mapped value, in one walk over *fn*.  An
    instruction never gets itself as an operand: where the mapped value
    is the using instruction, the use is left alone.

    Mapped values are final: a use rewritten to a value that is itself
    a key is not rewritten again, so callers resolve chains first.
    Keys are ``id()``s, so the caller keeps every replaced value alive
    (referenced) until the call returns: a value freed earlier may hand
    its id to a new one, whose uses would then be rewritten too.
    Returns the number of instructions updated.
    """
    count = 0
    for inst in fn.instructions():
        updated = False
        for op in inst.operands():
            # (an unmapped operand maps to `inst`: left alone too)
            new = replacements.get(id(op), inst)
            if new is not inst:
                inst.replace_operand(op, new)
                updated = True
        count += updated
    return count


def resolve_replacement(
    replacements: dict[int, tuple[Value, Value]], value: Value
) -> Value:
    """Follow *value* through *replacements* (value id -> (that value,
    its replacement)) to the first value not replaced, or to where the
    chain cycles.  Entries hold the replaced values so their ids stay
    unique while the map is in use."""
    seen: set[int] = set()
    while id(value) in replacements and id(value) not in seen:
        seen.add(id(value))
        value = replacements[id(value)][1]
    return value


def reachable_blocks(fn: Function) -> set[int]:
    """ids of blocks reachable from the entry block."""
    if not fn.blocks:
        return set()
    seen: set[int] = set()
    stack = [fn.entry_block]
    while stack:
        block = stack.pop()
        if id(block) in seen:
            continue
        seen.add(id(block))
        stack.extend(block.successors())
    return seen


def remove_unreachable_blocks(
    fn: Function,
    reachable: set[int] | None = None,
    preds: dict[int, list[BasicBlock]] | None = None,
) -> int:
    """Delete blocks not reachable from entry; fix up phis of survivors.

    *reachable* is :func:`reachable_blocks` when the caller has it.  A
    :func:`~repro.ir.module.predecessor_map` passed as *preds* is kept
    current: the deleted blocks leave it.  Returns the number of blocks
    removed.
    """
    if reachable is None:
        reachable = reachable_blocks(fn)
    dead = [b for b in fn.blocks if id(b) not in reachable]
    if not dead:
        return 0
    dead_ids = {id(b) for b in dead}
    for block in fn.blocks:
        if id(block) not in reachable:
            continue
        for phi in block.phis():
            phi.incoming = [
                (v, b) for v, b in phi.incoming if id(b) not in dead_ids
            ]
    if preds is not None:
        for block in dead:
            del preds[id(block)]
        for key, into in preds.items():
            if any(id(b) in dead_ids for b in into):
                preds[key] = [b for b in into if id(b) not in dead_ids]
    for block in dead:
        fn.remove_block(block)
    return len(dead)


def redirect_branch(
    block: BasicBlock, old_target: BasicBlock, new_target: BasicBlock
) -> bool:
    """Retarget *block*'s terminator edges from *old_target* to
    *new_target*; updates phis in both targets.  Returns whether any edge
    changed."""
    term = block.terminator
    if term is None:
        return False
    changed = False
    from repro.ir.instructions import (
        BranchInst,
        CondBranchInst,
        SwitchInst,
    )

    if isinstance(term, BranchInst) and term.target is old_target:
        term.target = new_target
        changed = True
    elif isinstance(term, CondBranchInst):
        if term.true_block is old_target:
            term.true_block = new_target
            changed = True
        if term.false_block is old_target:
            term.false_block = new_target
            changed = True
    elif isinstance(term, SwitchInst):
        if term.default is old_target:
            term.default = new_target
            changed = True
        new_cases = []
        for value, target in term.cases:
            if target is old_target:
                target = new_target
                changed = True
            new_cases.append((value, target))
        term.cases = new_cases
    if changed:
        for phi in old_target.phis():
            phi.incoming = [
                (v, b) for v, b in phi.incoming if b is not block
            ]
        for phi in new_target.phis():
            # The caller is responsible for adding correct incoming
            # values for the new edge when the target has phis.
            pass
    return changed
