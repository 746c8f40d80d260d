"""CFG traversal utilities."""

from __future__ import annotations

from repro.ir.module import BasicBlock, Function, predecessor_map

__all__ = ["postorder", "predecessor_map", "reverse_postorder", "successors"]


def successors(block: BasicBlock) -> list[BasicBlock]:
    return block.successors()


def postorder(fn: Function) -> list[BasicBlock]:
    """Iterative DFS postorder from the entry block."""
    if not fn.blocks:
        return []
    seen: set[int] = set()
    order: list[BasicBlock] = []
    stack: list[tuple[BasicBlock, int]] = [(fn.entry_block, 0)]
    seen.add(id(fn.entry_block))
    while stack:
        block, idx = stack[-1]
        succs = block.successors()
        if idx < len(succs):
            stack[-1] = (block, idx + 1)
            succ = succs[idx]
            if id(succ) not in seen:
                seen.add(id(succ))
                stack.append((succ, 0))
        else:
            order.append(block)
            stack.pop()
    return order


def reverse_postorder(fn: Function) -> list[BasicBlock]:
    return list(reversed(postorder(fn)))
