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
    entry = fn.entry_block
    seen: set[int] = {id(entry)}
    order: list[BasicBlock] = []
    stack = [(entry, iter(entry.successors()))]
    while stack:
        block, succs = stack[-1]
        for succ in succs:
            if id(succ) not in seen:
                seen.add(id(succ))
                stack.append((succ, iter(succ.successors())))
                break
        else:
            order.append(block)
            stack.pop()
    return order


def reverse_postorder(fn: Function) -> list[BasicBlock]:
    return list(reversed(postorder(fn)))
