"""Natural loop detection from back edges."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.module import BasicBlock, Function, predecessor_map
from repro.midend.dominators import DominatorTree


@dataclass
class Loop:
    """One natural loop: all blocks whose paths to the back edge's source
    stay inside the loop."""

    header: BasicBlock
    blocks: list[BasicBlock] = field(default_factory=list)
    latches: list[BasicBlock] = field(default_factory=list)
    #: ids of ``blocks`` (grow both through :meth:`add`)
    block_ids: set[int] = field(
        default_factory=set, init=False, repr=False, compare=False
    )
    #: the function's predecessor map as :class:`LoopInfo` saw it
    preds: dict[int, list[BasicBlock]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.block_ids = {id(b) for b in self.blocks}

    def add(self, block: BasicBlock) -> None:
        self.blocks.append(block)
        self.block_ids.add(id(block))

    def contains(self, block: BasicBlock) -> bool:
        return id(block) in self.block_ids

    @property
    def single_latch(self) -> BasicBlock | None:
        return self.latches[0] if len(self.latches) == 1 else None

    def preheader(self) -> BasicBlock | None:
        """The unique out-of-loop predecessor of the header, if any."""
        outside = [
            p for p in self.preds[id(self.header)] if not self.contains(p)
        ]
        return outside[0] if len(outside) == 1 else None

    def exiting_blocks(self) -> list[BasicBlock]:
        return [
            b
            for b in self.blocks
            if any(not self.contains(s) for s in b.successors())
        ]

    def exit_blocks(self) -> list[BasicBlock]:
        seen: list[BasicBlock] = []
        for b in self.blocks:
            for s in b.successors():
                if not self.contains(s) and all(
                    s is not x for x in seen
                ):
                    seen.append(s)
        return seen

    def depth_first_body(self) -> list[BasicBlock]:
        """Loop blocks in an order starting at the header."""
        order = [self.header]
        seen = {id(self.header)}
        stack = [self.header]
        while stack:
            block = stack.pop()
            for succ in block.successors():
                if self.contains(succ) and id(succ) not in seen:
                    seen.add(id(succ))
                    order.append(succ)
                    stack.append(succ)
        return order


class LoopInfo:
    """All natural loops of a function (flat list; nesting derivable via
    block containment).

    *domtree* and *preds* are the function's dominator tree and
    :func:`predecessor_map` when the caller already has them (the
    analysis cache does)."""

    def __init__(
        self,
        fn: Function,
        domtree: DominatorTree | None = None,
        preds: dict[int, list[BasicBlock]] | None = None,
    ) -> None:
        self.fn = fn
        self.loops: list[Loop] = []
        if fn.blocks:
            if preds is None:
                preds = predecessor_map(fn)
            if domtree is None:
                domtree = DominatorTree(fn, preds=preds)
            self._compute(domtree, preds)

    def _compute(self, domtree: DominatorTree, preds) -> None:
        fn = self.fn
        by_header: dict[int, Loop] = {}
        for block in fn.blocks:
            if not domtree.is_reachable(block):
                continue
            for succ in block.successors():
                if domtree.dominates(succ, block):
                    # back edge block -> succ (succ is the header)
                    loop = by_header.get(id(succ))
                    if loop is None:
                        loop = Loop(
                            header=succ, blocks=[succ], preds=preds
                        )
                        by_header[id(succ)] = loop
                        self.loops.append(loop)
                    loop.latches.append(block)
                    self._grow(loop, block, preds)

    @staticmethod
    def _grow(loop: Loop, latch: BasicBlock, preds) -> None:
        """Add all blocks that reach *latch* without passing the header."""
        stack = [latch]
        while stack:
            block = stack.pop()
            if loop.contains(block):
                continue
            loop.add(block)
            for pred in preds[id(block)]:
                if not loop.contains(pred):
                    stack.append(pred)

    def innermost_first(self) -> list[Loop]:
        """Loops sorted by block count ascending (inner loops have fewer
        blocks than the loops containing them)."""
        return sorted(self.loops, key=lambda l: len(l.blocks))
