"""Dominator tree (Cooper–Harvey–Kennedy "simple fast" algorithm)."""

from __future__ import annotations

from repro.ir.module import BasicBlock, Function, predecessor_map
from repro.midend.cfg import postorder


class DominatorTree:
    """Immediate dominators of *fn*'s reachable blocks.

    *preds* and *post* are the function's :func:`predecessor_map` and
    :func:`postorder` when the caller already has them (the analysis
    cache does); the tree keeps *preds* for :meth:`dominance_frontiers`.
    """

    def __init__(
        self,
        fn: Function,
        preds: dict[int, list[BasicBlock]] | None = None,
        post: list[BasicBlock] | None = None,
    ) -> None:
        self.fn = fn
        self._idom: dict[int, BasicBlock] = {}
        self._order_index: dict[int, int] = {}
        self._preds = preds if preds is not None else predecessor_map(fn)
        self._children: dict[int, list[BasicBlock]] = {}
        #: block id -> (entry, exit) number of a DFS over the tree,
        #: numbered on the first :meth:`dominates` query
        self._interval: dict[int, tuple[int, int]] | None = None
        if fn.blocks:
            self._compute(post if post is not None else postorder(fn))
            kids = self._children = {id(b): [] for b in fn.blocks}
            for block in fn.blocks:
                idom = self.immediate_dominator(block)
                if idom is not None:
                    kids[id(idom)].append(block)

    def _compute(self, post: list[BasicBlock]) -> None:
        fn = self.fn
        for i, block in enumerate(post):
            self._order_index[id(block)] = i
        entry = fn.entry_block
        preds = self._preds
        idom: dict[int, BasicBlock] = {id(entry): entry}
        rpo = list(reversed(post))
        changed = True
        while changed:
            changed = False
            for block in rpo:
                if block is entry:
                    continue
                new_idom: BasicBlock | None = None
                for pred in preds[id(block)]:
                    if id(pred) not in idom:
                        continue  # not yet processed / unreachable
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(
                            pred, new_idom, idom
                        )
                if new_idom is not None and idom.get(id(block)) is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True
        self._idom = idom

    def _intersect(
        self,
        a: BasicBlock,
        b: BasicBlock,
        idom: dict[int, BasicBlock],
    ) -> BasicBlock:
        index = self._order_index
        while a is not b:
            while index[id(a)] < index[id(b)]:
                a = idom[id(a)]
            while index[id(b)] < index[id(a)]:
                b = idom[id(b)]
        return a

    def _number(self) -> dict[int, tuple[int, int]]:
        """DFS intervals: *a* dominates *b* exactly when *a*'s interval
        encloses *b*'s."""
        interval: dict[int, tuple[int, int]] = {}
        clock = 0
        stack: list[tuple[BasicBlock, bool]] = [(self.fn.entry_block, False)]
        while stack:
            block, leaving = stack.pop()
            clock += 1
            if leaving:
                interval[id(block)] = (interval[id(block)][0], clock)
                continue
            interval[id(block)] = (clock, clock)
            stack.append((block, True))
            for child in reversed(self._children[id(block)]):
                stack.append((child, False))
        return interval

    # ------------------------------------------------------------------
    def immediate_dominator(
        self, block: BasicBlock
    ) -> BasicBlock | None:
        if block is self.fn.entry_block:
            return None
        return self._idom.get(id(block))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does *a* dominate *b*? (reflexive)"""
        if a is b:
            return True
        if self._interval is None:
            self._interval = self._number()
        inner = self._interval.get(id(b))
        outer = self._interval.get(id(a))
        if inner is None or outer is None:
            return False
        return outer[0] <= inner[0] and inner[1] <= outer[1]

    def is_reachable(self, block: BasicBlock) -> bool:
        return id(block) in self._idom

    def children(self) -> dict[int, list[BasicBlock]]:
        """Dominator-tree children: block id -> immediately dominated,
        in function order (shared; callers must not modify it)."""
        return self._children

    def dominance_frontiers(self) -> dict[int, list[BasicBlock]]:
        """Cytron et al.: DF[runner] gains each join block reached while
        walking each predecessor up to the join's immediate dominator."""
        frontiers: dict[int, list[BasicBlock]] = {
            id(b): [] for b in self.fn.blocks
        }
        preds = self._preds
        for block in self.fn.blocks:
            if not self.is_reachable(block):
                continue
            block_preds = [
                p for p in preds[id(block)] if self.is_reachable(p)
            ]
            if len(block_preds) < 2:
                continue
            idom = self.immediate_dominator(block)
            for pred in block_preds:
                runner = pred
                while runner is not idom and runner is not None:
                    frontier = frontiers[id(runner)]
                    # Joins are processed one at a time, so a repeat of
                    # this one is always the frontier's last entry.
                    if not frontier or frontier[-1] is not block:
                        frontier.append(block)
                    runner = self.immediate_dominator(runner)
        return frontiers
