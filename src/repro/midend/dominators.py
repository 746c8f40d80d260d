"""Dominator tree (Cooper–Harvey–Kennedy "simple fast" algorithm)."""

from __future__ import annotations

from repro.ir.module import BasicBlock, Function, predecessor_map
from repro.midend.cfg import postorder


class DominatorTree:
    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self._idom: dict[int, BasicBlock] = {}
        self._order_index: dict[int, int] = {}
        self._compute()

    def _compute(self) -> None:
        fn = self.fn
        if not fn.blocks:
            return
        post = postorder(fn)
        for i, block in enumerate(post):
            self._order_index[id(block)] = i
        entry = fn.entry_block
        preds = predecessor_map(fn)
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

    # ------------------------------------------------------------------
    def immediate_dominator(
        self, block: BasicBlock
    ) -> BasicBlock | None:
        if block is self.fn.entry_block:
            return None
        return self._idom.get(id(block))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does *a* dominate *b*? (reflexive)"""
        runner: BasicBlock | None = b
        while runner is not None:
            if runner is a:
                return True
            if runner is self.fn.entry_block:
                return False
            runner = self._idom.get(id(runner))
        return False

    def is_reachable(self, block: BasicBlock) -> bool:
        return id(block) in self._idom

    def children(self) -> dict[int, list[BasicBlock]]:
        """Dominator-tree children: block id -> immediately dominated."""
        kids: dict[int, list[BasicBlock]] = {
            id(b): [] for b in self.fn.blocks
        }
        for block in self.fn.blocks:
            idom = self.immediate_dominator(block)
            if idom is not None:
                kids[id(idom)].append(block)
        return kids

    def dominance_frontiers(self) -> dict[int, list[BasicBlock]]:
        """Cytron et al.: DF[runner] gains each join block reached while
        walking each predecessor up to the join's immediate dominator."""
        frontiers: dict[int, list[BasicBlock]] = {
            id(b): [] for b in self.fn.blocks
        }
        preds = predecessor_map(self.fn)
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
                    if all(b is not block for b in frontier):
                        frontier.append(block)
                    runner = self.immediate_dominator(runner)
        return frontiers
