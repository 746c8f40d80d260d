"""CFG simplification: remove unreachable blocks, thread trivial jumps,
merge straight-line block pairs."""

from __future__ import annotations

from bisect import bisect_left

from repro.ir.instructions import BranchInst, PhiInst
from repro.ir.module import BasicBlock, Function
from repro.ir.utils import (
    reachable_blocks,
    redirect_branch,
    remove_unreachable_blocks,
    replace_all_uses_map,
    resolve_replacement,
)
from repro.ir.values import Value
from repro.midend.pass_manager import (
    FunctionAnalysisManager,
    FunctionPass,
    PreservedAnalyses,
)


from repro.instrument import get_debug_counter, get_statistic

_BLOCKS_SIMPLIFIED = get_statistic(
    "simplify-cfg",
    "blocks-simplified",
    "Simplification iterations that changed the CFG",
)
#: one occurrence per block merge / empty-block-threading site
#: (-debug-counter=simplifycfg-transform=SKIP[,COUNT] suppresses sites)
_SIMPLIFY_SITE = get_debug_counter(
    "simplifycfg-transform",
    "SimplifyCFG: each block-merge or jump-threading site",
)


class SimplifyCFGPass(FunctionPass):
    name = "simplify-cfg"

    def run(
        self, fn: Function, analyses: FunctionAnalysisManager
    ) -> tuple[bool, PreservedAnalyses]:
        changed = False
        # The cached predecessor map is kept current through every edit
        # below; only reachability is recomputed once the CFG changed.
        preds = analyses.predecessors()
        reachable = analyses.reachable()
        order = _block_order(fn)
        for _ in range(64):
            local = False
            if remove_unreachable_blocks(fn, reachable, preds):
                local = True
            if self._merge_straight_line(fn, preds, order):
                local = True
            if self._skip_empty_blocks(fn, preds, order):
                local = True
            if not local:
                break
            _BLOCKS_SIMPLIFIED.inc()
            changed = True
            reachable = reachable_blocks(fn)
        return changed, (
            PreservedAnalyses.none() if changed else PreservedAnalyses.all()
        )

    # ------------------------------------------------------------------
    def _merge_straight_line(self, fn: Function, preds, order) -> bool:
        """Merge B into A when A ends `br B` and B has only A as pred."""
        changed = False
        #: replaced phi id -> (it, its single incoming value); rewritten
        #: in one walk when the sweep ends (the entry keeps the erased
        #: phi, and so its id, alive until then)
        replaced: dict[int, tuple[PhiInst, Value]] = {}
        for block in list(fn.blocks):
            term = block.terminator
            if not isinstance(term, BranchInst):
                continue
            succ = term.target
            if succ is block or succ is fn.entry_block:
                continue
            succ_preds = preds[id(succ)]
            if len(succ_preds) != 1 or succ_preds[0] is not block:
                continue
            if not _SIMPLIFY_SITE.should_execute():
                continue
            if succ.phis():
                # Single-pred phis are resolvable: replace with the value.
                for phi in list(succ.phis()):
                    incoming = phi.incoming_for(block)
                    if incoming is None:
                        break
                    replaced[id(phi)] = (phi, incoming)
                    phi.erase()
                if succ.phis():
                    continue
            term.erase()
            for inst in succ.instructions:
                inst.parent = block
            block.instructions.extend(succ.instructions)
            succ.instructions.clear()
            # Phis in the successors of the merged block must point at
            # the merged-into block now.  `block` reached them only
            # through `succ`, so it takes `succ`'s place among their
            # predecessors.
            for nxt in dict.fromkeys(block.successors()):
                for phi in nxt.phis():
                    phi.replace_incoming_block(succ, block)
                preds[id(nxt)].remove(succ)
                _add_pred(preds, order, nxt, block)
            del preds[id(succ)]
            fn.remove_block(succ)
            changed = True
        if replaced:
            replace_all_uses_map(
                fn,
                {
                    key: resolve_replacement(replaced, value)
                    for key, (_, value) in replaced.items()
                },
            )
        return changed

    def _skip_empty_blocks(self, fn: Function, preds, order) -> bool:
        """Retarget edges through blocks containing only `br X` (when the
        final target has no phis referencing them)."""
        changed = False
        for block in list(fn.blocks):
            if block is fn.entry_block:
                continue
            if len(block.instructions) != 1:
                continue
            term = block.terminator
            if not isinstance(term, BranchInst):
                continue
            target = term.target
            if target is block or target.phis():
                continue
            if not _SIMPLIFY_SITE.should_execute():
                continue
            block_preds = preds[id(block)]
            for pred in list(block_preds):
                if redirect_branch(pred, block, target):
                    changed = True
                    block_preds.remove(pred)
                    _add_pred(preds, order, target, pred)
        return changed


def _block_order(fn: Function) -> dict[int, int]:
    """block id -> position in ``fn.blocks`` (removing blocks keeps the
    relative order of the rest)."""
    return {id(b): i for i, b in enumerate(fn.blocks)}


def _add_pred(
    preds: dict[int, list[BasicBlock]],
    order: dict[int, int],
    block: BasicBlock,
    pred: BasicBlock,
) -> None:
    """Record the edge *pred* -> *block*, keeping *block*'s predecessor
    list duplicate-free and in function order, as
    :func:`predecessor_map` builds it."""
    into = preds[id(block)]
    key = order[id(pred)]
    at = bisect_left(into, key, key=lambda b: order[id(b)])
    if at == len(into) or into[at] is not pred:
        into.insert(at, pred)
