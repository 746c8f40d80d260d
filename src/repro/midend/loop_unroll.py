"""The LoopUnroll pass.

Consumes ``llvm.loop.unroll.*`` metadata attached by the front-end
(shadow-AST ``LoopHintAttr`` lowering, or ``OpenMPIRBuilder.unroll_*``)
and performs the actual duplication the front-end deferred (paper §2.1:
"No duplication takes place until that point.  LoopUnroll will also
handle the case when the iteration count is not a multiple of the unroll
factor.").

Three strategies, chosen per loop:

* **full unroll** — constant trip count: the loop is expanded into a
  straight chain of iteration copies (per-copy exit checks retained;
  later cleanup passes fold them);
* **partial with remainder** — the paper's Listing 2: a *main* loop whose
  guard is strengthened to ``iv + (F-1)*step < bound`` executes ``F``
  body copies per backedge, and the *original* loop survives as the
  remainder loop handling the tail iterations;
* **conditional-exit unroll** — the always-correct fallback (compound
  conditions, phi-based induction): iteration copies keep their own exit
  checks, still reducing backedges by the factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.instrument import RemarkEmitter, get_debug_counter, get_statistic
from repro.ir.instructions import (
    BinaryInst,
    BinOp,
    BranchInst,
    CondBranchInst,
    ICmpInst,
    ICmpPred,
    LoadInst,
    PhiInst,
    StoreInst,
)
from repro.ir.metadata import (
    MDNode,
    UNROLL_DISABLE,
    UNROLL_ENABLE,
    UNROLL_FULL,
    get_unroll_count,
    has_flag,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.utils import remove_unreachable_blocks
from repro.ir.values import ConstantInt, Value
from repro.midend.clone import clone_blocks
from repro.midend.loopinfo import Loop
from repro.midend.pass_manager import (
    FunctionAnalysisManager,
    FunctionPass,
    PreservedAnalyses,
)

#: full unroll is refused above this trip count (clang/LLVM use similar
#: thresholds)
FULL_UNROLL_LIMIT = 4096
#: heuristic mode: full unroll when constant trip count is at most this
HEURISTIC_FULL_LIMIT = 16
#: heuristic mode: otherwise partially unroll by this factor
HEURISTIC_FACTOR = 4


@dataclass
class UnrollStats:
    """What the pass did (inspected by tests and benchmarks)."""

    fully_unrolled: int = 0
    partially_unrolled: int = 0
    conditionally_unrolled: int = 0
    remainder_loops_created: int = 0
    skipped: int = 0

    @property
    def total(self) -> int:
        return (
            self.fully_unrolled
            + self.partially_unrolled
            + self.conditionally_unrolled
        )


@dataclass
class _SimpleIV:
    """A memory-form induction pattern:

    header:  %iv = load P ... %cmp = icmp pred %iv, bound ; br %cmp body, exit
    latch:   store (add (load P), step), P
    """

    pointer: Value
    load: LoadInst
    compare: ICmpInst
    bound: Value
    step: int
    pred: ICmpPred
    init_const: int | None  # constant initial value, when known


_LOOPS_UNROLLED = get_statistic(
    "loop-unroll", "loops-unrolled", "Loops unrolled (any strategy)"
)
_COPIES_MADE = get_statistic(
    "loop-unroll", "copies-made", "Loop body copies created by unrolling"
)
_LOOPS_SKIPPED = get_statistic(
    "loop-unroll", "loops-skipped", "Annotated loops left untouched"
)
#: one occurrence per annotated loop considered for unrolling
#: (-debug-counter=unroll-transform=SKIP[,COUNT] suppresses sites)
_UNROLL_SITE = get_debug_counter(
    "unroll-transform",
    "LoopUnroll: each annotated-loop transformation site",
)


class LoopUnrollPass(FunctionPass):
    name = "loop-unroll"

    def __init__(self, remarks: RemarkEmitter | None = None) -> None:
        self.stats = UnrollStats()
        self.remarks = remarks if remarks is not None else RemarkEmitter()

    def _skip(self, fn: Function, why: str) -> bool:
        self.stats.skipped += 1
        _LOOPS_SKIPPED.inc()
        self.remarks.missed(
            self.name, f"loop not unrolled: {why}", function=fn.name
        )
        return False

    # ==================================================================
    def run(
        self, fn: Function, analyses: FunctionAnalysisManager
    ) -> tuple[bool, PreservedAnalyses]:
        changed = False
        # Unrolling creates new loops; iterate until no annotated loop
        # remains (each transform strips its metadata, guaranteeing
        # termination).  Only a latch carrying ``llvm.loop`` is ever
        # unrolled, so loops are not even looked for without one.
        for _ in range(16):
            if not any(
                "llvm.loop" in block.instructions[-1].metadata
                for block in fn.blocks
                if block.instructions
            ):
                break
            todo = None
            for loop in analyses.loops().innermost_first():
                md = self._loop_metadata(loop)
                if md is not None:
                    todo = (loop, md)
                    break
            if todo is None:
                break
            loop, md = todo
            if self._unroll_one(fn, loop, md):
                changed = True
                analyses.invalidate(PreservedAnalyses.none())
                if remove_unreachable_blocks(fn, analyses.reachable()):
                    analyses.invalidate(PreservedAnalyses.none())
        # (every unroll invalidated at once: what the cache holds now
        # describes the CFG as it is)
        return changed, PreservedAnalyses.all()

    # ------------------------------------------------------------------
    def _loop_metadata(self, loop: Loop) -> MDNode | None:
        latch = loop.single_latch
        if latch is None or latch.terminator is None:
            return None
        return latch.terminator.metadata.get("llvm.loop")

    def _strip_metadata(self, loop: Loop) -> None:
        latch = loop.single_latch
        if latch is not None and latch.terminator is not None:
            latch.terminator.metadata.pop("llvm.loop", None)

    # ------------------------------------------------------------------
    def _unroll_one(
        self, fn: Function, loop: Loop, md: MDNode
    ) -> bool:
        self._strip_metadata(loop)
        if not _UNROLL_SITE.should_execute():
            return self._skip(
                fn,
                "transformation site suppressed by "
                "-debug-counter=unroll-transform",
            )
        if has_flag(md, UNROLL_DISABLE):
            return self._skip(fn, "unrolling disabled by metadata")
        count = get_unroll_count(md)
        want_full = has_flag(md, UNROLL_FULL)
        want_enable = has_flag(md, UNROLL_ENABLE)

        if not self._unrollable(loop):
            return self._skip(
                fn,
                "unsupported loop structure (multiple latches, missing "
                "preheader, or loop-carried values live outside the loop)",
            )

        trip = self._constant_trip_count(loop)

        if want_full or (
            want_enable
            and count is None
            and trip is not None
            and trip <= HEURISTIC_FULL_LIMIT
        ):
            if trip is None or trip > FULL_UNROLL_LIMIT:
                # Cannot fully unroll without a (reasonable) constant
                # trip count; fall back to a partial factor.
                if want_full:
                    self.remarks.analysis(
                        self.name,
                        "unable to fully unroll loop: trip count is "
                        "unknown or exceeds the full-unroll limit; "
                        "falling back to partial unrolling",
                        function=fn.name,
                        trip_count=trip,
                    )
                count = count or HEURISTIC_FACTOR
            else:
                self._full_unroll(fn, loop, trip)
                self._note_unrolled(fn, "full", trip, trip)
                self.stats.fully_unrolled += 1
                return True
        if count is None:
            count = HEURISTIC_FACTOR
        if count <= 1:
            return self._skip(fn, "unroll factor is 1")
        if trip is not None and trip <= count and trip <= FULL_UNROLL_LIMIT:
            self._full_unroll(fn, loop, trip)
            self._note_unrolled(fn, "full", trip, trip)
            self.stats.fully_unrolled += 1
            return True
        simple = self._match_simple_iv(loop)
        if simple is not None:
            self._partial_unroll_with_remainder(fn, loop, simple, count)
            self._note_unrolled(fn, "partial", count, count)
            self.stats.partially_unrolled += 1
            self.stats.remainder_loops_created += 1
            return True
        self._conditional_unroll(fn, loop, count)
        self._note_unrolled(fn, "conditional", count, count)
        self.stats.conditionally_unrolled += 1
        return True

    def _note_unrolled(
        self, fn: Function, strategy: str, factor: int, copies: int
    ) -> None:
        _LOOPS_UNROLLED.inc()
        _COPIES_MADE.inc(max(0, copies - 1))
        message = {
            "full": f"completely unrolled loop with {factor} iterations",
            "partial": (
                f"unrolled loop by a factor of {factor} "
                "with a remainder loop"
            ),
            "conditional": (
                f"unrolled loop by a factor of {factor} "
                "(per-copy exit checks retained)"
            ),
        }[strategy]
        self.remarks.passed(
            self.name,
            message,
            function=fn.name,
            factor=factor,
            strategy=strategy,
        )

    # ==================================================================
    # Eligibility / analysis
    # ==================================================================
    def _unrollable(self, loop: Loop) -> bool:
        latch = loop.single_latch
        if latch is None:
            return False
        # Every strategy re-links the backedge as an unconditional
        # branch; a ``do`` loop's latch is its exiting conditional one.
        if not isinstance(latch.terminator, BranchInst):
            return False
        if loop.preheader() is None:
            return False
        # Values defined inside the loop must not be used outside, and
        # exit blocks must not have phis (memory-form codegen guarantees
        # both; bail out otherwise).
        loop_insts = {
            id(inst)
            for block in loop.blocks
            for inst in block.instructions
        }
        fn = loop.header.parent
        assert fn is not None
        for block in fn.blocks:
            if loop.contains(block):
                continue
            for inst in block.instructions:
                if isinstance(inst, PhiInst):
                    continue  # handled below via exit-block check
                for op in inst.operands():
                    if id(op) in loop_insts:
                        return False
        for exit_block in loop.exit_blocks():
            if exit_block.phis():
                return False
        # Non-header phis are fine when fully loop-local (e.g. the merge
        # phi of a short-circuit condition); a phi with an out-of-loop
        # incoming edge in a non-header block would mean a second loop
        # entry — bail.
        for block in loop.blocks:
            if block is loop.header:
                continue
            for phi in block.phis():
                if any(
                    not loop.contains(pred)
                    for _, pred in phi.incoming
                ):
                    return False
        return True

    def _single_exiting_cond(
        self, loop: Loop
    ) -> tuple[BasicBlock, CondBranchInst] | None:
        """The unique in-loop conditional branch leaving the loop."""
        exiting = loop.exiting_blocks()
        if len(exiting) != 1:
            return None
        block = exiting[0]
        term = block.terminator
        if not isinstance(term, CondBranchInst):
            return None
        in_loop = [
            s for s in term.successors() if loop.contains(s)
        ]
        if len(in_loop) != 1:
            return None
        return block, term

    def _match_simple_iv(self, loop: Loop) -> _SimpleIV | None:
        """Match the memory-form pattern (see :class:`_SimpleIV`).

        The exiting block must be the header; every instruction the guard
        depends on is re-evaluated in the strengthened main-loop header,
        so the bound may itself be a load (e.g. of ``N``).
        """
        exiting = self._single_exiting_cond(loop)
        if exiting is None:
            return None
        block, term = exiting
        if block is not loop.header:
            return None
        if loop.header.phis():
            return None  # phi-form: not this scheme
        if not loop.contains(term.true_block):
            return None  # inverted condition shape: not emitted by us
        cond = term.condition
        if not isinstance(cond, ICmpInst) or cond.parent is not block:
            return None
        if cond.pred not in (
            ICmpPred.SLT,
            ICmpPred.ULT,
            ICmpPred.SLE,
            ICmpPred.ULE,
        ):
            return None
        iv_load = cond.lhs
        if not isinstance(iv_load, LoadInst) or iv_load.parent is not block:
            return None
        pointer = iv_load.pointer
        # The increment: a unique in-loop `store (add (load P), C), P`.
        step: int | None = None
        stores = [
            inst
            for b in loop.blocks
            for inst in b.instructions
            if isinstance(inst, StoreInst) and inst.pointer is pointer
        ]
        if len(stores) != 1:
            return None
        store = stores[0]
        add = store.value
        if not (
            isinstance(add, BinaryInst) and add.op == BinOp.ADD
        ):
            return None
        if isinstance(add.rhs, ConstantInt) and isinstance(
            add.lhs, LoadInst
        ) and add.lhs.pointer is pointer:
            step = add.rhs.signed_value
        elif isinstance(add.lhs, ConstantInt) and isinstance(
            add.rhs, LoadInst
        ) and add.rhs.pointer is pointer:
            step = add.lhs.signed_value
        if step is None or step <= 0:
            return None
        init_const = self._constant_init(loop, pointer)
        return _SimpleIV(
            pointer=pointer,
            load=iv_load,
            compare=cond,
            bound=cond.rhs,
            step=step,
            pred=cond.pred,
            init_const=init_const,
        )

    def _constant_init(
        self, loop: Loop, pointer: Value
    ) -> int | None:
        """Constant stored to the IV slot in the preheader (last store
        wins), for trip-count computation."""
        pre = loop.preheader()
        if pre is None:
            return None
        value: int | None = None
        for inst in pre.instructions:
            if (
                isinstance(inst, StoreInst)
                and inst.pointer is pointer
                and isinstance(inst.value, ConstantInt)
            ):
                value = inst.value.signed_value
        return value

    def _constant_trip_count(self, loop: Loop) -> int | None:
        """Constant trip count for either IR shape."""
        # Phi-form (OpenMPIRBuilder skeleton): phi init 0, +1 latch,
        # icmp ult phi, C.
        exiting = self._single_exiting_cond(loop)
        if exiting is None:
            return None
        _, term = exiting
        cond = term.condition
        if not isinstance(cond, ICmpInst):
            return None
        phis = loop.header.phis()
        if len(phis) == 1 and cond.lhs is phis[0]:
            phi = phis[0]
            if cond.pred == ICmpPred.ULT and isinstance(
                cond.rhs, ConstantInt
            ):
                pre = loop.preheader()
                latch = loop.single_latch
                if pre is None or latch is None:
                    return None
                init = phi.incoming_for(pre)
                inc = phi.incoming_for(latch)
                if (
                    isinstance(init, ConstantInt)
                    and init.value == 0
                    and isinstance(inc, BinaryInst)
                    and inc.op == BinOp.ADD
                ):
                    return cond.rhs.value
            return None
        # Memory-form.
        simple = self._match_simple_iv(loop)
        if (
            simple is None
            or simple.init_const is None
            or not isinstance(simple.bound, ConstantInt)
        ):
            return None
        bound = simple.bound.signed_value
        init = simple.init_const
        inclusive = simple.pred in (ICmpPred.SLE, ICmpPred.ULE)
        distance = bound - init + (1 if inclusive else 0)
        if distance <= 0:
            return 0
        return (distance + simple.step - 1) // simple.step

    # ==================================================================
    # Transformations
    # ==================================================================
    def _chain_clone(
        self,
        fn: Function,
        loop: Loop,
        copies: int,
        break_backedge_after: bool,
    ) -> None:
        """Clone the whole loop *copies - 1* extra times, chaining each
        copy's backedge into the next copy's (cloned) header.  Per-copy
        exit checks are preserved, so this is correct for any trip count;
        with ``break_backedge_after`` the last copy exits instead of
        looping (full unroll of an exactly-known trip count)."""
        latch = loop.single_latch
        assert latch is not None
        header = loop.header
        blocks = loop.depth_first_body()
        header_phis = header.phis()
        #: value flowing around the backedge for each header phi
        latch_values = {
            id(phi): phi.incoming_for(latch) for phi in header_phis
        }
        prev_map: dict[int, Value] = {}
        prev_latch: BasicBlock = latch
        last_map: dict[int, Value] = {}
        last_block_map: dict[int, BasicBlock] = {}
        for k in range(1, copies):
            value_map: dict[int, Value] = {}
            block_map: dict[int, BasicBlock] = {}
            # Seed cloned-header phi replacements with the previous
            # iteration's backedge values.
            for phi in header_phis:
                raw = latch_values[id(phi)]
                assert raw is not None
                value_map[id(phi)] = prev_map.get(id(raw), raw)
            clone_blocks(
                fn,
                blocks,
                value_map,
                block_map,
                suffix=f".unroll{k}",
                skip_phis_in={id(header)},
            )
            cloned_header = block_map[id(header)]
            # Previous copy's backedge now enters this copy.
            prev_term = prev_latch.terminator
            assert isinstance(prev_term, BranchInst)
            prev_term.target = cloned_header
            prev_latch = block_map[id(latch)]
            prev_map = value_map
            last_map = value_map
            last_block_map = block_map
        # Final backedge: wrap to the original header (the loop now
        # advances `copies` iterations per backedge), or break out.
        final_term = prev_latch.terminator
        assert isinstance(final_term, BranchInst)
        if break_backedge_after:
            exit_candidates = loop.exit_blocks()
            assert len(exit_candidates) >= 1
            final_term.target = exit_candidates[0]
        else:
            final_term.target = header
            # Original header phis: the latch edge now comes from the
            # last copy with remapped values.
            for phi in header_phis:
                raw = latch_values[id(phi)]
                assert raw is not None
                new_value = last_map.get(id(raw), raw)
                phi.incoming = [
                    (
                        (new_value, prev_latch)
                        if b is latch
                        else (v, b)
                    )
                    for v, b in phi.incoming
                ]

    def _full_unroll(
        self, fn: Function, loop: Loop, trip: int
    ) -> None:
        self._chain_clone(
            fn, loop, max(1, trip), break_backedge_after=True
        )

    def _conditional_unroll(
        self, fn: Function, loop: Loop, factor: int
    ) -> None:
        self._chain_clone(fn, loop, factor, break_backedge_after=False)

    def _partial_unroll_with_remainder(
        self,
        fn: Function,
        loop: Loop,
        iv: _SimpleIV,
        factor: int,
    ) -> None:
        """The paper's Listing 2 shape::

            for (; i + (F-1)*step < N; )  { body; inc; } xF   // main
            for (; i < N; i += step) body;                    // remainder

        The original loop is left intact as the remainder loop; a new
        strengthened header plus F cloned body copies form the main loop.
        """
        header = loop.header
        latch = loop.single_latch
        assert latch is not None
        preheader = loop.preheader()
        assert preheader is not None
        body_blocks = [b for b in loop.depth_first_body() if b is not header]

        # --- main header: clone of the original header with the compare
        # --- strengthened by (F-1)*step.
        main_map: dict[int, Value] = {}
        main_block_map: dict[int, BasicBlock] = {}
        main_header = fn.append_block(f"{header.name}.unrolled")
        main_block_map[id(header)] = main_header
        from repro.midend.clone import clone_instruction

        for inst in header.instructions:
            main_header.append(
                clone_instruction(
                    inst, main_map, main_block_map, fn, ".unrolled"
                )
            )
        cloned_cmp = main_map[id(iv.compare)]
        assert isinstance(cloned_cmp, ICmpInst)
        offset = ConstantInt(iv.load.type, (factor - 1) * iv.step)  # type: ignore[arg-type]
        bumped = BinaryInst(
            BinOp.ADD, cloned_cmp.lhs, offset, fn.unique_name("unroll.guard")
        )
        idx = main_header.instructions.index(cloned_cmp)
        main_header.insert(idx, bumped)
        cloned_cmp.lhs = bumped
        main_term = main_header.terminator
        assert isinstance(main_term, CondBranchInst)
        # false edge: fall into the original (remainder) loop header.
        main_term.false_block = header

        # --- F body copies, chained without intermediate checks.
        prev_tail: BasicBlock | None = None
        first_entry: BasicBlock | None = None
        original_body_entry = main_term.true_block
        for k in range(factor):
            value_map: dict[int, Value] = {}
            block_map: dict[int, BasicBlock] = {
                # A latch branch to the header ends the copy; the target
                # is fixed up below once the next copy exists.
                id(header): main_header,
            }
            clone_blocks(
                fn,
                body_blocks,
                value_map,
                block_map,
                suffix=f".main{k}",
            )
            entry = block_map[id(original_body_entry)]
            tail_latch = block_map[id(latch)]
            if k == 0:
                first_entry = entry
            else:
                assert prev_tail is not None
                tail_term = prev_tail.terminator
                assert isinstance(tail_term, BranchInst)
                tail_term.target = entry
            prev_tail = tail_latch
        assert first_entry is not None and prev_tail is not None
        # Last copy loops back to the strengthened main header (already
        # the default via block_map).
        main_term.true_block = first_entry
        # Enter the main loop from the preheader.
        from repro.ir.utils import redirect_branch

        redirect_branch(preheader, header, main_header)
