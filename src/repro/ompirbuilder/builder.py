"""The OpenMPIRBuilder methods (paper §3.2).

Design contract with CodeGen (matching clang's use of the real
OpenMPIRBuilder):

* Trip counts of a loop nest destined for ``tile_loops`` /
  ``collapse_loops`` are evaluated *before* the outermost skeleton is
  created (rectangular nests only), so every trip-count value dominates
  the outermost preheader.
* In a nest, an intermediate loop's body block is exactly the inner
  loop's preheader; the innermost body region contains all user code
  (including the logical-iteration-number -> user-variable conversions).
* Transformations may modify and return the input canonical loops or
  abandon the old handles and create new loops; old handles are
  invalidated (paper §3.2).  The abandoning ones share one replacement
  protocol: ``_detach``, ``_splice``, ``_retire``.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Sequence

from repro.ir.instructions import (
    BinOp,
    BranchInst,
    CastOp,
    ICmpPred,
)
from repro.ir.irbuilder import IRBuilder
from repro.ir.metadata import loop_metadata
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import (
    FunctionType,
    i32,
    i64,
    ptr,
    void_t,
)
from repro.ir.utils import redirect_branch, replace_all_uses_map
from repro.instrument import RemarkEmitter, get_statistic
from repro.ir.values import ConstantInt, ConstantPointerNull, Value
from repro.ompirbuilder.canonical_loop_info import (
    CanonicalLoopInfo,
    create_loop_skeleton,
)

_CANONICAL_LOOPS = get_statistic(
    "ompirbuilder",
    "canonical-loops-created",
    "OMPCanonicalLoop skeletons created by the OpenMPIRBuilder",
)
_IR_TRANSFORMS = get_statistic(
    "ompirbuilder",
    "transforms-applied",
    "Loop transformations applied on OpenMPIRBuilder skeletons",
)


class WorksharedSchedule(enum.Enum):
    """OpenMP worksharing-loop schedules (libomp ``kmp_sched`` values)."""

    STATIC_CHUNKED = 33
    STATIC = 34
    DYNAMIC_CHUNKED = 35
    GUIDED_CHUNKED = 36


#: Runtime entry points (libomp-compatible subset); the interpreter's
#: simulated runtime implements these natively.
RUNTIME_SIGNATURES: dict[str, tuple] = {
    "__kmpc_global_thread_num": (i32, [ptr]),
    "__kmpc_fork_call": (void_t, [ptr, i32, ptr, ptr]),
    "__kmpc_push_num_threads": (void_t, [ptr, i32, i32]),
    "__kmpc_barrier": (void_t, [ptr, i32]),
    "__kmpc_for_static_init_4u": (
        void_t,
        [ptr, i32, i32, ptr, ptr, ptr, ptr, i32, i32],
    ),
    "__kmpc_for_static_init_8u": (
        void_t,
        [ptr, i32, i32, ptr, ptr, ptr, ptr, i64, i64],
    ),
    "__kmpc_for_static_fini": (void_t, [ptr, i32]),
    "__kmpc_dispatch_init_4u": (
        void_t,
        [ptr, i32, i32, i32, i32, i32, i32],
    ),
    "__kmpc_dispatch_init_8u": (
        void_t,
        [ptr, i32, i32, i64, i64, i64, i64],
    ),
    "__kmpc_dispatch_next_4u": (i32, [ptr, i32, ptr, ptr, ptr, ptr]),
    "__kmpc_dispatch_next_8u": (i32, [ptr, i32, ptr, ptr, ptr, ptr]),
    "__kmpc_critical": (void_t, [ptr, i32, ptr]),
    "__kmpc_end_critical": (void_t, [ptr, i32, ptr]),
    "__kmpc_master": (i32, [ptr, i32]),
    "__kmpc_end_master": (void_t, [ptr, i32]),
    "__kmpc_single": (i32, [ptr, i32]),
    "__kmpc_end_single": (void_t, [ptr, i32]),
    "__kmpc_reduce_combine": (void_t, [ptr, i32, ptr, ptr, i64, i32]),
}


# ======================================================================
# Nest replacement (paper §3.2: a transformation may "abandon the old
# handles and create new loops using the skeleton").  tile, collapse,
# fuse and interchange differ only in their new trip counts, skeletons
# and induction-variable mapping; the steps around those are these:
#
#   detach  -> the old loops are unhooked from their preheader, where
#              the replacement is built;
#   splice  -> the new innermost body runs the old body region, whose
#              edges to the old latch move to the new latch;
#   retire  -> old induction variables are replaced, the new loops
#              continue where the old ones did, and the old control
#              blocks nothing branches to any more are deleted.
# ======================================================================
def _detach(builder: IRBuilder, loops: Sequence[CanonicalLoopInfo]) -> None:
    """Check the handles and erase the outermost preheader's branch into
    the old loops; the builder is left at the end of that preheader."""
    for cli in loops:
        cli.assert_ok()
    preheader = loops[0].preheader
    term = preheader.terminator
    assert term is not None
    term.erase()
    builder.set_insert_point(preheader)


def _retarget(fn: Function, old: BasicBlock, new: BasicBlock) -> None:
    """Move every edge into *old* to *new*."""
    for block in fn.blocks:
        redirect_branch(block, old, new)


def _splice(old: CanonicalLoopInfo, new: CanonicalLoopInfo) -> None:
    """Make *new*'s body run the body region of *old*, the innermost
    loop being replaced."""
    term = new.body.terminator
    assert isinstance(term, BranchInst)
    term.target = old.body
    _retarget(old.function, old.latch, new.latch)


def _retire(
    builder: IRBuilder,
    loops: Sequence[CanonicalLoopInfo],
    new_ivs: Sequence[Value],
    new_after: BasicBlock,
    continuation: BasicBlock,
) -> None:
    """Replace each old induction variable with its *new_ivs* entry,
    branch *new_after* to *continuation*, invalidate the old handles and
    delete their abandoned control blocks.

    Candidates are every old control block except the outermost
    preheader, which the replacement reuses.  Only those that no
    surviving block branches to are deleted, as LLVM's
    ``removeUnusedBlocksFromParent(OldControlBBs)`` does.  Deleting
    every unreachable block instead would also take blocks of an
    enclosing construct whose body is still being emitted: its latch or
    ``for.inc`` has no predecessor until that body is finished.
    """
    fn = loops[0].function
    replace_all_uses_map(
        fn, {id(cli.indvar): iv for cli, iv in zip(loops, new_ivs)}
    )
    builder.set_insert_point(new_after)
    builder.br(continuation)
    reused = loops[0].preheader
    unused: dict[int, BasicBlock] = {}
    for cli in loops:
        cli.invalidate()
        for block in (
            cli.preheader, cli.header, cli.cond, cli.latch, cli.exit,
            cli.after,
        ):
            if block is not reused:
                unused[id(block)] = block
    # A candidate survives if a block outside the set, or a surviving
    # candidate, branches to it.
    work = [block for block in fn.blocks if id(block) not in unused]
    while work:
        for succ in work.pop().successors():
            if unused.pop(id(succ), None) is not None:
                work.append(succ)
    # No surviving phi names a deleted block: only the old headers hold
    # phis, and only old preheaders and latches branch to them.
    for block in unused.values():
        fn.remove_block(block)


def _widen_trip_counts(
    builder: IRBuilder, loops: Sequence[CanonicalLoopInfo], name: str
) -> list[Value]:
    """Each loop's trip count zero-extended to the widest induction
    type of *loops* (the k-th cast named ``name.format(k=k)``)."""
    ty = max((cli.indvar_type for cli in loops), key=lambda t: t.bits)
    return [
        builder.cast(CastOp.ZEXT, cli.trip_count, ty, name.format(k=k))
        for k, cli in enumerate(loops)
    ]


class OpenMPIRBuilder:
    """Base-language-independent OpenMP lowering over a module."""

    def __init__(
        self, module: Module, remarks: RemarkEmitter | None = None
    ) -> None:
        self.module = module
        #: optimization remarks sink (CodeGen hands in the engine-wide
        #: emitter; standalone users get a private one)
        self.remarks = remarks if remarks is not None else RemarkEmitter()

    # ==================================================================
    # Runtime declarations
    # ==================================================================
    def get_runtime_function(self, name: str) -> Function:
        sig = RUNTIME_SIGNATURES.get(name)
        if sig is None:
            raise KeyError(f"unknown OpenMP runtime function {name}")
        ret, params = sig
        return self.module.add_function(
            name, FunctionType(ret, params)
        )

    def default_loc(self, builder: IRBuilder) -> Value:
        """The `ident_t *` source-location argument; we pass null (the
        simulated runtime ignores it, as libomp does for most purposes)."""
        return ConstantPointerNull()

    def get_global_thread_num(self, builder: IRBuilder) -> Value:
        fn = self.get_runtime_function("__kmpc_global_thread_num")
        return builder.call(fn, [self.default_loc(builder)], "gtid")

    # ==================================================================
    # create_canonical_loop (paper Fig. 7; patch D71226)
    # ==================================================================
    def create_canonical_loop(
        self,
        builder: IRBuilder,
        trip_count: Value,
        body_gen: Optional[
            Callable[[IRBuilder, Value], None]
        ] = None,
        name: str = "omp_loop",
    ) -> CanonicalLoopInfo:
        """Create the loop skeleton; ``body_gen(builder, indvar)`` is
        called with the insertion point inside the body ("for re-entry
        into callback-ception", paper footnote 3).  On return the builder
        points at the after block."""
        cli = create_loop_skeleton(builder, trip_count, name)
        _CANONICAL_LOOPS.inc()
        if body_gen is not None:
            body_gen(builder, cli.indvar)
        builder.set_insert_point(cli.after, 0)
        return cli

    # ==================================================================
    # Unrolling (paper §2.2 semantics, IRBuilder variant)
    # ==================================================================
    def unroll_loop_heuristic(self, cli: CanonicalLoopInfo) -> None:
        """Let the mid-end decide (``llvm.loop.unroll.enable``)."""
        term = cli.latch.terminator
        assert term is not None
        term.metadata["llvm.loop"] = loop_metadata(unroll_enable=True)
        self.remarks.analysis(
            "unroll",
            "loop marked for heuristic unrolling by the mid-end "
            "(OpenMPIRBuilder)",
            function=cli.function.name,
        )

    def unroll_loop_full(self, cli: CanonicalLoopInfo) -> None:
        """Request full expansion by the mid-end ``LoopUnroll`` pass.

        No duplication happens here — exactly the paper's point that the
        front-end only annotates.
        """
        term = cli.latch.terminator
        assert term is not None
        term.metadata["llvm.loop"] = loop_metadata(unroll_full=True)
        self.remarks.passed(
            "unroll",
            "marked loop for full unrolling by the mid-end LoopUnroll "
            "pass (OpenMPIRBuilder)",
            function=cli.function.name,
            full=True,
        )

    def unroll_loop_partial(
        self,
        builder: IRBuilder,
        cli: CanonicalLoopInfo,
        factor: int,
    ) -> CanonicalLoopInfo:
        """Partial unroll: strip-mine by *factor* with the tiling core of
        :meth:`tile_loops`, mark the intra-tile loop for complete
        unrolling by the mid-end, and return the (consumable) outer
        tile-count loop.

        This mirrors LLVM's ``unrollLoopPartial``: "Partial unrolling can
        be understood as first tiling the loop by an unroll-factor, then
        fully unrolling the inner loop" (paper §1.1).
        """
        assert factor >= 1
        fn_name = cli.function.name
        floor_cli, tile_cli = self._tile(builder, [cli], [factor])
        term = tile_cli.latch.terminator
        assert term is not None
        term.metadata["llvm.loop"] = loop_metadata(
            unroll_count=factor, unroll_enable=True
        )
        _IR_TRANSFORMS.inc()
        self.remarks.passed(
            "unroll",
            f"unrolled loop by a factor of {factor} "
            "(strip-mined via tile_loops; intra-tile loop marked for "
            "full unrolling)",
            function=fn_name,
            factor=factor,
        )
        return floor_cli

    # ==================================================================
    # tile_loops (patch D76342)
    # ==================================================================
    def tile_loops(
        self,
        builder: IRBuilder,
        loops: Sequence[CanonicalLoopInfo],
        sizes: Sequence[int | Value],
    ) -> list[CanonicalLoopInfo]:
        """Tile a perfect rectangular nest; returns 2n new canonical
        loops (n floor loops iterating tile origins, then n intra-tile
        loops).  The old handles are invalidated."""
        fn_name = loops[0].function.name
        result = self._tile(builder, loops, sizes)
        _IR_TRANSFORMS.inc()
        shown = tuple(
            s if isinstance(s, int) else f"%{s.name}" for s in sizes
        )
        self.remarks.passed(
            "tile",
            f"tiled loop nest of depth {len(loops)} with sizes "
            f"({', '.join(str(s) for s in shown)})",
            function=fn_name,
            sizes=shown,
        )
        return result

    def _tile(
        self,
        builder: IRBuilder,
        loops: Sequence[CanonicalLoopInfo],
        sizes: Sequence[int | Value],
    ) -> list[CanonicalLoopInfo]:
        """The tiling shared by :meth:`tile_loops` and
        :meth:`unroll_loop_partial`, which each report it."""
        assert loops and len(loops) == len(sizes)
        n = len(loops)
        _detach(builder, loops)
        trip_counts = [cli.trip_count for cli in loops]
        size_values: list[Value] = [
            ConstantInt(cli.indvar_type, s) if isinstance(s, int) else s
            for cli, s in zip(loops, sizes)
        ]

        # --- floor trip counts: ceil(tc / size), unsigned --------------
        floor_trips: list[Value] = []
        for k in range(n):
            tc, size = trip_counts[k], size_values[k]
            one = builder.const_int(loops[k].indvar_type, 1)
            num = builder.add(tc, builder.sub(size, one, "szm1"), "tile.num")
            floor_trips.append(builder.udiv(num, size, "floor.tc"))

        # --- floor loops ------------------------------------------------
        floor_clis = [
            create_loop_skeleton(builder, floor_trips[k], f"floor.{k}")
            for k in range(n)
        ]

        # --- tile loops ---------------------------------------------------
        # In each tile-loop preheader compute: origin = floor_iv * size,
        # remaining = tc - origin, tile_tc = min(size, remaining).
        tile_clis: list[CanonicalLoopInfo] = []
        origins: list[Value] = []
        for k in range(n):
            origin = builder.mul(
                floor_clis[k].indvar, size_values[k], f"origin.{k}"
            )
            remaining = builder.sub(
                trip_counts[k], origin, f"remaining.{k}"
            )
            is_partial = builder.icmp(
                ICmpPred.ULT, remaining, size_values[k], "is.partial"
            )
            tile_tc = builder.select(
                is_partial, remaining, size_values[k], f"tile.tc.{k}"
            )
            origins.append(origin)
            tile_clis.append(
                create_loop_skeleton(builder, tile_tc, f"tile.{k}")
            )

        # --- new logical ivs, at the innermost tile body's entry --------
        new_ivs = [
            builder.add(origins[k], tile_clis[k].indvar, f"tiled.iv.{k}")
            for k in range(n)
        ]
        _splice(loops[-1], tile_clis[-1])
        _retire(builder, loops, new_ivs, floor_clis[0].after, loops[0].after)
        result = [*floor_clis, *tile_clis]
        for cli in result:
            cli.assert_ok()
        return result

    # ==================================================================
    # collapse_loops (patch D83261)
    # ==================================================================
    def collapse_loops(
        self,
        builder: IRBuilder,
        loops: Sequence[CanonicalLoopInfo],
    ) -> CanonicalLoopInfo:
        """Merge a perfect rectangular nest into a single canonical loop
        whose trip count is the product of the nest's trip counts; the
        original logical indvars are recomputed by div/rem chains."""
        assert loops
        if len(loops) == 1:
            return loops[0]  # nothing to do
        n = len(loops)
        fn = loops[0].function
        _detach(builder, loops)
        widened = _widen_trip_counts(builder, loops, "wide.tc")
        total: Value = widened[0]
        for tc in widened[1:]:
            total = builder.mul(total, tc, "collapsed.tc")
        cli = create_loop_skeleton(builder, total, "collapsed")

        # iv_k = (iv / prod_{j>k} tc_j) % tc_k
        new_ivs: list[Value] = []
        for k in range(n):
            value: Value = cli.indvar
            inner_product: Value | None = None
            for j in range(k + 1, n):
                inner_product = (
                    widened[j]
                    if inner_product is None
                    else builder.mul(inner_product, widened[j], "prod")
                )
            if inner_product is not None:
                value = builder.udiv(value, inner_product, f"unpack.{k}")
            value = builder.binop(
                BinOp.UREM, value, widened[k], f"iv.{k}"
            )
            new_ivs.append(
                builder.cast(
                    CastOp.TRUNC, value, loops[k].indvar_type, "narrow"
                )
            )

        _splice(loops[-1], cli)
        _retire(builder, loops, new_ivs, cli.after, loops[0].after)
        cli.assert_ok()
        _IR_TRANSFORMS.inc()
        self.remarks.passed(
            "collapse",
            f"collapsed {n} nested loops into one loop",
            function=fn.name,
            depth=n,
        )
        return cli

    # ==================================================================
    # OpenMP 6.0 extensions (paper §4: "The additional abstractions
    # provided by the OMPCanonicalLoop AST node and the OpenMPIRBuilder
    # build the foundation for implementing these extensions")
    # ==================================================================
    def fuse_loops(
        self,
        builder: IRBuilder,
        loops: Sequence[CanonicalLoopInfo],
    ) -> CanonicalLoopInfo:
        """``omp fuse``: merge a *sibling* sequence of canonical loops
        (laid out consecutively in control flow, every trip count
        evaluated before the first preheader) into one loop iterating
        ``max(tc...)``, each original body guarded by ``iv < tc_k`` —
        the OpenMP 6.0 semantics mirrored from the shadow-AST
        ``build_fuse``.  The old handles are invalidated."""
        assert len(loops) >= 2
        n = len(loops)
        fn = loops[0].function
        _detach(builder, loops)
        widened = _widen_trip_counts(builder, loops, "fuse.tc.{k}")
        total: Value = widened[0]
        for tc in widened[1:]:
            is_less = builder.icmp(
                ICmpPred.ULT, total, tc, "fuse.max.lt"
            )
            total = builder.select(is_less, tc, total, "fuse.max")
        cli = create_loop_skeleton(builder, total, "fused")

        # Replace the placeholder body terminator with a guard chain:
        # each guard jumps into the corresponding original body region,
        # whose exits (the old latch) are retargeted to the join block
        # holding the next guard.
        body_term = cli.body.terminator
        assert isinstance(body_term, BranchInst)
        body_term.erase()
        builder.set_insert_point(cli.body)
        narrowed = [
            builder.cast(
                CastOp.TRUNC, cli.indvar, old.indvar_type, f"fuse.iv.{k}"
            )
            for k, old in enumerate(loops)
        ]
        for k, old in enumerate(loops):
            join = fn.append_block(f"fused.join.{k}")
            guard = builder.icmp(
                ICmpPred.ULT, cli.indvar, widened[k], f"fuse.guard.{k}"
            )
            builder.cond_br(guard, old.body, join)
            _retarget(fn, old.latch, join)
            builder.set_insert_point(join)
        builder.br(cli.latch)

        _retire(builder, loops, narrowed, cli.after, loops[-1].after)
        cli.assert_ok()
        _IR_TRANSFORMS.inc()
        self.remarks.passed(
            "fuse",
            f"fused {n} loops into one (OpenMPIRBuilder)",
            function=fn.name,
            num_loops=n,
        )
        return cli

    def reverse_loop(
        self, builder: IRBuilder, cli: CanonicalLoopInfo
    ) -> CanonicalLoopInfo:
        """``omp reverse``: mirror the logical iteration order by
        replacing body uses of the induction variable with
        ``trip - 1 - indvar``.  The skeleton is untouched, so the same
        handle remains valid and consumable."""
        cli.assert_ok()
        builder.set_insert_point(cli.body, 0)
        ty = cli.indvar_type
        mirrored = builder.sub(
            builder.sub(
                cli.trip_count,
                ConstantInt(ty, 1),
                "rev.last",
            ),
            cli.indvar,
            "rev.iv",
        )
        fn = cli.function
        indvar = cli.indvar
        latch_inc = indvar.incoming_for(cli.latch)
        cmp = cli.compare
        for inst in fn.instructions():
            if inst is mirrored or inst is latch_inc or inst is cmp:
                continue
            # `rev.last` feeds `rev.iv`; don't rewrite its operand.
            if (
                inst.opcode == "binop"
                and getattr(inst, "name", "").startswith("rev.")
            ):
                continue
            if any(op is indvar for op in inst.operands()):
                inst.replace_operand(indvar, mirrored)
        cli.assert_ok()
        _IR_TRANSFORMS.inc()
        self.remarks.passed(
            "reverse",
            "reversed loop iteration order",
            function=fn.name,
        )
        return cli

    def interchange_loops(
        self,
        builder: IRBuilder,
        loops: Sequence[CanonicalLoopInfo],
        permutation: Sequence[int],
    ) -> list[CanonicalLoopInfo]:
        """``omp interchange``: permute a perfect rectangular nest.

        Builds a fresh nest of skeletons iterating the original logical
        spaces in permuted order, splices the original innermost body,
        and maps each original induction variable onto the corresponding
        new loop's.  Old handles are abandoned.
        """
        assert sorted(permutation) == list(range(len(loops)))
        fn = loops[0].function
        _detach(builder, loops)
        new_by_level: dict[int, CanonicalLoopInfo] = {}
        for position, original_index in enumerate(permutation):
            new_by_level[original_index] = create_loop_skeleton(
                builder,
                loops[original_index].trip_count,
                f"interchange.{position}",
            )
        result = [new_by_level[i] for i in permutation]
        _splice(loops[-1], result[-1])
        new_ivs = [new_by_level[k].indvar for k in range(len(loops))]
        _retire(builder, loops, new_ivs, result[0].after, loops[0].after)
        for cli in result:
            cli.assert_ok()
        _IR_TRANSFORMS.inc()
        perm_1based = tuple(p + 1 for p in permutation)
        self.remarks.passed(
            "interchange",
            f"interchanged loop nest with permutation {perm_1based}",
            function=fn.name,
            permutation=perm_1based,
        )
        return result

    # ==================================================================
    # create_workshare_loop (patch D73111)
    # ==================================================================
    def create_workshare_loop(
        self,
        builder: IRBuilder,
        cli: CanonicalLoopInfo,
        schedule: WorksharedSchedule = WorksharedSchedule.STATIC,
        chunk: Value | int | None = None,
    ) -> Value:
        """Apply a worksharing schedule to a canonical loop; returns the
        ``p.lastiter`` alloca, which holds nonzero in the thread that
        ran the last iteration.  No barrier is emitted: the caller adds
        one after its own epilogue unless ``nowait`` is given.

        Static: one ``__kmpc_for_static_init`` call in the preheader
        computes this thread's [lower, upper] slice; the loop's trip
        count becomes the slice span and body uses of the indvar are
        shifted by the slice start (LLVM's ``applyStaticWorkshareLoop``).
        Dynamic/guided: a dispatch loop around the canonical loop pulls
        chunks from the runtime until exhausted; the skeleton
        invariants no longer hold, so the handle is consumed ("abandon
        the old handles", paper §3.2).
        """
        cli.assert_ok()
        if schedule == WorksharedSchedule.STATIC:
            p_last = self._apply_static_workshare(builder, cli, chunk)
            cli.assert_ok()
        else:
            p_last = self._apply_dynamic_workshare(
                builder, cli, schedule, chunk
            )
            cli.invalidate()
        return p_last

    # ------------------------------------------------------------------
    def _shift_indvar_uses(
        self,
        builder: IRBuilder,
        cli: CanonicalLoopInfo,
        offset: Value,
    ) -> None:
        """Insert ``shifted = indvar + offset`` at the body entry and
        replace all non-skeleton uses of the indvar with it."""
        fn = cli.function
        indvar = cli.indvar
        builder.set_insert_point(cli.body, 0)
        shifted = builder.add(indvar, offset, "omp.shifted.iv")
        # Keep the skeleton's own uses: the latch increment, the cond
        # compare, and the shift itself.
        term_cmp = cli.compare
        latch_inc = cli.indvar.incoming_for(cli.latch)
        for inst in fn.instructions():
            if inst is shifted or inst is term_cmp or inst is latch_inc:
                continue
            if any(op is indvar for op in inst.operands()):
                inst.replace_operand(indvar, shifted)

    def _workshare_prologue(
        self,
        builder: IRBuilder,
        cli: CanonicalLoopInfo,
        entry_points: tuple[str, str],
        chunk: Value | int | None,
    ) -> tuple[list[Function], Value, list[Value], Value]:
        """What both schedules start with: the runtime *entry_points*
        (``{}`` is the induction type's suffix), then at the end of the
        preheader the thread id and the ``p.lastiter``,
        ``p.lowerbound``, ``p.upperbound`` and ``p.stride`` allocas.
        Returns those and the chunk size (default 1) as a value."""
        ty = cli.indvar_type
        suffix = "4u" if ty.bits <= 32 else "8u"
        fns = [
            self.get_runtime_function(name.format(suffix))
            for name in entry_points
        ]
        builder.set_insert_point_before(cli.preheader.terminator)
        gtid = self.get_global_thread_num(builder)
        slots = [
            builder.alloca(i32, name="p.lastiter"),
            builder.alloca(ty, name="p.lowerbound"),
            builder.alloca(ty, name="p.upperbound"),
            builder.alloca(ty, name="p.stride"),
        ]
        if chunk is None:
            chunk = 1
        if isinstance(chunk, int):
            chunk = builder.const_int(ty, chunk)
        return fns, gtid, slots, chunk

    def _apply_static_workshare(
        self,
        builder: IRBuilder,
        cli: CanonicalLoopInfo,
        chunk: Value | int | None,
    ) -> Value:
        (init_fn, fini_fn), gtid, slots, chunk_val = self._workshare_prologue(
            builder,
            cli,
            ("__kmpc_for_static_init_{}", "__kmpc_for_static_fini"),
            chunk,
        )
        p_last, p_lower, p_upper, p_stride = slots
        ty = cli.indvar_type
        loc = self.default_loc(builder)
        zero = builder.const_int(ty, 0)
        one = builder.const_int(ty, 1)
        builder.store(builder.const_int(i32, 0), p_last)
        builder.store(zero, p_lower)
        builder.store(builder.sub(cli.trip_count, one, "omp.ub"), p_upper)
        builder.store(one, p_stride)
        builder.call(
            init_fn,
            [
                loc,
                gtid,
                builder.const_int(i32, WorksharedSchedule.STATIC.value),
                *slots,
                one,
                chunk_val,
            ],
        )
        lower = builder.load(ty, p_lower, "omp.lb.new")
        upper = builder.load(ty, p_upper, "omp.ub.new")
        span = builder.add(
            builder.sub(upper, lower, "omp.range"), one, "omp.span"
        )
        # A thread with an empty slice gets upper < lower; the unsigned
        # wrap would produce a huge span, so clamp: span = (upper >= lower)
        # ? span : 0.
        nonempty = builder.icmp(
            ICmpPred.UGE, upper, lower, "omp.nonempty"
        )
        span = builder.select(nonempty, span, zero, "omp.tc.thread")
        cli.set_trip_count(span)
        self._shift_indvar_uses(builder, cli, lower)
        # Finalization in the after block.
        builder.set_insert_point(cli.after, 0)
        builder.call(fini_fn, [loc, gtid])
        return p_last

    def _apply_dynamic_workshare(
        self,
        builder: IRBuilder,
        cli: CanonicalLoopInfo,
        schedule: WorksharedSchedule,
        chunk: Value | int | None,
    ) -> Value:
        (init_fn, next_fn), gtid, slots, chunk_val = self._workshare_prologue(
            builder,
            cli,
            ("__kmpc_dispatch_init_{}", "__kmpc_dispatch_next_{}"),
            chunk,
        )
        p_last, p_lower, p_upper, _ = slots
        ty = cli.indvar_type
        loc = self.default_loc(builder)
        fn = cli.function
        one = builder.const_int(ty, 1)
        builder.call(
            init_fn,
            [
                loc,
                gtid,
                builder.const_int(i32, schedule.value),
                builder.const_int(ty, 0),
                builder.sub(cli.trip_count, one, "omp.ub"),
                one,
                chunk_val,
            ],
        )

        dispatch_cond = fn.append_block("omp.dispatch.cond", after=cli.preheader)
        dispatch_body = fn.append_block("omp.dispatch.body", after=dispatch_cond)

        # preheader now enters the dispatch loop.
        pre_term = cli.preheader.terminator
        assert isinstance(pre_term, BranchInst)
        pre_term.target = dispatch_cond

        builder.set_insert_point(dispatch_cond)
        more = builder.call(next_fn, [loc, gtid, *slots], "omp.more")
        has_chunk = builder.icmp(
            ICmpPred.NE, more, builder.const_int(i32, 0), "omp.haschunk"
        )
        builder.cond_br(has_chunk, dispatch_body, cli.after)

        builder.set_insert_point(dispatch_body)
        lower = builder.load(ty, p_lower, "omp.lb.chunk")
        upper = builder.load(ty, p_upper, "omp.ub.chunk")
        span = builder.add(
            builder.sub(upper, lower, "omp.range"), one, "omp.span"
        )
        builder.br(cli.header)
        cli.indvar.replace_incoming_block(cli.preheader, dispatch_body)

        cli.set_trip_count(span)
        self._shift_indvar_uses(builder, cli, lower)

        # The canonical loop's exit returns to the dispatcher.
        exit_term = cli.exit.terminator
        assert isinstance(exit_term, BranchInst)
        exit_term.target = dispatch_cond
        builder.set_insert_point(cli.after, 0)
        return p_last

    # ==================================================================
    # Parallel regions / synchronization
    # ==================================================================
    def create_parallel(
        self,
        builder: IRBuilder,
        outlined_fn: Function,
        context_ptr: Value,
        num_threads: Value | None = None,
    ) -> None:
        """Emit a parallel region: optional num_threads push, then
        ``__kmpc_fork_call(loc, 1, outlined_fn, context)``."""
        loc = self.default_loc(builder)
        if num_threads is not None:
            push = self.get_runtime_function("__kmpc_push_num_threads")
            gtid = self.get_global_thread_num(builder)
            builder.call(push, [loc, gtid, num_threads])
        fork = self.get_runtime_function("__kmpc_fork_call")
        builder.call(
            fork,
            [loc, builder.const_int(i32, 1), outlined_fn, context_ptr],
        )

    def create_barrier(
        self, builder: IRBuilder, gtid: Value | None = None
    ) -> None:
        barrier = self.get_runtime_function("__kmpc_barrier")
        if gtid is None:
            gtid = self.get_global_thread_num(builder)
        builder.call(barrier, [self.default_loc(builder), gtid])

    def create_critical(
        self,
        builder: IRBuilder,
        body_gen: Callable[[IRBuilder], None],
        name: str = "unnamed",
    ) -> None:
        enter = self.get_runtime_function("__kmpc_critical")
        leave = self.get_runtime_function("__kmpc_end_critical")
        loc = self.default_loc(builder)
        gtid = self.get_global_thread_num(builder)
        lock = self.module.add_global(
            self.module.unique_global_name(f".gomp_critical_{name}"),
            i32,
        )
        builder.call(enter, [loc, gtid, lock])
        body_gen(builder)
        builder.call(leave, [loc, gtid, lock])
