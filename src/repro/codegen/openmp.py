"""OpenMP directive code generation — both representations.

Legacy path (paper §2): consumes the shadow AST.  ``OMPLoopDirective``'s
helper expressions (``.omp.iv``/``.omp.lb``/...) drive one emitter,
``_emit_shadow_loop``, for worksharing, ``simd`` and ``taskloop`` loops,
as clang's ``EmitOMPWorksharingLoop`` does: one prologue (transformation
pre-inits, bookkeeping variables, precondition guard), then a static,
dispatch or serial way to obtain each chunk's bounds, each chunk run by
the inner loop ``CodeGenFunction._emit_loop`` builds.  Loop
transformation directives emit their Sema-built transformed statement
(or only attach ``llvm.loop.unroll.*`` metadata when the mid-end can do
the job better — §2.2).

IRBuilder path (paper §3.2): consumes ``OMPCanonicalLoop`` nodes.
``emit_canonical_loops`` evaluates every *distance function* of a nest
or sibling sequence to obtain the trip counts, calls
``OpenMPIRBuilder.create_canonical_loop`` per wrapper, fills the loop
user variable by emitting the *user value function* with the logical
induction variable, and the resulting ``CanonicalLoopInfo`` handles go
to ``create_workshare_loop`` (which returns the last-iteration flag's
alloca) / ``tile_loops`` / ``unroll_loop_*``.

Outlining for ``parallel`` stays AST-level (CapturedStmt) in both paths,
matching the current state described by the paper ("other directives such
as OMPParallelForDirective still may [wrap in CapturedStmt]").
"""

from __future__ import annotations

from typing import Callable

from repro.astlib import clauses as cl
from repro.astlib import exprs as e
from repro.astlib import omp
from repro.astlib import stmts as s
from repro.astlib import types as ast_ty
from repro.astlib.decls import VarDecl
from repro.codegen.function import CodeGenFunction, Rebinding
from repro.ir import types as ir_ty
from repro.ir.instructions import BinOp, CastOp, FCmpPred, ICmpPred
from repro.ir.metadata import loop_metadata
from repro.ir.values import ConstantFP, ConstantInt, ConstantPointerNull, Value
from repro.ompirbuilder import CanonicalLoopInfo, WorksharedSchedule


class OpenMPCodeGenError(Exception):
    pass


#: schedule clause kind -> runtime schedule (chunked variants when a chunk
#: expression is present)
_SCHEDULE_MAP = {
    cl.ScheduleKind.STATIC: (
        WorksharedSchedule.STATIC,
        WorksharedSchedule.STATIC_CHUNKED,
    ),
    cl.ScheduleKind.DYNAMIC: (
        WorksharedSchedule.DYNAMIC_CHUNKED,
        WorksharedSchedule.DYNAMIC_CHUNKED,
    ),
    cl.ScheduleKind.GUIDED: (
        WorksharedSchedule.GUIDED_CHUNKED,
        WorksharedSchedule.GUIDED_CHUNKED,
    ),
    cl.ScheduleKind.AUTO: (
        WorksharedSchedule.STATIC,
        WorksharedSchedule.STATIC,
    ),
    cl.ScheduleKind.RUNTIME: (
        WorksharedSchedule.DYNAMIC_CHUNKED,
        WorksharedSchedule.DYNAMIC_CHUNKED,
    ),
}


#: directives whose loop counters are linear, or lastprivate under
#: ``collapse`` (OpenMP 5.1): a counter declared outside its ``for``
#: keeps its final value after the loop
_SIMD_DIRECTIVES = (
    omp.OMPSimdDirective,
    omp.OMPForSimdDirective,
    omp.OMPParallelForSimdDirective,
)


def _emit_when_nonzero(
    cgf: CodeGenFunction,
    value: Value,
    prefix: str,
    test_name: str,
    emit: Callable[[], None],
) -> None:
    """``if (value != 0) emit();`` in blocks ``{prefix}.then`` and
    ``{prefix}.end``."""
    assert cgf.fn is not None
    then_bb = cgf.fn.append_block(f"{prefix}.then")
    end_bb = cgf.fn.append_block(f"{prefix}.end")
    flag = cgf.builder.icmp(
        ICmpPred.NE, value, ConstantInt(value.type, 0), test_name
    )
    cgf.builder.cond_br(flag, then_bb, end_bb)
    cgf.builder.set_insert_point(then_bb)
    emit()
    cgf.builder.br(end_bb)
    cgf.builder.set_insert_point(end_bb)


class _Privatizer(Rebinding):
    """Data-sharing clause handling: private copies, firstprivate init,
    lastprivate copy-back, reduction accumulate+combine."""

    def __init__(self, cgf: CodeGenFunction) -> None:
        super().__init__(cgf)
        #: (decl, private addr, original addr) for lastprivate
        self.lastprivates: list[tuple[VarDecl, Value, Value]] = []
        #: (decl, private addr, original addr, operator)
        self.reductions: list[
            tuple[VarDecl, Value, Value, cl.ReductionOperator]
        ] = []

    def apply(self, directive: omp.OMPExecutableDirective) -> None:
        for clause in directive.clauses:
            if isinstance(clause, cl.OMPPrivateClause):
                for ref in clause.variables:
                    self._make_private(ref.decl, init_from_original=False)
            elif isinstance(clause, cl.OMPFirstprivateClause):
                for ref in clause.variables:
                    self._make_private(ref.decl, init_from_original=True)
            elif isinstance(clause, cl.OMPLastprivateClause):
                for ref in clause.variables:
                    decl = ref.decl
                    original = self.cgf._emit_decl_address(decl)
                    private = self._make_private(
                        decl, init_from_original=False
                    )
                    self.lastprivates.append((decl, private, original))
            elif isinstance(clause, cl.OMPReductionClause):
                for ref in clause.variables:
                    decl = ref.decl
                    original = self.cgf._emit_decl_address(decl)
                    private = self._make_private(
                        decl, init_from_original=False
                    )
                    self._store_identity(decl, private, clause.operator)
                    self.reductions.append(
                        (decl, private, original, clause.operator)
                    )

    def _make_private(
        self, decl: VarDecl, init_from_original: bool
    ) -> Value:
        cgf = self.cgf
        ty = cgf.lowered(decl.type)
        original: Value | None = None
        if init_from_original:
            original = cgf._emit_decl_address(decl)
        private = cgf.create_alloca(ty, f"{decl.name}.private")
        if original is not None:
            value = cgf.builder.load(ty, original, f"{decl.name}.orig")
            cgf.builder.store(value, private)
        self.bind(decl, private)
        return private

    def _store_identity(
        self, decl: VarDecl, addr: Value, op: cl.ReductionOperator
    ) -> None:
        cgf = self.cgf
        ty = cgf.lowered(decl.type)
        R = cl.ReductionOperator
        if isinstance(ty, ir_ty.FloatType):
            value = {
                R.ADD: 0.0,
                R.SUB: 0.0,
                R.MUL: 1.0,
                R.MIN: float("inf"),
                R.MAX: float("-inf"),
            }.get(op)
            if value is None:
                raise OpenMPCodeGenError(
                    f"reduction {op.value} invalid for floating type"
                )
            cgf.builder.store(ConstantFP(ty, value), addr)
            return
        assert isinstance(ty, ir_ty.IntType)
        signed = ast_ty.desugar(decl.type).is_signed_integer()
        if op in (R.ADD, R.SUB, R.OR, R.XOR, R.LOR):
            value = 0
        elif op in (R.MUL, R.LAND):
            value = 1
        elif op == R.AND:
            value = -1
        elif op == R.MIN:
            value = (1 << (ty.bits - 1)) - 1 if signed else ty.mask
        elif op == R.MAX:
            value = -(1 << (ty.bits - 1)) if signed else 0
        else:  # pragma: no cover
            raise OpenMPCodeGenError(f"unknown reduction {op}")
        cgf.builder.store(ConstantInt(ty, value), addr)

    # ------------------------------------------------------------------
    def finish(
        self,
        is_last_flag: Value,
        finals: Callable[[], None] | None = None,
    ) -> None:
        """The end of a loop directive.  Where *is_last_flag* is nonzero
        (this thread ran the last iteration): the loop counters' final
        values (*finals*), then ``original = private`` for each
        lastprivate.  Then the reduction combine."""
        cgf = self.cgf

        def last_iteration() -> None:
            if finals is not None:
                finals()
            for decl, private, original in self.lastprivates:
                ty = cgf.lowered(decl.type)
                value = cgf.builder.load(ty, private, f"{decl.name}.final")
                cgf.builder.store(value, original)

        if self.lastprivates or finals is not None:
            _emit_when_nonzero(
                cgf, is_last_flag, "lastprivate", "is.last", last_iteration
            )
        self.emit_reduction_combine()

    def emit_reduction_combine(self) -> None:
        """Combine each private accumulator into the original under a
        critical section (the interleaved team makes this a real race
        otherwise)."""
        if not self.reductions:
            return
        cgf = self.cgf
        ompb = cgf.cgm.ompbuilder

        def combine(builder) -> None:
            for decl, private, original, op in self.reductions:
                ty = cgf.lowered(decl.type)
                current = builder.load(ty, original, f"{decl.name}.cur")
                mine = builder.load(ty, private, f"{decl.name}.mine")
                combined = self._combine(decl, op, current, mine)
                builder.store(combined, original)

        ompb.create_critical(cgf.builder, combine, "reduction")

    def _combine(
        self,
        decl: VarDecl,
        op: cl.ReductionOperator,
        lhs: Value,
        rhs: Value,
    ) -> Value:
        cgf = self.cgf
        b = cgf.builder
        R = cl.ReductionOperator
        ty = lhs.type
        is_float = isinstance(ty, ir_ty.FloatType)
        if op in (R.ADD, R.SUB):
            return b.binop(
                BinOp.FADD if is_float else BinOp.ADD, lhs, rhs, "red"
            )
        if op == R.MUL:
            return b.binop(
                BinOp.FMUL if is_float else BinOp.MUL, lhs, rhs, "red"
            )
        if op in (R.AND, R.OR, R.XOR):
            table = {R.AND: BinOp.AND, R.OR: BinOp.OR, R.XOR: BinOp.XOR}
            return b.binop(table[op], lhs, rhs, "red")
        if op in (R.LAND, R.LOR):
            lflag = cgf._truthiness(lhs)
            rflag = cgf._truthiness(rhs)
            flag = b.binop(
                BinOp.AND if op == R.LAND else BinOp.OR,
                lflag,
                rflag,
                "red",
            )
            assert isinstance(ty, ir_ty.IntType)
            return b.cast(CastOp.ZEXT, flag, ty, "red.ext")
        if op in (R.MIN, R.MAX):
            if is_float:
                pred = FCmpPred.OLT if op == R.MIN else FCmpPred.OGT
                cmp = b.fcmp(pred, lhs, rhs, "red.cmp")
            else:
                signed = ast_ty.desugar(decl.type).is_signed_integer()
                pred = (
                    (ICmpPred.SLT if signed else ICmpPred.ULT)
                    if op == R.MIN
                    else (ICmpPred.SGT if signed else ICmpPred.UGT)
                )
                cmp = b.icmp(pred, lhs, rhs, "red.cmp")
            return b.select(cmp, lhs, rhs, "red")
        raise OpenMPCodeGenError(f"unknown reduction {op}")


class OpenMPCodeGen:
    def __init__(self, cgf: CodeGenFunction) -> None:
        self.cgf = cgf

    @property
    def cgm(self):
        return self.cgf.cgm

    @property
    def builder(self):
        return self.cgf.builder

    @property
    def ompb(self):
        return self.cgm.ompbuilder

    @property
    def irbuilder_mode(self) -> bool:
        return self.cgm.options.enable_irbuilder

    # ==================================================================
    # Dispatch
    # ==================================================================
    def emit_directive(self, d: omp.OMPExecutableDirective) -> None:
        if isinstance(
            d,
            (
                omp.OMPParallelForDirective,
                omp.OMPParallelForSimdDirective,
            ),
        ):
            self._emit_parallel(
                d, body_emitter=lambda cgf2: cgf2.openmp
                ._emit_worksharing(d)
            )
            return
        if isinstance(d, omp.OMPParallelDirective):
            self._emit_parallel(
                d, body_emitter=lambda cgf2: cgf2.openmp
                ._emit_parallel_body(d)
            )
            return
        if isinstance(d, (omp.OMPForDirective, omp.OMPForSimdDirective)):
            self._emit_worksharing(d)
            return
        if isinstance(d, (omp.OMPSimdDirective, omp.OMPTaskloopDirective)):
            # simd has no observable threading semantics in our model;
            # taskloop degenerates to single-task execution.
            self._emit_serial_logical_loop(d)
            return
        if isinstance(d, omp.OMPLoopTransformationDirective):
            self._emit_transform(d)
            return
        if isinstance(d, omp.OMPBarrierDirective):
            self.ompb.create_barrier(self.builder)
            return
        if isinstance(d, omp.OMPMasterDirective):
            self._emit_guarded(d, "__kmpc_master", barrier_after=False)
            return
        if isinstance(d, omp.OMPSingleDirective):
            nowait = d.has_clause(cl.OMPNowaitClause)
            self._emit_guarded(
                d, "__kmpc_single", barrier_after=not nowait
            )
            return
        if isinstance(d, omp.OMPCriticalDirective):
            self._emit_critical(d)
            return
        raise OpenMPCodeGenError(
            f"no codegen for directive {type(d).__name__}"
        )

    # ==================================================================
    # Shared helpers
    # ==================================================================
    def _thread_id(self) -> Value:
        """gtid: loaded from the outlined function's ``.global_tid.``
        implicit parameter when available, else via the runtime."""
        gtid_addr = self._find_gtid_param()
        if gtid_addr is not None:
            return self.builder.load(ir_ty.i32, gtid_addr, "gtid")
        return self.ompb.get_global_thread_num(self.builder)

    def _find_gtid_param(self) -> Value | None:
        fn = self.cgf.fn
        if fn is not None and fn.args and fn.args[0].name == "gtid.addr":
            return fn.args[0]
        return None

    def _loc(self) -> Value:
        return ConstantPointerNull()

    def _int_clause_value(
        self, expr: e.Expr | None, default: int
    ) -> int:
        if expr is None:
            return default
        value = self.cgm.evaluator.try_evaluate(expr)
        return value if value is not None else default

    # ==================================================================
    # parallel
    # ==================================================================
    def _emit_parallel(
        self,
        d: omp.OMPExecutableDirective,
        body_emitter: Callable[[CodeGenFunction], None],
    ) -> None:
        captured = d.captured_stmt
        if captured is None:
            raise OpenMPCodeGenError(
                "parallel directive without captured statement"
            )
        cgf = self.cgf

        # num_threads / if clauses are evaluated in the enclosing context.
        num_threads_val: Value | None = None
        nt_clause = d.get_clause(cl.OMPNumThreadsClause)
        if nt_clause is not None:
            num_threads_val = cgf.emit_expr(nt_clause.num_threads)
            if (
                isinstance(num_threads_val.type, ir_ty.IntType)
                and num_threads_val.type.bits != 32
            ):
                num_threads_val = cgf.builder.int_cast(
                    num_threads_val, ir_ty.i32, True, "nt"
                )
        if_clause = d.get_clause(cl.OMPIfClause)
        if if_clause is not None:
            # if(false) => serialized region: team of one.
            flag = cgf.emit_condition(if_clause.condition)
            one = ConstantInt(ir_ty.i32, 1)
            if num_threads_val is None:
                max_fn = self.cgm.module.add_function(
                    "omp_get_max_threads",
                    ir_ty.FunctionType(ir_ty.i32, []),
                )
                num_threads_val = cgf.builder.call(
                    max_fn, [], "maxthreads"
                )
            num_threads_val = cgf.builder.select(
                flag, num_threads_val, one, "nt.if"
            )

        # Outline the region.
        name = self.cgm.next_outlined_name(
            cgf.fn.name if cgf.fn is not None else "region"
        )
        outlined_fn = CodeGenFunction(self.cgm).emit_outlined(
            name, captured, body_emitter
        )

        # Build the context structure of pointers to captured variables.
        context_ptr: Value = ConstantPointerNull()
        record = captured.context_record
        if record is not None and record.fields:
            struct = self.cgm.types.lower_record(record)
            context_ptr = cgf.create_alloca(struct, "omp.context")
            for index, var in enumerate(captured.captures):
                addr = cgf._emit_decl_address(var)
                field = cgf.builder.gep(
                    struct,
                    context_ptr,
                    [
                        ConstantInt(ir_ty.i64, 0),
                        ConstantInt(ir_ty.i32, index),
                    ],
                    f"ctx.{var.name}",
                )
                cgf.builder.store(addr, field)

        self.ompb.create_parallel(
            cgf.builder, outlined_fn, context_ptr, num_threads_val
        )

    def _emit_parallel_body(
        self, d: omp.OMPExecutableDirective
    ) -> None:
        """A plain ``parallel`` region's body, run by every team member
        on its own private, firstprivate and reduction copies; each
        member folds its partial reduction into the original at the
        end."""
        privatizer = _Privatizer(self.cgf)
        privatizer.apply(d)
        self.cgf.emit_stmt(d.captured_stmt.captured_decl.body)
        self.cgf.ensure_insert_point()
        privatizer.emit_reduction_combine()
        privatizer.restore()

    # ==================================================================
    # Worksharing, simd and taskloop loops
    # ==================================================================
    def _schedule_for(
        self, d: omp.OMPExecutableDirective
    ) -> tuple[WorksharedSchedule, e.Expr | None]:
        clause = d.get_clause(cl.OMPScheduleClause)
        if clause is None:
            return WorksharedSchedule.STATIC, None
        plain, chunked = _SCHEDULE_MAP[clause.kind]
        if clause.chunk_size is not None:
            return chunked, clause.chunk_size
        return plain, None

    def _emit_worksharing(self, d: omp.OMPLoopDirective) -> None:
        if self.irbuilder_mode:
            self._emit_worksharing_irbuilder(d)
        else:
            self._emit_shadow_loop(d, worksharing=True)

    def _emit_serial_logical_loop(self, d: omp.OMPLoopDirective) -> None:
        """simd / taskloop: iterate the whole logical space serially
        (with privatization honoured)."""
        if not self.irbuilder_mode:
            self._emit_shadow_loop(d, worksharing=False)
            return
        privatizer = _Privatizer(self.cgf)
        privatizer.apply(d)
        cli, finals = self._generated_loop(d)
        self._position_at_block_end(cli.after)
        if finals is not None:
            _emit_when_nonzero(
                self.cgf, cli.trip_count, "simd.final", "has.iters", finals
            )
        # No worksharing: every "thread" does all iterations; the last
        # iteration always executes here.
        privatizer.finish(ConstantInt(ir_ty.i32, 1))
        privatizer.restore()

    # ------------------------------------------------------------------
    # Shadow-AST path (paper §2)
    # ------------------------------------------------------------------
    def _emit_shadow_loop(
        self, d: omp.OMPLoopDirective, worksharing: bool
    ) -> None:
        """Emit a loop directive from its shadow helpers, as clang's
        ``EmitOMPWorksharingLoop`` does: the transformation pre-inits,
        ``pre_init`` and ``iter_init``, a precondition guard (with zero
        iterations the unsigned bookkeeping would wrap), then ``iv = lb``
        and the inner loop for each chunk of the logical iteration
        space.  A static schedule gets its one chunk's bounds from
        ``__kmpc_for_static_init``, a dispatch schedule pulls chunks
        from ``__kmpc_dispatch_next``, and ``simd``/``taskloop``
        (*worksharing* false) run the whole space as one chunk."""
        cgf = self.cgf
        b = self.builder
        helpers = d.helpers
        if not d.analyses or helpers.pre_init is None:
            raise OpenMPCodeGenError(
                "loop directive lacks shadow helpers"
            )
        privatizer = _Privatizer(cgf)
        privatizer.apply(d)
        # The captured statement may be a CompoundStmt([transform
        # pre-inits..., loop]); emit everything except the loop itself.
        captured = d.captured_stmt
        nest_stmt = captured.body if captured is not None else None
        if isinstance(nest_stmt, s.CompoundStmt):
            for child in nest_stmt.statements[:-1]:
                cgf.emit_stmt(child)
        cgf.emit_stmt(helpers.pre_init)
        cgf.emit_stmt(helpers.iter_init)
        if worksharing:
            lb_addr, ub_addr, stride_addr, last_addr = (
                cgf.emit_lvalue(ref)
                for ref in (
                    helpers.lower_bound_variable,
                    helpers.upper_bound_variable,
                    helpers.stride_variable,
                    helpers.is_last_iter_variable,
                )
            )
            logical_ty = cgf.cgm.types.int_type_for(
                d.analyses[0].logical_type
            )
            suffix = "4u" if logical_ty.bits <= 32 else "8u"
            one = ConstantInt(logical_ty, 1)
            schedule, chunk_expr = self._schedule_for(d)
            gtid = self._thread_id()
        assert cgf.fn is not None
        prefix = "omp" if worksharing else "simd"
        precond_then = cgf.fn.append_block(f"{prefix}.precond.then")
        precond_end = cgf.fn.append_block(f"{prefix}.precond.end")
        precond = cgf.emit_condition(helpers.precondition)
        b.cond_br(precond, precond_then, precond_end)
        b.set_insert_point(precond_then)

        def run_chunk() -> None:
            cgf.emit_expr(helpers.init)  # iv = lb
            self._emit_iv_loop(d)

        finals = self._shadow_counter_finals(d)
        if not worksharing:
            run_chunk()
            if finals is not None:
                finals()
        elif schedule == WorksharedSchedule.STATIC:
            b.call(
                self.ompb.get_runtime_function(
                    f"__kmpc_for_static_init_{suffix}"
                ),
                [
                    self._loc(), gtid,
                    ConstantInt(ir_ty.i32, schedule.value),
                    last_addr, lb_addr, ub_addr, stride_addr, one, one,
                ],
            )
            cgf.emit_expr(helpers.ensure_upper_bound)
            run_chunk()
            b.call(
                self.ompb.get_runtime_function("__kmpc_for_static_fini"),
                [self._loc(), gtid],
            )
        else:
            init_fn = self.ompb.get_runtime_function(
                f"__kmpc_dispatch_init_{suffix}"
            )
            next_fn = self.ompb.get_runtime_function(
                f"__kmpc_dispatch_next_{suffix}"
            )
            trip = cgf.emit_expr(helpers.num_iterations)
            b.call(
                init_fn,
                [
                    self._loc(), gtid,
                    ConstantInt(ir_ty.i32, schedule.value),
                    ConstantInt(logical_ty, 0),
                    b.sub(trip, one, "ub"),
                    one,
                    ConstantInt(
                        logical_ty, self._int_clause_value(chunk_expr, 1)
                    ),
                ],
            )

            def has_chunk() -> Value:
                more = b.call(
                    next_fn,
                    [self._loc(), gtid, last_addr, lb_addr, ub_addr,
                     stride_addr],
                    "omp.more",
                )
                return b.icmp(
                    ICmpPred.NE, more, ConstantInt(ir_ty.i32, 0),
                    "haschunk",
                )

            cgf._emit_loop(
                "omp.dispatch", has_chunk, run_chunk, form="while"
            )
        if worksharing:
            privatizer.finish(
                b.load(ir_ty.i32, last_addr, "omp.islast"), finals
            )
        b.br(precond_end)
        b.set_insert_point(precond_end)
        if not worksharing:
            privatizer.finish(ConstantInt(ir_ty.i32, 1))
        elif not d.has_clause(cl.OMPNowaitClause):
            self.ompb.create_barrier(b, gtid)
        privatizer.restore()

    def _shadow_counter_finals(
        self, d: omp.OMPLoopDirective
    ) -> Callable[[], None] | None:
        """The emitter of the final values of *d*'s linear counters
        (``counter = counter_final``), if it has any."""
        bundles = [d.loop_helpers[level] for level in self._linear_counters(d)]
        if not bundles:
            return None
        cgf = self.cgf

        def finals() -> None:
            for bundle in bundles:
                final = bundle.counter_final
                assert isinstance(final, s.DeclStmt)
                value = cgf.emit_expr(final.decls[0].init)
                cgf.builder.store(value, cgf.emit_lvalue(bundle.counter))

        return finals

    def _linear_counters(self, d: omp.OMPLoopDirective) -> list[int]:
        """The levels of *d*'s loop nest whose counter is observable after
        the loop: a ``simd`` directive's counters declared outside their
        ``for`` (the loops of a consumed transformation have none)."""
        if (
            not isinstance(d, _SIMD_DIRECTIVES)
            or d.consumed_transform is not None
        ):
            return []
        return [
            level
            for level, analysis in enumerate(d.analyses)
            if isinstance(analysis.loop_stmt, s.ForStmt)
            and not analysis.var_declared_in_init
        ]

    def _emit_iv_loop(self, d: omp.OMPLoopDirective) -> None:
        """The inner ``while (iv <= ub)`` loop over the (chunk of the)
        logical iteration space, recomputing each user counter from the
        logical iteration number via the per-loop shadow helpers."""
        cgf = self.cgf

        def body() -> None:
            counters = Rebinding(cgf)
            for bundle in d.loop_helpers:
                cgf.emit_stmt(bundle.counter_update)
                for old_decl, new_var in bundle.counter_substitutions:
                    counters.bind(old_decl, cgf.local_vars[id(new_var)])
            cgf.emit_stmt(d.analyses[-1].body)
            counters.restore()

        cgf._emit_loop(
            "omp.inner.for", d.helpers.cond, body, d.helpers.inc
        )

    # ------------------------------------------------------------------
    # OpenMPIRBuilder path (paper §3.2)
    # ------------------------------------------------------------------
    def _emit_worksharing_irbuilder(
        self, d: omp.OMPLoopDirective
    ) -> None:
        privatizer = _Privatizer(self.cgf)
        privatizer.apply(d)
        cli, finals = self._generated_loop(d)
        schedule, chunk_expr = self._schedule_for(d)
        chunk_val: Value | None = None
        if chunk_expr is not None:
            chunk_val = ConstantInt(
                cli.indvar_type, self._int_clause_value(chunk_expr, 1)
            )
        last_addr = self.ompb.create_workshare_loop(
            self.builder, cli, schedule, chunk_val
        )
        # The after block now begins with static_fini; continue there
        # (before any terminator collapse_loops may have added).
        self._position_at_block_end(cli.after)
        privatizer.finish(
            self.builder.load(ir_ty.i32, last_addr, "lastiter"), finals
        )
        if not d.has_clause(cl.OMPNowaitClause):
            self.ompb.create_barrier(self.builder)
        privatizer.restore()

    def emit_canonical_loops(
        self,
        wrappers: list[omp.OMPCanonicalLoop],
        name: str,
        nested: bool,
    ) -> list[CanonicalLoopInfo]:
        """Emit ``OMPCanonicalLoop`` wrappers as OpenMPIRBuilder
        skeletons, the k-th named ``name.format(k=k)``: a nest, each
        skeleton inside the previous one's body, or (*nested* false) a
        sequence of siblings.  The builder is left after the outermost
        (or last) loop.

        Contract with OpenMPIRBuilder: every distance function is
        evaluated before the first skeleton is created (tile, collapse
        and fuse read the trip counts in the outermost preheader), an
        intermediate body of a nest contains only the next level, and
        an innermost body holds the user-variable updates plus the
        loop body.
        """
        trips = [self._emit_distance_fn(wrapper) for wrapper in wrappers]
        clis: list[CanonicalLoopInfo] = []
        for k, (wrapper, trip) in enumerate(zip(wrappers, trips)):
            cli = self.ompb.create_canonical_loop(
                self.builder, trip, None, name=name.format(k=k)
            )
            clis.append(cli)
            if nested and k + 1 < len(wrappers):
                # The next level's skeleton (its `br latch` migrates
                # into the inner loop's after block during the split).
                self.builder.set_insert_point(cli.body, 0)
                continue
            levels = (wrappers, clis) if nested else ([wrapper], [cli])
            self._emit_into_body(
                cli, lambda: self._emit_innermost_body(*levels)
            )
            outer = clis[0] if nested else cli
            self.builder.set_insert_point(outer.after, 0)
        return clis

    def _position_at_block_end(self, block) -> None:
        """Continue emission after a loop transformation.

        collapse_loops terminates the transformed loop's after block with
        a branch into the original continuation block; follow that chain
        of empty pass-through branches to the final unterminated block so
        subsequent statements (and the implicit return) land correctly.
        """
        from repro.ir.instructions import BranchInst

        seen = set()
        while (
            isinstance(block.terminator, BranchInst)
            and id(block) not in seen
        ):
            seen.add(id(block))
            block = block.terminator.target
        self.builder.set_insert_point(block)

    def _emit_into_body(
        self, cli: CanonicalLoopInfo, emit: Callable[[], None]
    ) -> None:
        """Emit arbitrary (possibly multi-block) code into a skeleton's
        body: drop the placeholder ``br latch``, emit, then re-terminate
        whatever block control flow ended in with a branch to the latch.
        break/continue inside the body map to exit/latch."""
        from repro.ir.instructions import BranchInst

        cgf = self.cgf
        term = cli.body.terminator
        assert isinstance(term, BranchInst) and term.target is cli.latch
        term.erase()
        self.builder.set_insert_point(cli.body)
        cgf._loop_targets.append((cli.exit, cli.latch))
        emit()
        cgf._loop_targets.pop()
        cgf.ensure_insert_point()
        if self.builder.insert_block.terminator is None:
            self.builder.br(cli.latch)

    def _emit_distance_fn(self, wrapper: omp.OMPCanonicalLoop) -> Value:
        """Call (inline-emit) the distance function: allocate ``Result``,
        run the lambda body, load the trip count."""
        cgf = self.cgf
        distance = wrapper.distance_func
        result_param = distance.captured_decl.params[0]
        result_ty = cgf.lowered(
            ast_ty.desugar(result_param.type).type.pointee  # type: ignore[attr-defined]
        )
        slot = cgf.create_alloca(result_ty, "omp.distance.result")
        cgf.reference_bindings[id(result_param)] = slot
        cgf.emit_stmt(distance.captured_decl.body)
        cgf.reference_bindings.pop(id(result_param), None)
        return self.builder.load(result_ty, slot, "omp.tripcount")

    def _emit_innermost_body(
        self,
        wrappers: list[omp.OMPCanonicalLoop],
        clis: list[CanonicalLoopInfo],
    ) -> None:
        """Per level: bind private storage for the loop user variable and
        fill it from the level's logical induction variable; then emit
        the innermost loop body."""
        cgf = self.cgf
        user_vars = Rebinding(cgf)
        for wrapper, cli in zip(wrappers, clis):
            user_decl = wrapper.loop_var_ref.decl
            is_reference = isinstance(
                ast_ty.desugar(user_decl.type).type, ast_ty.ReferenceType
            )
            storage = cgf.create_alloca(
                ir_ty.ptr
                if is_reference
                else cgf.lowered(wrapper.loop_var_ref.type),
                f"{user_decl.name}.priv",
            )
            user_vars.bind(user_decl, storage)
            self._emit_user_value(wrapper, cli.indvar, storage, is_reference)
        loop_stmt = wrappers[-1].loop_stmt
        if not isinstance(loop_stmt, (s.ForStmt, s.CXXForRangeStmt)):
            raise OpenMPCodeGenError(
                "canonical loop wraps a non-loop statement"
            )
        cgf.emit_stmt(loop_stmt.body)
        user_vars.restore()

    def _emit_user_value(
        self,
        wrapper: omp.OMPCanonicalLoop,
        logical: Value,
        storage: Value,
        is_reference: bool,
    ) -> None:
        """Call (inline-emit) the user value function with ``__i`` =
        *logical*, storing the loop user variable's value into
        *storage*.  A by-reference user variable (range-for
        ``T &v : ...``) must *alias* the element: *storage* receives the
        element's address instead of a copy of its value."""
        cgf = self.cgf
        value_fn = wrapper.loop_var_func
        result_param, i_param = value_fn.captured_decl.params[:2]
        i_ty = cgf.lowered(i_param.type)
        i_slot = cgf.create_alloca(i_ty, "omp.logical.i")
        if (
            isinstance(i_ty, ir_ty.IntType)
            and isinstance(logical.type, ir_ty.IntType)
            and i_ty.bits != logical.type.bits
        ):
            logical = self.builder.int_cast(logical, i_ty, False, "iv.cast")
        self.builder.store(logical, i_slot)
        params = Rebinding(cgf)
        params.bind(i_param, i_slot)
        body = value_fn.captured_decl.body
        if is_reference:
            assert isinstance(body, s.CompoundStmt)
            assign = body.statements[0]
            assert isinstance(assign, e.BinaryOperator)
            self.builder.store(cgf.emit_lvalue(assign.rhs), storage)
        else:
            params.bind_reference(result_param, storage)
            cgf.emit_stmt(body)
        params.restore()

    # ==================================================================
    # Loop transformations
    # ==================================================================
    def _generated_loops(
        self, d: omp.OMPLoopBasedDirective
    ) -> list[CanonicalLoopInfo]:
        """The IRBuilder handles of the loops *d* applies to: the loop
        generated by the inner transformation it consumes (paper §4:
        ``unroll partial`` over ``tile`` over the literal loop, each
        level handing its generated handle to the next), its canonical
        nest, or the sibling loops of a ``fuse`` sequence."""
        if d.consumed_transform is not None:
            return [self._apply_transform(d.consumed_transform)]
        wrappers = d.canonical_loops
        if wrappers is None:
            raise OpenMPCodeGenError(
                "directive lacks OMPCanonicalLoop wrappers "
                "(irbuilder mode requires Sema in irbuilder mode too)"
            )
        if isinstance(d, omp.OMPFuseDirective):
            return self.emit_canonical_loops(wrappers, "omp_seq.{k}", False)
        # Pre-init statements preceding the wrapper in the associated
        # compound (consumed transformation bookkeeping).
        associated = d.associated_stmt
        if isinstance(associated, s.CapturedStmt):
            associated = associated.captured_decl.body
        if isinstance(associated, s.CompoundStmt):
            for child in associated.statements:
                if not isinstance(child, omp.OMPCanonicalLoop):
                    self.cgf.emit_stmt(child)
        return self.emit_canonical_loops(wrappers, "omp_loop.{k}", True)

    def _generated_loop(
        self, d: omp.OMPLoopDirective
    ) -> tuple[CanonicalLoopInfo, Callable[[], None] | None]:
        """The one loop a worksharing, ``simd`` or ``taskloop``
        directive iterates (its generated loops, collapsed), and the
        emitter of its linear counters' final values, if it has any:
        each counter's user value function at its loop's trip count."""
        clis = self._generated_loops(d)
        finals = None
        levels = self._linear_counters(d)
        if levels:
            wrappers = d.canonical_loops
            assert wrappers is not None
            trips = [clis[level].trip_count for level in levels]

            def finals() -> None:
                for level, trip in zip(levels, trips):
                    ref = wrappers[level].loop_var_ref
                    self._emit_user_value(
                        wrappers[level], trip, self.cgf.emit_lvalue(ref),
                        False,
                    )

        if len(clis) > 1:
            return self.ompb.collapse_loops(self.builder, clis), finals
        return clis[0], finals

    def _apply_transform(
        self, d: omp.OMPLoopTransformationDirective
    ) -> CanonicalLoopInfo:
        """Apply *d* to its generated loops through the OpenMPIRBuilder.

        Returns the outermost loop it generates; full and heuristic
        unrolling only attach metadata for the mid-end and return the
        loop itself, which Sema lets no directive consume."""
        clis = self._generated_loops(d)
        ompb, builder = self.ompb, self.builder
        if isinstance(d, omp.OMPUnrollDirective):
            if d.unroll_factor is not None:
                return ompb.unroll_loop_partial(
                    builder, clis[0], d.unroll_factor
                )
            if d.has_clause(cl.OMPFullClause):
                ompb.unroll_loop_full(clis[0])
            else:
                ompb.unroll_loop_heuristic(clis[0])
            return clis[0]
        if isinstance(d, omp.OMPTileDirective):
            assert d.tile_sizes is not None
            return ompb.tile_loops(builder, clis, d.tile_sizes)[0]
        if isinstance(d, omp.OMPReverseDirective):
            return ompb.reverse_loop(builder, clis[0])
        if isinstance(d, omp.OMPInterchangeDirective):
            assert d.permutation is not None
            return ompb.interchange_loops(builder, clis, d.permutation)[0]
        assert isinstance(d, omp.OMPFuseDirective)
        return ompb.fuse_loops(builder, clis)

    def _emit_transform(self, d: omp.OMPLoopTransformationDirective) -> None:
        """A loop transformation no other directive consumes."""
        cgf = self.cgf
        if self.irbuilder_mode:
            self._position_at_block_end(self._apply_transform(d).after)
            return
        cgf.emit_stmt(d.pre_inits)
        transformed = d.get_transformed_stmt()
        if transformed is not None:
            # "If encountering a non-associated tile construct, CodeGen
            # will simply emit the transformed AST in its place" (paper
            # §2.2).  A partially unrolled loop's LoopHintAttr becomes
            # llvm.loop.unroll.count metadata.
            cgf.emit_stmt(transformed)
            return
        # Full/heuristic unroll: no transformed AST; attach metadata to
        # the literal loop and let the mid-end LoopUnroll decide (paper
        # §2.2: "it is more efficient to defer unrolling to the
        # LoopUnroll pass ... without even tiling the loop beforehand").
        assert isinstance(d, omp.OMPUnrollDirective)
        full = d.has_clause(cl.OMPFullClause)
        cgf._pending_loop_metadata = loop_metadata(
            unroll_full=full, unroll_enable=not full
        )
        cgf.emit_stmt(d.analyses[0].loop_stmt)

    # ==================================================================
    # master / single / critical
    # ==================================================================
    def _emit_guarded(
        self,
        d: omp.OMPExecutableDirective,
        runtime_name: str,
        barrier_after: bool,
    ) -> None:
        cgf = self.cgf
        assert cgf.fn is not None
        gtid = self._thread_id()
        guard_fn = self.ompb.get_runtime_function(runtime_name)
        flag = self.builder.call(
            guard_fn, [self._loc(), gtid], "guard"
        )
        taken = self.builder.icmp(
            ICmpPred.NE, flag, ConstantInt(ir_ty.i32, 0), "guard.bool"
        )
        then_bb = cgf.fn.append_block("omp.guard.then")
        end_bb = cgf.fn.append_block("omp.guard.end")
        self.builder.cond_br(taken, then_bb, end_bb)
        self.builder.set_insert_point(then_bb)
        cgf.emit_stmt(d.associated_stmt)
        end_fn = self.ompb.get_runtime_function(
            runtime_name.replace("__kmpc_", "__kmpc_end_")
        )
        self.builder.call(end_fn, [self._loc(), gtid])
        self.builder.br(end_bb)
        self.builder.set_insert_point(end_bb)
        if barrier_after:
            self.ompb.create_barrier(self.builder, gtid)

    def _emit_critical(self, d: omp.OMPCriticalDirective) -> None:
        name = d.name or "unnamed"
        self.ompb.create_critical(
            self.builder,
            lambda builder: self.cgf.emit_stmt(d.associated_stmt),
            name,
        )
