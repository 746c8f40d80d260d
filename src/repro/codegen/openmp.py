"""OpenMP directive code generation — both representations.

Legacy path (paper §2): consumes the shadow AST.  ``OMPLoopDirective``'s
helper expressions (``.omp.iv``/``.omp.lb``/...) drive the worksharing
loop emission exactly as clang's ``EmitOMPWorksharingLoop`` does; loop
transformation directives emit their Sema-built transformed statement (or
only attach ``llvm.loop.unroll.*`` metadata when the mid-end can do the
job better — §2.2).

IRBuilder path (paper §3.2): consumes ``OMPCanonicalLoop`` nodes.  CodeGen
evaluates the *distance function* to obtain the trip count, calls
``OpenMPIRBuilder.create_canonical_loop``, fills the loop user variable by
emitting the *user value function* with the logical induction variable,
and passes the resulting ``CanonicalLoopInfo`` handles to
``create_workshare_loop`` / ``tile_loops`` / ``unroll_loop_*``.

Outlining for ``parallel`` stays AST-level (CapturedStmt) in both paths,
matching the current state described by the paper ("other directives such
as OMPParallelForDirective still may [wrap in CapturedStmt]").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.astlib import clauses as cl
from repro.astlib import exprs as e
from repro.astlib import omp
from repro.astlib import stmts as s
from repro.astlib import types as ast_ty
from repro.astlib.decls import VarDecl
from repro.ir import types as ir_ty
from repro.ir.instructions import BinOp, CastOp, FCmpPred, ICmpPred
from repro.ir.metadata import loop_metadata
from repro.ir.values import ConstantFP, ConstantInt, ConstantPointerNull, Value
from repro.ompirbuilder import CanonicalLoopInfo, WorksharedSchedule

if TYPE_CHECKING:
    from repro.codegen.function import CodeGenFunction


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


class _Privatizer:
    """Data-sharing clause handling: private copies, firstprivate init,
    lastprivate copy-back, reduction accumulate+combine."""

    def __init__(self, cgf: "CodeGenFunction") -> None:
        self.cgf = cgf
        self._saved: dict[int, Value | None] = {}
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
        if id(decl) not in self._saved:
            self._saved[id(decl)] = cgf.local_vars.get(id(decl))
        cgf.local_vars[id(decl)] = private
        # Private copies shadow capture-field resolution too.
        cgf.capture_fields.pop(id(decl), None)
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
    def emit_lastprivate_copyback(self, is_last_flag: Value) -> None:
        """``if (is_last) original = private;`` for each lastprivate."""
        if not self.lastprivates:
            return
        cgf = self.cgf
        assert cgf.fn is not None
        then_bb = cgf.fn.append_block("lastprivate.then")
        end_bb = cgf.fn.append_block("lastprivate.end")
        flag = cgf.builder.icmp(
            ICmpPred.NE, is_last_flag, ConstantInt(ir_ty.i32, 0), "is.last"
        )
        cgf.builder.cond_br(flag, then_bb, end_bb)
        cgf.builder.set_insert_point(then_bb)
        for decl, private, original in self.lastprivates:
            ty = cgf.lowered(decl.type)
            value = cgf.builder.load(ty, private, f"{decl.name}.final")
            cgf.builder.store(value, original)
        cgf.builder.br(end_bb)
        cgf.builder.set_insert_point(end_bb)

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

    def restore(self) -> None:
        for key, value in self._saved.items():
            if value is None:
                self.cgf.local_vars.pop(key, None)
            else:
                self.cgf.local_vars[key] = value


class OpenMPCodeGen:
    def __init__(self, cgf: "CodeGenFunction") -> None:
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
        body_emitter: Callable[["CodeGenFunction"], None],
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
        from repro.codegen.function import CodeGenFunction

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
    # Worksharing loops
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
            self._emit_worksharing_legacy(d)

    # ------------------------------------------------------------------
    # Legacy (shadow AST helpers) path
    # ------------------------------------------------------------------
    def _emit_worksharing_legacy(self, d: omp.OMPLoopDirective) -> None:
        cgf = self.cgf
        helpers = d.helpers
        analyses = d.analyses
        if not analyses or helpers.pre_init is None:
            raise OpenMPCodeGenError(
                "loop directive lacks shadow helpers"
            )
        privatizer = _Privatizer(cgf)
        privatizer.apply(d)

        # Pre-inits of consumed loop transformations were folded into the
        # captured nest; here we need the bookkeeping vars.  The captured
        # statement may be a CompoundStmt([transform pre-inits..., loop]);
        # emit everything except the loop itself.
        captured = d.captured_stmt
        nest_stmt = captured.body if captured is not None else None
        if isinstance(nest_stmt, s.CompoundStmt):
            for child in nest_stmt.statements[:-1]:
                cgf.emit_stmt(child)

        cgf.emit_stmt(helpers.pre_init)
        cgf.emit_stmt(helpers.iter_init)
        iv_decl = helpers.iteration_variable.ignore_implicit_casts().decl  # type: ignore[union-attr]
        lb_decl = helpers.lower_bound_variable.ignore_implicit_casts().decl  # type: ignore[union-attr]
        ub_decl = helpers.upper_bound_variable.ignore_implicit_casts().decl  # type: ignore[union-attr]
        stride_decl = helpers.stride_variable.ignore_implicit_casts().decl  # type: ignore[union-attr]
        last_decl = helpers.is_last_iter_variable.ignore_implicit_casts().decl  # type: ignore[union-attr]
        lb_addr = cgf.local_vars[id(lb_decl)]
        ub_addr = cgf.local_vars[id(ub_decl)]
        stride_addr = cgf.local_vars[id(stride_decl)]
        last_addr = cgf.local_vars[id(last_decl)]

        logical_ty = cgf.cgm.types.int_type_for(
            analyses[0].logical_type
        )
        suffix = "4u" if logical_ty.bits <= 32 else "8u"
        schedule, chunk_expr = self._schedule_for(d)
        nowait = d.has_clause(cl.OMPNowaitClause)
        gtid = self._thread_id()

        # Precondition guard (clang does the same): with zero iterations
        # the whole worksharing machinery is skipped — the unsigned
        # bookkeeping would otherwise wrap.
        assert cgf.fn is not None
        precond_then = cgf.fn.append_block("omp.precond.then")
        precond_end = cgf.fn.append_block("omp.precond.end")
        precond = cgf.emit_condition(helpers.precondition)
        self.builder.cond_br(precond, precond_then, precond_end)
        self.builder.set_insert_point(precond_then)

        if schedule == WorksharedSchedule.STATIC:
            init_fn = self.ompb.get_runtime_function(
                f"__kmpc_for_static_init_{suffix}"
            )
            chunk_val = ConstantInt(logical_ty, 1)
            self.builder.call(
                init_fn,
                [
                    self._loc(),
                    gtid,
                    ConstantInt(ir_ty.i32, schedule.value),
                    last_addr,
                    lb_addr,
                    ub_addr,
                    stride_addr,
                    ConstantInt(logical_ty, 1),
                    chunk_val,
                ],
            )
            cgf.emit_expr(helpers.ensure_upper_bound)
            cgf.emit_expr(helpers.init)
            self._emit_iv_loop(d, analyses, helpers)
            fini_fn = self.ompb.get_runtime_function(
                "__kmpc_for_static_fini"
            )
            self.builder.call(fini_fn, [self._loc(), gtid])
        else:
            # Chunked/dynamic/guided: dispatch loop pulling chunks.
            init_fn = self.ompb.get_runtime_function(
                f"__kmpc_dispatch_init_{suffix}"
            )
            next_fn = self.ompb.get_runtime_function(
                f"__kmpc_dispatch_next_{suffix}"
            )
            trip = cgf.emit_expr(helpers.num_iterations)
            chunk_val: Value = ConstantInt(
                logical_ty,
                self._int_clause_value(chunk_expr, 1),
            )
            self.builder.call(
                init_fn,
                [
                    self._loc(),
                    gtid,
                    ConstantInt(ir_ty.i32, schedule.value),
                    ConstantInt(logical_ty, 0),
                    self.builder.sub(
                        trip, ConstantInt(logical_ty, 1), "ub"
                    ),
                    ConstantInt(logical_ty, 1),
                    chunk_val,
                ],
            )
            assert cgf.fn is not None
            dispatch_cond = cgf.fn.append_block("omp.dispatch.cond")
            dispatch_body = cgf.fn.append_block("omp.dispatch.body")
            dispatch_end = cgf.fn.append_block("omp.dispatch.end")
            self.builder.br(dispatch_cond)
            self.builder.set_insert_point(dispatch_cond)
            more = self.builder.call(
                next_fn,
                [self._loc(), gtid, last_addr, lb_addr, ub_addr,
                 stride_addr],
                "omp.more",
            )
            has_chunk = self.builder.icmp(
                ICmpPred.NE, more, ConstantInt(ir_ty.i32, 0), "haschunk"
            )
            self.builder.cond_br(has_chunk, dispatch_body, dispatch_end)
            self.builder.set_insert_point(dispatch_body)
            cgf.emit_expr(helpers.init)  # iv = lb
            self._emit_iv_loop(d, analyses, helpers)
            self.builder.br(dispatch_cond)
            self.builder.set_insert_point(dispatch_end)

        is_last_val = self.builder.load(
            ir_ty.i32, last_addr, "omp.islast"
        )
        privatizer.emit_lastprivate_copyback(is_last_val)
        privatizer.emit_reduction_combine()
        self.builder.br(precond_end)
        self.builder.set_insert_point(precond_end)
        if not nowait:
            self.ompb.create_barrier(self.builder, gtid)
        privatizer.restore()

    def _emit_iv_loop(
        self,
        d: omp.OMPLoopDirective,
        analyses,
        helpers: omp.LoopDirectiveHelpers,
    ) -> None:
        """The inner ``while (iv <= ub)`` loop over the (chunk of the)
        logical iteration space, recomputing each user counter from the
        logical iteration number via the per-loop shadow helpers."""
        cgf = self.cgf
        assert cgf.fn is not None
        cond_bb = cgf.fn.append_block("omp.inner.for.cond")
        body_bb = cgf.fn.append_block("omp.inner.for.body")
        inc_bb = cgf.fn.append_block("omp.inner.for.inc")
        end_bb = cgf.fn.append_block("omp.inner.for.end")
        self.builder.br(cond_bb)
        self.builder.set_insert_point(cond_bb)
        cond = cgf.emit_condition(helpers.cond)
        self.builder.cond_br(cond, body_bb, end_bb)
        self.builder.set_insert_point(body_bb)

        saved: dict[int, Value | None] = {}
        for level, analysis in enumerate(analyses):
            bundle = d.loop_helpers[level]
            cgf.emit_stmt(bundle.counter_update)
            for old_decl, new_var in bundle.counter_substitutions:
                saved.setdefault(
                    id(old_decl), cgf.local_vars.get(id(old_decl))
                )
                cgf.local_vars[id(old_decl)] = cgf.local_vars[
                    id(new_var)
                ]
                cgf.capture_fields.pop(id(old_decl), None)
        cgf._loop_targets.append((end_bb, inc_bb))
        cgf.emit_stmt(analyses[-1].body)
        cgf._loop_targets.pop()
        for key, value in saved.items():
            if value is None:
                cgf.local_vars.pop(key, None)
            else:
                cgf.local_vars[key] = value
        cgf.ensure_insert_point()
        if self.builder.insert_block.terminator is None:
            self.builder.br(inc_bb)
        self.builder.set_insert_point(inc_bb)
        cgf.emit_expr(helpers.inc)
        self.builder.br(cond_bb)
        self.builder.set_insert_point(end_bb)

    def _emit_serial_logical_loop(self, d: omp.OMPLoopDirective) -> None:
        """simd / taskloop: iterate the whole logical space serially
        (with privatization honoured)."""
        cgf = self.cgf
        privatizer = _Privatizer(cgf)
        privatizer.apply(d)
        if self.irbuilder_mode:
            self._position_at_block_end(self._generated_loop(d).after)
        else:
            helpers = d.helpers
            analyses = d.analyses
            captured = d.captured_stmt
            nest_stmt = captured.body if captured is not None else None
            if isinstance(nest_stmt, s.CompoundStmt):
                for child in nest_stmt.statements[:-1]:
                    cgf.emit_stmt(child)
            cgf.emit_stmt(helpers.pre_init)
            cgf.emit_stmt(helpers.iter_init)
            assert cgf.fn is not None
            precond_then = cgf.fn.append_block("simd.precond.then")
            precond_end = cgf.fn.append_block("simd.precond.end")
            precond = cgf.emit_condition(helpers.precondition)
            self.builder.cond_br(precond, precond_then, precond_end)
            self.builder.set_insert_point(precond_then)
            cgf.emit_expr(helpers.init)
            self._emit_iv_loop(d, analyses, helpers)
            self.builder.br(precond_end)
            self.builder.set_insert_point(precond_end)
        # No worksharing: every "thread" does all iterations; the last
        # iteration always executes here.
        privatizer.emit_lastprivate_copyback(ConstantInt(ir_ty.i32, 1))
        privatizer.emit_reduction_combine()
        privatizer.restore()

    # ------------------------------------------------------------------
    # OpenMPIRBuilder path (paper §3.2)
    # ------------------------------------------------------------------
    def _emit_worksharing_irbuilder(
        self, d: omp.OMPLoopDirective
    ) -> None:
        cgf = self.cgf
        privatizer = _Privatizer(cgf)
        privatizer.apply(d)
        cli = self._generated_loop(d)
        schedule, chunk_expr = self._schedule_for(d)
        chunk_val: Value | None = None
        if chunk_expr is not None:
            logical_ty = cli.indvar_type
            chunk_val = ConstantInt(
                logical_ty, self._int_clause_value(chunk_expr, 1)
            )
        nowait = d.has_clause(cl.OMPNowaitClause)
        self.ompb.create_workshare_loop(
            self.builder, cli, schedule, chunk_val, nowait=True
        )
        # The after block now begins with static_fini; continue there
        # (before any terminator collapse_loops may have added).
        self._position_at_block_end(cli.after)
        privatizer.emit_lastprivate_copyback(
            self._load_lastiter_flag(cli)
        )
        privatizer.emit_reduction_combine()
        if not nowait:
            self.ompb.create_barrier(self.builder)
        privatizer.restore()

    def _load_lastiter_flag(self, cli: CanonicalLoopInfo) -> Value:
        """Load the p.lastiter alloca created by create_workshare_loop."""
        from repro.ir.instructions import AllocaInst

        for inst in cli.preheader.instructions:
            if (
                isinstance(inst, AllocaInst)
                and inst.name.startswith("p.lastiter")
            ):
                return self.builder.load(ir_ty.i32, inst, "lastiter")
        # Entry-block allocas (hoisted) — search the whole function.
        for inst in cli.function.instructions():
            if (
                isinstance(inst, AllocaInst)
                and inst.name.startswith("p.lastiter")
            ):
                return self.builder.load(ir_ty.i32, inst, "lastiter")
        return ConstantInt(ir_ty.i32, 1)

    def _emit_canonical_nest(
        self, d: omp.OMPLoopBasedDirective
    ) -> list[CanonicalLoopInfo]:
        """Emit the ``OMPCanonicalLoop`` nest of a directive.

        Contract with OpenMPIRBuilder: all distance functions are
        evaluated before the outermost skeleton is created, intermediate
        bodies contain only the next level, and the innermost body holds
        the user-variable updates plus the loop body.
        """
        cgf = self.cgf
        canonical_loops = d.canonical_loops
        if canonical_loops is None:
            raise OpenMPCodeGenError(
                "directive lacks OMPCanonicalLoop wrappers "
                "(irbuilder mode requires Sema in irbuilder mode too)"
            )
        # Emit any pre-init statements preceding the wrapper in the
        # associated compound (consumed transformation bookkeeping).
        associated = d.associated_stmt
        if isinstance(associated, s.CapturedStmt):
            associated = associated.captured_decl.body
        if isinstance(associated, s.CompoundStmt):
            for child in associated.statements:
                if not isinstance(child, omp.OMPCanonicalLoop):
                    cgf.emit_stmt(child)

        # Evaluate every distance function before creating any skeleton
        # (rectangular-nest contract with tile_loops/collapse_loops).
        trips = [
            self._emit_distance_fn(wrapper)
            for wrapper in canonical_loops
        ]
        clis_by_level: list[CanonicalLoopInfo] = []

        def gen_level(level: int, builder) -> None:
            cli = self.ompb.create_canonical_loop(
                builder,
                trips[level],
                None,
                name=f"omp_loop.{level}",
            )
            clis_by_level.append(cli)
            if level + 1 < len(canonical_loops):
                # Intermediate body contains exactly the next skeleton
                # (its existing `br latch` migrates into the inner
                # loop's after block during the split).
                builder.set_insert_point(cli.body, 0)
                gen_level(level + 1, builder)
            else:
                self._emit_into_body(
                    cli,
                    lambda: self._emit_innermost_body(
                        canonical_loops, clis_by_level, cli.indvar
                    ),
                )

        gen_level(0, self.builder)
        self.builder.set_insert_point(clis_by_level[0].after, 0)
        return clis_by_level

    def _emit_canonical_sequence(
        self, d: omp.OMPFuseDirective
    ) -> list[CanonicalLoopInfo]:
        """Emit the *sibling* canonical loops of a ``fuse`` directive
        consecutively — every trip count is materialized before the
        first skeleton (so fuse_loops can take the max in the shared
        preheader), matching the shadow build_fuse pre-init order."""
        wrappers = d.canonical_loops
        if wrappers is None:
            raise OpenMPCodeGenError(
                "fuse directive lacks OMPCanonicalLoop wrappers "
                "(irbuilder mode requires Sema in irbuilder mode too)"
            )
        trips = [self._emit_distance_fn(w) for w in wrappers]
        clis: list[CanonicalLoopInfo] = []
        for k, (wrapper, trip) in enumerate(zip(wrappers, trips)):
            cli = self.ompb.create_canonical_loop(
                self.builder, trip, None, name=f"omp_seq.{k}"
            )
            self._emit_into_body(
                cli,
                lambda w=wrapper, c=cli: self._emit_innermost_body(
                    [w], [c], c.indvar
                ),
            )
            self.builder.set_insert_point(cli.after, 0)
            clis.append(cli)
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
        canonical_loops: list[omp.OMPCanonicalLoop],
        clis: list[CanonicalLoopInfo],
        innermost_iv: Value,
    ) -> None:
        """Per level: bind private storage for the loop user variable and
        emit the user value function with ``__i`` = the level's logical
        induction variable; then emit the innermost loop body."""
        cgf = self.cgf
        overlays: dict[int, Value | None] = {}
        ref_overlays: list[int] = []
        for level, wrapper in enumerate(canonical_loops):
            iv_value: Value = (
                clis[level].indvar if level < len(clis) else innermost_iv
            )
            user_decl = wrapper.loop_var_ref.decl
            is_reference = isinstance(
                ast_ty.desugar(user_decl.type).type, ast_ty.ReferenceType
            )
            user_ty = (
                ir_ty.ptr
                if is_reference
                else cgf.lowered(wrapper.loop_var_ref.type)
            )
            storage = cgf.create_alloca(
                user_ty, f"{user_decl.name}.priv"
            )
            overlays[id(user_decl)] = cgf.local_vars.get(id(user_decl))
            cgf.local_vars[id(user_decl)] = storage
            cgf.capture_fields.pop(id(user_decl), None)

            value_fn = wrapper.loop_var_func
            params = value_fn.captured_decl.params
            result_param, i_param = params[0], params[1]
            i_ty = cgf.lowered(i_param.type)
            i_slot = cgf.create_alloca(i_ty, "omp.logical.i")
            iv_cast = iv_value
            if (
                isinstance(i_ty, ir_ty.IntType)
                and isinstance(iv_value.type, ir_ty.IntType)
                and i_ty.bits != iv_value.type.bits
            ):
                iv_cast = self.builder.int_cast(
                    iv_value, i_ty, False, "iv.cast"
                )
            self.builder.store(iv_cast, i_slot)
            overlays[id(i_param)] = cgf.local_vars.get(id(i_param))
            cgf.local_vars[id(i_param)] = i_slot
            if is_reference:
                # A by-reference loop user variable (range-for
                # `T &v : ...`) must *alias* the element: store the
                # element address into the reference slot instead of
                # copying the value.
                body = value_fn.captured_decl.body
                assert isinstance(body, s.CompoundStmt)
                assign = body.statements[0]
                assert isinstance(assign, e.BinaryOperator)
                element_addr = cgf.emit_lvalue(assign.rhs)
                self.builder.store(element_addr, storage)
            else:
                cgf.reference_bindings[id(result_param)] = storage
                ref_overlays.append(id(result_param))
                cgf.emit_stmt(value_fn.captured_decl.body)

        # The body of the innermost wrapped loop.
        loop_stmt = canonical_loops[-1].loop_stmt
        if isinstance(loop_stmt, s.ForStmt):
            body = loop_stmt.body
        elif isinstance(loop_stmt, s.CXXForRangeStmt):
            body = loop_stmt.body
            # The loop user variable declared by the range-for is the
            # private storage we just filled; bind it.
            var = loop_stmt.loop_variable
            if id(var) not in overlays:
                overlays[id(var)] = cgf.local_vars.get(id(var))
            # (already bound above: loop_var_ref.decl is this var)
        else:
            raise OpenMPCodeGenError(
                "canonical loop wraps a non-loop statement"
            )
        cgf.emit_stmt(body)
        for key in ref_overlays:
            cgf.reference_bindings.pop(key, None)
        for key, value in overlays.items():
            if value is None:
                cgf.local_vars.pop(key, None)
            else:
                cgf.local_vars[key] = value

    def emit_standalone_canonical_loop(
        self, wrapper: omp.OMPCanonicalLoop
    ) -> CanonicalLoopInfo:
        """An OMPCanonicalLoop outside any transforming directive: emit
        it as a plain canonical loop."""
        trip = self._emit_distance_fn(wrapper)
        cli = self.ompb.create_canonical_loop(
            self.builder, trip, None, name="omp_loop"
        )
        self._emit_into_body(
            cli,
            lambda: self._emit_innermost_body(
                [wrapper], [cli], cli.indvar
            ),
        )
        self.builder.set_insert_point(cli.after, 0)
        return cli

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
        if isinstance(d, omp.OMPFuseDirective):
            return self._emit_canonical_sequence(d)
        return self._emit_canonical_nest(d)

    def _generated_loop(self, d: omp.OMPLoopDirective) -> CanonicalLoopInfo:
        """The one loop a worksharing, ``simd`` or ``taskloop``
        directive iterates: its generated loops, collapsed."""
        clis = self._generated_loops(d)
        if len(clis) > 1:
            return self.ompb.collapse_loops(self.builder, clis)
        return clis[0]

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
