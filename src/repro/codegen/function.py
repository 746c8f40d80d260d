"""CodeGenFunction: statement and expression IR emission."""

from __future__ import annotations

from typing import Callable, Optional

from repro.astlib import exprs as e
from repro.astlib import omp
from repro.astlib import stmts as s
from repro.astlib import types as ast_ty
from repro.astlib.decls import (
    CapturedDecl,
    FunctionDecl,
    ImplicitParamDecl,
    ParmVarDecl,
    VarDecl,
)
from repro.codegen.module import CodeGenModule
from repro.ir import (
    BasicBlock,
    ConstantInt,
    Function,
    IRBuilder,
)
from repro.ir import types as ir_ty
from repro.ir.instructions import (
    BinOp,
    CastOp,
    FCmpPred,
    ICmpPred,
)
from repro.ir.metadata import MDNode, loop_metadata
from repro.ir.values import Value


class CodeGenError(Exception):
    pass


#: the blocks of each loop form, in the order they are appended
_LOOP_BLOCKS = {
    "for": ("cond", "body", "inc", "end"),
    "while": ("cond", "body", "end"),
    "do": ("body", "cond", "end"),
}


class Rebinding:
    """Points declarations at new storage for a while, then puts every
    one back: private copies of data-sharing clauses, the per-iteration
    counters of a shadow loop and the loop user variables of an
    ``OMPCanonicalLoop``.  While rebound, a declaration captured by the
    outlined region does not resolve through its capture field."""

    def __init__(self, cgf: "CodeGenFunction") -> None:
        self.cgf = cgf
        #: VarDecl id -> (address, capture field index) before the first
        #: rebinding
        self._saved: dict[int, tuple[Value | None, int | None]] = {}
        self._references: list[int] = []

    def bind(self, decl, addr: Value) -> None:
        cgf = self.cgf
        key = id(decl)
        if key not in self._saved:
            self._saved[key] = (
                cgf.local_vars.get(key),
                cgf.capture_fields.pop(key, None),
            )
        cgf.local_vars[key] = addr

    def bind_reference(self, decl, addr: Value) -> None:
        """Bind a reference parameter directly to *addr*."""
        self.cgf.reference_bindings[id(decl)] = addr
        self._references.append(id(decl))

    def restore(self) -> None:
        cgf = self.cgf
        for key, (addr, field) in self._saved.items():
            if addr is None:
                cgf.local_vars.pop(key, None)
            else:
                cgf.local_vars[key] = addr
            if field is not None:
                cgf.capture_fields[key] = field
        for key in self._references:
            cgf.reference_bindings.pop(key, None)


class CodeGenFunction:
    """Emits one function's body.

    Local variables live in entry-block allocas (an *alloca insertion
    point* is maintained so statements discovered later — e.g. shadow
    transformed ASTs — can still hoist their storage to the entry block,
    as clang does).
    """

    def __init__(self, cgm: CodeGenModule) -> None:
        self.cgm = cgm
        self.builder = IRBuilder(cgm.module)
        self.fn: Function | None = None
        #: VarDecl id -> address Value (alloca/global/capture-resolved)
        self.local_vars: dict[int, Value] = {}
        #: VarDecl id -> direct address binding (reference params, the
        #: Result parameter of inline-emitted lambdas)
        self.reference_bindings: dict[int, Value] = {}
        #: captured VarDecl id -> field index in __context
        self.capture_fields: dict[int, int] = {}
        self.context_arg: Value | None = None
        self.context_struct: ir_ty.StructType | None = None
        #: (break target, continue target) stack
        self._loop_targets: list[tuple[BasicBlock, BasicBlock]] = []
        #: metadata to attach to the next emitted loop's backedge
        self._pending_loop_metadata: MDNode | None = None
        self._entry_block: BasicBlock | None = None
        from repro.codegen.openmp import OpenMPCodeGen

        self.openmp = OpenMPCodeGen(self)

    # ==================================================================
    # Function-level entry points
    # ==================================================================
    def emit_function(self, decl: FunctionDecl) -> Function:
        fn = self.cgm.get_function(decl)
        self.fn = fn
        entry = fn.append_block("entry")
        self._entry_block = entry
        self.builder.set_insert_point(entry)
        for arg, param in zip(fn.args, decl.params):
            addr = self.create_alloca(
                arg.type, f"{param.name}.addr"
            )
            self.builder.store(arg, addr)
            self.local_vars[id(param)] = addr
        assert decl.body is not None
        self.emit_stmt(decl.body)
        self._emit_implicit_return(decl)
        from repro.ir.utils import remove_unreachable_blocks

        remove_unreachable_blocks(fn)
        return fn

    def emit_outlined(
        self,
        name: str,
        captured: s.CapturedStmt,
        body_emitter: Callable[["CodeGenFunction"], None],
    ) -> Function:
        """Emit a CapturedStmt as an outlined function
        ``void name(ptr gtid, ptr btid, ptr context)`` (early outlining,
        paper §1).  The body is produced by *body_emitter* (clang's
        callback chaining: a combined directive's `parallel` part
        replaces the body code generation function —
        "callback-ception", paper §1.3)."""
        params = [ir_ty.ptr, ir_ty.ptr, ir_ty.ptr]
        fn = self.cgm.module.add_function(
            name, ir_ty.FunctionType(ir_ty.void_t, params)
        )
        fn.args[0].name = "gtid.addr"
        fn.args[1].name = "btid.addr"
        fn.args[2].name = "context"
        self.fn = fn
        entry = fn.append_block("entry")
        self._entry_block = entry
        self.builder.set_insert_point(entry)
        # Bind captures: __context is a struct of pointers to the
        # captured variables (paper §1.2's implicit parameters).
        record = captured.context_record
        if record is not None and record.fields:
            self.context_struct = self.cgm.types.lower_record(record)
            self.context_arg = fn.args[2]
            for index, var in enumerate(captured.captures):
                self.capture_fields[id(var)] = index
        # Thread id params: bind the CapturedDecl's implicit params.
        for pdecl in captured.captured_decl.params:
            if pdecl.name == ".global_tid.":
                self.local_vars[id(pdecl)] = fn.args[0]
            elif pdecl.name == ".bound_tid.":
                self.local_vars[id(pdecl)] = fn.args[1]
        body_emitter(self)
        self.ensure_insert_point()
        if self.builder.insert_block.terminator is None:
            self.builder.ret()
        from repro.ir.utils import remove_unreachable_blocks

        remove_unreachable_blocks(fn)
        return fn

    def _emit_implicit_return(self, decl: FunctionDecl) -> None:
        block = self.builder.insert_block
        if block is not None and block.terminator is None:
            ret_ty = self.cgm.types.lower(decl.return_type)
            if ret_ty.is_void:
                self.builder.ret()
            elif decl.name == "main":
                self.builder.ret(ConstantInt(ir_ty.i32, 0))
            else:
                self.builder.unreachable()

    # ==================================================================
    # Helpers
    # ==================================================================
    def create_alloca(
        self, ty: ir_ty.IRType, name: str = "local"
    ) -> Value:
        """Alloca at the function entry (clang's AllocaInsertPt)."""
        assert self._entry_block is not None
        saved = self.builder.save_ip()
        self.builder.set_insert_point(
            self._entry_block, self._entry_alloca_index()
        )
        addr = self.builder.alloca(ty, name=name)
        self.builder.restore_ip(saved)
        if saved.block is self._entry_block:
            # Inserting above the saved point shifts it by one.
            self.builder.set_insert_point(
                self._entry_block, saved.index + 1
            )
        return addr

    def _entry_alloca_index(self) -> int:
        from repro.ir.instructions import AllocaInst

        assert self._entry_block is not None
        for i, inst in enumerate(self._entry_block.instructions):
            if not isinstance(inst, AllocaInst):
                return i
        return len(self._entry_block.instructions)

    def ensure_insert_point(self) -> None:
        """After a terminator (return/break), continue into a dead block
        so that trailing statements still emit without crashing; the
        block is removed afterwards.  Inserting *before* an existing
        terminator (e.g. into a canonical-loop body block that already
        branches to its latch) is fine and left alone."""
        block = self.builder.insert_block
        if block is None or block.terminator is None:
            return
        if self.builder.save_ip().index < len(block.instructions):
            return  # positioned before the terminator: legal
        assert self.fn is not None
        dead = self.fn.append_block("dead")
        self.builder.set_insert_point(dead)

    def lowered(self, qt: ast_ty.QualType) -> ir_ty.IRType:
        return self.cgm.types.lower(qt)

    # ==================================================================
    # Statements
    # ==================================================================
    def emit_stmt(self, stmt: Optional[s.Stmt]) -> None:
        if stmt is None:
            return
        self.ensure_insert_point()
        if isinstance(stmt, omp.OMPExecutableDirective):
            self.openmp.emit_directive(stmt)
            return
        if isinstance(stmt, omp.OMPCanonicalLoop):
            # Outside any transforming directive: a plain canonical loop.
            self.openmp.emit_canonical_loops([stmt], "omp_loop", True)
            return
        if isinstance(stmt, e.Expr):
            self.emit_expr(stmt)
            return
        if isinstance(stmt, s.CompoundStmt):
            for child in stmt.statements:
                self.emit_stmt(child)
            return
        if isinstance(stmt, s.NullStmt):
            return
        if isinstance(stmt, s.DeclStmt):
            for decl in stmt.decls:
                if isinstance(decl, VarDecl):
                    self.emit_var_decl(decl)
            return
        if isinstance(stmt, s.IfStmt):
            self._emit_if(stmt)
            return
        if isinstance(stmt, s.WhileStmt):
            self._emit_while(stmt)
            return
        if isinstance(stmt, s.DoStmt):
            self._emit_do(stmt)
            return
        if isinstance(stmt, s.ForStmt):
            self._emit_for(stmt)
            return
        if isinstance(stmt, s.CXXForRangeStmt):
            self._emit_range_for(stmt)
            return
        if isinstance(stmt, s.ReturnStmt):
            self._emit_return(stmt)
            return
        if isinstance(stmt, s.BreakStmt):
            if not self._loop_targets:
                raise CodeGenError("break outside loop")
            self.builder.br(self._loop_targets[-1][0])
            return
        if isinstance(stmt, s.ContinueStmt):
            if not self._loop_targets:
                raise CodeGenError("continue outside loop")
            self.builder.br(self._loop_targets[-1][1])
            return
        if isinstance(stmt, s.AttributedStmt):
            self._emit_attributed(stmt)
            return
        if isinstance(stmt, s.CapturedStmt):
            # Outside OpenMP context: execute inline.
            self.emit_stmt(stmt.captured_decl.body)
            return
        if isinstance(stmt, s.SwitchStmt):
            self._emit_switch(stmt)
            return
        raise CodeGenError(
            f"cannot emit statement {type(stmt).__name__}"
        )

    # ------------------------------------------------------------------
    def emit_var_decl(self, decl: VarDecl) -> Value:
        canonical = ast_ty.desugar(decl.type)
        if isinstance(canonical.type, ast_ty.ReferenceType):
            # A reference is lowered to a pointer alloca holding the
            # referenced address.
            addr = self.create_alloca(ir_ty.ptr, decl.name)
            self.local_vars[id(decl)] = addr
            if decl.init is not None:
                target = self.emit_lvalue(decl.init)
                self.builder.store(target, addr)
            return addr
        ty = self.lowered(decl.type)
        addr = self.create_alloca(ty, decl.name)
        self.local_vars[id(decl)] = addr
        if decl.init is not None:
            if isinstance(decl.init, e.InitListExpr):
                self._emit_init_list(addr, ty, decl.init)
            else:
                value = self.emit_expr(decl.init)
                self.builder.store(value, addr)
        return addr

    def _emit_init_list(
        self, addr: Value, ty: ir_ty.IRType, init: e.InitListExpr
    ) -> None:
        if not isinstance(ty, ir_ty.ArrayType):
            if init.inits:
                self.builder.store(self.emit_expr(init.inits[0]), addr)
            return
        elem = ty.element
        for i in range(ty.count):
            slot = self.builder.gep(
                elem,
                addr,
                [ConstantInt(ir_ty.i64, i)],
                "init.elt",
            )
            if i < len(init.inits):
                value = self.emit_expr(init.inits[i])
                self.builder.store(value, slot)
            else:
                self.builder.store(self._zero_of(elem), slot)

    def _zero_of(self, ty: ir_ty.IRType) -> Value:
        if isinstance(ty, ir_ty.IntType):
            return ConstantInt(ty, 0)
        if isinstance(ty, ir_ty.FloatType):
            from repro.ir.values import ConstantFP

            return ConstantFP(ty, 0.0)
        from repro.ir.values import ConstantPointerNull

        return ConstantPointerNull()

    # ------------------------------------------------------------------
    def _emit_if(self, stmt: s.IfStmt) -> None:
        assert self.fn is not None
        cond = self.emit_condition(stmt.cond)
        then_bb = self.fn.append_block("if.then")
        end_bb = self.fn.append_block("if.end")
        else_bb = (
            self.fn.append_block("if.else")
            if stmt.else_stmt is not None
            else end_bb
        )
        self.builder.cond_br(cond, then_bb, else_bb)
        self.builder.set_insert_point(then_bb)
        self.emit_stmt(stmt.then_stmt)
        if self.builder.insert_block.terminator is None:
            self.builder.br(end_bb)
        if stmt.else_stmt is not None:
            self.builder.set_insert_point(else_bb)
            self.emit_stmt(stmt.else_stmt)
            if self.builder.insert_block.terminator is None:
                self.builder.br(end_bb)
        self.builder.set_insert_point(end_bb)

    def _take_loop_metadata(self) -> MDNode | None:
        md = self._pending_loop_metadata
        self._pending_loop_metadata = None
        return md

    def _emit_loop(
        self,
        prefix: str,
        cond: e.Expr | Callable[[], Value] | None,
        body: Callable[[], None],
        inc: e.Expr | None = None,
        *,
        form: str = "for",
        md: MDNode | None = None,
    ) -> None:
        """Emit one loop into the ``{prefix}.cond/body/inc/end`` blocks.

        *form* sets the block order: ``"for"`` tests *cond* (an
        expression, a callable emitting the i1 test, or None for always
        true) before each iteration and runs *inc* in the inc block;
        ``"while"`` has no inc block; ``"do"`` puts the body first and
        tests at the end.  *body* runs with ``break`` and ``continue``
        targeting the end block and the inc (or cond) block; the back
        edge carries the loop metadata *md*.
        """
        assert self.fn is not None
        blocks = {
            n: self.fn.append_block(f"{prefix}.{n}")
            for n in _LOOP_BLOCKS[form]
        }
        cond_bb = blocks["cond"]
        body_bb = blocks["body"]
        end_bb = blocks["end"]
        latch_bb = blocks.get("inc", cond_bb)
        b = self.builder
        b.br(body_bb if form == "do" else cond_bb)
        if form != "do":
            b.set_insert_point(cond_bb)
            self._emit_loop_test(cond, body_bb, end_bb)
        b.set_insert_point(body_bb)
        self._loop_targets.append((end_bb, latch_bb))
        body()
        self._loop_targets.pop()
        self.ensure_insert_point()
        backedge = None
        if b.insert_block.terminator is None:
            backedge = b.br(latch_bb)
        if form != "while":
            b.set_insert_point(latch_bb)
            if form == "do":
                backedge = self._emit_loop_test(cond, body_bb, end_bb)
            else:
                if inc is not None:
                    self.emit_expr(inc)
                backedge = b.br(cond_bb)
        if backedge is not None and md is not None:
            backedge.metadata["llvm.loop"] = md
        b.set_insert_point(end_bb)

    def _emit_loop_test(
        self,
        cond: e.Expr | Callable[[], Value] | None,
        body_bb: BasicBlock,
        end_bb: BasicBlock,
    ):
        if cond is None:
            return self.builder.br(body_bb)
        flag = (
            self.emit_condition(cond)
            if isinstance(cond, e.Expr)
            else cond()
        )
        return self.builder.cond_br(flag, body_bb, end_bb)

    def _emit_while(self, stmt: s.WhileStmt) -> None:
        self._emit_loop(
            "while",
            stmt.cond,
            lambda: self.emit_stmt(stmt.body),
            form="while",
            md=self._take_loop_metadata(),
        )

    def _emit_do(self, stmt: s.DoStmt) -> None:
        self._emit_loop(
            "do",
            stmt.cond,
            lambda: self.emit_stmt(stmt.body),
            form="do",
            md=self._take_loop_metadata(),
        )

    def _emit_for(self, stmt: s.ForStmt) -> None:
        md = self._take_loop_metadata()
        self.emit_stmt(stmt.init)
        self.ensure_insert_point()
        self._emit_loop(
            "for", stmt.cond, lambda: self.emit_stmt(stmt.body), stmt.inc,
            md=md,
        )

    def _emit_range_for(self, stmt: s.CXXForRangeStmt) -> None:
        """Emit the de-sugared form (paper Listing 'rangesugar')."""
        md = self._take_loop_metadata()
        self.emit_stmt(stmt.range_stmt)
        self.emit_stmt(stmt.begin_stmt)
        self.emit_stmt(stmt.end_stmt)

        def body() -> None:
            self.emit_stmt(stmt.loop_var_stmt)
            self.emit_stmt(stmt.body)

        self._emit_loop("range", stmt.cond, body, stmt.inc, md=md)

    def _emit_return(self, stmt: s.ReturnStmt) -> None:
        if stmt.value is None:
            self.builder.ret()
        else:
            self.builder.ret(self.emit_expr(stmt.value))

    def _emit_attributed(self, stmt: s.AttributedStmt) -> None:
        """Translate LoopHintAttr to llvm.loop metadata on the sub-loop
        (paper §2.1: "the code generator will attach
        llvm.loop.unroll.count metadata")."""
        if self.cgm.options.emit_loop_metadata:
            count = None
            enable = False
            full = False
            for attr in stmt.loop_hints():
                if attr.option == s.LoopHintAttr.UNROLL_COUNT:
                    if attr.value is not None:
                        count = self.cgm.evaluator.try_evaluate(
                            attr.value
                        )
                    enable = True
                elif attr.option == s.LoopHintAttr.UNROLL:
                    enable = True
                elif attr.option == s.LoopHintAttr.UNROLL_FULL:
                    full = True
            self._pending_loop_metadata = loop_metadata(
                unroll_count=count,
                unroll_enable=enable,
                unroll_full=full,
            )
        self.emit_stmt(stmt.sub_stmt)

    def _emit_switch(self, stmt: s.SwitchStmt) -> None:
        """Supports the common shape: a compound body whose top level is
        a sequence of case/default labels with trailing statements
        (fallthrough and per-case `break;` included)."""
        assert self.fn is not None
        cond = self.emit_expr(stmt.cond)
        body = stmt.body
        if not isinstance(body, s.CompoundStmt):
            raise CodeGenError("unsupported switch body shape")
        end_bb = self.fn.append_block("switch.end")
        # Group the flat statement list into label-led regions: a new
        # region starts at each CaseStmt/DefaultStmt; other statements
        # extend the current region (C's flat label syntax).
        regions: list[tuple[int | None, list[s.Stmt], BasicBlock]] = []
        for child in body.statements:
            if isinstance(child, s.CaseStmt):
                value = self.cgm.evaluator.evaluate(child.value)
                regions.append(
                    (
                        value,
                        [child.sub_stmt],
                        self.fn.append_block(f"case.{value}"),
                    )
                )
            elif isinstance(child, s.DefaultStmt):
                regions.append(
                    (
                        None,
                        [child.sub_stmt],
                        self.fn.append_block("case.default"),
                    )
                )
            elif regions:
                regions[-1][1].append(child)
            elif isinstance(child, s.NullStmt):
                continue
            else:
                raise CodeGenError(
                    "statement before the first case label is "
                    "unreachable (unsupported)"
                )
        default_bb = next(
            (bb for v, _, bb in regions if v is None), end_bb
        )
        switch = self.builder.switch(cond, default_bb)
        for value, _, bb in regions:
            if value is not None:
                switch.add_case(value, bb)
        # `break` targets the switch end; `continue` keeps targeting the
        # enclosing loop.
        continue_target = (
            self._loop_targets[-1][1] if self._loop_targets else end_bb
        )
        self._loop_targets.append((end_bb, continue_target))
        for i, (_, stmts, bb) in enumerate(regions):
            self.builder.set_insert_point(bb)
            for sub in stmts:
                self.emit_stmt(sub)
            self.ensure_insert_point()
            if self.builder.insert_block.terminator is None:
                target = (
                    regions[i + 1][2]
                    if i + 1 < len(regions)
                    else end_bb
                )
                self.builder.br(target)
        self._loop_targets.pop()
        self.builder.set_insert_point(end_bb)

    # ==================================================================
    # L-values
    # ==================================================================
    def emit_lvalue(self, expr: e.Expr) -> Value:
        expr_inner = expr
        while isinstance(expr_inner, e.ParenExpr):
            expr_inner = expr_inner.sub_expr
        if isinstance(expr_inner, e.DeclRefExpr):
            return self._emit_decl_address(expr_inner.decl)
        if isinstance(expr_inner, e.ArraySubscriptExpr):
            base = self.emit_expr(expr_inner.base)  # pointer value
            index = self.emit_expr(expr_inner.index)
            elem = self.lowered(expr_inner.type)
            index = self._index_to_i64(index, expr_inner.index.type)
            return self.builder.gep(elem, base, [index], "arrayidx")
        if isinstance(expr_inner, e.UnaryOperator) and (
            expr_inner.opcode == e.UnaryOperatorKind.DEREF
        ):
            return self.emit_expr(expr_inner.sub_expr)
        if isinstance(expr_inner, e.MemberExpr):
            return self._emit_member_address(expr_inner)
        if isinstance(expr_inner, e.StringLiteral):
            return self.cgm.get_string_literal(expr_inner.value)
        if isinstance(expr_inner, e.ImplicitCastExpr) and (
            expr_inner.cast_kind == e.CastKind.NOOP
        ):
            return self.emit_lvalue(expr_inner.sub_expr)
        if isinstance(expr_inner, e.ConstantExpr):
            return self.emit_lvalue(expr_inner.sub_expr)
        if isinstance(
            expr_inner, e.BinaryOperator
        ) and expr_inner.opcode == e.BinaryOperatorKind.ASSIGN:
            # (a = b) as lvalue: evaluate, return the lhs address.
            self.emit_expr(expr_inner)
            return self.emit_lvalue(expr_inner.lhs)
        raise CodeGenError(
            f"cannot take address of {type(expr_inner).__name__}"
        )

    def _emit_decl_address(self, decl) -> Value:
        direct = self.reference_bindings.get(id(decl))
        if direct is not None:
            return direct
        if id(decl) in self.capture_fields:
            index = self.capture_fields[id(decl)]
            assert self.context_arg is not None
            assert self.context_struct is not None
            field_addr = self.builder.gep(
                self.context_struct,
                self.context_arg,
                [
                    ConstantInt(ir_ty.i64, 0),
                    ConstantInt(ir_ty.i32, index),
                ],
                f"{decl.name}.field",
            )
            return self.builder.load(ir_ty.ptr, field_addr, decl.name)
        local = self.local_vars.get(id(decl))
        if local is not None:
            canonical = ast_ty.desugar(decl.type)
            if isinstance(canonical.type, ast_ty.ReferenceType):
                return self.builder.load(
                    ir_ty.ptr, local, f"{decl.name}.ref"
                )
            return local
        if isinstance(decl, FunctionDecl):
            return self.cgm.get_function(decl)
        if isinstance(decl, VarDecl) and decl.is_global:
            return self.cgm.get_global(decl)
        if isinstance(decl, VarDecl):
            # Late-discovered local (e.g. a range-for helper referenced
            # from shadow helper expressions before its DeclStmt):
            # allocate + initialize on first touch, then resolve through
            # the normal path (which dereferences reference slots).
            self.emit_var_decl(decl)
            return self._emit_decl_address(decl)
        raise CodeGenError(f"no storage for declaration '{decl.name}'")

    def _emit_member_address(self, expr: e.MemberExpr) -> Value:
        if expr.is_arrow:
            base = self.emit_expr(expr.base)
        else:
            base = self.emit_lvalue(expr.base)
        record = expr.member
        # Find the record decl through the base type.
        base_qt = ast_ty.desugar(expr.base.type)
        if expr.is_arrow:
            base_qt = ast_ty.desugar(base_qt.type.pointee)
        record_ty = base_qt.type
        assert isinstance(record_ty, ast_ty.RecordType)
        struct = self.cgm.types.lower_record(record_ty.decl)
        return self.builder.gep(
            struct,
            base,
            [
                ConstantInt(ir_ty.i64, 0),
                ConstantInt(ir_ty.i32, expr.member.index),
            ],
            expr.member.name,
        )

    def _index_to_i64(
        self, index: Value, qt: ast_ty.QualType
    ) -> Value:
        if isinstance(index.type, ir_ty.IntType) and index.type.bits != 64:
            signed = ast_ty.desugar(qt).is_signed_integer()
            return self.builder.int_cast(index, ir_ty.i64, signed, "idxprom")
        return index

    # ==================================================================
    # R-values
    # ==================================================================
    def emit_expr(self, expr: e.Expr) -> Value:
        # The three most frequent classes first, by exact class; their
        # one subclass, CompoundAssignOperator, takes the chain below.
        cls = type(expr)
        if cls is e.ImplicitCastExpr:
            return self._emit_cast(expr)
        if cls is e.BinaryOperator:
            return self._emit_binary(expr)
        if cls is e.UnaryOperator:
            return self._emit_unary(expr)
        if isinstance(expr, e.IntegerLiteral):
            ty = self.lowered(expr.type)
            assert isinstance(ty, ir_ty.IntType)
            return ConstantInt(ty, expr.value)
        if isinstance(expr, (e.CharacterLiteral, e.BoolLiteralExpr)):
            ty = self.lowered(expr.type)
            assert isinstance(ty, ir_ty.IntType)
            return ConstantInt(ty, int(expr.value))
        if isinstance(expr, e.FloatingLiteral):
            from repro.ir.values import ConstantFP

            ty = self.lowered(expr.type)
            assert isinstance(ty, ir_ty.FloatType)
            return ConstantFP(ty, expr.value)
        if isinstance(expr, e.ParenExpr):
            return self.emit_expr(expr.sub_expr)
        if isinstance(expr, e.ConstantExpr):
            ty = self.lowered(expr.type)
            if isinstance(ty, ir_ty.IntType):
                return ConstantInt(ty, expr.value)
            return self.emit_expr(expr.sub_expr)
        if isinstance(expr, e.DeclRefExpr):
            # Function references are values (decay handled by casts).
            if isinstance(expr.decl, FunctionDecl):
                return self.cgm.get_function(expr.decl)
            addr = self._emit_decl_address(expr.decl)
            return self.builder.load(
                self.lowered(expr.type), addr, expr.decl.name
            )
        if isinstance(expr, e.CStyleCastExpr):
            return self._emit_cast(expr)
        if isinstance(expr, e.CompoundAssignOperator):
            return self._emit_compound_assign(expr)
        if isinstance(expr, e.ConditionalOperator):
            return self._emit_conditional(expr)
        if isinstance(expr, e.ArraySubscriptExpr):
            addr = self.emit_lvalue(expr)
            return self.builder.load(
                self.lowered(expr.type), addr, "arrayval"
            )
        if isinstance(expr, e.MemberExpr):
            addr = self.emit_lvalue(expr)
            return self.builder.load(
                self.lowered(expr.type), addr, expr.member.name
            )
        if isinstance(expr, e.CallExpr):
            return self._emit_call(expr)
        if isinstance(expr, e.StringLiteral):
            return self.cgm.get_string_literal(expr.value)
        if isinstance(expr, e.UnaryExprOrTypeTraitExpr):
            value = self.cgm.evaluator.evaluate(expr)
            ty = self.lowered(expr.type)
            assert isinstance(ty, ir_ty.IntType)
            return ConstantInt(ty, value)
        if isinstance(expr, e.OpaqueValueExpr):
            assert expr.source_expr is not None
            return self.emit_expr(expr.source_expr)
        raise CodeGenError(
            f"cannot emit expression {type(expr).__name__}"
        )

    # ------------------------------------------------------------------
    def _emit_cast(self, expr: e.CastExpr) -> Value:
        kind = expr.cast_kind
        CK = e.CastKind
        if kind == CK.LVALUE_TO_RVALUE:
            addr = self.emit_lvalue(expr.sub_expr)
            return self.builder.load(
                self.lowered(expr.type), addr, "load"
            )
        if kind in (CK.ARRAY_TO_POINTER_DECAY,):
            return self.emit_lvalue(expr.sub_expr)
        if kind == CK.FUNCTION_TO_POINTER_DECAY:
            return self.emit_expr(expr.sub_expr)
        if kind == CK.NOOP:
            return self.emit_expr(expr.sub_expr)
        if kind == CK.TO_VOID:
            self.emit_expr(expr.sub_expr)
            return ConstantInt(ir_ty.i32, 0)
        value = self.emit_expr(expr.sub_expr)
        src_qt = ast_ty.desugar(expr.sub_expr.type)
        dst_qt = ast_ty.desugar(expr.type)
        dst_ty = self.lowered(expr.type)
        if kind == CK.INTEGRAL_CAST:
            assert isinstance(dst_ty, ir_ty.IntType)
            return self.builder.int_cast(
                value, dst_ty, src_qt.is_signed_integer(), "conv"
            )
        if kind == CK.INTEGRAL_TO_FLOATING:
            op = (
                CastOp.SITOFP
                if src_qt.is_signed_integer()
                else CastOp.UITOFP
            )
            return self.builder.cast(op, value, dst_ty, "conv")
        if kind == CK.FLOATING_TO_INTEGRAL:
            op = (
                CastOp.FPTOSI
                if dst_qt.is_signed_integer()
                else CastOp.FPTOUI
            )
            return self.builder.cast(op, value, dst_ty, "conv")
        if kind == CK.FLOATING_CAST:
            assert isinstance(dst_ty, ir_ty.FloatType)
            src_ty = value.type
            assert isinstance(src_ty, ir_ty.FloatType)
            op = (
                CastOp.FPEXT
                if dst_ty.bits > src_ty.bits
                else CastOp.FPTRUNC
            )
            if dst_ty.bits == src_ty.bits:
                return value
            return self.builder.cast(op, value, dst_ty, "conv")
        if kind in (
            CK.INTEGRAL_TO_BOOLEAN,
            CK.FLOATING_TO_BOOLEAN,
            CK.POINTER_TO_BOOLEAN,
        ):
            flag = self._truthiness(value)
            return self.builder.cast(
                CastOp.ZEXT, flag, ir_ty.i8, "frombool"
            )
        if kind == CK.NULL_TO_POINTER:
            from repro.ir.values import ConstantPointerNull

            return ConstantPointerNull()
        if kind == CK.BITCAST:
            if isinstance(dst_ty, ir_ty.IntType) and isinstance(
                value.type, ir_ty.PointerType
            ):
                return self.builder.cast(
                    CastOp.PTRTOINT, value, dst_ty, "ptoi"
                )
            if isinstance(dst_ty, ir_ty.PointerType) and isinstance(
                value.type, ir_ty.IntType
            ):
                return self.builder.cast(
                    CastOp.INTTOPTR, value, dst_ty, "itop"
                )
            return value
        raise CodeGenError(f"unhandled cast kind {kind}")

    def _truthiness(self, value: Value) -> Value:
        """value != 0 as i1."""
        ty = value.type
        if isinstance(ty, ir_ty.IntType):
            if ty.bits == 1:
                return value
            return self.builder.icmp(
                ICmpPred.NE, value, ConstantInt(ty, 0), "tobool"
            )
        if isinstance(ty, ir_ty.FloatType):
            from repro.ir.values import ConstantFP

            return self.builder.fcmp(
                FCmpPred.UNE, value, ConstantFP(ty, 0.0), "tobool"
            )
        if isinstance(ty, ir_ty.PointerType):
            from repro.ir.values import ConstantPointerNull

            return self.builder.icmp(
                ICmpPred.NE, value, ConstantPointerNull(), "tobool"
            )
        raise CodeGenError(f"no truthiness for {ty}")

    # ------------------------------------------------------------------
    def emit_condition(self, expr: e.Expr) -> Value:
        """Emit a controlling expression as i1, using comparison results
        directly where possible (avoids zext/icmp churn)."""
        stripped = expr
        while isinstance(stripped, e.ParenExpr):
            stripped = stripped.sub_expr
        if isinstance(stripped, e.BinaryOperator):
            op = stripped.opcode
            if op.is_comparison():
                return self._emit_comparison_i1(stripped)
            if op in (
                e.BinaryOperatorKind.LAND,
                e.BinaryOperatorKind.LOR,
            ):
                return self._emit_logical_i1(stripped)
        if isinstance(stripped, e.UnaryOperator) and (
            stripped.opcode == e.UnaryOperatorKind.LNOT
        ):
            inner = self.emit_condition(stripped.sub_expr)
            return self.builder.binop(
                BinOp.XOR, inner, ConstantInt(ir_ty.i1, 1), "lnot"
            )
        if isinstance(stripped, e.ImplicitCastExpr) and (
            stripped.cast_kind
            in (
                e.CastKind.INTEGRAL_TO_BOOLEAN,
                e.CastKind.FLOATING_TO_BOOLEAN,
                e.CastKind.POINTER_TO_BOOLEAN,
            )
        ):
            return self._truthiness(self.emit_expr(stripped.sub_expr))
        return self._truthiness(self.emit_expr(stripped))

    def _emit_comparison_i1(self, expr: e.BinaryOperator) -> Value:
        lhs = self.emit_expr(expr.lhs)
        rhs = self.emit_expr(expr.rhs)
        operand_qt = ast_ty.desugar(expr.lhs.type)
        if operand_qt.is_floating():
            pred = {
                e.BinaryOperatorKind.LT: FCmpPred.OLT,
                e.BinaryOperatorKind.GT: FCmpPred.OGT,
                e.BinaryOperatorKind.LE: FCmpPred.OLE,
                e.BinaryOperatorKind.GE: FCmpPred.OGE,
                e.BinaryOperatorKind.EQ: FCmpPred.OEQ,
                e.BinaryOperatorKind.NE: FCmpPred.UNE,
            }[expr.opcode]
            return self.builder.fcmp(pred, lhs, rhs, "cmp")
        signed = operand_qt.is_signed_integer()
        pred = {
            (e.BinaryOperatorKind.LT, True): ICmpPred.SLT,
            (e.BinaryOperatorKind.GT, True): ICmpPred.SGT,
            (e.BinaryOperatorKind.LE, True): ICmpPred.SLE,
            (e.BinaryOperatorKind.GE, True): ICmpPred.SGE,
            (e.BinaryOperatorKind.LT, False): ICmpPred.ULT,
            (e.BinaryOperatorKind.GT, False): ICmpPred.UGT,
            (e.BinaryOperatorKind.LE, False): ICmpPred.ULE,
            (e.BinaryOperatorKind.GE, False): ICmpPred.UGE,
            (e.BinaryOperatorKind.EQ, True): ICmpPred.EQ,
            (e.BinaryOperatorKind.EQ, False): ICmpPred.EQ,
            (e.BinaryOperatorKind.NE, True): ICmpPred.NE,
            (e.BinaryOperatorKind.NE, False): ICmpPred.NE,
        }[(expr.opcode, signed)]
        # pointers compare unsigned
        if operand_qt.is_pointer():
            pred = {
                e.BinaryOperatorKind.LT: ICmpPred.ULT,
                e.BinaryOperatorKind.GT: ICmpPred.UGT,
                e.BinaryOperatorKind.LE: ICmpPred.ULE,
                e.BinaryOperatorKind.GE: ICmpPred.UGE,
                e.BinaryOperatorKind.EQ: ICmpPred.EQ,
                e.BinaryOperatorKind.NE: ICmpPred.NE,
            }[expr.opcode]
        return self.builder.icmp(pred, lhs, rhs, "cmp")

    def _emit_logical_i1(self, expr: e.BinaryOperator) -> Value:
        assert self.fn is not None
        is_and = expr.opcode == e.BinaryOperatorKind.LAND
        rhs_bb = self.fn.append_block("land.rhs" if is_and else "lor.rhs")
        end_bb = self.fn.append_block("land.end" if is_and else "lor.end")
        lhs = self.emit_condition(expr.lhs)
        lhs_block = self.builder.insert_block
        if is_and:
            self.builder.cond_br(lhs, rhs_bb, end_bb)
        else:
            self.builder.cond_br(lhs, end_bb, rhs_bb)
        self.builder.set_insert_point(rhs_bb)
        rhs = self.emit_condition(expr.rhs)
        rhs_block = self.builder.insert_block
        self.builder.br(end_bb)
        self.builder.set_insert_point(end_bb)
        phi = self.builder.phi(ir_ty.i1, "merge")
        short_circuit = ConstantInt(ir_ty.i1, 0 if is_and else 1)
        phi.add_incoming(short_circuit, lhs_block)
        phi.add_incoming(rhs, rhs_block)
        return phi

    # ------------------------------------------------------------------
    def _emit_unary(self, expr: e.UnaryOperator) -> Value:
        U = e.UnaryOperatorKind
        op = expr.opcode
        if op.is_increment_decrement():
            addr = self.emit_lvalue(expr.sub_expr)
            qt = ast_ty.desugar(expr.sub_expr.type)
            old = self.builder.load(
                self.lowered(expr.sub_expr.type), addr, "incdec.old"
            )
            delta = 1 if op.is_increment() else -1
            if qt.is_pointer():
                elem = self.lowered(qt.type.pointee)
                new = self.builder.gep(
                    elem, old, [ConstantInt(ir_ty.i64, delta)], "incdec"
                )
            elif qt.is_floating():
                from repro.ir.values import ConstantFP

                fty = old.type
                assert isinstance(fty, ir_ty.FloatType)
                new = self.builder.binop(
                    BinOp.FADD,
                    old,
                    ConstantFP(fty, float(delta)),
                    "incdec",
                )
            else:
                ity = old.type
                assert isinstance(ity, ir_ty.IntType)
                new = self.builder.add(
                    old, ConstantInt(ity, delta), "incdec"
                )
            self.builder.store(new, addr)
            return (
                new
                if op in (U.PRE_INC, U.PRE_DEC)
                else old
            )
        if op == U.ADDR_OF:
            return self.emit_lvalue(expr.sub_expr)
        if op == U.DEREF:
            addr = self.emit_expr(expr.sub_expr)
            return self.builder.load(
                self.lowered(expr.type), addr, "deref"
            )
        if op == U.PLUS:
            return self.emit_expr(expr.sub_expr)
        if op == U.MINUS:
            value = self.emit_expr(expr.sub_expr)
            ty = value.type
            if isinstance(ty, ir_ty.FloatType):
                from repro.ir.values import ConstantFP

                # fsub -0.0, x is LLVM's negation: -(+0.0) is -0.0
                return self.builder.binop(
                    BinOp.FSUB, ConstantFP(ty, -0.0), value, "neg"
                )
            assert isinstance(ty, ir_ty.IntType)
            return self.builder.sub(ConstantInt(ty, 0), value, "neg")
        if op == U.NOT:
            value = self.emit_expr(expr.sub_expr)
            ty = value.type
            assert isinstance(ty, ir_ty.IntType)
            return self.builder.binop(
                BinOp.XOR, value, ConstantInt(ty, -1), "not"
            )
        if op == U.LNOT:
            flag = self.emit_condition(expr.sub_expr)
            inverted = self.builder.binop(
                BinOp.XOR, flag, ConstantInt(ir_ty.i1, 1), "lnot"
            )
            result_ty = self.lowered(expr.type)
            assert isinstance(result_ty, ir_ty.IntType)
            return self.builder.cast(
                CastOp.ZEXT, inverted, result_ty, "lnot.ext"
            )
        raise CodeGenError(f"unhandled unary {op}")

    # ------------------------------------------------------------------
    _INT_BINOPS = {
        e.BinaryOperatorKind.ADD: BinOp.ADD,
        e.BinaryOperatorKind.SUB: BinOp.SUB,
        e.BinaryOperatorKind.MUL: BinOp.MUL,
        e.BinaryOperatorKind.AND: BinOp.AND,
        e.BinaryOperatorKind.OR: BinOp.OR,
        e.BinaryOperatorKind.XOR: BinOp.XOR,
        e.BinaryOperatorKind.SHL: BinOp.SHL,
    }
    _FLOAT_BINOPS = {
        e.BinaryOperatorKind.ADD: BinOp.FADD,
        e.BinaryOperatorKind.SUB: BinOp.FSUB,
        e.BinaryOperatorKind.MUL: BinOp.FMUL,
        e.BinaryOperatorKind.DIV: BinOp.FDIV,
        e.BinaryOperatorKind.REM: BinOp.FREM,
    }

    def _emit_binary(self, expr: e.BinaryOperator) -> Value:
        op = expr.opcode
        B = e.BinaryOperatorKind
        if op == B.ASSIGN:
            value = self.emit_expr(expr.rhs)
            addr = self.emit_lvalue(expr.lhs)
            self.builder.store(value, addr)
            return value
        if op == B.COMMA:
            self.emit_expr(expr.lhs)
            return self.emit_expr(expr.rhs)
        if op in (B.LAND, B.LOR):
            flag = self._emit_logical_i1(expr)
            result_ty = self.lowered(expr.type)
            assert isinstance(result_ty, ir_ty.IntType)
            return self.builder.cast(
                CastOp.ZEXT, flag, result_ty, "conv"
            )
        if op.is_comparison():
            flag = self._emit_comparison_i1(expr)
            result_ty = self.lowered(expr.type)
            assert isinstance(result_ty, ir_ty.IntType)
            return self.builder.cast(
                CastOp.ZEXT, flag, result_ty, "conv"
            )
        # Pointer arithmetic.
        lhs_qt = ast_ty.desugar(expr.lhs.type)
        rhs_qt = ast_ty.desugar(expr.rhs.type)
        if op == B.ADD and (lhs_qt.is_pointer() or rhs_qt.is_pointer()):
            ptr_expr, idx_expr = (
                (expr.lhs, expr.rhs)
                if lhs_qt.is_pointer()
                else (expr.rhs, expr.lhs)
            )
            base = self.emit_expr(ptr_expr)
            index = self.emit_expr(idx_expr)
            index = self._index_to_i64(index, idx_expr.type)
            elem = self.lowered(
                ast_ty.desugar(ptr_expr.type).type.pointee
            )
            return self.builder.gep(elem, base, [index], "add.ptr")
        if op == B.SUB and lhs_qt.is_pointer():
            base = self.emit_expr(expr.lhs)
            if rhs_qt.is_pointer():
                other = self.emit_expr(expr.rhs)
                lhs_int = self.builder.cast(
                    CastOp.PTRTOINT, base, ir_ty.i64, "sub.ptr.lhs"
                )
                rhs_int = self.builder.cast(
                    CastOp.PTRTOINT, other, ir_ty.i64, "sub.ptr.rhs"
                )
                diff = self.builder.sub(lhs_int, rhs_int, "sub.ptr")
                elem = self.lowered(lhs_qt.type.pointee)
                return self.builder.sdiv(
                    diff,
                    ConstantInt(ir_ty.i64, max(1, elem.size_bytes())),
                    "sub.ptr.div",
                )
            index = self.emit_expr(expr.rhs)
            index = self._index_to_i64(index, expr.rhs.type)
            neg = self.builder.sub(
                ConstantInt(ir_ty.i64, 0), index, "idx.neg"
            )
            elem = self.lowered(lhs_qt.type.pointee)
            return self.builder.gep(elem, base, [neg], "sub.ptr")
        lhs = self.emit_expr(expr.lhs)
        rhs = self.emit_expr(expr.rhs)
        return self._emit_arith(op, lhs, rhs, expr.type)

    def _emit_arith(
        self,
        op: e.BinaryOperatorKind,
        lhs: Value,
        rhs: Value,
        result_qt: ast_ty.QualType,
    ) -> Value:
        B = e.BinaryOperatorKind
        qt = ast_ty.desugar(result_qt)
        if qt.is_floating():
            return self.builder.binop(
                self._FLOAT_BINOPS[op], lhs, rhs, op.name.lower()
            )
        signed = qt.is_signed_integer()
        if op == B.DIV:
            return self.builder.binop(
                BinOp.SDIV if signed else BinOp.UDIV, lhs, rhs, "div"
            )
        if op == B.REM:
            return self.builder.binop(
                BinOp.SREM if signed else BinOp.UREM, lhs, rhs, "rem"
            )
        if op == B.SHR:
            return self.builder.binop(
                BinOp.ASHR if signed else BinOp.LSHR, lhs, rhs, "shr"
            )
        return self.builder.binop(
            self._INT_BINOPS[op], lhs, rhs, op.name.lower()
        )

    def _emit_compound_assign(
        self, expr: e.CompoundAssignOperator
    ) -> Value:
        addr = self.emit_lvalue(expr.lhs)
        lhs_qt = ast_ty.desugar(expr.lhs.type)
        underlying = expr.opcode.underlying_compound_op()
        old = self.builder.load(
            self.lowered(expr.lhs.type), addr, "compound.old"
        )
        if lhs_qt.is_pointer():
            index = self.emit_expr(expr.rhs)
            index = self._index_to_i64(index, expr.rhs.type)
            if underlying == e.BinaryOperatorKind.SUB:
                index = self.builder.sub(
                    ConstantInt(ir_ty.i64, 0), index, "idx.neg"
                )
            elem = self.lowered(lhs_qt.type.pointee)
            new = self.builder.gep(elem, old, [index], "compound.ptr")
            self.builder.store(new, addr)
            return new
        rhs = self.emit_expr(expr.rhs)
        comp_qt = ast_ty.desugar(expr.computation_type)
        comp_ty = self.lowered(expr.computation_type)
        widened = old
        if isinstance(comp_ty, ir_ty.IntType) and isinstance(
            old.type, ir_ty.IntType
        ):
            widened = self.builder.int_cast(
                old, comp_ty, lhs_qt.is_signed_integer(), "compound.conv"
            )
        elif isinstance(comp_ty, ir_ty.FloatType) and isinstance(
            old.type, ir_ty.IntType
        ):
            widened = self.builder.cast(
                CastOp.SITOFP
                if lhs_qt.is_signed_integer()
                else CastOp.UITOFP,
                old,
                comp_ty,
                "compound.conv",
            )
        result = self._emit_arith(
            underlying, widened, rhs, expr.computation_type
        )
        narrowed = result
        lhs_ty = self.lowered(expr.lhs.type)
        if isinstance(lhs_ty, ir_ty.IntType) and isinstance(
            result.type, ir_ty.IntType
        ):
            narrowed = self.builder.int_cast(
                result, lhs_ty, comp_qt.is_signed_integer(), "compound.trunc"
            )
        elif isinstance(lhs_ty, ir_ty.IntType) and isinstance(
            result.type, ir_ty.FloatType
        ):
            narrowed = self.builder.cast(
                CastOp.FPTOSI
                if lhs_qt.is_signed_integer()
                else CastOp.FPTOUI,
                result,
                lhs_ty,
                "compound.trunc",
            )
        elif isinstance(lhs_ty, ir_ty.FloatType) and isinstance(
            result.type, ir_ty.FloatType
        ) and lhs_ty.bits != result.type.bits:
            narrowed = self.builder.cast(
                CastOp.FPTRUNC
                if lhs_ty.bits < result.type.bits
                else CastOp.FPEXT,
                result,
                lhs_ty,
                "compound.trunc",
            )
        self.builder.store(narrowed, addr)
        return narrowed

    def _emit_conditional(self, expr: e.ConditionalOperator) -> Value:
        assert self.fn is not None
        cond = self.emit_condition(expr.cond)
        true_bb = self.fn.append_block("cond.true")
        false_bb = self.fn.append_block("cond.false")
        end_bb = self.fn.append_block("cond.end")
        self.builder.cond_br(cond, true_bb, false_bb)
        self.builder.set_insert_point(true_bb)
        true_val = self.emit_expr(expr.true_expr)
        true_exit = self.builder.insert_block
        self.builder.br(end_bb)
        self.builder.set_insert_point(false_bb)
        false_val = self.emit_expr(expr.false_expr)
        false_exit = self.builder.insert_block
        self.builder.br(end_bb)
        self.builder.set_insert_point(end_bb)
        if self.lowered(expr.type).is_void:
            return ConstantInt(ir_ty.i32, 0)
        phi = self.builder.phi(true_val.type, "cond")
        phi.add_incoming(true_val, true_exit)
        phi.add_incoming(false_val, false_exit)
        return phi

    def _emit_call(self, expr: e.CallExpr) -> Value:
        callee_decl = expr.callee_decl()
        args = [self.emit_expr(a) for a in expr.args]
        if callee_decl is not None:
            fn = self.cgm.get_function(callee_decl)
            return self.builder.call(fn, args, "")
        # Indirect call through a pointer value.
        target = self.emit_expr(expr.callee)
        call = self.builder.call(target, args, "")
        # Patch the return type from the AST (indirect callee type).
        call.type = self.lowered(expr.type)
        if not call.type.is_void and not call.name:
            assert self.fn is not None
            call.name = self.fn.unique_name("call")
        return call
