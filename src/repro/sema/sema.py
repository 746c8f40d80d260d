"""The Sema facade: clang-style ``act_on_*`` parser actions.

The Parser decides *what* a syntactic element is and pushes it here; Sema
types it, inserts implicit nodes (casts, decay, captures) and produces the
immutable AST (paper §1.3).  OpenMP-specific analysis lives in
:class:`repro.sema.omp_sema.OpenMPSema`, reachable as ``sema.openmp``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.astlib import exprs as e
from repro.astlib import stmts as s
from repro.astlib.context import ASTContext
from repro.astlib.decls import (
    Decl,
    EnumConstantDecl,
    FieldDecl,
    FunctionDecl,
    NamedDecl,
    ParmVarDecl,
    RecordDecl,
    StorageClass,
    TranslationUnitDecl,
    TypedefDecl,
    VarDecl,
)
from repro.astlib.types import (
    ArrayType,
    BuiltinKind,
    ConstantArrayType,
    EnumType,
    FunctionType,
    PointerType,
    QualType,
    RecordType,
    ReferenceType,
    desugar,
)
from repro.diagnostics import DiagnosticsEngine
from repro.instrument import get_statistic
from repro.sema.expr_eval import IntExprEvaluator, NotConstant
from repro.sema.scope import Scope, ScopeKind
from repro.sourcemgr.location import SourceLocation

_ERRORS_RECOVERED = get_statistic(
    "crash-recovery",
    "recovered-errors",
    "Semantic errors recovered via RecoveryExpr placeholders",
)


class Sema:
    def __init__(
        self, ctx: ASTContext, diags: DiagnosticsEngine
    ) -> None:
        self.ctx = ctx
        self.diags = diags
        self.tu_scope = Scope(ScopeKind.TRANSLATION_UNIT)
        self.scope = self.tu_scope
        self.current_function: FunctionDecl | None = None
        self._loop_depth = 0
        self._switch_depth = 0
        self.evaluator = IntExprEvaluator(ctx)
        # Deferred import to avoid a cycle (omp_sema imports Sema types).
        from repro.sema.omp_sema import OpenMPSema

        self.openmp = OpenMPSema(self)
        self._declare_standard_typedefs()
        self._declare_builtin_functions()

    # ==================================================================
    # Scopes
    # ==================================================================
    def push_scope(self, kind: ScopeKind) -> Scope:
        self.scope = Scope(kind, self.scope)
        return self.scope

    def pop_scope(self) -> None:
        assert self.scope.parent is not None, "popping TU scope"
        self.scope = self.scope.parent

    class _ScopeGuard:
        def __init__(self, sema: "Sema", kind: ScopeKind):
            self.sema = sema
            self.kind = kind

        def __enter__(self) -> Scope:
            return self.sema.push_scope(self.kind)

        def __exit__(self, *exc) -> None:
            self.sema.pop_scope()

    def scoped(self, kind: ScopeKind) -> "Sema._ScopeGuard":
        return Sema._ScopeGuard(self, kind)

    def _declare_standard_typedefs(self) -> None:
        """size_t / ptrdiff_t / fixed-width typedefs, always available
        (stands in for <stddef.h>/<stdint.h>)."""
        ctx = self.ctx
        table = {
            "size_t": ctx.size_type,
            "ptrdiff_t": ctx.ptrdiff_type,
            "intptr_t": ctx.long_type,
            "uintptr_t": ctx.ulong_type,
            "int8_t": ctx.get_builtin(BuiltinKind.SCHAR),
            "uint8_t": ctx.get_builtin(BuiltinKind.UCHAR),
            "int16_t": ctx.get_builtin(BuiltinKind.SHORT),
            "uint16_t": ctx.get_builtin(BuiltinKind.USHORT),
            "int32_t": ctx.int_type,
            "uint32_t": ctx.uint_type,
            "int64_t": ctx.long_type,
            "uint64_t": ctx.ulong_type,
        }
        for name, underlying in table.items():
            self.tu_scope.declare(TypedefDecl(name, underlying))

    def _declare_builtin_functions(self) -> None:
        """Predeclare the libc subset and the ``omp_*`` user API the
        interpreter implements natively (stands in for <stdio.h>,
        <stdlib.h>, <math.h>, <omp.h>)."""
        ctx = self.ctx
        char_ptr = ctx.get_pointer(ctx.char_type.with_const())
        void_ptr = ctx.get_pointer(ctx.void_type)
        builtins: dict[str, tuple] = {
            "printf": (ctx.int_type, [char_ptr], True),
            "puts": (ctx.int_type, [char_ptr], False),
            "putchar": (ctx.int_type, [ctx.int_type], False),
            "abort": (ctx.void_type, [], False),
            "exit": (ctx.void_type, [ctx.int_type], False),
            "malloc": (void_ptr, [ctx.size_type], False),
            "free": (ctx.void_type, [void_ptr], False),
            "memset": (
                void_ptr,
                [void_ptr, ctx.int_type, ctx.size_type],
                False,
            ),
            "memcpy": (
                void_ptr,
                [void_ptr, void_ptr, ctx.size_type],
                False,
            ),
            "sqrt": (ctx.double_type, [ctx.double_type], False),
            "fabs": (ctx.double_type, [ctx.double_type], False),
            "omp_get_thread_num": (ctx.int_type, [], False),
            "omp_get_num_threads": (ctx.int_type, [], False),
            "omp_get_max_threads": (ctx.int_type, [], False),
            "omp_set_num_threads": (
                ctx.void_type,
                [ctx.int_type],
                False,
            ),
            "omp_in_parallel": (ctx.int_type, [], False),
            "omp_get_wtime": (ctx.double_type, [], False),
        }
        for name, (ret, params, variadic) in builtins.items():
            fn_type = ctx.get_function(ret, list(params), variadic)
            param_decls = [
                ParmVarDecl(f".p{i}", p) for i, p in enumerate(params)
            ]
            decl = FunctionDecl(name, fn_type, param_decls)
            decl.is_implicit = True
            self.tu_scope.declare(decl)

    # ==================================================================
    # Declarations
    # ==================================================================
    def act_on_variable_declaration(
        self,
        name: str,
        type: QualType,
        init: Optional[e.Expr],
        storage_class: StorageClass = StorageClass.NONE,
        loc: SourceLocation | None = None,
    ) -> VarDecl:
        canonical = desugar(type)
        if canonical.is_void():
            self.diags.error(f"variable '{name}' has incomplete type 'void'", loc)
        if init is not None:
            if isinstance(canonical.type, ReferenceType):
                if not init.is_lvalue:
                    self.diags.error(
                        f"non-lvalue initializer for reference '{name}'",
                        loc,
                    )
            elif isinstance(init, e.InitListExpr):
                init = self._convert_init_list(init, canonical, loc)
            else:
                init = self.implicit_convert(init, type, "initialization")
        decl = VarDecl(name, type, init, storage_class, loc)
        decl.is_global = self.scope.kind == ScopeKind.TRANSLATION_UNIT
        previous = self.scope.declare(decl)
        if previous is not None and not isinstance(previous, TypedefDecl):
            self.diags.error(f"redefinition of '{name}'", loc).add_note(
                "previous definition is here", previous.location
            )
        if decl.is_global:
            self.ctx.translation_unit.add(decl)
        return decl

    def _convert_init_list(
        self, init: e.InitListExpr, target: QualType, loc
    ) -> e.InitListExpr:
        """Convert each initializer element to the aggregate's element
        type (C brace initialization semantics)."""
        canonical = desugar(target)
        if isinstance(canonical.type, ConstantArrayType):
            elem_ty = canonical.type.element
            if len(init.inits) > canonical.type.size:
                self.diags.error(
                    "excess elements in array initializer", loc
                )
            converted = [
                self._convert_init_list(item, desugar(elem_ty), loc)
                if isinstance(item, e.InitListExpr)
                else self.implicit_convert(
                    item, elem_ty, "initialization"
                )
                for item in init.inits
            ]
            return e.InitListExpr(converted, target, init.location)
        if canonical.is_scalar() and init.inits:
            converted_scalar = self.implicit_convert(
                init.inits[0], target, "initialization"
            )
            return e.InitListExpr(
                [converted_scalar], target, init.location
            )
        return init

    def act_on_typedef(
        self,
        name: str,
        underlying: QualType,
        loc: SourceLocation | None = None,
    ) -> TypedefDecl:
        decl = TypedefDecl(name, underlying, loc)
        self.scope.declare(decl)
        if self.scope.kind == ScopeKind.TRANSLATION_UNIT:
            self.ctx.translation_unit.add(decl)
        return decl

    def act_on_record_decl(
        self,
        name: str,
        is_union: bool,
        loc: SourceLocation | None = None,
    ) -> RecordDecl:
        existing = self.scope.lookup_tag(name) if name else None
        if isinstance(existing, RecordDecl):
            return existing
        decl = RecordDecl(name, is_union, loc)
        if name:
            self.scope.declare_tag(decl)
        return decl

    def act_on_field(
        self,
        record: RecordDecl,
        name: str,
        type: QualType,
        loc: SourceLocation | None = None,
    ) -> FieldDecl:
        if record.field_named(name) is not None:
            self.diags.error(
                f"duplicate member '{name}'", loc
            )
        field = FieldDecl(name, type, loc)
        record.add_field(field)
        return field

    def act_on_function_declaration(
        self,
        name: str,
        fn_type: QualType,
        params: list[ParmVarDecl],
        storage_class: StorageClass = StorageClass.NONE,
        is_inline: bool = False,
        loc: SourceLocation | None = None,
    ) -> FunctionDecl:
        existing = self.tu_scope.lookup_local(name)
        if isinstance(existing, FunctionDecl):
            if not self.ctx.is_same_type(existing.type, fn_type):
                self.diags.error(
                    f"conflicting types for '{name}'", loc
                ).add_note("previous declaration is here", existing.location)
            return existing
        decl = FunctionDecl(
            name, fn_type, params, None, storage_class, is_inline, loc
        )
        self.tu_scope.declare(decl)
        self.ctx.translation_unit.add(decl)
        return decl

    def act_on_start_of_function_def(self, fn: FunctionDecl) -> Scope:
        self.current_function = fn
        scope = self.push_scope(ScopeKind.FUNCTION)
        for param in fn.params:
            scope.declare(param)
        return scope

    def act_on_finish_function_body(
        self, fn: FunctionDecl, body: s.Stmt
    ) -> None:
        if fn.body is not None:
            self.diags.error(f"redefinition of '{fn.name}'", fn.location)
        fn.body = body
        self.pop_scope()
        self.current_function = None

    # ==================================================================
    # Conversions
    # ==================================================================
    def default_function_array_conversion(self, expr: e.Expr) -> e.Expr:
        """Array-to-pointer and function-to-pointer decay."""
        canonical = desugar(expr.type)
        if isinstance(canonical.type, ArrayType):
            ptr = self.ctx.get_pointer(canonical.type.element)
            return e.ImplicitCastExpr(
                e.CastKind.ARRAY_TO_POINTER_DECAY, expr, ptr
            )
        if isinstance(canonical.type, FunctionType):
            ptr = self.ctx.get_pointer(expr.type)
            return e.ImplicitCastExpr(
                e.CastKind.FUNCTION_TO_POINTER_DECAY, expr, ptr
            )
        return expr

    def default_lvalue_conversion(self, expr: e.Expr) -> e.Expr:
        """Full rvalue conversion: decay + lvalue-to-rvalue."""
        expr = self.default_function_array_conversion(expr)
        canonical = desugar(expr.type)
        if expr.is_lvalue and not isinstance(
            canonical.type, (ArrayType, FunctionType)
        ):
            return e.ImplicitCastExpr(
                e.CastKind.LVALUE_TO_RVALUE,
                expr,
                expr.type.unqualified(),
            )
        return expr

    def integer_promotion(self, expr: e.Expr) -> e.Expr:
        canonical = desugar(expr.type)
        if isinstance(canonical.type, EnumType):
            # Enumerations promote to int in expressions.
            return e.ImplicitCastExpr(
                e.CastKind.INTEGRAL_CAST, expr, self.ctx.int_type
            )
        if (
            canonical.is_integer()
            and canonical.type.integer_rank()
            < self.ctx.int_type.type.integer_rank()
        ):
            return e.ImplicitCastExpr(
                e.CastKind.INTEGRAL_CAST, expr, self.ctx.int_type
            )
        return expr

    def usual_arithmetic_conversions(
        self, lhs: e.Expr, rhs: e.Expr
    ) -> tuple[e.Expr, e.Expr, QualType]:
        """C11 6.3.1.8, restricted to our builtin set."""
        lty, rty = desugar(lhs.type), desugar(rhs.type)
        # Floating point dominates.
        if lty.is_floating() or rty.is_floating():
            target = (
                self.ctx.double_type
                if BuiltinKind.DOUBLE in (getattr(lty.type, "kind", None),
                                          getattr(rty.type, "kind", None))
                else self.ctx.float_type
            )
            return (
                self._convert_arith(lhs, target),
                self._convert_arith(rhs, target),
                target,
            )
        lhs, rhs = self.integer_promotion(lhs), self.integer_promotion(rhs)
        lty, rty = desugar(lhs.type), desugar(rhs.type)
        if lty.type is rty.type:
            return lhs, rhs, QualType(lty.type)
        lrank, rrank = lty.type.integer_rank(), rty.type.integer_rank()
        lsigned, rsigned = lty.is_signed_integer(), rty.is_signed_integer()
        if lsigned == rsigned:
            target = QualType(lty.type if lrank >= rrank else rty.type)
        else:
            signed_ty, signed_rank = (
                (lty, lrank) if lsigned else (rty, rrank)
            )
            unsigned_ty, unsigned_rank = (
                (rty, rrank) if lsigned else (lty, lrank)
            )
            if unsigned_rank >= signed_rank:
                target = QualType(unsigned_ty.type)
            elif self.ctx.type_width(QualType(signed_ty.type)) > self.ctx.type_width(
                QualType(unsigned_ty.type)
            ):
                target = QualType(signed_ty.type)
            else:
                target = self.ctx.int_type_of_width(
                    self.ctx.type_width(QualType(signed_ty.type)), False
                )
        return (
            self._convert_arith(lhs, target),
            self._convert_arith(rhs, target),
            target,
        )

    def _convert_arith(self, expr: e.Expr, target: QualType) -> e.Expr:
        src = desugar(expr.type)
        dst = desugar(target)
        if src.type is dst.type:
            return expr
        if src.is_integer() and dst.is_integer():
            kind = e.CastKind.INTEGRAL_CAST
        elif src.is_integer() and dst.is_floating():
            kind = e.CastKind.INTEGRAL_TO_FLOATING
        elif src.is_floating() and dst.is_integer():
            kind = e.CastKind.FLOATING_TO_INTEGRAL
        else:
            kind = e.CastKind.FLOATING_CAST
        return e.ImplicitCastExpr(kind, expr, target)

    def check_condition(self, expr: e.Expr, loc=None) -> e.Expr:
        """Validate and prepare a controlling expression.

        C never materializes a bool conversion for statement conditions —
        clang's AST dumps show the bare comparison (paper Listing 3) and
        CodeGen compares against zero; we follow that, only checking that
        the type is scalar.
        """
        expr = self.default_lvalue_conversion(expr)
        if not desugar(expr.type).is_scalar():
            self.diags.error(
                f"statement requires expression of scalar type "
                f"('{expr.type.spelling()}' invalid)",
                loc or expr.location,
            )
        return expr

    def convert_to_bool(self, expr: e.Expr, loc=None) -> e.Expr:
        """Convert a scalar to a boolean condition value."""
        expr = self.default_lvalue_conversion(expr)
        canonical = desugar(expr.type)
        if canonical.is_bool():
            return expr
        if canonical.is_integer():
            kind = e.CastKind.INTEGRAL_TO_BOOLEAN
        elif canonical.is_floating():
            kind = e.CastKind.FLOATING_TO_BOOLEAN
        elif canonical.is_pointer():
            kind = e.CastKind.POINTER_TO_BOOLEAN
        else:
            self.diags.error(
                f"value of type '{expr.type.spelling()}' is not "
                "contextually convertible to 'bool'",
                loc or expr.location,
            )
            return expr
        return e.ImplicitCastExpr(kind, expr, self.ctx.bool_type)

    def implicit_convert(
        self, expr: e.Expr, target: QualType, context: str
    ) -> e.Expr:
        """Assignment-style implicit conversion to *target*."""
        expr = self.default_lvalue_conversion(expr)
        src = desugar(expr.type)
        dst = desugar(target)
        if src.type is dst.type:
            return expr
        if dst.is_arithmetic() and src.is_arithmetic():
            if dst.is_bool():
                return self.convert_to_bool(expr)
            return self._convert_arith(expr, target)
        if dst.is_pointer() and src.is_pointer():
            spointee = desugar(dst.type.pointee)
            dpointee = desugar(src.type.pointee)
            if spointee.is_void() or dpointee.is_void():
                return e.ImplicitCastExpr(e.CastKind.BITCAST, expr, target)
            if spointee.type is dpointee.type:
                return e.ImplicitCastExpr(e.CastKind.NOOP, expr, target)
            self.diags.warning(
                f"incompatible pointer types in {context}: "
                f"'{expr.type.spelling()}' to '{target.spelling()}'",
                expr.location,
            )
            return e.ImplicitCastExpr(e.CastKind.BITCAST, expr, target)
        if dst.is_pointer() and src.is_integer():
            value = self.evaluator.try_evaluate(expr)
            if value == 0:
                return e.ImplicitCastExpr(
                    e.CastKind.NULL_TO_POINTER, expr, target
                )
            self.diags.warning(
                f"incompatible integer to pointer conversion in {context}",
                expr.location,
            )
            return e.ImplicitCastExpr(e.CastKind.BITCAST, expr, target)
        self.diags.error(
            f"cannot convert '{expr.type.spelling()}' to "
            f"'{target.spelling()}' in {context}",
            expr.location,
        )
        return expr

    # ==================================================================
    # Expressions
    # ==================================================================
    def act_on_integer_literal(
        self, spelling: str, loc: SourceLocation | None = None
    ) -> e.Expr:
        text = spelling
        is_unsigned = False
        long_count = 0
        while text and text[-1] in "uUlL":
            if text[-1] in "uU":
                is_unsigned = True
            else:
                long_count += 1
            text = text[:-1]
        base = 10
        if text.lower().startswith("0x"):
            base = 16
        elif text.lower().startswith("0b"):
            base = 2
        elif text.startswith("0") and len(text) > 1:
            base = 8
        try:
            value = int(text, base)
        except ValueError:
            self.diags.error(f"invalid integer literal '{spelling}'", loc)
            value = 0
        ctx = self.ctx
        # Candidate types per C11 6.4.4.1 (hex/oct also try unsigned).
        candidates: list[QualType] = []
        if is_unsigned:
            candidates = [ctx.uint_type, ctx.ulong_type, ctx.ulonglong_type]
        elif base == 10:
            candidates = [ctx.int_type, ctx.long_type, ctx.longlong_type]
        else:
            candidates = [
                ctx.int_type,
                ctx.uint_type,
                ctx.long_type,
                ctx.ulong_type,
                ctx.longlong_type,
                ctx.ulonglong_type,
            ]
        if long_count == 1:
            candidates = [
                c
                for c in candidates
                if desugar(c).type.integer_rank() >= 4
            ]
        elif long_count >= 2:
            candidates = [
                c
                for c in candidates
                if desugar(c).type.integer_rank() >= 5
            ]
        chosen = candidates[-1]
        for cand in candidates:
            width = ctx.type_width(cand)
            if desugar(cand).is_signed_integer():
                if value < (1 << (width - 1)):
                    chosen = cand
                    break
            else:
                if value < (1 << width):
                    chosen = cand
                    break
        return e.IntegerLiteral(value, chosen, loc)

    def act_on_floating_literal(
        self, spelling: str, loc: SourceLocation | None = None
    ) -> e.Expr:
        text = spelling
        ty = self.ctx.double_type
        if text[-1] in "fF":
            ty = self.ctx.float_type
            text = text[:-1]
        elif text[-1] in "lL":
            text = text[:-1]
        try:
            value = float(text)
        except ValueError:
            self.diags.error(
                f"invalid floating literal '{spelling}'", loc
            )
            value = 0.0
        return e.FloatingLiteral(value, ty, loc)

    def act_on_numeric_literal(
        self, spelling: str, loc: SourceLocation | None = None
    ) -> e.Expr:
        lowered = spelling.lower()
        if (
            "." in spelling
            or (
                not lowered.startswith("0x")
                and ("e" in lowered)
            )
            or (lowered.startswith("0x") and "p" in lowered)
            or (
                not lowered.startswith("0x")
                and spelling[-1] in "fF"
                and all(c in "0123456789.fF" for c in spelling)
                and any(c in "0123456789" for c in spelling)
                and "." in spelling
            )
        ):
            return self.act_on_floating_literal(spelling, loc)
        return self.act_on_integer_literal(spelling, loc)

    def act_on_char_literal(
        self, spelling: str, loc: SourceLocation | None = None
    ) -> e.Expr:
        body = spelling[1:-1]
        if body.startswith("\\"):
            escapes = {
                "n": 10, "t": 9, "r": 13, "0": 0, "\\": 92,
                "'": 39, '"': 34, "a": 7, "b": 8, "f": 12, "v": 11,
            }
            value = escapes.get(body[1:2])
            if value is None:
                if body[1:2] == "x":
                    value = int(body[2:], 16)
                else:
                    self.diags.error(
                        f"unknown escape sequence '{body}'", loc
                    )
                    value = 0
        else:
            value = ord(body[0]) if body else 0
        return e.CharacterLiteral(value, self.ctx.int_type, loc)

    def act_on_string_literal(
        self, spelling: str, loc: SourceLocation | None = None
    ) -> e.Expr:
        body = spelling[1:-1]
        decoded = (
            body.encode("utf-8")
            .decode("unicode_escape")
        )
        ty = self.ctx.get_constant_array(
            self.ctx.char_type, len(decoded) + 1
        )
        return e.StringLiteral(decoded, ty, loc)

    def act_on_bool_literal(
        self, value: bool, loc: SourceLocation | None = None
    ) -> e.Expr:
        return e.BoolLiteralExpr(value, self.ctx.bool_type, loc)

    def act_on_id_expression(
        self, name: str, loc: SourceLocation | None = None
    ) -> e.Expr | None:
        decl = self.scope.lookup(name)
        if decl is None:
            self.diags.error(f"use of undeclared identifier '{name}'", loc)
            return self.recovery_expr([], loc)
        if isinstance(decl, EnumConstantDecl):
            return e.IntegerLiteral(decl.value, decl.type, loc)
        if isinstance(decl, FunctionDecl):
            return e.DeclRefExpr(
                decl, decl.type, e.ValueCategory.RVALUE, loc
            )
        if isinstance(decl, VarDecl):
            qt = decl.type
            canonical = desugar(qt)
            if isinstance(canonical.type, ReferenceType):
                # References are transparent in expressions: the DeclRef
                # has the referenced type and is an lvalue.
                return e.DeclRefExpr(
                    decl,
                    canonical.type.pointee,
                    e.ValueCategory.LVALUE,
                    loc,
                )
            return e.DeclRefExpr(decl, qt, e.ValueCategory.LVALUE, loc)
        self.diags.error(f"'{name}' does not name a value", loc)
        return self.recovery_expr([], loc)

    def act_on_paren_expr(
        self, sub: e.Expr, loc: SourceLocation | None = None
    ) -> e.Expr:
        return e.ParenExpr(sub, loc)

    def recovery_expr(
        self,
        subexprs: Sequence[e.Expr],
        loc: SourceLocation | None = None,
    ) -> e.RecoveryExpr:
        """Build an error-recovery placeholder (clang's RecoveryExpr) so
        parsing continues past a semantic error without cascades."""
        _ERRORS_RECOVERED.inc()
        return e.RecoveryExpr(
            [x for x in subexprs if x is not None],
            self.ctx.int_type,
            loc,
        )

    def act_on_unary_op(
        self,
        opcode: e.UnaryOperatorKind,
        sub: e.Expr,
        loc: SourceLocation | None = None,
    ) -> e.Expr:
        if e.contains_errors(sub):
            return self.recovery_expr([sub], loc)
        U = e.UnaryOperatorKind
        if opcode.is_increment_decrement():
            if not sub.is_lvalue:
                self.diags.error(
                    "expression is not assignable", loc
                )
            ty = desugar(sub.type)
            if not (ty.is_arithmetic() or ty.is_pointer()):
                self.diags.error(
                    f"cannot increment value of type "
                    f"'{sub.type.spelling()}'",
                    loc,
                )
            return e.UnaryOperator(
                opcode, sub, sub.type.unqualified(), e.ValueCategory.RVALUE, loc
            )
        if opcode == U.ADDR_OF:
            if not sub.is_lvalue:
                self.diags.error(
                    "cannot take the address of an rvalue", loc
                )
            return e.UnaryOperator(
                opcode,
                sub,
                self.ctx.get_pointer(sub.type),
                e.ValueCategory.RVALUE,
                loc,
            )
        if opcode == U.DEREF:
            sub = self.default_lvalue_conversion(sub)
            canonical = desugar(sub.type)
            if not canonical.is_pointer():
                self.diags.error(
                    f"indirection requires pointer operand "
                    f"('{sub.type.spelling()}' invalid)",
                    loc,
                )
                return sub
            return e.UnaryOperator(
                opcode,
                sub,
                canonical.type.pointee,
                e.ValueCategory.LVALUE,
                loc,
            )
        if opcode in (U.PLUS, U.MINUS, U.NOT):
            sub = self.default_lvalue_conversion(sub)
            if not desugar(sub.type).is_arithmetic():
                self.diags.error(
                    f"invalid argument type '{sub.type.spelling()}' to "
                    f"unary expression",
                    loc,
                )
            if opcode == U.NOT and not desugar(sub.type).is_integer():
                self.diags.error(
                    "operand of '~' must have integer type", loc
                )
            sub = self.integer_promotion(sub)
            return e.UnaryOperator(
                opcode, sub, sub.type, e.ValueCategory.RVALUE, loc
            )
        if opcode == U.LNOT:
            sub = self.check_condition(sub, loc)
            return e.UnaryOperator(
                opcode, sub, self.ctx.int_type, e.ValueCategory.RVALUE, loc
            )
        raise AssertionError(opcode)

    def act_on_binary_op(
        self,
        opcode: e.BinaryOperatorKind,
        lhs: e.Expr,
        rhs: e.Expr,
        loc: SourceLocation | None = None,
    ) -> e.Expr:
        if e.contains_errors(lhs, rhs):
            return self.recovery_expr([lhs, rhs], loc)
        B = e.BinaryOperatorKind
        if opcode == B.ASSIGN:
            return self._build_assignment(lhs, rhs, loc)
        if opcode.is_compound_assignment():
            return self._build_compound_assignment(opcode, lhs, rhs, loc)
        if opcode in (B.LAND, B.LOR):
            lhs = self.check_condition(lhs, loc)
            rhs = self.check_condition(rhs, loc)
            return e.BinaryOperator(
                opcode, lhs, rhs, self.ctx.int_type,
                e.ValueCategory.RVALUE, loc,
            )
        if opcode == B.COMMA:
            lhs = self.default_lvalue_conversion(lhs)
            rhs = self.default_lvalue_conversion(rhs)
            return e.BinaryOperator(
                opcode, lhs, rhs, rhs.type, e.ValueCategory.RVALUE, loc
            )
        lhs = self.default_lvalue_conversion(lhs)
        rhs = self.default_lvalue_conversion(rhs)
        lty, rty = desugar(lhs.type), desugar(rhs.type)
        # Pointer arithmetic and comparison.
        if lty.is_pointer() or rty.is_pointer():
            return self._build_pointer_binop(opcode, lhs, rhs, loc)
        if not (lty.is_arithmetic() and rty.is_arithmetic()):
            self.diags.error(
                f"invalid operands to binary expression "
                f"('{lhs.type.spelling()}' and '{rhs.type.spelling()}')",
                loc,
            )
            return e.BinaryOperator(
                opcode, lhs, rhs, self.ctx.int_type,
                e.ValueCategory.RVALUE, loc,
            )
        lhs, rhs, common = self.usual_arithmetic_conversions(lhs, rhs)
        if opcode.is_comparison():
            result_ty = self.ctx.int_type
        else:
            result_ty = common
        if opcode in (B.REM, B.SHL, B.SHR, B.AND, B.OR, B.XOR):
            if not desugar(common).is_integer():
                self.diags.error(
                    f"invalid operands to binary '{opcode.value}' "
                    "(floating point)",
                    loc,
                )
        return e.BinaryOperator(
            opcode, lhs, rhs, result_ty, e.ValueCategory.RVALUE, loc
        )

    def _build_pointer_binop(
        self,
        opcode: e.BinaryOperatorKind,
        lhs: e.Expr,
        rhs: e.Expr,
        loc,
    ) -> e.Expr:
        B = e.BinaryOperatorKind
        lty, rty = desugar(lhs.type), desugar(rhs.type)
        if opcode == B.ADD:
            if lty.is_pointer() and rty.is_integer():
                return e.BinaryOperator(
                    opcode, lhs, rhs, lhs.type, e.ValueCategory.RVALUE, loc
                )
            if lty.is_integer() and rty.is_pointer():
                return e.BinaryOperator(
                    opcode, lhs, rhs, rhs.type, e.ValueCategory.RVALUE, loc
                )
        if opcode == B.SUB:
            if lty.is_pointer() and rty.is_integer():
                return e.BinaryOperator(
                    opcode, lhs, rhs, lhs.type, e.ValueCategory.RVALUE, loc
                )
            if lty.is_pointer() and rty.is_pointer():
                return e.BinaryOperator(
                    opcode,
                    lhs,
                    rhs,
                    self.ctx.ptrdiff_type,
                    e.ValueCategory.RVALUE,
                    loc,
                )
        if opcode.is_comparison() and lty.is_pointer() and rty.is_pointer():
            return e.BinaryOperator(
                opcode, lhs, rhs, self.ctx.int_type,
                e.ValueCategory.RVALUE, loc,
            )
        self.diags.error(
            f"invalid operands to binary '{opcode.value}' "
            f"('{lhs.type.spelling()}' and '{rhs.type.spelling()}')",
            loc,
        )
        return e.BinaryOperator(
            opcode, lhs, rhs, self.ctx.int_type, e.ValueCategory.RVALUE, loc
        )

    def _build_assignment(
        self, lhs: e.Expr, rhs: e.Expr, loc
    ) -> e.Expr:
        if not lhs.is_lvalue:
            self.diags.error("expression is not assignable", loc)
        if lhs.type.is_const:
            self.diags.error(
                "cannot assign to const-qualified variable", loc
            )
        rhs = self.implicit_convert(rhs, lhs.type, "assignment")
        return e.BinaryOperator(
            e.BinaryOperatorKind.ASSIGN,
            lhs,
            rhs,
            lhs.type.unqualified(),
            e.ValueCategory.RVALUE,
            loc,
        )

    def _build_compound_assignment(
        self,
        opcode: e.BinaryOperatorKind,
        lhs: e.Expr,
        rhs: e.Expr,
        loc,
    ) -> e.Expr:
        if not lhs.is_lvalue:
            self.diags.error("expression is not assignable", loc)
        lty = desugar(lhs.type)
        rhs = self.default_lvalue_conversion(rhs)
        if lty.is_pointer():
            underlying = opcode.underlying_compound_op()
            if underlying not in (
                e.BinaryOperatorKind.ADD,
                e.BinaryOperatorKind.SUB,
            ) or not desugar(rhs.type).is_integer():
                self.diags.error(
                    f"invalid operands to '{opcode.value}'", loc
                )
            computation = lhs.type
        else:
            rvalue_lhs = self.default_lvalue_conversion(lhs)
            _, rhs, computation = self.usual_arithmetic_conversions(
                rvalue_lhs, rhs
            )
        return e.CompoundAssignOperator(
            opcode, lhs, rhs, lhs.type.unqualified(), computation, loc
        )

    def act_on_conditional_op(
        self,
        cond: e.Expr,
        true_expr: e.Expr,
        false_expr: e.Expr,
        loc=None,
    ) -> e.Expr:
        if e.contains_errors(cond, true_expr, false_expr):
            return self.recovery_expr(
                [cond, true_expr, false_expr], loc
            )
        cond = self.check_condition(cond, loc)
        true_expr = self.default_lvalue_conversion(true_expr)
        false_expr = self.default_lvalue_conversion(false_expr)
        tty, fty = desugar(true_expr.type), desugar(false_expr.type)
        if tty.is_arithmetic() and fty.is_arithmetic():
            true_expr, false_expr, common = (
                self.usual_arithmetic_conversions(true_expr, false_expr)
            )
        elif tty.is_pointer() and fty.is_pointer():
            common = true_expr.type
        elif tty.is_void() and fty.is_void():
            common = self.ctx.void_type
        else:
            self.diags.error(
                "incompatible operand types in conditional expression "
                f"('{true_expr.type.spelling()}' and "
                f"'{false_expr.type.spelling()}')",
                loc,
            )
            common = true_expr.type
        return e.ConditionalOperator(
            cond, true_expr, false_expr, common, loc
        )

    def act_on_array_subscript(
        self, base: e.Expr, index: e.Expr, loc=None
    ) -> e.Expr:
        if e.contains_errors(base, index):
            return self.recovery_expr([base, index], loc)
        base = self.default_function_array_conversion(base)
        if base.is_lvalue and not desugar(base.type).is_pointer():
            base = self.default_lvalue_conversion(base)
        index = self.default_lvalue_conversion(index)
        bty = desugar(base.type)
        ity = desugar(index.type)
        # C allows E1[E2] == E2[E1].
        if ity.is_pointer() and bty.is_integer():
            base, index = index, base
            bty, ity = ity, bty
        if not bty.is_pointer():
            self.diags.error(
                "subscripted value is not an array or pointer", loc
            )
            return base
        if not ity.is_integer():
            self.diags.error("array subscript is not an integer", loc)
        return e.ArraySubscriptExpr(
            base, index, bty.type.pointee, loc
        )

    def act_on_call(
        self, callee: e.Expr, args: list[e.Expr], loc=None
    ) -> e.Expr:
        if e.contains_errors(callee, *args):
            return self.recovery_expr([callee, *args], loc)
        callee_conv = self.default_function_array_conversion(callee)
        cty = desugar(callee_conv.type)
        fn_type: FunctionType | None = None
        if isinstance(cty.type, PointerType):
            pointee = desugar(cty.type.pointee)
            if isinstance(pointee.type, FunctionType):
                fn_type = pointee.type
        elif isinstance(cty.type, FunctionType):
            fn_type = cty.type
        if fn_type is None:
            self.diags.error(
                "called object is not a function or function pointer",
                loc,
            )
            return e.CallExpr(callee_conv, args, self.ctx.int_type, loc)
        nparams = len(fn_type.params)
        if len(args) < nparams or (
            len(args) > nparams and not fn_type.is_variadic
        ):
            self.diags.error(
                f"function expects {nparams} argument(s), "
                f"got {len(args)}",
                loc,
            )
        converted: list[e.Expr] = []
        for i, arg in enumerate(args):
            if i < nparams:
                converted.append(
                    self.implicit_convert(
                        arg, fn_type.params[i], "argument passing"
                    )
                )
            else:
                # Default argument promotions for variadic arguments.
                arg = self.default_lvalue_conversion(arg)
                aty = desugar(arg.type)
                if aty.is_integer():
                    arg = self.integer_promotion(arg)
                elif aty.is_floating() and self.ctx.type_width(aty) < 64:
                    arg = self._convert_arith(arg, self.ctx.double_type)
                converted.append(arg)
        return e.CallExpr(
            callee_conv, converted, fn_type.return_type, loc
        )

    def act_on_member_access(
        self, base: e.Expr, member_name: str, is_arrow: bool, loc=None
    ) -> e.Expr:
        if e.contains_errors(base):
            return self.recovery_expr([base], loc)
        if is_arrow:
            base = self.default_lvalue_conversion(base)
            bty = desugar(base.type)
            if not bty.is_pointer():
                self.diags.error(
                    "member reference type is not a pointer", loc
                )
                return base
            record_qt = desugar(bty.type.pointee)
        else:
            record_qt = desugar(base.type)
        if not isinstance(record_qt.type, RecordType):
            self.diags.error(
                f"member reference base type "
                f"'{base.type.spelling()}' is not a structure or union",
                loc,
            )
            return base
        record = record_qt.type.decl
        field = record.field_named(member_name)
        if field is None:
            self.diags.error(
                f"no member named '{member_name}' in "
                f"'{record_qt.spelling()}'",
                loc,
            )
            return base
        return e.MemberExpr(base, field, is_arrow, field.type, loc)

    def act_on_cstyle_cast(
        self, target: QualType, sub: e.Expr, loc=None
    ) -> e.Expr:
        sub = self.default_lvalue_conversion(sub)
        src = desugar(sub.type)
        dst = desugar(target)
        if dst.is_void():
            kind = e.CastKind.TO_VOID
        elif dst.is_arithmetic() and src.is_arithmetic():
            if dst.is_bool():
                return e.CStyleCastExpr(
                    e.CastKind.INTEGRAL_TO_BOOLEAN
                    if src.is_integer()
                    else e.CastKind.FLOATING_TO_BOOLEAN,
                    sub,
                    target,
                )
            if src.is_integer() and dst.is_integer():
                kind = e.CastKind.INTEGRAL_CAST
            elif src.is_integer():
                kind = e.CastKind.INTEGRAL_TO_FLOATING
            elif dst.is_integer():
                kind = e.CastKind.FLOATING_TO_INTEGRAL
            else:
                kind = e.CastKind.FLOATING_CAST
        elif dst.is_pointer() and (src.is_pointer() or src.is_integer()):
            kind = e.CastKind.BITCAST
        elif dst.is_integer() and src.is_pointer():
            kind = e.CastKind.BITCAST
        else:
            self.diags.error(
                f"cannot cast '{sub.type.spelling()}' to "
                f"'{target.spelling()}'",
                loc,
            )
            kind = e.CastKind.NOOP
        return e.CStyleCastExpr(kind, sub, target, e.ValueCategory.RVALUE, loc)

    def act_on_sizeof(
        self,
        argument_type: QualType | None,
        argument_expr: e.Expr | None,
        loc=None,
    ) -> e.Expr:
        return e.UnaryExprOrTypeTraitExpr(
            "sizeof",
            argument_type,
            argument_expr,
            self.ctx.size_type,
            loc,
        )

    # ==================================================================
    # Statements
    # ==================================================================
    def act_on_if_stmt(
        self, cond: e.Expr, then_stmt: s.Stmt, else_stmt=None, loc=None
    ) -> s.Stmt:
        return s.IfStmt(self.check_condition(cond, loc), then_stmt, else_stmt, loc)

    def act_on_while_stmt(self, cond: e.Expr, body: s.Stmt, loc=None):
        return s.WhileStmt(self.check_condition(cond, loc), body, loc)

    def act_on_do_stmt(self, body: s.Stmt, cond: e.Expr, loc=None):
        return s.DoStmt(body, self.check_condition(cond, loc), loc)

    def act_on_for_stmt(
        self,
        init: s.Stmt | None,
        cond: e.Expr | None,
        inc: e.Expr | None,
        body: s.Stmt,
        loc=None,
    ) -> s.Stmt:
        if cond is not None:
            cond = self.check_condition(cond, loc)
        if inc is not None and isinstance(inc, e.Expr):
            inc = self.default_lvalue_conversion(inc) if False else inc
        return s.ForStmt(init, cond, inc, body, loc)

    def act_on_return_stmt(self, value: e.Expr | None, loc=None) -> s.Stmt:
        fn = self.current_function
        if fn is None:
            self.diags.error("'return' outside of a function", loc)
            return s.ReturnStmt(value, loc)
        ret_ty = desugar(fn.return_type)
        if ret_ty.is_void():
            if value is not None:
                self.diags.error(
                    f"void function '{fn.name}' should not return a value",
                    loc,
                )
                value = None
        else:
            if value is None:
                self.diags.error(
                    f"non-void function '{fn.name}' should return a value",
                    loc,
                )
            else:
                value = self.implicit_convert(
                    value, fn.return_type, "return"
                )
        return s.ReturnStmt(value, loc)

    def enter_loop(self) -> None:
        self._loop_depth += 1

    def exit_loop(self) -> None:
        self._loop_depth -= 1

    def enter_switch(self) -> None:
        self._switch_depth += 1

    def exit_switch(self) -> None:
        self._switch_depth -= 1

    def act_on_break_stmt(self, loc=None) -> s.Stmt:
        if self._loop_depth == 0 and self._switch_depth == 0:
            self.diags.error(
                "'break' statement not in loop or switch statement", loc
            )
        return s.BreakStmt(loc)

    def act_on_continue_stmt(self, loc=None) -> s.Stmt:
        if self._loop_depth == 0:
            self.diags.error(
                "'continue' statement not in loop statement", loc
            )
        return s.ContinueStmt(loc)

    # ------------------------------------------------------------------
    # Range-based for loop de-sugaring (paper Listing "rangeloop")
    # ------------------------------------------------------------------
    def act_on_cxx_for_range_header(
        self,
        loop_var_type: QualType,
        loop_var_name: str,
        range_expr: e.Expr,
        loc=None,
    ) -> dict:
        """Build the de-sugared range-for header declarations.

        Produces (as in clang, and the paper's listing)::

            auto &&__range = <range_expr>;
            auto __begin = std::begin(__range);   // here: array decay
            auto __end   = std::end(__range);     // begin + N
            for (; __begin != __end; ++__begin) {
              T [&]Val = *__begin;
              ...

        The range must be a constant-size array in MiniC (iterator classes
        would need overload resolution, which is exactly the base-language
        dependence the paper cites as the reason these expressions must be
        built in Sema).
        """
        ctx = self.ctx
        range_ty = desugar(range_expr.type)
        if not isinstance(range_ty.type, ConstantArrayType):
            self.diags.error(
                "range-based for requires an array of known bound "
                f"(got '{range_expr.type.spelling()}')",
                loc,
            )
            # Error recovery: pretend a 0-length int array.
            arr_qt = ctx.get_constant_array(ctx.int_type, 0)
            range_ty = desugar(arr_qt)
        array_ty = range_ty.type
        assert isinstance(array_ty, ConstantArrayType)
        elem_ty = array_ty.element
        ptr_ty = ctx.get_pointer(elem_ty)

        range_decl = VarDecl(
            "__range1",
            ctx.get_reference(range_expr.type),
            range_expr,
            location=loc,
        )
        range_decl.is_implicit = True
        range_ref = e.DeclRefExpr(
            range_decl, range_expr.type, e.ValueCategory.LVALUE, loc
        )
        begin_init = e.ImplicitCastExpr(
            e.CastKind.ARRAY_TO_POINTER_DECAY, range_ref, ptr_ty
        )
        begin_decl = VarDecl("__begin1", ptr_ty, begin_init, location=loc)
        begin_decl.is_implicit = True
        end_init = e.BinaryOperator(
            e.BinaryOperatorKind.ADD,
            e.ImplicitCastExpr(
                e.CastKind.ARRAY_TO_POINTER_DECAY,
                e.DeclRefExpr(
                    range_decl,
                    range_expr.type,
                    e.ValueCategory.LVALUE,
                    loc,
                ),
                ptr_ty,
            ),
            e.IntegerLiteral(array_ty.size, ctx.ptrdiff_type, loc),
            ptr_ty,
            e.ValueCategory.RVALUE,
            loc,
        )
        end_decl = VarDecl("__end1", ptr_ty, end_init, location=loc)
        end_decl.is_implicit = True

        def begin_ref() -> e.Expr:
            return e.DeclRefExpr(
                begin_decl, ptr_ty, e.ValueCategory.LVALUE, loc
            )

        cond = e.BinaryOperator(
            e.BinaryOperatorKind.NE,
            e.ImplicitCastExpr(
                e.CastKind.LVALUE_TO_RVALUE, begin_ref(), ptr_ty
            ),
            e.ImplicitCastExpr(
                e.CastKind.LVALUE_TO_RVALUE,
                e.DeclRefExpr(
                    end_decl, ptr_ty, e.ValueCategory.LVALUE, loc
                ),
                ptr_ty,
            ),
            ctx.int_type,
            e.ValueCategory.RVALUE,
            loc,
        )
        inc = e.UnaryOperator(
            e.UnaryOperatorKind.PRE_INC,
            begin_ref(),
            ptr_ty,
            e.ValueCategory.RVALUE,
            loc,
        )
        deref = e.UnaryOperator(
            e.UnaryOperatorKind.DEREF,
            e.ImplicitCastExpr(
                e.CastKind.LVALUE_TO_RVALUE, begin_ref(), ptr_ty
            ),
            elem_ty,
            e.ValueCategory.LVALUE,
            loc,
        )
        lv_canonical = desugar(loop_var_type)
        if isinstance(lv_canonical.type, ReferenceType):
            loop_var_init: e.Expr = deref
        else:
            loop_var_init = self.implicit_convert(
                deref, loop_var_type, "range-for initialization"
            )
        loop_var = VarDecl(
            loop_var_name, loop_var_type, loop_var_init, location=loc
        )
        self.scope.declare(loop_var)
        return {
            "range_stmt": s.DeclStmt([range_decl], loc),
            "begin_stmt": s.DeclStmt([begin_decl], loc),
            "end_stmt": s.DeclStmt([end_decl], loc),
            "cond": cond,
            "inc": inc,
            "loop_var_stmt": s.DeclStmt([loop_var], loc),
            "begin_decl": begin_decl,
            "end_decl": end_decl,
        }

    def act_on_cxx_for_range_stmt(
        self, header: dict, body: s.Stmt, loc=None
    ) -> s.CXXForRangeStmt:
        return s.CXXForRangeStmt(
            header["range_stmt"],
            header["begin_stmt"],
            header["end_stmt"],
            header["cond"],
            header["inc"],
            header["loop_var_stmt"],
            body,
            loc,
        )
