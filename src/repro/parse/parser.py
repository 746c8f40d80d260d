"""Recursive-descent parser for MiniC (C subset + range-for + OpenMP).

Grammar coverage: declarations (builtin types, typedefs, struct/union,
enum, pointers, arrays, functions, references), all C statements, the full
C expression grammar with correct precedence, C-style casts, ``sizeof``,
and the C++11 range-based for loop the paper uses to illustrate the
loop-user-variable / loop-iteration-variable / logical-iteration-counter
distinction.

The parser is index-based over a materialized token list, which makes the
bounded lookahead needed for cast-vs-paren and range-for disambiguation
trivial.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.astlib import exprs as e
from repro.astlib import stmts as s
from repro.astlib.decls import (
    EnumConstantDecl,
    EnumDecl,
    FunctionDecl,
    ParmVarDecl,
    RecordDecl,
    StorageClass,
    TypedefDecl,
    VarDecl,
)
from repro.astlib.types import QualType, BuiltinKind, desugar
from repro.core.crash_recovery import (
    format_location,
    pretty_stack_entry,
)
from repro.diagnostics import DiagnosticsEngine, Severity
from repro.instrument import get_statistic, time_trace_scope
from repro.instrument.faultinject import FAULTS
from repro.lex.tokens import Token, TokenKind
from repro.sema.scope import ScopeKind
from repro.sema.sema import Sema
from repro.sourcemgr.location import SourceLocation

K = TokenKind

_DECLS_PARSED = get_statistic(
    "parser",
    "external-decls-parsed",
    "External declarations parsed at translation-unit scope",
)

_TYPE_SPEC_KEYWORDS = frozenset(
    {
        K.KW_VOID,
        K.KW_BOOL,
        K.KW_CHAR,
        K.KW_SHORT,
        K.KW_INT,
        K.KW_LONG,
        K.KW_FLOAT,
        K.KW_DOUBLE,
        K.KW_SIGNED,
        K.KW_UNSIGNED,
        K.KW_STRUCT,
        K.KW_UNION,
        K.KW_ENUM,
    }
)

_QUALIFIER_KEYWORDS = frozenset(
    {K.KW_CONST, K.KW_VOLATILE, K.KW_RESTRICT}
)

_STORAGE_KEYWORDS = frozenset(
    {K.KW_STATIC, K.KW_EXTERN, K.KW_TYPEDEF, K.KW_AUTO, K.KW_INLINE}
)

#: operator token -> (BinaryOperatorKind, precedence); precedence per C.
_BINOPS: dict[TokenKind, tuple[e.BinaryOperatorKind, int]] = {
    K.STAR: (e.BinaryOperatorKind.MUL, 10),
    K.SLASH: (e.BinaryOperatorKind.DIV, 10),
    K.PERCENT: (e.BinaryOperatorKind.REM, 10),
    K.PLUS: (e.BinaryOperatorKind.ADD, 9),
    K.MINUS: (e.BinaryOperatorKind.SUB, 9),
    K.LESSLESS: (e.BinaryOperatorKind.SHL, 8),
    K.GREATERGREATER: (e.BinaryOperatorKind.SHR, 8),
    K.LESS: (e.BinaryOperatorKind.LT, 7),
    K.GREATER: (e.BinaryOperatorKind.GT, 7),
    K.LESSEQUAL: (e.BinaryOperatorKind.LE, 7),
    K.GREATEREQUAL: (e.BinaryOperatorKind.GE, 7),
    K.EQUALEQUAL: (e.BinaryOperatorKind.EQ, 6),
    K.EXCLAIMEQUAL: (e.BinaryOperatorKind.NE, 6),
    K.AMP: (e.BinaryOperatorKind.AND, 5),
    K.CARET: (e.BinaryOperatorKind.XOR, 4),
    K.PIPE: (e.BinaryOperatorKind.OR, 3),
    K.AMPAMP: (e.BinaryOperatorKind.LAND, 2),
    K.PIPEPIPE: (e.BinaryOperatorKind.LOR, 1),
}

#: prefix operator token -> UnaryOperatorKind.
_PREFIX_OPS: dict[TokenKind, e.UnaryOperatorKind] = {
    K.PLUSPLUS: e.UnaryOperatorKind.PRE_INC,
    K.MINUSMINUS: e.UnaryOperatorKind.PRE_DEC,
    K.AMP: e.UnaryOperatorKind.ADDR_OF,
    K.STAR: e.UnaryOperatorKind.DEREF,
    K.PLUS: e.UnaryOperatorKind.PLUS,
    K.MINUS: e.UnaryOperatorKind.MINUS,
    K.TILDE: e.UnaryOperatorKind.NOT,
    K.EXCLAIM: e.UnaryOperatorKind.LNOT,
}

_ASSIGN_OPS: dict[TokenKind, e.BinaryOperatorKind] = {
    K.EQUAL: e.BinaryOperatorKind.ASSIGN,
    K.PLUSEQUAL: e.BinaryOperatorKind.ADD_ASSIGN,
    K.MINUSEQUAL: e.BinaryOperatorKind.SUB_ASSIGN,
    K.STAREQUAL: e.BinaryOperatorKind.MUL_ASSIGN,
    K.SLASHEQUAL: e.BinaryOperatorKind.DIV_ASSIGN,
    K.PERCENTEQUAL: e.BinaryOperatorKind.REM_ASSIGN,
    K.LESSLESSEQUAL: e.BinaryOperatorKind.SHL_ASSIGN,
    K.GREATERGREATEREQUAL: e.BinaryOperatorKind.SHR_ASSIGN,
    K.AMPEQUAL: e.BinaryOperatorKind.AND_ASSIGN,
    K.PIPEEQUAL: e.BinaryOperatorKind.OR_ASSIGN,
    K.CARETEQUAL: e.BinaryOperatorKind.XOR_ASSIGN,
}


class ParseError(Exception):
    """Unrecoverable parse error (after diagnostics were emitted)."""


class Parser:
    def __init__(
        self,
        tokens: Sequence[Token],
        sema: Sema,
        diags: DiagnosticsEngine,
    ) -> None:
        self.tokens = list(tokens)
        if not self.tokens or self.tokens[-1].kind != K.EOF:
            self.tokens.append(Token(K.EOF, ""))
        self.pos = 0
        self.sema = sema
        self.diags = diags
        from repro.parse.parse_omp import OpenMPDirectiveParser

        self.omp_parser = OpenMPDirectiveParser(self)

    # ==================================================================
    # Token plumbing
    # ==================================================================
    # ``self.pos`` never passes the EOF token that ends ``self.tokens``
    # (``next`` stops there), so the current token is always in range.
    def peek(self, ahead: int = 0) -> Token:
        if ahead == 0:
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not K.EOF:
            self.pos += 1
        return tok

    def at(self, kind: TokenKind) -> bool:
        return self.tokens[self.pos].kind is kind

    def accept(self, kind: TokenKind) -> Token | None:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind: TokenKind, what: str = "") -> Token:
        tok = self.peek()
        if tok.kind == kind:
            return self.next()
        expected = what or kind.value
        self.diags.error(
            f"expected '{expected}' before "
            f"'{tok.spelling or tok.kind.value}'",
            tok.location,
        )
        raise ParseError(expected)

    def _skip_until(self, *kinds: TokenKind, consume: bool = True) -> None:
        """Error recovery: skip to one of *kinds* (balanced parens).

        Always makes progress: an unmatched closer at depth 0 is consumed
        (otherwise repeated recovery attempts would live-lock on it).
        """
        depth = 0
        while not self.at(K.EOF):
            tok = self.peek()
            if depth == 0 and tok.kind in kinds:
                if consume:
                    self.next()
                return
            if tok.kind in (K.L_PAREN, K.L_BRACE, K.L_SQUARE):
                depth += 1
            elif tok.kind in (K.R_PAREN, K.R_BRACE, K.R_SQUARE):
                if depth == 0:
                    self.next()  # stray closer: swallow and continue
                    return
                depth -= 1
            self.next()

    # ==================================================================
    # Type parsing
    # ==================================================================
    def at_type_start(self, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        if tok.kind in _TYPE_SPEC_KEYWORDS or tok.kind in _QUALIFIER_KEYWORDS:
            return True
        if tok.kind in _STORAGE_KEYWORDS:
            return True
        if tok.kind == K.IDENTIFIER:
            return self.sema.scope.is_type_name(tok.spelling)
        return False

    def parse_decl_specifiers(
        self,
    ) -> tuple[QualType, StorageClass, bool, bool]:
        """Returns (type, storage class, is_typedef, is_inline)."""
        ctx = self.sema.ctx
        storage = StorageClass.NONE
        is_typedef = False
        is_inline = False
        is_const = is_volatile = is_restrict = False
        signedness: str | None = None
        base: str | None = None
        long_count = 0
        loc = self.peek().location
        named_type: QualType | None = None

        while True:
            tok = self.peek()
            kind = tok.kind
            if kind in _QUALIFIER_KEYWORDS:
                self.next()
                if kind == K.KW_CONST:
                    is_const = True
                elif kind == K.KW_VOLATILE:
                    is_volatile = True
                else:
                    is_restrict = True
            elif kind in _STORAGE_KEYWORDS:
                self.next()
                if kind == K.KW_TYPEDEF:
                    is_typedef = True
                elif kind == K.KW_STATIC:
                    storage = StorageClass.STATIC
                elif kind == K.KW_EXTERN:
                    storage = StorageClass.EXTERN
                elif kind == K.KW_INLINE:
                    is_inline = True
            elif kind in (K.KW_SIGNED, K.KW_UNSIGNED):
                self.next()
                signedness = "unsigned" if kind == K.KW_UNSIGNED else "signed"
            elif kind == K.KW_LONG:
                self.next()
                long_count += 1
            elif kind in (
                K.KW_VOID,
                K.KW_BOOL,
                K.KW_CHAR,
                K.KW_SHORT,
                K.KW_INT,
                K.KW_FLOAT,
                K.KW_DOUBLE,
            ):
                self.next()
                base = kind.value
            elif kind in (K.KW_STRUCT, K.KW_UNION):
                self.next()
                named_type = self._parse_record_specifier(
                    kind == K.KW_UNION
                )
            elif kind == K.KW_ENUM:
                self.next()
                named_type = self._parse_enum_specifier()
            elif (
                kind == K.IDENTIFIER
                and base is None
                and named_type is None
                and signedness is None
                and long_count == 0
                and self.sema.scope.is_type_name(tok.spelling)
            ):
                self.next()
                decl = self.sema.scope.lookup(tok.spelling)
                assert isinstance(decl, TypedefDecl)
                named_type = ctx.get_typedef(decl)
            else:
                break

        if named_type is not None:
            qt = named_type
        else:
            qt = self._builtin_from_parts(
                base, signedness, long_count, loc
            )
        if is_const or is_volatile or is_restrict:
            qt = QualType(qt.type, is_const, is_volatile, is_restrict)
        return qt, storage, is_typedef, is_inline

    def _builtin_from_parts(
        self,
        base: str | None,
        signedness: str | None,
        long_count: int,
        loc: SourceLocation,
    ) -> QualType:
        ctx = self.sema.ctx
        unsigned = signedness == "unsigned"
        if long_count >= 2:
            return (
                ctx.ulonglong_type if unsigned else ctx.longlong_type
            )
        if long_count == 1:
            if base == "double":
                return ctx.double_type  # long double -> double in MiniC
            return ctx.ulong_type if unsigned else ctx.long_type
        table = {
            "void": BuiltinKind.VOID,
            "bool": BuiltinKind.BOOL,
            "char": (
                BuiltinKind.UCHAR
                if unsigned
                else BuiltinKind.SCHAR
                if signedness == "signed"
                else BuiltinKind.CHAR
            ),
            "short": BuiltinKind.USHORT if unsigned else BuiltinKind.SHORT,
            "int": BuiltinKind.UINT if unsigned else BuiltinKind.INT,
            "float": BuiltinKind.FLOAT,
            "double": BuiltinKind.DOUBLE,
            None: BuiltinKind.UINT if unsigned else BuiltinKind.INT,
        }
        if base is None and signedness is None:
            self.diags.error("expected a type specifier", loc)
            raise ParseError("type specifier")
        return ctx.get_builtin(table[base])

    def _parse_record_specifier(self, is_union: bool) -> QualType:
        ctx = self.sema.ctx
        name = ""
        name_tok = self.accept(K.IDENTIFIER)
        if name_tok is not None:
            name = name_tok.spelling
        record = self.sema.act_on_record_decl(
            name, is_union, name_tok.location if name_tok else None
        )
        if self.accept(K.L_BRACE):
            if record.is_complete:
                self.diags.error(
                    f"redefinition of 'struct {name}'",
                    name_tok.location if name_tok else None,
                )
            while not self.at(K.R_BRACE) and not self.at(K.EOF):
                field_base, _, _, _ = self.parse_decl_specifiers()
                while True:
                    fname, fty, _ = self.parse_declarator(field_base)
                    self.sema.act_on_field(record, fname, fty)
                    if not self.accept(K.COMMA):
                        break
                self.expect(K.SEMI, ";")
            self.expect(K.R_BRACE, "}")
            record.is_complete = True
        return ctx.get_record(record)

    def _parse_enum_specifier(self) -> QualType:
        ctx = self.sema.ctx
        name = ""
        name_tok = self.accept(K.IDENTIFIER)
        if name_tok is not None:
            name = name_tok.spelling
        existing = self.sema.scope.lookup_tag(name) if name else None
        decl = (
            existing
            if isinstance(existing, EnumDecl)
            else EnumDecl(name, name_tok.location if name_tok else None)
        )
        if decl is not existing and name:
            self.sema.scope.declare_tag(decl)
        if self.accept(K.L_BRACE):
            value = 0
            while not self.at(K.R_BRACE) and not self.at(K.EOF):
                const_tok = self.expect(K.IDENTIFIER, "enumerator")
                if self.accept(K.EQUAL):
                    value_expr = self.parse_conditional_expression()
                    folded = self.sema.evaluator.try_evaluate(value_expr)
                    if folded is None:
                        self.diags.error(
                            "enumerator value is not a constant "
                            "expression",
                            const_tok.location,
                        )
                        folded = value
                    value = folded
                const = EnumConstantDecl(
                    const_tok.spelling,
                    ctx.int_type,
                    value,
                    const_tok.location,
                )
                decl.constants.append(const)
                self.sema.scope.declare(const)
                value += 1
                if not self.accept(K.COMMA):
                    break
            self.expect(K.R_BRACE, "}")
        return ctx.get_enum(decl)

    # ------------------------------------------------------------------
    # Declarators
    # ------------------------------------------------------------------
    def parse_declarator(
        self, base: QualType, abstract: bool = False
    ) -> tuple[str, QualType, list[ParmVarDecl] | None]:
        """Parse a (possibly parenthesized) declarator.

        Handles pointers/references, parenthesized declarators — e.g.
        function pointers ``int (*op)(int, int)`` and arrays thereof —
        plus array and function suffixes, with the standard inside-out
        type construction.  Returns (name, full type, params of the
        outermost named function declarator, if any).
        """
        name, wrap, params = self._parse_declarator_rec(abstract)
        return name, wrap(base), params

    def _parse_declarator_rec(
        self, abstract: bool
    ) -> tuple[str, object, list[ParmVarDecl] | None]:
        """Returns (name, wrap(base_type) -> full type, fn params)."""
        ctx = self.sema.ctx

        # --- pointer/reference prefix (binds loosest) -----------------
        prefix_ops: list[tuple[str, tuple[bool, bool, bool]]] = []
        while True:
            if self.accept(K.STAR):
                quals = [False, False, False]
                while self.peek().kind in _QUALIFIER_KEYWORDS:
                    qual = self.next().kind
                    if qual == K.KW_CONST:
                        quals[0] = True
                    elif qual == K.KW_VOLATILE:
                        quals[1] = True
                    else:
                        quals[2] = True
                prefix_ops.append(("ptr", tuple(quals)))
            elif self.accept(K.AMP):
                prefix_ops.append(("ref", (False, False, False)))
            else:
                break

        # --- direct declarator ----------------------------------------
        name = ""
        inner_wrap = None
        inner_params: list[ParmVarDecl] | None = None
        if self.at(K.L_PAREN) and self.peek(1).kind in (
            K.STAR,
            K.AMP,
            K.L_PAREN,
        ):
            # Parenthesized declarator (function pointers etc.).
            self.next()
            name, inner_wrap, inner_params = self._parse_declarator_rec(
                abstract
            )
            self.expect(K.R_PAREN, ")")
        else:
            name_tok = self.accept(K.IDENTIFIER)
            if name_tok is not None:
                name = name_tok.spelling

        # --- suffixes (bind tightest) ----------------------------------
        suffixes: list[tuple] = []
        own_params: list[ParmVarDecl] | None = None
        while True:
            if self.at(K.L_PAREN) and (name or inner_wrap or abstract):
                self.next()
                params, param_types, variadic = self._parse_param_list()
                self.expect(K.R_PAREN, ")")
                suffixes.append(("fn", param_types, variadic))
                if own_params is None:
                    own_params = params
            elif self.accept(K.L_SQUARE):
                if self.at(K.R_SQUARE):
                    suffixes.append(("arr", None))
                else:
                    size_expr = self.parse_conditional_expression()
                    folded = self.sema.evaluator.try_evaluate(size_expr)
                    if folded is None or folded < 0:
                        self.diags.error(
                            "array size must be a non-negative "
                            "constant expression",
                            size_expr.location,
                        )
                        folded = 0
                    suffixes.append(("arr", folded))
                self.expect(K.R_SQUARE, "]")
            else:
                break

        def wrap(base: QualType) -> QualType:
            ty = base
            for kind, quals in prefix_ops:
                if kind == "ptr":
                    ty = ctx.get_pointer(ty)
                    if any(quals):
                        ty = QualType(ty.type, *quals)
                else:
                    ty = ctx.get_reference(ty)
            for suffix in reversed(suffixes):
                if suffix[0] == "fn":
                    _, param_types, variadic = suffix
                    ty = ctx.get_function(ty, param_types, variadic)
                else:
                    size = suffix[1]
                    if size is None:
                        ty = ctx.get_incomplete_array(ty)
                    else:
                        ty = ctx.get_constant_array(ty, size)
            if inner_wrap is not None:
                ty = inner_wrap(ty)
            return ty

        result_name = name
        # A parenthesized inner declarator owns the name; a direct
        # function declarator at this level owns the parameter decls
        # (used for function definitions).
        result_params = (
            own_params
            if inner_wrap is None and own_params is not None
            else inner_params
        )
        return result_name, wrap, result_params

    def _parse_param_list(
        self,
    ) -> tuple[list[ParmVarDecl], list[QualType], bool]:
        ctx = self.sema.ctx
        params: list[ParmVarDecl] = []
        types: list[QualType] = []
        variadic = False
        if self.at(K.R_PAREN):
            return params, types, variadic
        if self.at(K.KW_VOID) and self.peek(1).kind == K.R_PAREN:
            self.next()
            return params, types, variadic
        while True:
            if self.accept(K.ELLIPSIS):
                variadic = True
                break
            base, _, _, _ = self.parse_decl_specifiers()
            pname, pty, _ = self.parse_declarator(base, abstract=True)
            # Arrays in parameters decay to pointers (C semantics).
            canonical = desugar(pty)
            from repro.astlib.types import ArrayType

            if isinstance(canonical.type, ArrayType):
                pty = ctx.get_pointer(canonical.type.element)
            param = ParmVarDecl(pname or f".arg{len(params)}", pty)
            params.append(param)
            types.append(pty)
            if not self.accept(K.COMMA):
                break
        return params, types, variadic

    def parse_type_name(self) -> QualType:
        """``type-name`` as in casts and sizeof: specifiers + abstract
        declarator."""
        base, _, _, _ = self.parse_decl_specifiers()
        _, ty, _ = self.parse_declarator(base, abstract=True)
        return ty

    # ==================================================================
    # Top level
    # ==================================================================
    def parse_translation_unit(self):
        """Parse until EOF; declarations accumulate in the ASTContext's
        TranslationUnitDecl."""
        with time_trace_scope("Parse"):
            while not self.at(K.EOF):
                loc_text = format_location(
                    self.diags.source_manager, self.peek().location
                )
                try:
                    with pretty_stack_entry(
                        f"parsing external declaration at {loc_text}"
                    ):
                        if FAULTS.armed:
                            FAULTS.hit("parser")
                        self.parse_external_declaration()
                    _DECLS_PARSED.inc()
                except ParseError:
                    self._skip_until(K.SEMI, K.R_BRACE)
        return self.sema.ctx.translation_unit

    def parse_external_declaration(self) -> None:
        if self.accept(K.SEMI):
            return
        if self.at(K.ANNOT_PRAGMA_OPENMP):
            tok = self.next()
            self.diags.error(
                "OpenMP directives are not allowed at file scope in "
                "MiniC",
                tok.location,
            )
            self.accept(K.ANNOT_PRAGMA_OPENMP_END)
            return
        base, storage, is_typedef, is_inline = self.parse_decl_specifiers()
        if is_typedef:
            while True:
                name, ty, _ = self.parse_declarator(base)
                if not name:
                    self.diags.error(
                        "typedef requires a name", self.peek().location
                    )
                else:
                    self.sema.act_on_typedef(name, ty)
                if not self.accept(K.COMMA):
                    break
            self.expect(K.SEMI, ";")
            return
        # struct definition followed by ';' declares only the tag.
        if self.at(K.SEMI):
            self.next()
            return
        name, ty, params = self.parse_declarator(base)
        from repro.astlib.types import FunctionType

        if isinstance(desugar(ty).type, FunctionType):
            fn = self.sema.act_on_function_declaration(
                name, ty, params or [], storage, is_inline,
            )
            if self.at(K.L_BRACE):
                self.sema.act_on_start_of_function_def(fn)
                body = self.parse_compound_statement()
                self.sema.act_on_finish_function_body(fn, body)
            else:
                self.expect(K.SEMI, ";")
            return
        # Global variable(s).
        while True:
            init: e.Expr | None = None
            if self.accept(K.EQUAL):
                init = self.parse_initializer(ty)
            self.sema.act_on_variable_declaration(
                name, ty, init, storage
            )
            if not self.accept(K.COMMA):
                break
            name, ty, _ = self.parse_declarator(base)
        self.expect(K.SEMI, ";")

    def parse_initializer(self, target_type: QualType) -> e.Expr:
        if self.at(K.L_BRACE):
            return self._parse_init_list(target_type)
        return self.parse_assignment_expression()

    def _parse_init_list(self, target_type: QualType) -> e.Expr:
        loc = self.expect(K.L_BRACE, "{").location
        from repro.astlib.types import ConstantArrayType

        canonical = desugar(target_type)
        elem_ty = (
            canonical.type.element
            if isinstance(canonical.type, ConstantArrayType)
            else self.sema.ctx.int_type
        )
        inits: list[e.Expr] = []
        while not self.at(K.R_BRACE) and not self.at(K.EOF):
            inits.append(self.parse_initializer(elem_ty))
            if not self.accept(K.COMMA):
                break
        self.expect(K.R_BRACE, "}")
        return e.InitListExpr(inits, target_type, loc)

    # ==================================================================
    # Statements
    # ==================================================================
    def parse_statement(self) -> s.Stmt:
        tok = self.peek()
        kind = tok.kind
        if kind == K.L_BRACE:
            with self.sema.scoped(ScopeKind.BLOCK):
                return self.parse_compound_statement()
        if kind == K.SEMI:
            self.next()
            return s.NullStmt(tok.location)
        if kind == K.ANNOT_PRAGMA_OPENMP:
            return self.omp_parser.parse_directive()
        if kind == K.ANNOT_PRAGMA_LOOPHINT:
            return self._parse_loop_hint()
        if kind == K.KW_IF:
            return self._parse_if()
        if kind == K.KW_WHILE:
            return self._parse_while()
        if kind == K.KW_DO:
            return self._parse_do()
        if kind == K.KW_FOR:
            return self.parse_for_statement()
        if kind == K.KW_SWITCH:
            return self._parse_switch()
        if kind == K.KW_CASE or kind == K.KW_DEFAULT:
            return self._parse_case()
        if kind == K.KW_BREAK:
            self.next()
            self.expect(K.SEMI, ";")
            return self.sema.act_on_break_stmt(tok.location)
        if kind == K.KW_CONTINUE:
            self.next()
            self.expect(K.SEMI, ";")
            return self.sema.act_on_continue_stmt(tok.location)
        if kind == K.KW_RETURN:
            self.next()
            value = None
            if not self.at(K.SEMI):
                value = self.parse_expression()
            self.expect(K.SEMI, ";")
            return self.sema.act_on_return_stmt(value, tok.location)
        if self.at_type_start():
            return self.parse_declaration_statement()
        expr = self.parse_expression()
        self.expect(K.SEMI, ";")
        return expr

    def parse_compound_statement(self) -> s.CompoundStmt:
        lbrace = self.expect(K.L_BRACE, "{")
        statements: list[s.Stmt] = []
        while not self.at(K.R_BRACE) and not self.at(K.EOF):
            try:
                statements.append(self.parse_statement())
            except ParseError:
                self._skip_until(K.SEMI, K.R_BRACE, consume=False)
                if self.at(K.SEMI):
                    self.next()
        self.expect(K.R_BRACE, "}")
        return s.CompoundStmt(statements, lbrace.location)

    def parse_declaration_statement(self) -> s.Stmt:
        loc = self.peek().location
        base, storage, is_typedef, _ = self.parse_decl_specifiers()
        if is_typedef:
            decls = []
            while True:
                name, ty, _ = self.parse_declarator(base)
                decls.append(self.sema.act_on_typedef(name, ty, loc))
                if not self.accept(K.COMMA):
                    break
            self.expect(K.SEMI, ";")
            return s.DeclStmt(decls, loc)
        decls = []
        while True:
            name, ty, _ = self.parse_declarator(base)
            if not name:
                self.diags.error(
                    "expected identifier in declaration",
                    self.peek().location,
                )
                raise ParseError("identifier")
            init: e.Expr | None = None
            if self.accept(K.EQUAL):
                init = self.parse_initializer(ty)
            decls.append(
                self.sema.act_on_variable_declaration(
                    name, ty, init, storage, loc
                )
            )
            if not self.accept(K.COMMA):
                break
        self.expect(K.SEMI, ";")
        return s.DeclStmt(decls, loc)

    def _parse_if(self) -> s.Stmt:
        loc = self.next().location
        self.expect(K.L_PAREN, "(")
        cond = self.parse_expression()
        self.expect(K.R_PAREN, ")")
        then_stmt = self.parse_statement()
        else_stmt = None
        if self.accept(K.KW_ELSE):
            else_stmt = self.parse_statement()
        return self.sema.act_on_if_stmt(cond, then_stmt, else_stmt, loc)

    def _parse_while(self) -> s.Stmt:
        loc = self.next().location
        self.expect(K.L_PAREN, "(")
        cond = self.parse_expression()
        self.expect(K.R_PAREN, ")")
        self.sema.enter_loop()
        try:
            body = self.parse_statement()
        finally:
            self.sema.exit_loop()
        return self.sema.act_on_while_stmt(cond, body, loc)

    def _parse_do(self) -> s.Stmt:
        loc = self.next().location
        self.sema.enter_loop()
        try:
            body = self.parse_statement()
        finally:
            self.sema.exit_loop()
        self.expect(K.KW_WHILE, "while")
        self.expect(K.L_PAREN, "(")
        cond = self.parse_expression()
        self.expect(K.R_PAREN, ")")
        self.expect(K.SEMI, ";")
        return self.sema.act_on_do_stmt(body, cond, loc)

    def _looks_like_range_for(self) -> bool:
        """After 'for (' : scan ahead for ':' before ';' at paren depth 0."""
        depth = 0
        i = 0
        while True:
            tok = self.peek(i)
            if tok.kind == K.EOF:
                return False
            if tok.kind in (K.L_PAREN, K.L_SQUARE, K.L_BRACE):
                depth += 1
            elif tok.kind in (K.R_PAREN, K.R_SQUARE, K.R_BRACE):
                if depth == 0:
                    return False
                depth -= 1
            elif depth == 0 and tok.kind == K.SEMI:
                return False
            elif depth == 0 and tok.kind == K.COLON:
                return True
            i += 1

    def parse_for_statement(self) -> s.Stmt:
        loc = self.next().location
        self.expect(K.L_PAREN, "(")
        with self.sema.scoped(ScopeKind.FOR_INIT):
            if self._looks_like_range_for():
                return self._parse_range_for_body(loc)
            init: s.Stmt | None = None
            if self.accept(K.SEMI):
                init = None
            elif self.at_type_start():
                init = self.parse_declaration_statement()
            else:
                init = self.parse_expression()
                self.expect(K.SEMI, ";")
            cond = None
            if not self.at(K.SEMI):
                cond = self.parse_expression()
            self.expect(K.SEMI, ";")
            inc = None
            if not self.at(K.R_PAREN):
                inc = self.parse_expression()
            self.expect(K.R_PAREN, ")")
            self.sema.enter_loop()
            try:
                body = self.parse_statement()
            finally:
                self.sema.exit_loop()
            return self.sema.act_on_for_stmt(init, cond, inc, body, loc)

    def _parse_range_for_body(self, loc: SourceLocation) -> s.Stmt:
        base, _, _, _ = self.parse_decl_specifiers()
        name, var_ty, _ = self.parse_declarator(base)
        self.expect(K.COLON, ":")
        range_expr = self.parse_expression()
        self.expect(K.R_PAREN, ")")
        header = self.sema.act_on_cxx_for_range_header(
            var_ty, name, range_expr, loc
        )
        self.sema.enter_loop()
        try:
            body = self.parse_statement()
        finally:
            self.sema.exit_loop()
        return self.sema.act_on_cxx_for_range_stmt(header, body, loc)

    def _parse_switch(self) -> s.Stmt:
        loc = self.next().location
        self.expect(K.L_PAREN, "(")
        cond = self.parse_expression()
        self.expect(K.R_PAREN, ")")
        self.sema.enter_switch()
        try:
            body = self.parse_statement()
        finally:
            self.sema.exit_switch()
        cond = self.sema.default_lvalue_conversion(cond)
        return s.SwitchStmt(cond, body, loc)

    def _parse_case(self) -> s.Stmt:
        tok = self.next()
        if tok.kind == K.KW_CASE:
            value = self.parse_conditional_expression()
            self.expect(K.COLON, ":")
            sub = self.parse_statement()
            return s.CaseStmt(value, sub, tok.location)
        self.expect(K.COLON, ":")
        sub = self.parse_statement()
        return s.DefaultStmt(sub, tok.location)

    def _parse_loop_hint(self) -> s.Stmt:
        """``#pragma clang loop unroll_count(N)`` etc. (annotation)."""
        tok = self.next()
        hint_tokens: list[Token] = list(tok.annotation_value or [])
        attrs: list[s.LoopHintAttr] = []
        i = 0
        while i < len(hint_tokens):
            name_tok = hint_tokens[i]
            option = name_tok.spelling
            value_expr: e.Expr | None = None
            i += 1
            if (
                i < len(hint_tokens)
                and hint_tokens[i].kind == K.L_PAREN
            ):
                depth = 1
                arg_toks: list[Token] = []
                i += 1
                while i < len(hint_tokens) and depth > 0:
                    if hint_tokens[i].kind == K.L_PAREN:
                        depth += 1
                    elif hint_tokens[i].kind == K.R_PAREN:
                        depth -= 1
                        if depth == 0:
                            break
                    arg_toks.append(hint_tokens[i])
                    i += 1
                i += 1
                if option == "unroll_count":
                    sub = Parser(arg_toks, self.sema, self.diags)
                    value_expr = sub.parse_expression()
            mapped = {
                "unroll_count": s.LoopHintAttr.UNROLL_COUNT,
                "unroll": s.LoopHintAttr.UNROLL,
            }.get(option)
            if mapped is None:
                self.diags.warning(
                    f"unknown loop hint '{option}' ignored",
                    name_tok.location,
                )
                continue
            attrs.append(
                s.LoopHintAttr(mapped, value_expr, is_implicit=False)
            )
        start = self.peek().location
        sub_stmt = self.parse_statement()
        loop = sub_stmt
        while isinstance(loop, s.AttributedStmt):  # stacked hints
            loop = loop.sub_stmt
        if not isinstance(
            loop, (s.ForStmt, s.WhileStmt, s.DoStmt, s.CXXForRangeStmt)
        ):
            # Clang drops the hint rather than let it reach a later loop.
            self.diags.error(
                "expected a for, while, or do-while loop to follow "
                "'#pragma clang loop'",
                start,
            )
            return sub_stmt
        return s.AttributedStmt(attrs, sub_stmt, tok.location)

    # ==================================================================
    # Expressions
    # ==================================================================
    def parse_expression(self) -> e.Expr:
        expr = self.parse_assignment_expression()
        while self.at(K.COMMA):
            loc = self.next().location
            rhs = self.parse_assignment_expression()
            expr = self.sema.act_on_binary_op(
                e.BinaryOperatorKind.COMMA, expr, rhs, loc
            )
        return expr

    def parse_assignment_expression(self) -> e.Expr:
        lhs = self.parse_conditional_expression()
        tok = self.peek()
        op = _ASSIGN_OPS.get(tok.kind)
        if op is not None:
            self.next()
            rhs = self.parse_assignment_expression()
            return self.sema.act_on_binary_op(op, lhs, rhs, tok.location)
        return lhs

    def parse_conditional_expression(self) -> e.Expr:
        cond = self._parse_binary_expression(1)
        if self.at(K.QUESTION):
            loc = self.next().location
            true_expr = self.parse_expression()
            self.expect(K.COLON, ":")
            false_expr = self.parse_conditional_expression()
            return self.sema.act_on_conditional_op(
                cond, true_expr, false_expr, loc
            )
        return cond

    def _parse_binary_expression(self, min_prec: int) -> e.Expr:
        lhs = self.parse_cast_expression()
        while True:
            tok = self.peek()
            entry = _BINOPS.get(tok.kind)
            if entry is None or entry[1] < min_prec:
                return lhs
            op, prec = entry
            self.next()
            rhs = self._parse_binary_expression(prec + 1)
            lhs = self.sema.act_on_binary_op(op, lhs, rhs, tok.location)

    def _at_cast_expression(self) -> bool:
        if not self.at(K.L_PAREN):
            return False
        return self.at_type_start(1) and self.peek(1).kind not in (
            K.KW_STATIC,
            K.KW_EXTERN,
        )

    def parse_cast_expression(self) -> e.Expr:
        if self._at_cast_expression():
            lparen = self.next()
            ty = self.parse_type_name()
            self.expect(K.R_PAREN, ")")
            operand = self.parse_cast_expression()
            return self.sema.act_on_cstyle_cast(
                ty, operand, lparen.location
            )
        return self.parse_unary_expression()

    def parse_unary_expression(self) -> e.Expr:
        tok = self.peek()
        kind = tok.kind
        op = _PREFIX_OPS.get(kind)
        if op is not None:
            self.next()
            operand = self.parse_cast_expression()
            return self.sema.act_on_unary_op(op, operand, tok.location)
        if kind == K.KW_SIZEOF:
            self.next()
            if self.at(K.L_PAREN) and self.at_type_start(1):
                self.next()
                ty = self.parse_type_name()
                self.expect(K.R_PAREN, ")")
                return self.sema.act_on_sizeof(ty, None, tok.location)
            operand = self.parse_unary_expression()
            return self.sema.act_on_sizeof(None, operand, tok.location)
        return self.parse_postfix_expression()

    def parse_postfix_expression(self) -> e.Expr:
        expr = self.parse_primary_expression()
        while True:
            tok = self.peek()
            if tok.kind == K.L_SQUARE:
                self.next()
                index = self.parse_expression()
                self.expect(K.R_SQUARE, "]")
                expr = self.sema.act_on_array_subscript(
                    expr, index, tok.location
                )
            elif tok.kind == K.L_PAREN:
                self.next()
                args: list[e.Expr] = []
                while not self.at(K.R_PAREN) and not self.at(K.EOF):
                    args.append(self.parse_assignment_expression())
                    if not self.accept(K.COMMA):
                        break
                self.expect(K.R_PAREN, ")")
                expr = self.sema.act_on_call(expr, args, tok.location)
            elif tok.kind in (K.PERIOD, K.ARROW):
                self.next()
                member = self.expect(K.IDENTIFIER, "member name")
                expr = self.sema.act_on_member_access(
                    expr,
                    member.spelling,
                    tok.kind == K.ARROW,
                    tok.location,
                )
            elif tok.kind == K.PLUSPLUS:
                self.next()
                expr = self.sema.act_on_unary_op(
                    e.UnaryOperatorKind.POST_INC, expr, tok.location
                )
            elif tok.kind == K.MINUSMINUS:
                self.next()
                expr = self.sema.act_on_unary_op(
                    e.UnaryOperatorKind.POST_DEC, expr, tok.location
                )
            else:
                return expr

    def parse_primary_expression(self) -> e.Expr:
        tok = self.peek()
        kind = tok.kind
        if kind == K.NUMERIC_CONSTANT:
            self.next()
            return self.sema.act_on_numeric_literal(
                tok.spelling, tok.location
            )
        if kind == K.CHAR_CONSTANT:
            self.next()
            return self.sema.act_on_char_literal(
                tok.spelling, tok.location
            )
        if kind == K.STRING_LITERAL:
            self.next()
            return self.sema.act_on_string_literal(
                tok.spelling, tok.location
            )
        if kind in (K.KW_TRUE, K.KW_FALSE):
            self.next()
            return self.sema.act_on_bool_literal(
                kind == K.KW_TRUE, tok.location
            )
        if kind == K.IDENTIFIER:
            self.next()
            expr = self.sema.act_on_id_expression(
                tok.spelling, tok.location
            )
            if expr is None:
                raise ParseError("identifier")
            return expr
        if kind == K.L_PAREN:
            self.next()
            inner = self.parse_expression()
            self.expect(K.R_PAREN, ")")
            return self.sema.act_on_paren_expr(inner, tok.location)
        self.diags.error(
            f"expected expression before "
            f"'{tok.spelling or tok.kind.value}'",
            tok.location,
        )
        raise ParseError("expression")
