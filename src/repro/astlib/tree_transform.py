"""TreeTransform: rebuild AST subtrees with substitutions (paper §1.3).

Clang's ``TreeTransform`` creates copies of (immutable) AST subtrees with
some changes applied — its primary use is template instantiation; the
shadow-AST loop transformations work "similar to how TreeTransform works
already" (paper §2).  This implementation:

* deep-copies statements and expressions,
* re-declares local variables found along the way and remaps
  ``DeclRefExpr`` references to the new declarations,
* lets subclasses override ``transform_<Node>`` hooks to substitute
  specific subtrees (e.g. replace a loop counter reference with a derived
  expression — exactly what strip-mining needs),
* hands nested OpenMP directives to a *rebuild_directive* callback, the
  way Clang's ``TransformOMPExecutableDirective`` rebuilds them through
  Sema: a directive's Sema-built children (shadow AST, loop analyses,
  captures) must be derived again from the copied body.
"""

from __future__ import annotations

import copy
from typing import Callable, Optional

from repro.astlib import clauses as cl
from repro.astlib import exprs as e
from repro.astlib import omp
from repro.astlib import stmts as s
from repro.astlib.decls import (
    CapturedDecl,
    Decl,
    ParmVarDecl,
    VarDecl,
)
from repro.instrument import get_statistic

_REBUILDS = get_statistic(
    "sema",
    "tree-transform-rebuilds",
    "Statements rebuilt by TreeTransform",
)


#: (directive, transform) -> the directive rebuilt on copies of its
#: associated statement and clauses
DirectiveRebuilder = Callable[
    [omp.OMPExecutableDirective, "TreeTransform"], s.Stmt
]


class TreeTransform:
    """Deep-copying AST rebuilder with declaration remapping."""

    def __init__(
        self, rebuild_directive: DirectiveRebuilder | None = None
    ) -> None:
        #: old VarDecl -> replacement VarDecl or replacement Expr
        self.decl_substitutions: dict[int, object] = {}
        #: rebuilds nested directives; a copy without one would share
        #: their Sema-built children, so TreeTransform refuses it
        self.rebuild_directive = rebuild_directive

    # ------------------------------------------------------------------
    # Substitution management
    # ------------------------------------------------------------------
    def substitute_decl(self, old: Decl, new: object) -> None:
        """Register *old* to be replaced by *new* (a Decl, or an Expr when
        every reference should be replaced by an expression)."""
        self.decl_substitutions[id(old)] = new

    def _lookup(self, decl: Decl) -> object | None:
        return self.decl_substitutions.get(id(decl))

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def transform_stmt(self, stmt: Optional[s.Stmt]) -> Optional[s.Stmt]:
        if stmt is None:
            return None
        _REBUILDS.inc()
        method = getattr(
            self, f"transform_{type(stmt).__name__}", None
        )
        if method is not None:
            return method(stmt)
        # Generic per-class fallbacks.
        if isinstance(stmt, e.Expr):
            return self.transform_expr(stmt)
        if isinstance(stmt, s.CompoundStmt):
            return s.CompoundStmt(
                [self.transform_stmt(c) for c in stmt.statements],
                stmt.location,
            )
        if isinstance(stmt, s.DeclStmt):
            return s.DeclStmt(
                [self.transform_decl(d_) for d_ in stmt.decls],
                stmt.location,
            )
        if isinstance(stmt, s.IfStmt):
            return s.IfStmt(
                self.transform_expr(stmt.cond),
                self.transform_stmt(stmt.then_stmt),
                self.transform_stmt(stmt.else_stmt),
                stmt.location,
            )
        if isinstance(stmt, s.WhileStmt):
            return s.WhileStmt(
                self.transform_expr(stmt.cond),
                self.transform_stmt(stmt.body),
                stmt.location,
            )
        if isinstance(stmt, s.DoStmt):
            return s.DoStmt(
                self.transform_stmt(stmt.body),
                self.transform_expr(stmt.cond),
                stmt.location,
            )
        if isinstance(stmt, s.ForStmt):
            return s.ForStmt(
                self.transform_stmt(stmt.init),
                self.transform_expr(stmt.cond),
                self.transform_expr(stmt.inc),
                self.transform_stmt(stmt.body),
                stmt.location,
            )
        if isinstance(stmt, s.ReturnStmt):
            return s.ReturnStmt(
                self.transform_expr(stmt.value), stmt.location
            )
        if isinstance(stmt, s.AttributedStmt):
            return s.AttributedStmt(
                list(stmt.attrs),
                self.transform_stmt(stmt.sub_stmt),
                stmt.location,
            )
        if isinstance(stmt, s.CapturedStmt):
            new_decl = CapturedDecl(
                self.transform_stmt(stmt.captured_decl.body),
                list(stmt.captured_decl.params),
                stmt.captured_decl.nothrow,
            )
            new_stmt = s.CapturedStmt(
                new_decl, list(stmt.captures), stmt.location
            )
            new_stmt.by_value = set(stmt.by_value)
            return new_stmt
        if (
            isinstance(stmt, omp.OMPExecutableDirective)
            and self.rebuild_directive is not None
        ):
            return self.rebuild_directive(stmt, self)
        if isinstance(
            stmt,
            (s.NullStmt, s.BreakStmt, s.ContinueStmt, s.GotoStmt),
        ):
            return type(stmt)(location=stmt.location) if not isinstance(
                stmt, s.GotoStmt
            ) else s.GotoStmt(stmt.decl, stmt.location)
        raise NotImplementedError(
            f"TreeTransform does not handle {type(stmt).__name__}"
        )

    def transform_clause(self, clause: cl.OMPClause) -> cl.OMPClause:
        """Copy *clause* with its expressions (and variable lists)
        transformed."""
        new = copy.copy(clause)
        for name, value in vars(clause).items():
            if isinstance(value, e.Expr):
                setattr(new, name, self.transform_expr(value))
            elif isinstance(value, list):
                setattr(
                    new,
                    name,
                    [
                        self.transform_expr(v)
                        if isinstance(v, e.Expr)
                        else v
                        for v in value
                    ],
                )
        return new

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def transform_decl(self, decl: Decl) -> Decl:
        if isinstance(decl, VarDecl) and not isinstance(
            decl, ParmVarDecl
        ):
            new = VarDecl(
                decl.name,
                decl.type,
                self.transform_expr(decl.init),
                decl.storage_class,
                decl.location,
            )
            self.substitute_decl(decl, new)
            return new
        return decl

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def transform_expr(
        self, expr: Optional[e.Expr]
    ) -> Optional[e.Expr]:
        if expr is None:
            return None
        method = getattr(
            self, f"transform_{type(expr).__name__}", None
        )
        if method is not None:
            return method(expr)
        if isinstance(expr, e.DeclRefExpr):
            replacement = self._lookup(expr.decl)
            if replacement is None:
                return e.DeclRefExpr(
                    expr.decl, expr.type, expr.value_category, expr.location
                )
            if isinstance(replacement, e.Expr):
                return replacement
            assert isinstance(replacement, VarDecl)
            return e.DeclRefExpr(
                replacement,
                expr.type,
                expr.value_category,
                expr.location,
            )
        if isinstance(
            expr,
            (
                e.IntegerLiteral,
                e.FloatingLiteral,
                e.CharacterLiteral,
                e.BoolLiteralExpr,
                e.StringLiteral,
            ),
        ):
            return type(expr)(expr.value, expr.type, expr.location)
        if isinstance(expr, e.ParenExpr):
            return e.ParenExpr(
                self.transform_expr(expr.sub_expr), expr.location
            )
        if isinstance(expr, e.CompoundAssignOperator):
            return e.CompoundAssignOperator(
                expr.opcode,
                self.transform_expr(expr.lhs),
                self.transform_expr(expr.rhs),
                expr.type,
                expr.computation_type,
                expr.location,
            )
        if isinstance(expr, e.BinaryOperator):
            return e.BinaryOperator(
                expr.opcode,
                self.transform_expr(expr.lhs),
                self.transform_expr(expr.rhs),
                expr.type,
                expr.value_category,
                expr.location,
            )
        if isinstance(expr, e.UnaryOperator):
            return e.UnaryOperator(
                expr.opcode,
                self.transform_expr(expr.sub_expr),
                expr.type,
                expr.value_category,
                expr.location,
            )
        if isinstance(expr, e.ImplicitCastExpr):
            return e.ImplicitCastExpr(
                expr.cast_kind,
                self.transform_expr(expr.sub_expr),
                expr.type,
                expr.value_category,
                expr.location,
            )
        if isinstance(expr, e.CStyleCastExpr):
            return e.CStyleCastExpr(
                expr.cast_kind,
                self.transform_expr(expr.sub_expr),
                expr.type,
                expr.value_category,
                expr.location,
            )
        if isinstance(expr, e.ConditionalOperator):
            return e.ConditionalOperator(
                self.transform_expr(expr.cond),
                self.transform_expr(expr.true_expr),
                self.transform_expr(expr.false_expr),
                expr.type,
                expr.location,
            )
        if isinstance(expr, e.ArraySubscriptExpr):
            return e.ArraySubscriptExpr(
                self.transform_expr(expr.base),
                self.transform_expr(expr.index),
                expr.type,
                expr.location,
            )
        if isinstance(expr, e.CallExpr):
            return e.CallExpr(
                self.transform_expr(expr.callee),
                [self.transform_expr(a) for a in expr.args],
                expr.type,
                expr.location,
            )
        if isinstance(expr, e.MemberExpr):
            return e.MemberExpr(
                self.transform_expr(expr.base),
                expr.member,
                expr.is_arrow,
                expr.type,
                expr.location,
            )
        if isinstance(expr, e.ConstantExpr):
            return e.ConstantExpr(
                self.transform_expr(expr.sub_expr),
                expr.value,
                expr.location,
            )
        if isinstance(expr, e.UnaryExprOrTypeTraitExpr):
            return e.UnaryExprOrTypeTraitExpr(
                expr.trait,
                expr.argument_type,
                self.transform_expr(expr.argument_expr),
                expr.type,
                expr.location,
            )
        if isinstance(expr, e.OpaqueValueExpr):
            return e.OpaqueValueExpr(
                self.transform_expr(expr.source_expr),
                expr.type,
                expr.value_category,
            )
        if isinstance(expr, e.InitListExpr):
            return e.InitListExpr(
                [self.transform_expr(i) for i in expr.inits],
                expr.type,
                expr.location,
            )
        raise NotImplementedError(
            f"TreeTransform does not handle {type(expr).__name__}"
        )
