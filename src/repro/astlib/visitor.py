"""Visitors — one per class family, as in clang (paper §1.2).

"For walking over all AST nodes, a visitor pattern separate for each of the
type hierarchies must be used (``StmtVisitorBase``, ``DeclVisitor``,
``TypeVisitor``, ``OMPClauseVisitor``)."

Each visitor dispatches on the dynamic type's MRO, so a visitor method for
a base class (e.g. ``visit_OMPLoopDirective``) also handles subclasses
unless a more specific method exists — matching clang's CRTP fallback
behaviour.  :class:`RecursiveASTVisitor` composes the families into one
whole-AST traversal.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.astlib.clauses import OMPClause
from repro.astlib.decls import (
    CapturedDecl,
    Decl,
    FunctionDecl,
    TranslationUnitDecl,
    VarDecl,
)
from repro.astlib.stmts import DeclStmt, Stmt
from repro.astlib.types import Type


class _DispatchVisitor:
    """Shared MRO-based dispatch: ``visit_<ClassName>`` with base fallback."""

    _prefix = "visit_"
    _default = "visit_default"

    def _dispatch(self, node: Any, *args):
        for klass in type(node).__mro__:
            method = getattr(self, self._prefix + klass.__name__, None)
            if method is not None:
                return method(node, *args)
        return getattr(self, self._default)(node, *args)

    def visit_default(self, node: Any, *args):
        return None


class StmtVisitorBase(_DispatchVisitor):
    """Visitor over the Stmt (and Expr) family."""

    def visit(self, stmt: Optional[Stmt], *args):
        if stmt is None:
            return None
        return self._dispatch(stmt, *args)


class DeclVisitor(_DispatchVisitor):
    def visit(self, decl: Optional[Decl], *args):
        if decl is None:
            return None
        return self._dispatch(decl, *args)


class TypeVisitor(_DispatchVisitor):
    def visit(self, ty: Optional[Type], *args):
        if ty is None:
            return None
        return self._dispatch(ty, *args)


class OMPClauseVisitor(_DispatchVisitor):
    def visit(self, clause: Optional[OMPClause], *args):
        if clause is None:
            return None
        return self._dispatch(clause, *args)


class RecursiveASTVisitor:
    """Depth-first traversal over the whole AST, crossing family borders
    (DeclStmt -> VarDecl -> initializer Expr; directive -> clauses -> their
    expressions; CapturedStmt -> CapturedDecl body).

    Subclasses override ``visit_stmt`` / ``visit_decl`` / ``visit_clause``;
    returning ``False`` from any of them prunes the subtree.  Shadow AST
    children are *not* traversed unless ``traverse_shadow=True``, matching
    clang's behaviour of hiding them from generic consumers.
    """

    def __init__(self, traverse_shadow: bool = False) -> None:
        self.traverse_shadow = traverse_shadow

    # Overridables -------------------------------------------------------
    def visit_stmt(self, stmt: Stmt) -> bool:
        return True

    def visit_decl(self, decl: Decl) -> bool:
        return True

    def visit_clause(self, clause: OMPClause) -> bool:
        return True

    # Traversal -----------------------------------------------------------
    def traverse_stmt(self, stmt: Optional[Stmt]) -> None:
        from repro.astlib.omp import OMPExecutableDirective

        if stmt is None:
            return
        if not self.visit_stmt(stmt):
            return
        if isinstance(stmt, OMPExecutableDirective):
            for clause in stmt.clauses:
                self.traverse_clause(clause)
        if isinstance(stmt, DeclStmt):
            for decl in stmt.decls:
                self.traverse_decl(decl)
        for child in stmt.children():
            self.traverse_stmt(child)
        if self.traverse_shadow:
            for child in stmt.shadow_children():
                self.traverse_stmt(child)

    def traverse_decl(self, decl: Optional[Decl]) -> None:
        if decl is None:
            return
        if not self.visit_decl(decl):
            return
        if isinstance(decl, TranslationUnitDecl):
            for d in decl.declarations:
                self.traverse_decl(d)
        elif isinstance(decl, FunctionDecl):
            for p in decl.params:
                self.traverse_decl(p)
            self.traverse_stmt(decl.body)
        elif isinstance(decl, VarDecl):
            self.traverse_stmt(decl.init)
        elif isinstance(decl, CapturedDecl):
            for p in decl.params:
                self.traverse_decl(p)
            self.traverse_stmt(decl.body)

    def traverse_clause(self, clause: Optional[OMPClause]) -> None:
        if clause is None:
            return
        if not self.visit_clause(clause):
            return
        for expr in clause.child_exprs():
            self.traverse_stmt(expr)


def collect_stmts(root: Stmt, predicate=None, include_shadow=False):
    """All statements under *root* (optionally filtered)."""
    result: list[Stmt] = []

    class Collector(RecursiveASTVisitor):
        def visit_stmt(self, stmt: Stmt) -> bool:
            if predicate is None or predicate(stmt):
                result.append(stmt)
            return True

    Collector(traverse_shadow=include_shadow).traverse_stmt(root)
    return result


def count_nodes(root: Stmt, include_shadow: bool = False) -> int:
    """Number of statement nodes under *root* (used by the AST-size
    tests comparing the two representations, paper §3/E14)."""
    return len(collect_stmts(root, include_shadow=include_shadow))
