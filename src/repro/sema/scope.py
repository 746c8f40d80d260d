"""Lexical scopes and name lookup (clang's ``Scope`` + ``DeclContext``)."""

from __future__ import annotations

import enum
from typing import Iterator, Optional

from repro.astlib.decls import NamedDecl, TypedefDecl


class ScopeKind(enum.Enum):
    TRANSLATION_UNIT = "translation unit"
    FUNCTION = "function"
    BLOCK = "block"
    FOR_INIT = "for init"  # scope of a for-loop's init-statement
    OPENMP_DIRECTIVE = "openmp directive"
    CAPTURED_REGION = "captured region"


class Scope:
    """One lexical scope; chained to its parent."""

    def __init__(
        self, kind: ScopeKind, parent: Optional["Scope"] = None
    ) -> None:
        self.kind = kind
        self.parent = parent
        self._decls: dict[str, NamedDecl] = {}
        self._tags: dict[str, NamedDecl] = {}  # struct/union/enum namespace

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def declare(self, decl: NamedDecl) -> NamedDecl | None:
        """Add *decl*; returns a previous same-scope declaration if any
        (the caller decides whether that is a redefinition error)."""
        previous = self._decls.get(decl.name)
        self._decls[decl.name] = decl
        return previous

    def declare_tag(self, decl: NamedDecl) -> NamedDecl | None:
        previous = self._tags.get(decl.name)
        self._tags[decl.name] = decl
        return previous

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup_local(self, name: str) -> NamedDecl | None:
        return self._decls.get(name)

    def lookup(self, name: str) -> NamedDecl | None:
        scope: Scope | None = self
        while scope is not None:
            decl = scope._decls.get(name)
            if decl is not None:
                return decl
            scope = scope.parent
        return None

    def lookup_tag(self, name: str) -> NamedDecl | None:
        scope: Scope | None = self
        while scope is not None:
            decl = scope._tags.get(name)
            if decl is not None:
                return decl
            scope = scope.parent
        return None

    def is_type_name(self, name: str) -> bool:
        """The classic 'lexer hack': is *name* a typedef name here?"""
        decl = self.lookup(name)
        return isinstance(decl, TypedefDecl)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def ancestors(self) -> Iterator["Scope"]:
        scope: Scope | None = self
        while scope is not None:
            yield scope
            scope = scope.parent

    def innermost(self, *kinds: ScopeKind) -> Optional["Scope"]:
        for scope in self.ancestors():
            if scope.kind in kinds:
                return scope
        return None

    def depth(self) -> int:
        return sum(1 for _ in self.ancestors()) - 1

    def __repr__(self) -> str:
        return f"<Scope {self.kind.value} depth={self.depth()}>"
