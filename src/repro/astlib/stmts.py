"""The Stmt hierarchy (statements; ``Expr`` derives from ``Stmt``).

``children()`` mirrors clang's ``Stmt::children()``: it enumerates only the
*statement* children visible to generic traversals, dumps and matchers.
Shadow AST children (paper §1.2) are returned by ``shadow_children()``
instead and deliberately excluded from both ``children()`` and the dump.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.sourcemgr.location import SourceLocation

if TYPE_CHECKING:
    from repro.astlib.decls import (
        CapturedDecl,
        Decl,
        LabelDecl,
        RecordDecl,
        VarDecl,
    )
    from repro.astlib.exprs import Expr

_stmt_ids = itertools.count(0x8000)

#: the location of a node built without one (locations are immutable)
_NO_LOCATION = SourceLocation()


class Stmt:
    """Base class of every statement (and, transitively, expression)."""

    def __init__(self, location: SourceLocation | None = None) -> None:
        self.location = location or _NO_LOCATION
        self.node_id = next(_stmt_ids)

    def children(self) -> Iterable[Optional["Stmt"]]:
        """Sub-statements; may contain ``None`` holes (clang does too, e.g.
        a ``for`` without a condition)."""
        return ()

    def shadow_children(self) -> Iterable[Optional["Stmt"]]:
        """Hidden sub-trees that only exist for code generation.

        Excluded from :meth:`children` and from AST dumps, following the
        paper's description of clang's *shadow AST*.
        """
        return ()

    def dump_name(self) -> str:
        return type(self).__name__

    def walk(self) -> Iterator["Stmt"]:
        """Pre-order walk over :meth:`children` (shadow trees excluded)."""
        yield self
        for child in self.children():
            if child is not None:
                yield from child.walk()

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class NullStmt(Stmt):
    """A lone ``;``."""


class CompoundStmt(Stmt):
    def __init__(
        self,
        statements: Sequence[Stmt],
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.statements = list(statements)

    def children(self) -> Iterable[Optional[Stmt]]:
        return self.statements


class DeclStmt(Stmt):
    """Adapts declarations into the statement tree."""

    def __init__(
        self,
        decls: Sequence["Decl"],
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.decls = list(decls)

    @property
    def single_decl(self) -> "Decl":
        assert len(self.decls) == 1
        return self.decls[0]

    def children(self) -> Iterable[Optional[Stmt]]:
        # Clang exposes variable initializers through the DeclStmt's
        # children for traversal purposes; we expose none and let
        # RecursiveASTVisitor handle decls explicitly, keeping dumps close
        # to clang's (which nests inits under the VarDecl entry).
        return ()


class IfStmt(Stmt):
    def __init__(
        self,
        cond: "Expr",
        then_stmt: Stmt,
        else_stmt: Stmt | None = None,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.cond = cond
        self.then_stmt = then_stmt
        self.else_stmt = else_stmt

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.cond, self.then_stmt, self.else_stmt)


class WhileStmt(Stmt):
    def __init__(
        self,
        cond: "Expr",
        body: Stmt,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.cond = cond
        self.body = body

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.cond, self.body)


class DoStmt(Stmt):
    def __init__(
        self,
        body: Stmt,
        cond: "Expr",
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.body = body
        self.cond = cond

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.body, self.cond)


class ForStmt(Stmt):
    """A literal C for-loop.

    Children order matches clang: init, condition-variable slot (unused
    here, kept as ``None`` hole parity is not needed), cond, inc, body.
    The AST dump in the paper (Listing 3) shows exactly init/cond/incr/body
    with ``<<<NULL>>>`` for absent parts.
    """

    def __init__(
        self,
        init: Stmt | None,
        cond: Optional["Expr"],
        inc: Optional["Expr"],
        body: Stmt,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.init = init
        self.cond = cond
        self.inc = inc
        self.body = body

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.init, self.cond, self.inc, self.body)


class CXXForRangeStmt(Stmt):
    """A C++11 range-based for-loop, with its de-sugared helper statements.

    Mirrors clang: the node keeps both the syntactic form (loop variable +
    range expression) and the semantic de-sugaring (__range/__begin/__end
    declarations, condition, increment) as children, so analyses need not
    replicate the equivalence the standard mandates (paper Fig. "three
    implementations of a loop at various stages of de-sugaring").
    """

    def __init__(
        self,
        range_stmt: "DeclStmt",
        begin_stmt: "DeclStmt",
        end_stmt: "DeclStmt",
        cond: "Expr",
        inc: "Expr",
        loop_var_stmt: "DeclStmt",
        body: Stmt,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.range_stmt = range_stmt
        self.begin_stmt = begin_stmt
        self.end_stmt = end_stmt
        self.cond = cond
        self.inc = inc
        self.loop_var_stmt = loop_var_stmt
        self.body = body

    @property
    def loop_variable(self) -> "VarDecl":
        from repro.astlib.decls import VarDecl

        decl = self.loop_var_stmt.single_decl
        assert isinstance(decl, VarDecl)
        return decl

    def children(self) -> Iterable[Optional[Stmt]]:
        return (
            self.range_stmt,
            self.begin_stmt,
            self.end_stmt,
            self.cond,
            self.inc,
            self.loop_var_stmt,
            self.body,
        )


class SwitchStmt(Stmt):
    def __init__(
        self,
        cond: "Expr",
        body: Stmt,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.cond = cond
        self.body = body
        self.cases: list["SwitchCase"] = []

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.cond, self.body)


class SwitchCase(Stmt):
    def __init__(
        self, sub_stmt: Stmt, location: SourceLocation | None = None
    ) -> None:
        super().__init__(location)
        self.sub_stmt = sub_stmt

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.sub_stmt,)


class CaseStmt(SwitchCase):
    def __init__(
        self,
        value: "Expr",
        sub_stmt: Stmt,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(sub_stmt, location)
        self.value = value

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.value, self.sub_stmt)


class DefaultStmt(SwitchCase):
    pass


class BreakStmt(Stmt):
    pass


class ContinueStmt(Stmt):
    pass


class ReturnStmt(Stmt):
    def __init__(
        self,
        value: Optional["Expr"] = None,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.value = value

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.value,)


class GotoStmt(Stmt):
    def __init__(
        self, decl: "LabelDecl", location: SourceLocation | None = None
    ) -> None:
        super().__init__(location)
        self.decl = decl


# ---------------------------------------------------------------------------
# Attributes
# ---------------------------------------------------------------------------
class Attr:
    """Base class for statement attributes."""

    def dump_name(self) -> str:
        return type(self).__name__


class LoopHintAttr(Attr):
    """``#pragma clang loop``-style hint attached via AttributedStmt.

    The shadow-AST unroll implementation annotates the strip-mined inner
    loop with ``LoopHintAttr(UnrollCount, N)`` (paper Listing
    "Transformed AST of the unroll directive"): the code generator lowers
    it to ``llvm.loop.unroll.count`` metadata and the mid-end ``LoopUnroll``
    pass performs the duplication.
    """

    UNROLL_COUNT = "UnrollCount"
    UNROLL = "Unroll"
    UNROLL_FULL = "UnrollFull"

    def __init__(
        self,
        option: str,
        value: Optional["Expr"] = None,
        state: str = "Numeric",
        is_implicit: bool = True,
    ) -> None:
        self.option = option
        self.value = value
        self.state = state
        self.is_implicit = is_implicit

    def dump_name(self) -> str:
        implicit = "Implicit " if self.is_implicit else ""
        return f"LoopHintAttr {implicit}loop {self.option} {self.state}"


class AttributedStmt(Stmt):
    def __init__(
        self,
        attrs: Sequence[Attr],
        sub_stmt: Stmt,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.attrs = list(attrs)
        self.sub_stmt = sub_stmt

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.sub_stmt,)

    def loop_hints(self) -> list[LoopHintAttr]:
        return [a for a in self.attrs if isinstance(a, LoopHintAttr)]


# ---------------------------------------------------------------------------
# Captured statements (outlining support)
# ---------------------------------------------------------------------------
class CapturedStmt(Stmt):
    """A statement whose execution is outlined into an implicit function.

    Borrows from Clang's C++ lambda / ObjC block implementation (paper
    §1.2): ``captured_decl`` is the implicit function definition, this node
    is the statement that "declares" it, and the enclosing OpenMP directive
    is responsible for calling it (possibly from other threads).
    ``captures`` lists the variables referenced inside, which become members
    of the implicit ``__context`` structure.
    """

    def __init__(
        self,
        captured_decl: "CapturedDecl",
        captures: Sequence["VarDecl"] = (),
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.captured_decl = captured_decl
        self.captures = list(captures)
        #: names captured by value rather than by reference (the
        #: user-value function captures ``__begin`` by value, paper §3.1)
        self.by_value: set[str] = set()
        #: the implicit ``__context`` record whose fields point at the
        #: captures (set by Sema for outlined regions)
        self.context_record: "RecordDecl | None" = None

    @property
    def body(self) -> Stmt | None:
        return self.captured_decl.body

    def children(self) -> Iterable[Optional[Stmt]]:
        # clang exposes the captured body through children().
        return (self.captured_decl.body,)
