"""The Decl hierarchy.

As in clang, declarations are a separate class family from statements and
types (no common base class); ``DeclStmt`` adapts a declaration into the
statement tree and ``DeclRefExpr`` references one from the expression tree.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Iterable, Optional

from repro.astlib.types import QualType
from repro.sourcemgr.location import SourceLocation

if TYPE_CHECKING:
    from repro.astlib.exprs import Expr
    from repro.astlib.stmts import Stmt

_decl_ids = itertools.count(0x1000)


class Decl:
    """Base class of all declarations."""

    def __init__(self, location: SourceLocation | None = None) -> None:
        self.location = location or SourceLocation()
        #: Stable id used by the AST dumper (stands in for clang's pointer
        #: values such as ``0x7fffc6750e68``).
        self.node_id = next(_decl_ids)
        self.is_implicit = False
        self.is_referenced = False

    def dump_name(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {getattr(self, 'name', '')!r}>"


class TranslationUnitDecl(Decl):
    """Root of the AST: the whole translation unit."""

    def __init__(self) -> None:
        super().__init__()
        self.declarations: list[Decl] = []

    def add(self, decl: Decl) -> None:
        self.declarations.append(decl)

    def functions(self) -> Iterable["FunctionDecl"]:
        return (d for d in self.declarations if isinstance(d, FunctionDecl))

    def lookup(self, name: str) -> Optional["NamedDecl"]:
        for decl in self.declarations:
            if isinstance(decl, NamedDecl) and decl.name == name:
                return decl
        return None


class NamedDecl(Decl):
    def __init__(
        self, name: str, location: SourceLocation | None = None
    ) -> None:
        super().__init__(location)
        self.name = name


class ValueDecl(NamedDecl):
    """A named entity with a type (variables, functions, enumerators)."""

    def __init__(
        self,
        name: str,
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(name, location)
        self.type = type


class StorageClass(enum.Enum):
    __hash__ = object.__hash__  # a hot dictionary key

    NONE = "none"
    STATIC = "static"
    EXTERN = "extern"
    AUTO = "auto"


class VarDecl(ValueDecl):
    def __init__(
        self,
        name: str,
        type: QualType,
        init: Optional["Expr"] = None,
        storage_class: StorageClass = StorageClass.NONE,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(name, type, location)
        self.init = init
        self.storage_class = storage_class
        self.is_global = False

    @property
    def has_init(self) -> bool:
        return self.init is not None


class ParmVarDecl(VarDecl):
    """A function parameter."""


class ImplicitParamDecl(ParmVarDecl):
    """An implicit parameter of a captured/outlined region.

    The paper's Listing 3 shows three of them on every ``CapturedDecl``:
    ``.global_tid.``, ``.bound_tid.`` and ``__context``.
    """

    def __init__(self, name: str, type: QualType) -> None:
        super().__init__(name, type)
        self.is_implicit = True


class FieldDecl(ValueDecl):
    def __init__(
        self,
        name: str,
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(name, type, location)
        self.offset_bits: int | None = None  # laid out by ASTContext
        self.index = -1


class RecordDecl(NamedDecl):
    def __init__(
        self,
        name: str,
        is_union: bool = False,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(name, location)
        self.is_union = is_union
        self.fields: list[FieldDecl] = []
        self.is_complete = False

    def add_field(self, f: FieldDecl) -> None:
        f.index = len(self.fields)
        self.fields.append(f)

    def field_named(self, name: str) -> FieldDecl | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None


class EnumConstantDecl(ValueDecl):
    def __init__(
        self,
        name: str,
        type: QualType,
        value: int,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(name, type, location)
        self.value = value


class EnumDecl(NamedDecl):
    def __init__(
        self, name: str, location: SourceLocation | None = None
    ) -> None:
        super().__init__(name, location)
        self.constants: list[EnumConstantDecl] = []


class TypedefDecl(NamedDecl):
    def __init__(
        self,
        name: str,
        underlying: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(name, location)
        self.underlying = underlying


class FunctionDecl(ValueDecl):
    """A function declaration/definition.  ``type`` is the FunctionType."""

    def __init__(
        self,
        name: str,
        type: QualType,
        params: list[ParmVarDecl],
        body: Optional["Stmt"] = None,
        storage_class: StorageClass = StorageClass.NONE,
        is_inline: bool = False,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(name, type, location)
        self.params = params
        self.body = body
        self.storage_class = storage_class
        self.is_inline = is_inline

    @property
    def is_definition(self) -> bool:
        return self.body is not None

    @property
    def return_type(self) -> QualType:
        from repro.astlib.types import FunctionType

        fnty = self.type.type
        assert isinstance(fnty, FunctionType)
        return fnty.return_type


class CapturedDecl(Decl):
    """The implicit 'lambda function' definition of a :class:`CapturedStmt`.

    Paper §1.2: Clang re-purposes its C++ lambda / ObjC block machinery to
    outline the code associated with an OpenMP directive.  The captured
    declaration holds the outlined body plus the implicit parameters
    (thread ids and the ``__context`` capture structure).
    """

    def __init__(
        self,
        body: Optional["Stmt"] = None,
        params: list[ImplicitParamDecl] | None = None,
        nothrow: bool = True,
    ) -> None:
        super().__init__()
        self.body = body
        self.params: list[ImplicitParamDecl] = params or []
        self.nothrow = nothrow
        self.is_implicit = True


class LabelDecl(NamedDecl):
    pass
