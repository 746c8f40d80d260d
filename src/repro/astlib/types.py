"""The Type hierarchy (clang ``Type`` + ``QualType``).

Types are uniqued through :class:`~repro.astlib.context.ASTContext`; identity
comparison is therefore meaningful for canonical types, as in clang.
Qualifiers (const/volatile/restrict) live in :class:`QualType`, a light
value wrapper around the uniqued ``Type`` node.

The target model is LP64 (int 32-bit, long/pointers 64-bit), matching the
machines the paper's implementation targets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.astlib.decls import RecordDecl, TypedefDecl, EnumDecl


class BuiltinKind(enum.Enum):
    __hash__ = object.__hash__  # a hot dictionary key

    VOID = "void"
    BOOL = "bool"
    CHAR = "char"
    SCHAR = "signed char"
    UCHAR = "unsigned char"
    SHORT = "short"
    USHORT = "unsigned short"
    INT = "int"
    UINT = "unsigned int"
    LONG = "long"
    ULONG = "unsigned long"
    LONGLONG = "long long"
    ULONGLONG = "unsigned long long"
    FLOAT = "float"
    DOUBLE = "double"


_SIGNED_INTS = {
    BuiltinKind.SCHAR,
    BuiltinKind.CHAR,  # char is signed in our target model
    BuiltinKind.SHORT,
    BuiltinKind.INT,
    BuiltinKind.LONG,
    BuiltinKind.LONGLONG,
}
_UNSIGNED_INTS = {
    BuiltinKind.BOOL,
    BuiltinKind.UCHAR,
    BuiltinKind.USHORT,
    BuiltinKind.UINT,
    BuiltinKind.ULONG,
    BuiltinKind.ULONGLONG,
}
_FLOATS = {BuiltinKind.FLOAT, BuiltinKind.DOUBLE}

#: LP64 widths in bits.
BUILTIN_WIDTH: dict[BuiltinKind, int] = {
    BuiltinKind.VOID: 0,
    BuiltinKind.BOOL: 8,
    BuiltinKind.CHAR: 8,
    BuiltinKind.SCHAR: 8,
    BuiltinKind.UCHAR: 8,
    BuiltinKind.SHORT: 16,
    BuiltinKind.USHORT: 16,
    BuiltinKind.INT: 32,
    BuiltinKind.UINT: 32,
    BuiltinKind.LONG: 64,
    BuiltinKind.ULONG: 64,
    BuiltinKind.LONGLONG: 64,
    BuiltinKind.ULONGLONG: 64,
    BuiltinKind.FLOAT: 32,
    BuiltinKind.DOUBLE: 64,
}

#: Integer conversion rank (C11 6.3.1.1).
_RANK: dict[BuiltinKind, int] = {
    BuiltinKind.BOOL: 0,
    BuiltinKind.CHAR: 1,
    BuiltinKind.SCHAR: 1,
    BuiltinKind.UCHAR: 1,
    BuiltinKind.SHORT: 2,
    BuiltinKind.USHORT: 2,
    BuiltinKind.INT: 3,
    BuiltinKind.UINT: 3,
    BuiltinKind.LONG: 4,
    BuiltinKind.ULONG: 4,
    BuiltinKind.LONGLONG: 5,
    BuiltinKind.ULONGLONG: 5,
}


class Type:
    """Base of the type hierarchy.  No common root with Stmt/Decl."""

    def spelling(self) -> str:
        raise NotImplementedError

    # Classification ----------------------------------------------------
    def is_void(self) -> bool:
        return isinstance(self, BuiltinType) and self.kind == BuiltinKind.VOID

    def is_bool(self) -> bool:
        return isinstance(self, BuiltinType) and self.kind == BuiltinKind.BOOL

    def is_integer(self) -> bool:
        if isinstance(self, BuiltinType):
            return self.kind in _SIGNED_INTS or self.kind in _UNSIGNED_INTS
        return isinstance(self, EnumType)

    def is_signed_integer(self) -> bool:
        if isinstance(self, BuiltinType):
            return self.kind in _SIGNED_INTS
        return isinstance(self, EnumType)

    def is_unsigned_integer(self) -> bool:
        return isinstance(self, BuiltinType) and self.kind in _UNSIGNED_INTS

    def is_floating(self) -> bool:
        return isinstance(self, BuiltinType) and self.kind in _FLOATS

    def is_arithmetic(self) -> bool:
        return self.is_integer() or self.is_floating()

    def is_scalar(self) -> bool:
        return self.is_arithmetic() or self.is_pointer()

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    def is_record(self) -> bool:
        return isinstance(self, RecordType)

    def is_function(self) -> bool:
        return isinstance(self, FunctionType)

    def is_reference(self) -> bool:
        return isinstance(self, ReferenceType)

    def integer_rank(self) -> int:
        assert isinstance(self, BuiltinType)
        return _RANK[self.kind]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.spelling()!r}>"


@dataclass(frozen=True)
class QualType:
    """A type plus const/volatile/restrict qualifiers (clang ``QualType``)."""

    type: Type
    is_const: bool = False
    is_volatile: bool = False
    is_restrict: bool = False

    def spelling(self) -> str:
        quals = []
        if self.is_const:
            quals.append("const")
        if self.is_volatile:
            quals.append("volatile")
        if self.is_restrict:
            quals.append("__restrict")
        base = self.type.spelling()
        if not quals:
            return base
        if isinstance(self.type, (PointerType, ReferenceType)):
            # Pointer qualifiers are suffixes: `const int *const __restrict`.
            return base + " ".join(quals)
        return " ".join(quals + [base])

    def unqualified(self) -> "QualType":
        if not (self.is_const or self.is_volatile or self.is_restrict):
            return self
        return QualType(self.type)

    def with_const(self) -> "QualType":
        return QualType(self.type, True, self.is_volatile, self.is_restrict)

    # Forwarders so callers rarely need ``.type``: one for each
    # classification predicate of :class:`Type` and for its rank.
    def is_void(self) -> bool:
        return self.type.is_void()

    def is_bool(self) -> bool:
        return self.type.is_bool()

    def is_integer(self) -> bool:
        return self.type.is_integer()

    def is_signed_integer(self) -> bool:
        return self.type.is_signed_integer()

    def is_unsigned_integer(self) -> bool:
        return self.type.is_unsigned_integer()

    def is_floating(self) -> bool:
        return self.type.is_floating()

    def is_arithmetic(self) -> bool:
        return self.type.is_arithmetic()

    def is_scalar(self) -> bool:
        return self.type.is_scalar()

    def is_pointer(self) -> bool:
        return self.type.is_pointer()

    def is_array(self) -> bool:
        return self.type.is_array()

    def is_record(self) -> bool:
        return self.type.is_record()

    def is_function(self) -> bool:
        return self.type.is_function()

    def is_reference(self) -> bool:
        return self.type.is_reference()

    def integer_rank(self) -> int:
        return self.type.integer_rank()

    def __str__(self) -> str:
        return self.spelling()


class BuiltinType(Type):
    """A builtin type; its width, rank and classification are computed
    once, here, from the tables above."""

    def __init__(self, kind: BuiltinKind) -> None:
        self.kind = kind
        self.width = BUILTIN_WIDTH[kind]
        self._rank = _RANK.get(kind)
        self._signed = kind in _SIGNED_INTS
        self._unsigned = kind in _UNSIGNED_INTS
        self._integer = self._signed or self._unsigned
        self._floating = kind in _FLOATS
        self._arithmetic = self._integer or self._floating

    def spelling(self) -> str:
        return self.kind.value

    def is_void(self) -> bool:
        return self.kind is BuiltinKind.VOID

    def is_bool(self) -> bool:
        return self.kind is BuiltinKind.BOOL

    def is_integer(self) -> bool:
        return self._integer

    def is_signed_integer(self) -> bool:
        return self._signed

    def is_unsigned_integer(self) -> bool:
        return self._unsigned

    def is_floating(self) -> bool:
        return self._floating

    def is_arithmetic(self) -> bool:
        return self._arithmetic

    def is_scalar(self) -> bool:
        return self._arithmetic

    def is_pointer(self) -> bool:
        return False

    def integer_rank(self) -> int:
        if self._rank is None:
            raise KeyError(self.kind)  # not an integer type
        return self._rank


class PointerType(Type):
    def __init__(self, pointee: QualType) -> None:
        self.pointee = pointee

    def spelling(self) -> str:
        inner = self.pointee.spelling()
        if inner.endswith("*"):
            return f"{inner}*"
        return f"{inner} *"


class ReferenceType(Type):
    """C++ lvalue reference; only used by the range-for de-sugaring and the
    by-reference lambda captures of the distance / user-value functions."""

    def __init__(self, pointee: QualType) -> None:
        self.pointee = pointee

    def spelling(self) -> str:
        return f"{self.pointee.spelling()} &"


class ArrayType(Type):
    def __init__(self, element: QualType) -> None:
        self.element = element


class ConstantArrayType(ArrayType):
    def __init__(self, element: QualType, size: int) -> None:
        super().__init__(element)
        self.size = size

    def spelling(self) -> str:
        return f"{self.element.spelling()}[{self.size}]"


class IncompleteArrayType(ArrayType):
    def spelling(self) -> str:
        return f"{self.element.spelling()}[]"


class FunctionType(Type):
    def __init__(
        self,
        return_type: QualType,
        params: tuple[QualType, ...],
        is_variadic: bool = False,
    ) -> None:
        self.return_type = return_type
        self.params = params
        self.is_variadic = is_variadic

    def spelling(self) -> str:
        params = ", ".join(p.spelling() for p in self.params)
        if self.is_variadic:
            params = f"{params}, ..." if params else "..."
        if not params:
            params = "void"
        return f"{self.return_type.spelling()} ({params})"


class RecordType(Type):
    def __init__(self, decl: "RecordDecl") -> None:
        self.decl = decl

    def spelling(self) -> str:
        tag = "union" if self.decl.is_union else "struct"
        if self.decl.name:
            return f"{tag} {self.decl.name}"
        return f"(unnamed {tag})"


class EnumType(Type):
    def __init__(self, decl: "EnumDecl") -> None:
        self.decl = decl

    def spelling(self) -> str:
        return f"enum {self.decl.name}" if self.decl.name else "(unnamed enum)"


class TypedefType(Type):
    """A sugar node: keeps the typedef name for diagnostics/dumps while the
    canonical type is reachable via ``canonical``."""

    def __init__(self, decl: "TypedefDecl", canonical: QualType) -> None:
        self.decl = decl
        self.canonical = canonical

    def spelling(self) -> str:
        return self.decl.name


def desugar(qt: QualType) -> QualType:
    """Strip typedef sugar, preserving qualifiers."""
    ty = qt.type
    while isinstance(ty, TypedefType):
        inner = ty.canonical
        qt = QualType(
            inner.type,
            qt.is_const or inner.is_const,
            qt.is_volatile or inner.is_volatile,
            qt.is_restrict or inner.is_restrict,
        )
        ty = qt.type
    return qt
