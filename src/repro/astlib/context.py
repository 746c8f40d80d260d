"""ASTContext: type uniquing, target layout, and common type accessors.

Clang's ``ASTContext`` owns all AST node allocations and guarantees a
single canonical object per type, making pointer equality meaningful; we
reproduce that with memoized constructors.  The target model is LP64.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.astlib.decls import RecordDecl, TranslationUnitDecl, TypedefDecl
from repro.astlib.types import (
    BUILTIN_WIDTH,
    BuiltinKind,
    BuiltinType,
    ConstantArrayType,
    EnumType,
    FunctionType,
    IncompleteArrayType,
    PointerType,
    QualType,
    RecordType,
    ReferenceType,
    TypedefType,
    desugar,
)


@dataclass(frozen=True)
class TargetInfo:
    """LP64 data layout (the paper's implementation targets 64-bit hosts)."""

    pointer_width: int = 64
    size_t_kind: BuiltinKind = BuiltinKind.ULONG
    ptrdiff_t_kind: BuiltinKind = BuiltinKind.LONG
    char_is_signed: bool = True


class ASTContext:
    """Owns type uniquing and layout computation for one translation unit."""

    def __init__(self, target: TargetInfo | None = None) -> None:
        self.target = target or TargetInfo()
        self.translation_unit = TranslationUnitDecl()
        self._builtins: dict[BuiltinKind, QualType] = {}
        self._pointers: dict[tuple, PointerType] = {}
        self._references: dict[tuple, ReferenceType] = {}
        self._const_arrays: dict[tuple, ConstantArrayType] = {}
        self._incomplete_arrays: dict[tuple, IncompleteArrayType] = {}
        self._functions: dict[tuple, FunctionType] = {}
        self._records: dict[int, RecordType] = {}
        self._enums: dict[int, EnumType] = {}
        self._typedefs: dict[int, TypedefType] = {}

    # ------------------------------------------------------------------
    # Uniqued type constructors
    # ------------------------------------------------------------------
    def get_builtin(self, kind: BuiltinKind) -> QualType:
        """The one unqualified ``QualType`` of builtin *kind*."""
        qt = self._builtins.get(kind)
        if qt is None:
            qt = QualType(BuiltinType(kind))
            self._builtins[kind] = qt
        return qt

    # Convenience accessors --------------------------------------------
    @property
    def void_type(self) -> QualType:
        return self.get_builtin(BuiltinKind.VOID)

    @property
    def bool_type(self) -> QualType:
        return self.get_builtin(BuiltinKind.BOOL)

    @property
    def char_type(self) -> QualType:
        return self.get_builtin(BuiltinKind.CHAR)

    @property
    def int_type(self) -> QualType:
        return self.get_builtin(BuiltinKind.INT)

    @property
    def uint_type(self) -> QualType:
        return self.get_builtin(BuiltinKind.UINT)

    @property
    def long_type(self) -> QualType:
        return self.get_builtin(BuiltinKind.LONG)

    @property
    def ulong_type(self) -> QualType:
        return self.get_builtin(BuiltinKind.ULONG)

    @property
    def longlong_type(self) -> QualType:
        return self.get_builtin(BuiltinKind.LONGLONG)

    @property
    def ulonglong_type(self) -> QualType:
        return self.get_builtin(BuiltinKind.ULONGLONG)

    @property
    def float_type(self) -> QualType:
        return self.get_builtin(BuiltinKind.FLOAT)

    @property
    def double_type(self) -> QualType:
        return self.get_builtin(BuiltinKind.DOUBLE)

    @property
    def size_type(self) -> QualType:
        """``size_t`` — the paper's logical iteration counter type for
        64-bit iteration spaces."""
        return self.get_builtin(self.target.size_t_kind)

    @property
    def ptrdiff_type(self) -> QualType:
        return self.get_builtin(self.target.ptrdiff_t_kind)

    def get_pointer(self, pointee: QualType) -> QualType:
        key = (
            pointee.type,
            pointee.is_const,
            pointee.is_volatile,
            pointee.is_restrict,
        )
        ty = self._pointers.get(key)
        if ty is None:
            ty = PointerType(pointee)
            self._pointers[key] = ty
        return QualType(ty)

    def get_reference(self, pointee: QualType) -> QualType:
        key = (
            pointee.type,
            pointee.is_const,
            pointee.is_volatile,
            pointee.is_restrict,
        )
        ty = self._references.get(key)
        if ty is None:
            ty = ReferenceType(pointee)
            self._references[key] = ty
        return QualType(ty)

    def get_constant_array(self, element: QualType, size: int) -> QualType:
        key = (element.type, element.is_const, size)
        ty = self._const_arrays.get(key)
        if ty is None:
            ty = ConstantArrayType(element, size)
            self._const_arrays[key] = ty
        return QualType(ty)

    def get_incomplete_array(self, element: QualType) -> QualType:
        key = (element.type, element.is_const)
        ty = self._incomplete_arrays.get(key)
        if ty is None:
            ty = IncompleteArrayType(element)
            self._incomplete_arrays[key] = ty
        return QualType(ty)

    def get_function(
        self,
        return_type: QualType,
        params: list[QualType],
        is_variadic: bool = False,
    ) -> QualType:
        key = (
            return_type.type,
            tuple(p.type for p in params),
            is_variadic,
        )
        ty = self._functions.get(key)
        if ty is None:
            ty = FunctionType(return_type, tuple(params), is_variadic)
            self._functions[key] = ty
        return QualType(ty)

    def get_record(self, decl: RecordDecl) -> QualType:
        ty = self._records.get(id(decl))
        if ty is None:
            ty = RecordType(decl)
            self._records[id(decl)] = ty
        return QualType(ty)

    def get_enum(self, decl) -> QualType:
        ty = self._enums.get(id(decl))
        if ty is None:
            ty = EnumType(decl)
            self._enums[id(decl)] = ty
        return QualType(ty)

    def get_typedef(self, decl: TypedefDecl) -> QualType:
        ty = self._typedefs.get(id(decl))
        if ty is None:
            ty = TypedefType(decl, desugar(decl.underlying))
            self._typedefs[id(decl)] = ty
        return QualType(ty)

    def int_type_of_width(self, bits: int, signed: bool) -> QualType:
        table = {
            (8, True): BuiltinKind.SCHAR,
            (8, False): BuiltinKind.UCHAR,
            (16, True): BuiltinKind.SHORT,
            (16, False): BuiltinKind.USHORT,
            (32, True): BuiltinKind.INT,
            (32, False): BuiltinKind.UINT,
            (64, True): BuiltinKind.LONG,
            (64, False): BuiltinKind.ULONG,
        }
        return self.get_builtin(table[(bits, signed)])

    # ------------------------------------------------------------------
    # Layout queries (bits)
    # ------------------------------------------------------------------
    def type_width(self, qt: QualType) -> int:
        ty = desugar(qt).type
        if isinstance(ty, BuiltinType):
            return ty.width
        if isinstance(ty, (PointerType, ReferenceType)):
            return self.target.pointer_width
        if isinstance(ty, EnumType):
            return BUILTIN_WIDTH[BuiltinKind.INT]
        if isinstance(ty, ConstantArrayType):
            return ty.size * self.type_width(ty.element)
        if isinstance(ty, RecordType):
            size, _ = self._record_layout(ty.decl)
            return size
        raise ValueError(f"type has no width: {ty.spelling()}")

    def type_align(self, qt: QualType) -> int:
        ty = desugar(qt).type
        if isinstance(ty, BuiltinType):
            return max(ty.width, 8)
        if isinstance(ty, (PointerType, ReferenceType)):
            return self.target.pointer_width
        if isinstance(ty, EnumType):
            return BUILTIN_WIDTH[BuiltinKind.INT]
        if isinstance(ty, ConstantArrayType):
            return self.type_align(ty.element)
        if isinstance(ty, RecordType):
            _, align = self._record_layout(ty.decl)
            return align
        raise ValueError(f"type has no alignment: {ty.spelling()}")

    def type_size_bytes(self, qt: QualType) -> int:
        return (self.type_width(qt) + 7) // 8

    def _record_layout(self, decl: RecordDecl) -> tuple[int, int]:
        """Compute (and memoize on the fields) a C struct/union layout.

        Returns (size_bits, align_bits).
        """
        align = 8
        if decl.is_union:
            size = 8
            for f in decl.fields:
                f.offset_bits = 0
                size = max(size, self.type_width(f.type))
                align = max(align, self.type_align(f.type))
        else:
            size = 0
            for f in decl.fields:
                falign = self.type_align(f.type)
                align = max(align, falign)
                size = (size + falign - 1) // falign * falign
                f.offset_bits = size
                size += self.type_width(f.type)
        size = max(8, (size + align - 1) // align * align)
        return size, align

    def field_offset_bytes(self, decl: RecordDecl, field_name: str) -> int:
        self._record_layout(decl)
        f = decl.field_named(field_name)
        if f is None or f.offset_bits is None:
            raise ValueError(f"no field {field_name} in {decl.name}")
        return f.offset_bits // 8

    # ------------------------------------------------------------------
    # Type predicates that need the context
    # ------------------------------------------------------------------
    def is_same_type(self, a: QualType, b: QualType) -> bool:
        return desugar(a).type is desugar(b).type
