"""AST type -> IR type lowering."""

from __future__ import annotations

from repro.astlib.context import ASTContext
from repro.astlib import types as ast_ty
from repro.ir import types as ir_ty


_K = ast_ty.BuiltinKind

#: builtin kind -> IR type (LP64; a C bool occupies one byte in memory)
_BUILTIN_IR: dict[ast_ty.BuiltinKind, ir_ty.IRType] = {
    kind: ir_ty.IntType(width)
    for kind, width in ast_ty.BUILTIN_WIDTH.items()
    if kind not in (_K.VOID, _K.FLOAT, _K.DOUBLE)
} | {_K.VOID: ir_ty.void_t, _K.FLOAT: ir_ty.float_t, _K.DOUBLE: ir_ty.double_t}


class TypeLowering:
    """Converts :class:`QualType` to IR types using the LP64 layout."""

    def __init__(self, ctx: ASTContext) -> None:
        self.ctx = ctx
        self._struct_cache: dict[int, ir_ty.StructType] = {}
        self._anon_count = 0

    def lower(self, qt: ast_ty.QualType) -> ir_ty.IRType:
        ty = qt.type
        if isinstance(ty, ast_ty.TypedefType):
            ty = ast_ty.desugar(qt).type
        if isinstance(ty, ast_ty.BuiltinType):
            return _BUILTIN_IR[ty.kind]
        if isinstance(ty, (ast_ty.PointerType, ast_ty.ReferenceType)):
            return ir_ty.ptr
        if isinstance(ty, ast_ty.ConstantArrayType):
            return ir_ty.ArrayType(self.lower(ty.element), ty.size)
        if isinstance(ty, ast_ty.IncompleteArrayType):
            return ir_ty.ptr
        if isinstance(ty, ast_ty.EnumType):
            return ir_ty.i32
        if isinstance(ty, ast_ty.RecordType):
            return self.lower_record(ty.decl)
        if isinstance(ty, ast_ty.FunctionType):
            return self.lower_function(ty)
        raise NotImplementedError(f"cannot lower {ty.spelling()}")

    def lower_record(self, decl) -> ir_ty.StructType:
        cached = self._struct_cache.get(id(decl))
        if cached is not None:
            return cached
        # Use the ASTContext's layout so offsets agree with sizeof().
        self.ctx._record_layout(decl)
        elements = [self.lower(f.type) for f in decl.fields]
        offsets = [
            (f.offset_bits or 0) // 8 for f in decl.fields
        ]
        size_bits, _ = self.ctx._record_layout(decl)
        # Anonymous records are numbered per module in lowering order:
        # names must be a deterministic function of the source alone
        # (decl.node_id is a process-global counter, which would make
        # IR bytes depend on compile history — the compilation cache's
        # byte-identity contract forbids that).
        if decl.name:
            name = decl.name
        else:
            name = f"anon.{self._anon_count}"
            self._anon_count += 1
        struct = ir_ty.StructType(
            elements,
            name=name,
            offsets=offsets,
            size=size_bits // 8,
        )
        self._struct_cache[id(decl)] = struct
        return struct

    def lower_function(
        self, ty: ast_ty.FunctionType
    ) -> ir_ty.FunctionType:
        params = [self.lower(p) for p in ty.params]
        return ir_ty.FunctionType(
            self.lower(ty.return_type), params, ty.is_variadic
        )

    # Convenience ---------------------------------------------------------
    def int_type_for(self, qt: ast_ty.QualType) -> ir_ty.IntType:
        lowered = self.lower(qt)
        assert isinstance(lowered, ir_ty.IntType)
        return lowered

    def is_signed(self, qt: ast_ty.QualType) -> bool:
        return ast_ty.desugar(qt).is_signed_integer()
