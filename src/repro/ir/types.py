"""IR types (LLVM-style).  Pointers are opaque, as in modern LLVM."""

from __future__ import annotations

import struct
from typing import Sequence


class IRType:
    def __str__(self) -> str:  # pragma: no cover - subclasses override
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<irtype {self}>"

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_int(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def size_bytes(self) -> int:
        """Store size in bytes (LP64 layout)."""
        raise NotImplementedError(f"{self} has no size")

    # Types are interned immutables (LLVM context-uniqued analogue):
    # cloning a module must alias them, never duplicate them —
    # duplication would both break identity comparisons and trip the
    # interning ``__new__`` signatures under ``copy.deepcopy``.
    def __copy__(self) -> "IRType":
        return self

    def __deepcopy__(self, memo: dict) -> "IRType":
        memo[id(self)] = self
        return self


class VoidType(IRType):
    def __str__(self) -> str:
        return "void"


class LabelType(IRType):
    def __str__(self) -> str:
        return "label"


class IntType(IRType):
    _cache: dict[int, "IntType"] = {}

    def __new__(cls, bits: int) -> "IntType":
        cached = cls._cache.get(bits)
        if cached is None:
            cached = super().__new__(cls)
            cached.bits = bits
            cls._cache[bits] = cached
        return cached

    def __str__(self) -> str:
        return f"i{self.bits}"

    def size_bytes(self) -> int:
        return max(1, (self.bits + 7) // 8)

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def wrap(self, value: int) -> int:
        """Wrap to the unsigned 2's-complement bit pattern."""
        return value & self.mask

    def to_signed(self, value: int) -> int:
        value &= self.mask
        if value >= 1 << (self.bits - 1):
            value -= 1 << self.bits
        return value


#: single-precision codec (rounds a double to nearest, ties to even)
_F32 = struct.Struct("<f")


class FloatType(IRType):
    _cache: dict[int, "FloatType"] = {}

    def __new__(cls, bits: int) -> "FloatType":
        assert bits in (32, 64)
        cached = cls._cache.get(bits)
        if cached is None:
            cached = super().__new__(cls)
            cached.bits = bits
            cls._cache[bits] = cached
        return cached

    def __str__(self) -> str:
        return "float" if self.bits == 32 else "double"

    def size_bytes(self) -> int:
        return self.bits // 8

    def from_int(self, value: int) -> float:
        """The integer *value* converted to this type, rounded once to
        nearest, ties to even (``sitofp``/``uitofp``).  An integer wider
        than a double's 53-bit significand is first rounded to a
        float's 24 bits here, since rounding it to double and then to
        float could round twice."""
        if self.bits == 64:
            return float(value)
        magnitude = abs(value)
        if magnitude >= 1 << 53:
            shift = magnitude.bit_length() - 24
            kept = magnitude >> shift
            dropped = magnitude - (kept << shift)
            half = 1 << (shift - 1)
            if dropped > half or (dropped == half and kept & 1):
                kept += 1
            magnitude = kept << shift
            value = -magnitude if value < 0 else magnitude
        return _F32.unpack(_F32.pack(float(value)))[0]


class PointerType(IRType):
    _instance: "PointerType | None" = None

    def __new__(cls) -> "PointerType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "ptr"

    def size_bytes(self) -> int:
        return 8


class ArrayType(IRType):
    _cache: dict[tuple, "ArrayType"] = {}

    def __new__(cls, element: IRType, count: int) -> "ArrayType":
        key = (element, count)
        cached = cls._cache.get(key)
        if cached is None:
            cached = super().__new__(cls)
            cached.element = element
            cached.count = count
            cls._cache[key] = cached
        return cached

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    def size_bytes(self) -> int:
        return self.count * self.element.size_bytes()


class StructType(IRType):
    """A (possibly named) struct with precomputed byte offsets."""

    def __init__(
        self,
        elements: Sequence[IRType],
        name: str = "",
        offsets: Sequence[int] | None = None,
        size: int | None = None,
    ) -> None:
        self.elements = tuple(elements)
        self.name = name
        if offsets is None:
            offsets = []
            off = 0
            for el in self.elements:
                align = _natural_align(el)
                off = (off + align - 1) // align * align
                offsets.append(off)
                off += el.size_bytes()
            align = max(
                (_natural_align(el) for el in self.elements), default=1
            )
            size = max(1, (off + align - 1) // align * align)
        self.offsets = tuple(offsets)
        self._size = size if size is not None else 1

    def __str__(self) -> str:
        if self.name:
            return f"%{self.name}"
        inner = ", ".join(str(el) for el in self.elements)
        return "{ " + inner + " }"

    def size_bytes(self) -> int:
        return self._size

    def offset_of(self, index: int) -> int:
        return self.offsets[index]


def _natural_align(ty: IRType) -> int:
    if isinstance(ty, ArrayType):
        return _natural_align(ty.element)
    if isinstance(ty, StructType):
        return max(
            (_natural_align(el) for el in ty.elements), default=1
        )
    return max(1, ty.size_bytes())


class FunctionType(IRType):
    def __init__(
        self,
        return_type: IRType,
        params: Sequence[IRType],
        is_variadic: bool = False,
    ) -> None:
        self.return_type = return_type
        self.params = tuple(params)
        self.is_variadic = is_variadic

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.is_variadic:
            params = f"{params}, ..." if params else "..."
        return f"{self.return_type} ({params})"


# Common singletons -----------------------------------------------------
void_t = VoidType()
label_t = LabelType()
i1 = IntType(1)
i8 = IntType(8)
i16 = IntType(16)
i32 = IntType(32)
i64 = IntType(64)
float_t = FloatType(32)
double_t = FloatType(64)
ptr = PointerType()
