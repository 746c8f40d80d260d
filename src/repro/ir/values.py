"""IR values: the base class, constants, arguments, globals."""

from __future__ import annotations

import math
import struct
from typing import TYPE_CHECKING, Optional

from repro.ir.types import FloatType, IntType, IRType, ptr

if TYPE_CHECKING:
    from repro.ir.module import Function

_DOUBLE = struct.Struct("<d")
_DOUBLE_BITS = struct.Struct("<Q")


class Value:
    """Anything usable as an instruction operand."""

    def __init__(self, type: IRType, name: str = "") -> None:
        self.type = type
        self.name = name

    def ref(self) -> str:
        """How the value is referenced as an operand in printed IR."""
        return f"%{self.name}" if self.name else "%<unnamed>"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.ref()}: {self.type}>"


class Constant(Value):
    pass


class ConstantInt(Constant):
    def __init__(self, type: IntType, value: int) -> None:
        super().__init__(type)
        self.value = type.wrap(value)

    @property
    def signed_value(self) -> int:
        return self.type.to_signed(self.value)

    def ref(self) -> str:
        if self.type.bits == 1:
            return "true" if self.value else "false"
        return str(self.signed_value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantInt)
            and other.type is self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type.bits, self.value))


class ConstantFP(Constant):
    def __init__(self, type: FloatType, value: float) -> None:
        super().__init__(type)
        if type.bits == 32:
            # Round-trip through single precision.
            value = struct.unpack("f", struct.pack("f", value))[0]
        self.value = value

    def ref(self) -> str:
        """``%e`` for a finite value; LLVM spells infinities and NaNs by
        the bits of the double, such as ``0x7FF0000000000000``."""
        if math.isfinite(self.value):
            return f"{self.value:e}"
        return f"0x{_DOUBLE_BITS.unpack(_DOUBLE.pack(self.value))[0]:016X}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantFP)
            and other.type is self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type.bits, self.value))


class ConstantPointerNull(Constant):
    def __init__(self) -> None:
        super().__init__(ptr)

    def ref(self) -> str:
        return "null"


class UndefValue(Constant):
    def __init__(self, type: IRType) -> None:
        super().__init__(type)

    def ref(self) -> str:
        return "undef"


class Argument(Value):
    """A formal function parameter."""

    def __init__(self, type: IRType, name: str, index: int) -> None:
        super().__init__(type, name)
        self.index = index


class GlobalValue(Value):
    """Named module-level entity; referenced as ``@name``."""

    def __init__(self, type: IRType, name: str) -> None:
        super().__init__(type, name)

    def ref(self) -> str:
        return f"@{self.name}"


class GlobalVariable(GlobalValue):
    """A module global; its value is the *address*, hence type ``ptr``."""

    def __init__(
        self,
        name: str,
        value_type: IRType,
        initializer: Optional[Constant] = None,
        is_constant: bool = False,
    ) -> None:
        super().__init__(ptr, name)
        self.value_type = value_type
        self.initializer = initializer
        self.is_constant = is_constant
        #: raw bytes initializer for string/array data (examples use it)
        self.initializer_bytes: bytes | None = None


def const_int(type: IntType, value: int) -> ConstantInt:
    return ConstantInt(type, value)


def const_fp(type: FloatType, value: float) -> ConstantFP:
    return ConstantFP(type, value)
