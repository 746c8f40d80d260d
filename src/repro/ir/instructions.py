"""IR instructions.

Operands are plain attributes (no use-lists); the mid-end passes that need
value replacement walk instructions explicitly via
:meth:`Instruction.operands` / :meth:`Instruction.replace_operand`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Sequence

from repro.ir.types import IRType, IntType, i1, void_t
from repro.ir.values import Value

if TYPE_CHECKING:
    from repro.ir.metadata import MDNode
    from repro.ir.module import BasicBlock, Function


class Instruction(Value):
    """Base class; also a Value (its result)."""

    opcode = "<instr>"
    #: ends its block (the five terminator classes set it)
    is_terminator = False

    def __init__(self, type: IRType, name: str = "") -> None:
        super().__init__(type, name)
        self.parent: Optional["BasicBlock"] = None
        self.metadata: dict[str, "MDNode"] = {}

    # Operand access (overridden) ---------------------------------------
    def operands(self) -> list[Value]:
        return []

    def replace_operand(self, old: Value, new: Value) -> None:
        """Replace every occurrence of *old* among the operands."""
        raise NotImplementedError

    def successors(self) -> list["BasicBlock"]:
        return []

    def erase(self) -> None:
        if self.parent is not None:
            self.parent.instructions.remove(self)
            self.parent = None


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------
class BinOp(enum.Enum):
    __hash__ = object.__hash__  # a hot dictionary key

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SDIV = "sdiv"
    UDIV = "udiv"
    SREM = "srem"
    UREM = "urem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FREM = "frem"

    @property
    def is_float_op(self) -> bool:
        return self.value.startswith("f")


class BinaryInst(Instruction):
    def __init__(
        self, op: BinOp, lhs: Value, rhs: Value, name: str = ""
    ) -> None:
        super().__init__(lhs.type, name)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    opcode = "binop"

    def operands(self) -> list[Value]:
        return [self.lhs, self.rhs]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.lhs is old:
            self.lhs = new
        if self.rhs is old:
            self.rhs = new


class ICmpPred(enum.Enum):
    __hash__ = object.__hash__  # a hot dictionary key

    EQ = "eq"
    NE = "ne"
    SLT = "slt"
    SLE = "sle"
    SGT = "sgt"
    SGE = "sge"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"

    @property
    def is_signed(self) -> bool:
        return self.value.startswith("s")


class ICmpInst(Instruction):
    opcode = "icmp"

    def __init__(
        self, pred: ICmpPred, lhs: Value, rhs: Value, name: str = ""
    ) -> None:
        super().__init__(i1, name)
        self.pred = pred
        self.lhs = lhs
        self.rhs = rhs

    def operands(self) -> list[Value]:
        return [self.lhs, self.rhs]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.lhs is old:
            self.lhs = new
        if self.rhs is old:
            self.rhs = new


class FCmpPred(enum.Enum):
    __hash__ = object.__hash__  # a hot dictionary key

    OEQ = "oeq"
    #: ordered and unequal: false when an operand is NaN
    ONE = "one"
    OLT = "olt"
    OLE = "ole"
    OGT = "ogt"
    OGE = "oge"
    #: unordered or unequal: C's ``!=``, true when an operand is NaN
    UNE = "une"


class FCmpInst(Instruction):
    opcode = "fcmp"

    def __init__(
        self, pred: FCmpPred, lhs: Value, rhs: Value, name: str = ""
    ) -> None:
        super().__init__(i1, name)
        self.pred = pred
        self.lhs = lhs
        self.rhs = rhs

    def operands(self) -> list[Value]:
        return [self.lhs, self.rhs]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.lhs is old:
            self.lhs = new
        if self.rhs is old:
            self.rhs = new


# ---------------------------------------------------------------------------
# Casts
# ---------------------------------------------------------------------------
class CastOp(enum.Enum):
    __hash__ = object.__hash__  # a hot dictionary key

    TRUNC = "trunc"
    ZEXT = "zext"
    SEXT = "sext"
    FPTOSI = "fptosi"
    FPTOUI = "fptoui"
    SITOFP = "sitofp"
    UITOFP = "uitofp"
    FPTRUNC = "fptrunc"
    FPEXT = "fpext"
    PTRTOINT = "ptrtoint"
    INTTOPTR = "inttoptr"
    BITCAST = "bitcast"


class CastInst(Instruction):
    opcode = "cast"

    def __init__(
        self, op: CastOp, value: Value, to_type: IRType, name: str = ""
    ) -> None:
        super().__init__(to_type, name)
        self.op = op
        self.value = value

    def operands(self) -> list[Value]:
        return [self.value]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.value is old:
            self.value = new


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------
class AllocaInst(Instruction):
    opcode = "alloca"

    def __init__(
        self,
        allocated_type: IRType,
        array_size: Value | None = None,
        name: str = "",
    ) -> None:
        from repro.ir.types import ptr

        super().__init__(ptr, name)
        self.allocated_type = allocated_type
        self.array_size = array_size

    def operands(self) -> list[Value]:
        return [self.array_size] if self.array_size is not None else []

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.array_size is old:
            self.array_size = new


class LoadInst(Instruction):
    opcode = "load"

    def __init__(
        self, loaded_type: IRType, pointer: Value, name: str = ""
    ) -> None:
        super().__init__(loaded_type, name)
        self.pointer = pointer

    def operands(self) -> list[Value]:
        return [self.pointer]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.pointer is old:
            self.pointer = new


class StoreInst(Instruction):
    opcode = "store"

    def __init__(self, value: Value, pointer: Value) -> None:
        super().__init__(void_t)
        self.value = value
        self.pointer = pointer

    def operands(self) -> list[Value]:
        return [self.value, self.pointer]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.value is old:
            self.value = new
        if self.pointer is old:
            self.pointer = new


class GEPInst(Instruction):
    """``getelementptr`` restricted to the two forms CodeGen emits:
    pointer + index scaling over *element_type*, and struct field access
    (struct index list)."""

    opcode = "getelementptr"

    def __init__(
        self,
        element_type: IRType,
        pointer: Value,
        indices: Sequence[Value],
        name: str = "",
    ) -> None:
        from repro.ir.types import ptr

        super().__init__(ptr, name)
        self.element_type = element_type
        self.pointer = pointer
        self.indices = list(indices)

    def operands(self) -> list[Value]:
        return [self.pointer, *self.indices]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.pointer is old:
            self.pointer = new
        self.indices = [
            new if idx is old else idx for idx in self.indices
        ]


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------
class BranchInst(Instruction):
    opcode = "br"
    is_terminator = True

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__(void_t)
        self.target = target

    def successors(self) -> list["BasicBlock"]:
        return [self.target]

    def operands(self) -> list[Value]:
        return []

    def replace_operand(self, old: Value, new: Value) -> None:
        pass


class CondBranchInst(Instruction):
    opcode = "br"
    is_terminator = True

    def __init__(
        self,
        condition: Value,
        true_block: "BasicBlock",
        false_block: "BasicBlock",
    ) -> None:
        super().__init__(void_t)
        self.condition = condition
        self.true_block = true_block
        self.false_block = false_block

    def successors(self) -> list["BasicBlock"]:
        return [self.true_block, self.false_block]

    def operands(self) -> list[Value]:
        return [self.condition]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.condition is old:
            self.condition = new


class SwitchInst(Instruction):
    opcode = "switch"
    is_terminator = True

    def __init__(
        self,
        condition: Value,
        default: "BasicBlock",
        cases: Sequence[tuple[int, "BasicBlock"]] = (),
    ) -> None:
        super().__init__(void_t)
        self.condition = condition
        self.default = default
        self.cases: list[tuple[int, "BasicBlock"]] = list(cases)

    def add_case(self, value: int, block: "BasicBlock") -> None:
        self.cases.append((value, block))

    def successors(self) -> list["BasicBlock"]:
        return [self.default, *(b for _, b in self.cases)]

    def operands(self) -> list[Value]:
        return [self.condition]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.condition is old:
            self.condition = new


class ReturnInst(Instruction):
    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Value | None = None) -> None:
        super().__init__(void_t)
        self.value = value

    def operands(self) -> list[Value]:
        return [self.value] if self.value is not None else []

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.value is old:
            self.value = new


class UnreachableInst(Instruction):
    opcode = "unreachable"
    is_terminator = True

    def __init__(self) -> None:
        super().__init__(void_t)

    def replace_operand(self, old: Value, new: Value) -> None:
        pass


# ---------------------------------------------------------------------------
# Other
# ---------------------------------------------------------------------------
class PhiInst(Instruction):
    opcode = "phi"

    def __init__(self, type: IRType, name: str = "") -> None:
        super().__init__(type, name)
        self.incoming: list[tuple[Value, "BasicBlock"]] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self.incoming.append((value, block))

    def incoming_for(self, block: "BasicBlock") -> Value | None:
        for value, pred in self.incoming:
            if pred is block:
                return value
        return None

    def operands(self) -> list[Value]:
        return [v for v, _ in self.incoming]

    def replace_operand(self, old: Value, new: Value) -> None:
        self.incoming = [
            (new if v is old else v, b) for v, b in self.incoming
        ]

    def replace_incoming_block(
        self, old: "BasicBlock", new: "BasicBlock"
    ) -> None:
        self.incoming = [
            (v, new if b is old else b) for v, b in self.incoming
        ]


class SelectInst(Instruction):
    opcode = "select"

    def __init__(
        self,
        condition: Value,
        true_value: Value,
        false_value: Value,
        name: str = "",
    ) -> None:
        super().__init__(true_value.type, name)
        self.condition = condition
        self.true_value = true_value
        self.false_value = false_value

    def operands(self) -> list[Value]:
        return [self.condition, self.true_value, self.false_value]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.condition is old:
            self.condition = new
        if self.true_value is old:
            self.true_value = new
        if self.false_value is old:
            self.false_value = new


class CallInst(Instruction):
    opcode = "call"

    def __init__(
        self,
        callee: Value,
        args: Sequence[Value],
        return_type: IRType,
        name: str = "",
    ) -> None:
        super().__init__(return_type, name)
        self.callee = callee
        self.args = list(args)

    def operands(self) -> list[Value]:
        return [self.callee, *self.args]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.callee is old:
            self.callee = new
        self.args = [new if a is old else a for a in self.args]
