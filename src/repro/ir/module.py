"""Module / Function / BasicBlock containers."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.ir.instructions import Instruction, PhiInst
from repro.ir.types import FunctionType, IRType, label_t, ptr
from repro.ir.values import Argument, GlobalValue, GlobalVariable, Value


class BasicBlock(Value):
    """A straight-line instruction sequence ending in one terminator."""

    def __init__(self, name: str = "") -> None:
        super().__init__(label_t, name)
        self.parent: Optional["Function"] = None
        self.instructions: list[Instruction] = []

    # ------------------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []

    def predecessors(self) -> list["BasicBlock"]:
        """Blocks branching here, once each, in function order.  Scans
        the whole function: callers asking for every block's
        predecessors use :func:`predecessor_map` instead."""
        assert self.parent is not None
        return predecessor_map(self.parent)[id(self)]

    def phis(self) -> list[PhiInst]:
        return [
            inst
            for inst in self.instructions
            if isinstance(inst, PhiInst)
        ]

    def non_phi_begin(self) -> int:
        for i, inst in enumerate(self.instructions):
            if not isinstance(inst, PhiInst):
                return i
        return len(self.instructions)

    def ref(self) -> str:
        return f"%{self.name}"

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name}>"


def predecessor_map(fn: "Function") -> dict[int, list[BasicBlock]]:
    """block id -> :meth:`BasicBlock.predecessors`, for every block of
    *fn* in one pass over its edges.

    Lists match ``predecessors()`` exactly: each predecessor appears
    once (a ``condbr`` or ``switch`` repeating a target lists its block
    once), in ``fn.blocks`` order.  Edges to blocks outside *fn* are
    ignored.  The map is a snapshot; passes that rewrite edges update
    it themselves."""
    preds: dict[int, list[BasicBlock]] = {id(b): [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors():
            into = preds.get(id(succ))
            # One block's edges are appended consecutively, so a repeat
            # target is always the list's last entry.
            if into is not None and (not into or into[-1] is not block):
                into.append(block)
    return preds


class Function(GlobalValue):
    """A function definition or declaration."""

    def __init__(
        self,
        name: str,
        fn_type: FunctionType,
        module: Optional["Module"] = None,
    ) -> None:
        super().__init__(ptr, name)
        self.fn_type = fn_type
        self.module = module
        self.args: list[Argument] = [
            Argument(pty, f"arg{i}", i)
            for i, pty in enumerate(fn_type.params)
        ]
        self.blocks: list[BasicBlock] = []
        self._name_counter: dict[str, int] = {}
        #: native implementation hook: the interpreter calls this instead
        #: of interpreting blocks (used for runtime/libc builtins)
        self.native_impl = None

    # ------------------------------------------------------------------
    @property
    def is_declaration(self) -> bool:
        return not self.blocks and self.native_impl is None

    @property
    def return_type(self) -> IRType:
        return self.fn_type.return_type

    @property
    def entry_block(self) -> BasicBlock:
        return self.blocks[0]

    def append_block(
        self, name: str = "", after: BasicBlock | None = None
    ) -> BasicBlock:
        block = BasicBlock(self.unique_name(name or "bb"))
        block.parent = self
        if after is not None:
            idx = self.blocks.index(after)
            self.blocks.insert(idx + 1, block)
        else:
            self.blocks.append(block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None

    def unique_name(self, base: str) -> str:
        count = self._name_counter.get(base)
        if count is None:
            self._name_counter[base] = 1
            return base
        self._name_counter[base] = count + 1
        return f"{base}.{count}"

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"<Function {kind} @{self.name}>"


class Module:
    """One translation unit's IR."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVariable] = {}
        #: named metadata (e.g. distinct loop IDs); informational
        self.named_metadata: dict[str, object] = {}

    def add_function(
        self, name: str, fn_type: FunctionType
    ) -> Function:
        existing = self.functions.get(name)
        if existing is not None:
            return existing
        fn = Function(name, fn_type, self)
        self.functions[name] = fn
        return fn

    def get_function(self, name: str) -> Function | None:
        return self.functions.get(name)

    def add_global(
        self,
        name: str,
        value_type: IRType,
        initializer=None,
        is_constant: bool = False,
    ) -> GlobalVariable:
        existing = self.globals.get(name)
        if existing is not None:
            return existing
        gv = GlobalVariable(name, value_type, initializer, is_constant)
        self.globals[name] = gv
        return gv

    def unique_global_name(self, base: str) -> str:
        if base not in self.globals and base not in self.functions:
            return base
        i = 1
        while f"{base}.{i}" in self.globals or f"{base}.{i}" in self.functions:
            i += 1
        return f"{base}.{i}"

    def __repr__(self) -> str:
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
