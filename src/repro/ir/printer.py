"""Textual IR printer (``.ll``-style).

Output is fully deterministic for a given module: functions, globals and
blocks print in their (stable) insertion order, value names come from
per-function counters, and metadata nodes are numbered *locally* in
first-reference order (``!0``, ``!1``, ...) rather than by their
process-global creation id.  Local numbering is what makes two prints of
structurally identical modules byte-equal even when unrelated metadata
was created in between — the property ``-print-changed`` diffs and
snapshot tests rely on.
"""

from __future__ import annotations

from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from repro.ir.metadata import MDNode
from repro.ir.module import BasicBlock, Function, Module, predecessor_map


class ModulePrinter:
    def __init__(self) -> None:
        #: referenced metadata nodes, in first-reference order; the list
        #: index is the node's local print id
        self._md_nodes: list[MDNode] = []
        self._md_ids: dict[int, int] = {}  # id(node) -> local id

    # ------------------------------------------------------------------
    def print_module(self, module: Module) -> str:
        lines: list[str] = [f"; ModuleID = '{module.name}'", ""]
        for gv in module.globals.values():
            init = "zeroinitializer"
            if gv.initializer is not None:
                init = gv.initializer.ref()
            elif gv.initializer_bytes is not None:
                escaped = "".join(
                    chr(b) if 32 <= b < 127 and b not in (34, 92)
                    else f"\\{b:02X}"
                    for b in gv.initializer_bytes
                )
                init = f'c"{escaped}"'
            kind = "constant" if gv.is_constant else "global"
            lines.append(
                f"@{gv.name} = {kind} {gv.value_type} {init}"
            )
        if module.globals:
            lines.append("")
        for fn in module.functions.values():
            if fn.is_declaration:
                lines.append(self._print_declaration(fn))
        lines.append("")
        for fn in module.functions.values():
            if not fn.is_declaration and fn.blocks:
                lines.append(self.print_function(fn))
                lines.append("")
        # _md_body may discover further nodes; iterate the growing list.
        i = 0
        while i < len(self._md_nodes):
            lines.append(f"!{i} = {self._md_body(self._md_nodes[i])}")
            i += 1
        return "\n".join(lines)

    def _print_declaration(self, fn: Function) -> str:
        params = ", ".join(str(p) for p in fn.fn_type.params)
        if fn.fn_type.is_variadic:
            params = f"{params}, ..." if params else "..."
        return f"declare {fn.return_type} @{fn.name}({params})"

    def print_function(self, fn: Function) -> str:
        params = ", ".join(
            f"{arg.type} %{arg.name}" for arg in fn.args
        )
        lines = [f"define {fn.return_type} @{fn.name}({params}) {{"]
        pred_map = predecessor_map(fn)
        for block in fn.blocks:
            preds = ", ".join(f"%{p.name}" for p in pred_map[id(block)])
            header = f"{block.name}:"
            if preds:
                header = f"{header:50s}; preds = {preds}"
            lines.append(header)
            for inst in block.instructions:
                lines.append(f"  {self.print_instruction(inst)}")
        lines.append("}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _md_ref(self, node: MDNode) -> str:
        local = self._md_ids.get(id(node))
        if local is None:
            local = len(self._md_nodes)
            self._md_ids[id(node)] = local
            self._md_nodes.append(node)
            for op in node.operands:
                if isinstance(op, MDNode) and op is not node:
                    self._md_ref(op)
        return f"!{local}"

    def _md_body(self, node: MDNode) -> str:
        parts = []
        for op in node.operands:
            if op is None:
                parts.append("null")
            elif isinstance(op, MDNode):
                parts.append(self._md_ref(op))
            elif isinstance(op, int):
                parts.append(f"i32 {op}")
            else:
                parts.append(str(op))
        prefix = "distinct " if node.distinct else ""
        return prefix + "!{" + ", ".join(parts) + "}"

    def _metadata_suffix(self, inst: Instruction) -> str:
        if not inst.metadata:
            return ""
        parts = [
            f"!{key} {self._md_ref(node)}"
            for key, node in inst.metadata.items()
        ]
        return ", " + ", ".join(parts)

    # ------------------------------------------------------------------
    def print_instruction(self, inst: Instruction) -> str:
        md = self._metadata_suffix(inst)
        if isinstance(inst, BinaryInst):
            return (
                f"%{inst.name} = {inst.op.value} {inst.lhs.type} "
                f"{inst.lhs.ref()}, {inst.rhs.ref()}{md}"
            )
        if isinstance(inst, ICmpInst):
            return (
                f"%{inst.name} = icmp {inst.pred.value} "
                f"{inst.lhs.type} {inst.lhs.ref()}, {inst.rhs.ref()}{md}"
            )
        if isinstance(inst, FCmpInst):
            return (
                f"%{inst.name} = fcmp {inst.pred.value} "
                f"{inst.lhs.type} {inst.lhs.ref()}, {inst.rhs.ref()}{md}"
            )
        if isinstance(inst, CastInst):
            return (
                f"%{inst.name} = {inst.op.value} {inst.value.type} "
                f"{inst.value.ref()} to {inst.type}{md}"
            )
        if isinstance(inst, AllocaInst):
            size = (
                f", {inst.array_size.type} {inst.array_size.ref()}"
                if inst.array_size is not None
                else ""
            )
            return f"%{inst.name} = alloca {inst.allocated_type}{size}{md}"
        if isinstance(inst, LoadInst):
            return (
                f"%{inst.name} = load {inst.type}, ptr "
                f"{inst.pointer.ref()}{md}"
            )
        if isinstance(inst, StoreInst):
            return (
                f"store {inst.value.type} {inst.value.ref()}, ptr "
                f"{inst.pointer.ref()}{md}"
            )
        if isinstance(inst, GEPInst):
            indices = ", ".join(
                f"{idx.type} {idx.ref()}" for idx in inst.indices
            )
            return (
                f"%{inst.name} = getelementptr {inst.element_type}, "
                f"ptr {inst.pointer.ref()}, {indices}{md}"
            )
        if isinstance(inst, BranchInst):
            return f"br label %{inst.target.name}{md}"
        if isinstance(inst, CondBranchInst):
            return (
                f"br i1 {inst.condition.ref()}, "
                f"label %{inst.true_block.name}, "
                f"label %{inst.false_block.name}{md}"
            )
        if isinstance(inst, SwitchInst):
            cases = " ".join(
                f"i64 {value}, label %{block.name}"
                for value, block in inst.cases
            )
            return (
                f"switch {inst.condition.type} {inst.condition.ref()}, "
                f"label %{inst.default.name} [ {cases} ]{md}"
            )
        if isinstance(inst, ReturnInst):
            if inst.value is None:
                return f"ret void{md}"
            return f"ret {inst.value.type} {inst.value.ref()}{md}"
        if isinstance(inst, UnreachableInst):
            return f"unreachable{md}"
        if isinstance(inst, PhiInst):
            incoming = ", ".join(
                f"[ {value.ref()}, %{block.name} ]"
                for value, block in inst.incoming
            )
            return f"%{inst.name} = phi {inst.type} {incoming}{md}"
        if isinstance(inst, SelectInst):
            return (
                f"%{inst.name} = select i1 {inst.condition.ref()}, "
                f"{inst.true_value.type} {inst.true_value.ref()}, "
                f"{inst.false_value.type} {inst.false_value.ref()}{md}"
            )
        if isinstance(inst, CallInst):
            args = ", ".join(
                f"{a.type} {a.ref()}" for a in inst.args
            )
            callee = inst.callee.ref()
            if inst.type.is_void:
                return f"call void {callee}({args}){md}"
            return (
                f"%{inst.name} = call {inst.type} {callee}({args}){md}"
            )
        raise NotImplementedError(type(inst).__name__)


def print_module(module: Module) -> str:
    return ModulePrinter().print_module(module)


def print_function(fn: Function) -> str:
    return ModulePrinter().print_function(fn)
