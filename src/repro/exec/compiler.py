"""The closure compiler: optimized IR -> pre-compiled Python closures.

One closure per *instruction*, one :class:`BlockCode` per basic block.
Operands are resolved at compile time to dense register-file slots —
constants (including global and function addresses, which are fixed per
interpreter instance) live in a constant pool appended to the register
file, so every operand read is a single ``regs[i]`` index.  Control flow
is pre-linked: a branch closure captures the target block's op list and
its per-edge phi parallel copy, so taking an edge is two attribute
stores and no lookups (block parameters are "passed explicitly" in the
block-argument sense — each edge knows exactly which slots to move).

Every block also carries two *run tables*: for each run a loop may
retire back to back in one dispatch, one generated Python function and
the run's length.

* A **serial run** starts at the block's entry index or just after a
  call and ends before the first call, ``ret`` or ``unreachable``
  (otherwise it includes the terminator).  Nothing in it can push or pop
  a frame or change the thread's state, so the serial loop
  (:meth:`repro.exec.engine.ClosureContext.run_to_completion`) runs it
  whole while the fuel budget exceeds its length.  An op that can raise
  (a load or store fault, a division by a register zero, ``int()`` or
  ``float()`` on a stored value, a fallback closure) first stores its
  own index in ``frame.index``, so the loop still retires exactly the
  ops up to the raiser.
* A **thread-local run** holds only ops that touch nothing but the
  frame's registers and the thread's private stack slots and cannot
  raise: integer and floating add/sub/mul, ``fdiv``, bitwise ops and
  shifts, div/rem by a nonzero constant, ``icmp``/``fcmp``/``select``,
  constant-shaped ``gep``, ``zext``/``sext``/``trunc``, branches with
  their phi copies, and loads and stores of a private slot.  A slot is
  private when its ``alloca``'s address goes only to loads and stores
  of the slot's own integer or pointer type and to runtime entry points
  that do not keep it (:data:`repro.runtime.kmp.NOCAPTURE`, such as
  ``__kmpc_for_static_init_4u`` filling a thread's ``.omp.lb`` and
  ``.omp.ub``): no other thread can learn the address, and such an
  access is in bounds by construction.  (A program that reaches a slot
  through a pointer to another object, or to a dead frame, has
  undefined behaviour in C.)  The order of these ops against other
  threads' instructions is unobservable, so the team scheduler
  (:meth:`repro.runtime.team.Team.run`) may retire them ahead of its
  lockstep clock; they need no index bookkeeping.  Other loads and
  stores, ``alloca``, calls, ``ret``, fp->int casts (``int(inf)``
  raises), ``frem`` (``math.fmod`` raises on infinities), f32 narrowing
  (``struct.pack`` overflows) and every compile-time raiser are not
  local.

A run function's source is printed in the same compile step as the
closures: each op compiles to its closure *and* to one source fragment
(:meth:`ClosureCompiler._compile_inst`), with operands spelled
``regs[<slot>]``, integer constants as literals and float constants
left in their pool slot (``inf`` and ``nan`` have no literal).  An op
the printer does not inline (``alloca``, aggregate loads and stores,
the generic ``gep``, ``switch``, lazily raising ops) is called as its
closure.  Instruction semantics therefore live in two places, the
closure and the fragment; ``tests/unit/test_exec_codegen.py`` is the
guard that keeps them equal.

The source holds only integers, slot indices and fixed operator text —
never an IR name, string or user identifier — and nothing that belongs
to one interpreter: ``Memory.data``, ``Memory.fault``, branch targets
and fallback closures are parameters of a factory
``make(data, fault, ...)`` that returns the run function.  One
process-wide table maps source text to the factory's code object
(:data:`RUN_CODE_CAP` entries at most), so an interpreter pays only for
``FunctionType(code, globals)(*objects)`` when a run's shape was seen
before, in this program or another.  A run function is built on the
run's first call, so runs that never execute cost no source.

Scheduling stays exactly what one-instruction-per-``step()`` lockstep
produces: the runtime's observable semantics (round-robin interleaving,
FIFO dynamic dispatch, ``critical`` spin order, printf ordering, fuel
exhaustion point) only ever see non-local instructions, and those still
retire one at a time in lockstep order.  Compiling one closure per
instruction removes the per-step operand dispatch (``isinstance``
chains, ``id()``-keyed register dicts, ``value_of`` constant
re-evaluation) that dominates the tree walker; the run functions remove
the per-instruction trips through the dispatch loop and the per-op
call, ``frame.regs`` load and ``frame.index`` store.

Semantics-parity rules mirrored from
:class:`repro.interp.interpreter.ExecutionContext` (the reference):

* anything the interpreter raises lazily must stay lazy here — a
  compile-time failure on one instruction becomes a closure that raises
  the same exception only when that instruction executes;
* phi nodes are resolved on the edge as a parallel copy and are never
  retired as instructions (the entry index after a jump skips them);
* natives see C-signed argument values, may return ``RETRY`` to spin,
  and void-typed calls discard results — exactly as the interpreter.
"""

from __future__ import annotations

import builtins
import math
import operator
import struct
import zlib
from types import CodeType, FunctionType
from typing import TYPE_CHECKING, Any, Callable

from repro.interp.interpreter import (
    RETRY,
    InterpreterError,
    ThreadState,
    Trap,
)
from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BinOp,
    BranchInst,
    CallInst,
    CastInst,
    CastOp,
    CondBranchInst,
    FCmpInst,
    FCmpPred,
    GEPInst,
    ICmpInst,
    ICmpPred,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
)
from repro.ir.values import (
    Argument,
    ConstantFP,
    ConstantInt,
    ConstantPointerNull,
    GlobalVariable,
    UndefValue,
)
from repro.runtime.kmp import NOCAPTURE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.engine import ClosureInterpreter

_DONE = ThreadState.DONE

#: struct codecs for the specialized load/store closures
_INT_STRUCTS = {
    1: struct.Struct("<B"),
    8: struct.Struct("<B"),
    16: struct.Struct("<H"),
    32: struct.Struct("<I"),
    64: struct.Struct("<Q"),
}
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_F32_RT = struct.Struct("f")


def _f32(value: float) -> float:
    """Round-trip through single precision (the interpreter's idiom)."""
    return _F32_RT.unpack(_F32_RT.pack(value))[0]


def _div0() -> None:
    raise Trap("division by zero")


def _fdiv0(lhs: float) -> float:
    """``lhs / 0.0`` as the interpreter defines it."""
    return (
        float("inf") if lhs > 0 else float("-inf") if lhs < 0
        else float("nan")
    )


def _frem(lhs: float, rhs: float) -> float:
    return math.fmod(lhs, rhs) if rhs != 0 else float("nan")


#: most factory code objects kept in :data:`_RUN_CODE`
RUN_CODE_CAP = 1 << 10

#: generated run source -> code object of its ``make`` factory, shared
#: by every interpreter in the process (oldest entry evicted first)
_RUN_CODE: dict[str, CodeType] = {}

#: the only globals generated run code sees: fixed helpers and codecs
_RUN_GLOBALS = {
    "__builtins__": builtins,
    "_div0": _div0,
    "_fdiv0": _fdiv0,
    "_frem": _frem,
    "_f32": _f32,
    **{f"_u{bits}": c.unpack_from for bits, c in _INT_STRUCTS.items()},
    **{f"_p{bits}": c.pack_into for bits, c in _INT_STRUCTS.items()},
    "_uf32": _F32.unpack_from,
    "_uf64": _F64.unpack_from,
    "_pf32": _F32.pack_into,
    "_pf64": _F64.pack_into,
}


def _factory_code(source: str) -> CodeType:
    """The code object of the ``make`` factory *source* defines,
    compiled once per process while the table has room.  Its file name
    is a CRC of *source*, so a profile has one row per run shape.
    (``zlib`` is loaded already; ``hashlib`` would load OpenSSL into
    every process that runs a program.)"""
    code = _RUN_CODE.get(source)
    if code is None:
        digest = zlib.crc32(source.encode())
        module = compile(source, f"<run {digest:08x}>", "exec")
        code = next(c for c in module.co_consts if isinstance(c, CodeType))
        if len(_RUN_CODE) >= RUN_CODE_CAP:
            del _RUN_CODE[next(iter(_RUN_CODE))]
        _RUN_CODE[source] = code
    return code


def _signed(expr: str, mask: int, half: int) -> str:
    """Source of the C-signed value of *expr* (an atom)."""
    return f"(({expr} & {mask}) ^ {half}) - {half}"


def _indent(text: str, width: int = 4) -> str:
    pad = " " * width
    return pad + text.replace("\n", "\n" + pad)


class BlockCode:
    """Compiled form of one basic block: ``ops[i]`` executes
    ``block.instructions[i]``.  A sentinel op at ``ops[len]`` reports
    falling off the end (malformed IR), like the interpreter's bounds
    check."""

    __slots__ = (
        "block", "ops", "entry_index", "descs", "runs", "local_runs",
    )

    def __init__(self, block: BasicBlock) -> None:
        self.block = block
        self.ops: list[Callable] = []
        #: index execution enters at after a jump (skips leading phis)
        self.entry_index = 0
        #: deterministic per-op descriptions (the "dispatch table" the
        #: determinism property test asserts on)
        self.descs: list[str] = []
        #: ``runs[i]``: ``(function, length)`` of the serial run
        #: starting at op *i*, or None
        self.runs: list[tuple[Callable, int] | None] = []
        #: ``local_runs[i]``: ``(function, length)`` of the thread-local
        #: run starting at op *i*, or None
        self.local_runs: list[tuple[Callable, int] | None] = []


class CompiledFunction:
    """Dispatch tables for one function under one interpreter instance.

    The register file layout is ``[args..., instruction results...,
    constant pool...]``; ``regs_template`` is copied per frame so
    constants need no runtime resolution at all."""

    __slots__ = (
        "fn",
        "slots",
        "arg_slots",
        "n_values",
        "consts",
        "const_index",
        "regs_template",
        "blocks",
        "entry",
    )

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        #: id(Value) -> register slot, for Arguments and Instructions
        self.slots: dict[int, int] = {}
        self.arg_slots: list[int] = []
        self.n_values = 0
        self.consts: list[Any] = []
        #: (type, value) -> pooled slot; per function because compiling
        #: a call compiles the callee in the middle of the caller
        self.const_index: dict[tuple, int] = {}
        self.regs_template: list[Any] = []
        self.blocks: dict[int, BlockCode] = {}
        self.entry: BlockCode | None = None

    def describe(self) -> str:
        """Deterministic text rendering of the dispatch table; byte-equal
        for byte-equal input IR (same IR -> same dispatch table)."""
        lines = [
            f"function @{self.fn.name}: {self.n_values} value slot(s), "
            f"{len(self.consts)} constant(s)"
        ]
        for block in self.fn.blocks:
            code = self.blocks[id(block)]
            lines.append(
                f"  block %{block.name} (entry at {code.entry_index}):"
            )
            lines.extend(
                f"    [{i}] {desc}" for i, desc in enumerate(code.descs)
            )
        return "\n".join(lines)


class ClosureCompiler:
    """Compiles functions of one module for one interpreter instance.

    Bound to the instance because global addresses, function
    pseudo-addresses and resolved natives are baked into the closures."""

    def __init__(self, interp: "ClosureInterpreter") -> None:
        self.interp = interp

    # ------------------------------------------------------------------
    # Entry point (two-phase, so mutually recursive calls can link)
    # ------------------------------------------------------------------
    def compile(self, code: CompiledFunction) -> None:
        fn = code.fn
        n = 0
        for arg in fn.args:
            code.slots[id(arg)] = n
            code.arg_slots.append(n)
            n += 1
        for block in fn.blocks:
            code.blocks[id(block)] = BlockCode(block)
            for inst in block.instructions:
                code.slots[id(inst)] = n
                n += 1
        code.n_values = n
        code.entry = code.blocks[id(fn.entry_block)]
        private = _private_slots(fn)
        for block in fn.blocks:
            self._compile_block(code, block, private)
        code.regs_template = [None] * code.n_values + code.consts

    # ------------------------------------------------------------------
    # Operand resolution
    # ------------------------------------------------------------------
    def _const_slot(self, code: CompiledFunction, value: Any) -> int:
        key = (value.__class__, value)
        try:
            slot = code.const_index.get(key)
        except TypeError:  # unhashable (never for int/float) — append
            slot = None
            key = None
        if slot is None:
            slot = code.n_values + len(code.consts)
            code.consts.append(value)
            if key is not None:
                code.const_index[key] = slot
        return slot

    def _slot(self, code: CompiledFunction, v) -> int:
        """Register slot holding *v* at run time (constants are pooled).

        Raises for values the interpreter cannot evaluate either; the
        caller turns that into a lazily-raising op for parity."""
        if isinstance(v, (Instruction, Argument)):
            slot = code.slots.get(id(v))
            if slot is None:
                raise InterpreterError(
                    f"use of value %{v.name} before definition in "
                    f"@{code.fn.name}"
                )
            return slot
        if isinstance(v, ConstantInt):
            return self._const_slot(code, v.value)
        if isinstance(v, ConstantFP):
            return self._const_slot(code, v.value)
        if isinstance(v, (ConstantPointerNull, UndefValue)):
            return self._const_slot(code, 0)
        if isinstance(v, Function):
            return self._const_slot(
                code, self.interp.memory.address_of_function(v)
            )
        if isinstance(v, GlobalVariable):
            return self._const_slot(code, self.interp.global_address(v))
        raise InterpreterError(f"cannot evaluate {v!r}")

    def _operand(self, code: CompiledFunction, v) -> tuple[int, str]:
        """*v*'s register slot and its spelling in run source: an int
        literal for an integer constant, ``regs[<slot>]`` otherwise."""
        slot = self._slot(code, v)
        if isinstance(v, ConstantInt):
            return slot, str(v.value)
        if isinstance(v, (ConstantPointerNull, UndefValue)):
            return slot, "0"
        return slot, f"regs[{slot}]"

    def _ref(self, v) -> str:
        """Stable operand spelling for dispatch-table descriptions."""
        try:
            return v.ref()
        except Exception:  # pragma: no cover - defensive
            return "<operand>"

    # ------------------------------------------------------------------
    # Block compilation
    # ------------------------------------------------------------------
    def _compile_block(
        self, code: CompiledFunction, block: BasicBlock, private: set[int]
    ) -> None:
        bc = code.blocks[id(block)]
        phis = 0
        #: per op: its run-source fragment and the objects it names, or
        #: None to call the closure
        srcs: list[tuple[str, tuple] | None] = []
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, PhiInst) and phis == index:
                phis += 1
            try:
                op, desc, src = self._compile_inst(code, block, inst, index)
            except Exception as exc:
                # Parity: the interpreter evaluates lazily, so anything
                # we cannot compile must fail only when executed.
                op = _raiser(exc)
                desc = f"raise {type(exc).__name__}: {exc}"
                src = None
            bc.ops.append(op)
            bc.descs.append(desc)
            srcs.append(src)
        bc.entry_index = phis
        self._build_runs(bc, srcs, private)
        bc.ops.append(_fell_off(block.name))

    def _build_runs(
        self, bc: BlockCode, srcs: list, private: set[int]
    ) -> None:
        """One classification pass over the block fills both run
        tables (see the module docstring); *private* holds the ids of
        the function's private stack slots.  Serial runs of one op are
        left out: a single step is cheaper."""
        insts = bc.block.instructions
        ops = bc.ops
        n = len(ops)
        local = [
            _is_local(inst, op, private) for inst, op in zip(insts, ops)
        ]
        stops = [
            isinstance(inst, (CallInst, ReturnInst, UnreachableInst))
            for inst in insts
        ]
        runs: list[tuple | None] = [None] * (n + 1)
        local_runs: list[tuple | None] = [None] * (n + 1)
        entry = bc.entry_index
        for start in range(entry, n):
            if start == entry or stops[start - 1]:
                end = start
                while end < n and not stops[end]:
                    end += 1
                if end - start > 1:
                    runs[start] = self._first_call(bc, srcs, start, end, runs)
            if local[start] and (start == entry or not local[start - 1]):
                end = start
                while end < n and local[end]:
                    end += 1
                local_runs[start] = self._first_call(
                    bc, srcs, start, end, local_runs
                )
        bc.runs = runs
        bc.local_runs = local_runs

    def _first_call(
        self, bc: BlockCode, srcs: list, start: int, end: int, table: list
    ) -> tuple[Callable, int]:
        """The run's table entry until it first executes: a function
        that builds the run function, puts it in *table* and runs it.
        Most runs never execute — a team member retires only local runs,
        the serial loop only serial ones — so building on first call
        keeps their source and code out of the interpreter's set-up."""
        n = end - start

        def build(ctx, frame):
            fn = self.run_function(bc, srcs, start, end)
            table[start] = (fn, n)
            fn(ctx, frame)

        return build, n

    def run_function(
        self, bc: BlockCode, srcs: list, start: int, end: int
    ) -> Callable:
        """The generated function ``run(ctx, frame)`` that retires ops
        *start* .. *end* - 1 of *bc* and leaves ``frame`` where the last
        of them would.  The objects fragment ``i`` names are factory
        parameters ``x<i>_<j>``."""
        params = ["data", "fault"]
        objects: list[Any] = []
        body = ["regs = frame.regs"]
        for i in range(start, end):
            src = srcs[i]
            if src is None:
                params.append(f"x{i}_0")
                objects.append(bc.ops[i])
                body.append(f"frame.index = {i}\nx{i}_0(ctx, frame)")
                continue
            text, named = src
            body.append(text)
            params.extend(f"x{i}_{j}" for j in range(len(named)))
            objects.extend(named)
        if not isinstance(
            bc.block.instructions[end - 1],
            (BranchInst, CondBranchInst, SwitchInst),
        ):
            body.append(f"frame.index = {end}")
        source = (
            f"def make({', '.join(params)}):\n"
            f"    def run(ctx, frame):\n"
            f"{_indent(chr(10).join(body), 8)}\n"
            f"    return run\n"
        )
        memory = self.interp.memory
        return FunctionType(_factory_code(source), _RUN_GLOBALS)(
            memory.data, memory.fault, *objects
        )

    # ------------------------------------------------------------------
    # Instruction compilation
    # ------------------------------------------------------------------
    def _compile_inst(
        self,
        code: CompiledFunction,
        block: BasicBlock,
        inst: Instruction,
        index: int,
    ):
        """``(closure, description, fragment)`` for *inst*; the fragment
        is ``(source, objects)`` for run source or None (see
        :meth:`run_function`)."""
        nxt = index + 1
        if isinstance(inst, BinaryInst):
            return self._compile_binop(code, inst, nxt)
        if isinstance(inst, ICmpInst):
            return self._compile_icmp(code, inst, nxt)
        if isinstance(inst, FCmpInst):
            return self._compile_fcmp(code, inst, nxt)
        if isinstance(inst, CastInst):
            return self._compile_cast(code, inst, nxt)
        if isinstance(inst, AllocaInst):
            return (*self._compile_alloca(code, inst, nxt), None)
        if isinstance(inst, LoadInst):
            return self._compile_load(code, inst, nxt)
        if isinstance(inst, StoreInst):
            return self._compile_store(code, inst, nxt)
        if isinstance(inst, GEPInst):
            return self._compile_gep(code, inst, nxt)
        if isinstance(inst, BranchInst):
            edge, src = self._edge(code, block, inst.target, index)
            return edge, f"br -> %{inst.target.name}", src
        if isinstance(inst, CondBranchInst):
            return self._compile_condbr(code, block, inst, index)
        if isinstance(inst, SwitchInst):
            return (*self._compile_switch(code, block, inst), None)
        if isinstance(inst, ReturnInst):
            return (*self._compile_ret(code, inst), None)
        if isinstance(inst, UnreachableInst):
            return (
                _raiser(Trap("reached 'unreachable' instruction")),
                "unreachable",
                None,
            )
        if isinstance(inst, SelectInst):
            d = code.slots[id(inst)]
            c, sc = self._operand(code, inst.condition)
            t, st = self._operand(code, inst.true_value)
            f, sf = self._operand(code, inst.false_value)

            def op(ctx, frame, d=d, c=c, t=t, f=f, nxt=nxt):
                regs = frame.regs
                regs[d] = regs[t] if regs[c] else regs[f]
                frame.index = nxt

            return (
                op,
                f"r{d} = select r{c} ? r{t} : r{f}",
                (f"regs[{d}] = {st} if {sc} else {sf}", ()),
            )
        if isinstance(inst, PhiInst):
            # Never retired: edges resolve phis and jump past them.
            return (
                _raiser(
                    InterpreterError(
                        "phi encountered outside block entry"
                    )
                ),
                f"phi {self._ref(inst)} (resolved on edges)",
                None,
            )
        if isinstance(inst, CallInst):
            return (*self._compile_call(code, inst, nxt), None)
        raise InterpreterError(
            f"unhandled instruction {type(inst).__name__}"
        )

    # ------------------------------------------------------------------
    def _compile_binop(self, code, inst: BinaryInst, nxt: int):
        d = code.slots[id(inst)]
        a, x = self._operand(code, inst.lhs)
        b, y = self._operand(code, inst.rhs)
        op_kind = inst.op
        desc = (
            f"r{d} = {op_kind.value} r{a}, r{b}  "
            f"; {self._ref(inst.lhs)}, {self._ref(inst.rhs)}"
        )
        if op_kind.is_float_op:
            if op_kind == BinOp.FADD:
                def op(ctx, frame, d=d, a=a, b=b, nxt=nxt):
                    regs = frame.regs
                    regs[d] = regs[a] + regs[b]
                    frame.index = nxt
            elif op_kind == BinOp.FSUB:
                def op(ctx, frame, d=d, a=a, b=b, nxt=nxt):
                    regs = frame.regs
                    regs[d] = regs[a] - regs[b]
                    frame.index = nxt
            elif op_kind == BinOp.FMUL:
                def op(ctx, frame, d=d, a=a, b=b, nxt=nxt):
                    regs = frame.regs
                    regs[d] = regs[a] * regs[b]
                    frame.index = nxt
            elif op_kind == BinOp.FDIV:
                def op(ctx, frame, d=d, a=a, b=b, nxt=nxt):
                    regs = frame.regs
                    lhs, rhs = regs[a], regs[b]
                    regs[d] = lhs / rhs if rhs != 0.0 else _fdiv0(lhs)
                    frame.index = nxt
            else:  # FREM
                def op(ctx, frame, d=d, a=a, b=b, nxt=nxt):
                    regs = frame.regs
                    regs[d] = _frem(regs[a], regs[b])
                    frame.index = nxt
            return op, desc, (_float_binop_source(op_kind, d, x, y, nxt), ())
        ty = inst.type
        assert isinstance(ty, IntType)
        mask = ty.mask
        half = 1 << (ty.bits - 1)
        full = 1 << ty.bits
        bits = ty.bits
        if op_kind == BinOp.ADD:
            def op(ctx, frame, d=d, a=a, b=b, mask=mask, nxt=nxt):
                regs = frame.regs
                regs[d] = (regs[a] + regs[b]) & mask
                frame.index = nxt
        elif op_kind == BinOp.SUB:
            def op(ctx, frame, d=d, a=a, b=b, mask=mask, nxt=nxt):
                regs = frame.regs
                regs[d] = (regs[a] - regs[b]) & mask
                frame.index = nxt
        elif op_kind == BinOp.MUL:
            def op(ctx, frame, d=d, a=a, b=b, mask=mask, nxt=nxt):
                regs = frame.regs
                regs[d] = (regs[a] * regs[b]) & mask
                frame.index = nxt
        elif op_kind == BinOp.UDIV:
            def op(ctx, frame, d=d, a=a, b=b, nxt=nxt):
                regs = frame.regs
                rhs = regs[b]
                if rhs == 0:
                    raise Trap("division by zero")
                regs[d] = regs[a] // rhs
                frame.index = nxt
        elif op_kind == BinOp.UREM:
            def op(ctx, frame, d=d, a=a, b=b, nxt=nxt):
                regs = frame.regs
                rhs = regs[b]
                if rhs == 0:
                    raise Trap("division by zero")
                regs[d] = regs[a] % rhs
                frame.index = nxt
        elif op_kind == BinOp.SDIV:
            def op(
                ctx, frame, d=d, a=a, b=b,
                mask=mask, half=half, full=full, nxt=nxt,
            ):
                regs = frame.regs
                rhs = regs[b]
                if rhs == 0:
                    raise Trap("division by zero")
                sa = regs[a] & mask
                if sa >= half:
                    sa -= full
                sb = rhs & mask
                if sb >= half:
                    sb -= full
                q = abs(sa) // abs(sb)
                if (sa < 0) != (sb < 0):
                    q = -q
                regs[d] = q & mask
                frame.index = nxt
        elif op_kind == BinOp.SREM:
            def op(
                ctx, frame, d=d, a=a, b=b,
                mask=mask, half=half, full=full, nxt=nxt,
            ):
                regs = frame.regs
                rhs = regs[b]
                if rhs == 0:
                    raise Trap("division by zero")
                sa = regs[a] & mask
                if sa >= half:
                    sa -= full
                sb = rhs & mask
                if sb >= half:
                    sb -= full
                q = abs(sa) // abs(sb)
                if (sa < 0) != (sb < 0):
                    q = -q
                regs[d] = (sa - q * sb) & mask
                frame.index = nxt
        elif op_kind == BinOp.AND:
            def op(ctx, frame, d=d, a=a, b=b, nxt=nxt):
                regs = frame.regs
                regs[d] = regs[a] & regs[b]
                frame.index = nxt
        elif op_kind == BinOp.OR:
            def op(ctx, frame, d=d, a=a, b=b, nxt=nxt):
                regs = frame.regs
                regs[d] = regs[a] | regs[b]
                frame.index = nxt
        elif op_kind == BinOp.XOR:
            def op(ctx, frame, d=d, a=a, b=b, nxt=nxt):
                regs = frame.regs
                regs[d] = regs[a] ^ regs[b]
                frame.index = nxt
        elif op_kind == BinOp.SHL:
            def op(
                ctx, frame, d=d, a=a, b=b, mask=mask, bits=bits, nxt=nxt
            ):
                regs = frame.regs
                regs[d] = (regs[a] << (regs[b] % bits)) & mask
                frame.index = nxt
        elif op_kind == BinOp.LSHR:
            def op(ctx, frame, d=d, a=a, b=b, bits=bits, nxt=nxt):
                regs = frame.regs
                regs[d] = regs[a] >> (regs[b] % bits)
                frame.index = nxt
        elif op_kind == BinOp.ASHR:
            def op(
                ctx, frame, d=d, a=a, b=b,
                mask=mask, half=half, full=full, bits=bits, nxt=nxt,
            ):
                regs = frame.regs
                sa = regs[a] & mask
                if sa >= half:
                    sa -= full
                regs[d] = (sa >> (regs[b] % bits)) & mask
                frame.index = nxt
        else:  # pragma: no cover - enum is closed
            raise InterpreterError(f"unhandled binop {op_kind}")
        return op, desc, (_int_binop_source(op_kind, d, x, y, ty, nxt), ())

    # ------------------------------------------------------------------
    def _compile_icmp(self, code, inst: ICmpInst, nxt: int):
        d = code.slots[id(inst)]
        a, x = self._operand(code, inst.lhs)
        b, y = self._operand(code, inst.rhs)
        pred = inst.pred
        cmp = {
            ICmpPred.EQ: operator.eq,
            ICmpPred.NE: operator.ne,
            ICmpPred.SLT: operator.lt,
            ICmpPred.SLE: operator.le,
            ICmpPred.SGT: operator.gt,
            ICmpPred.SGE: operator.ge,
            ICmpPred.ULT: operator.lt,
            ICmpPred.ULE: operator.le,
            ICmpPred.UGT: operator.gt,
            ICmpPred.UGE: operator.ge,
        }[pred]
        desc = f"r{d} = icmp {pred.value} r{a}, r{b}"
        ty = inst.lhs.type
        symbol = _CMP_SYMBOLS[cmp]
        if pred.is_signed and isinstance(ty, IntType):
            mask = ty.mask
            half = 1 << (ty.bits - 1)
            full = 1 << ty.bits
            # x -> (x & mask) ^ half maps signed order onto unsigned
            src = (
                f"regs[{d}] = 1 if ({x} & {mask}) ^ {half} {symbol} "
                f"({y} & {mask}) ^ {half} else 0"
            )

            def op(
                ctx, frame, d=d, a=a, b=b, cmp=cmp,
                mask=mask, half=half, full=full, nxt=nxt,
            ):
                regs = frame.regs
                lhs = regs[a] & mask
                if lhs >= half:
                    lhs -= full
                rhs = regs[b] & mask
                if rhs >= half:
                    rhs -= full
                regs[d] = 1 if cmp(lhs, rhs) else 0
                frame.index = nxt
        else:
            src = f"regs[{d}] = 1 if {x} {symbol} {y} else 0"

            def op(ctx, frame, d=d, a=a, b=b, cmp=cmp, nxt=nxt):
                regs = frame.regs
                regs[d] = 1 if cmp(regs[a], regs[b]) else 0
                frame.index = nxt

        return op, desc, (src, ())

    def _compile_fcmp(self, code, inst: FCmpInst, nxt: int):
        d = code.slots[id(inst)]
        a, x = self._operand(code, inst.lhs)
        b, y = self._operand(code, inst.rhs)
        cmp = {
            FCmpPred.OEQ: operator.eq,
            FCmpPred.ONE: operator.ne,
            FCmpPred.OLT: operator.lt,
            FCmpPred.OLE: operator.le,
            FCmpPred.OGT: operator.gt,
            FCmpPred.OGE: operator.ge,
        }[inst.pred]

        def op(ctx, frame, d=d, a=a, b=b, cmp=cmp, nxt=nxt):
            regs = frame.regs
            regs[d] = 1 if cmp(regs[a], regs[b]) else 0
            frame.index = nxt

        return (
            op,
            f"r{d} = fcmp {inst.pred.value} r{a}, r{b}",
            (f"regs[{d}] = 1 if {x} {_CMP_SYMBOLS[cmp]} {y} else 0", ()),
        )

    # ------------------------------------------------------------------
    def _compile_cast(self, code, inst: CastInst, nxt: int):
        d = code.slots[id(inst)]
        s, x = self._operand(code, inst.value)
        #: ops that may raise store their index first
        at = f"frame.index = {nxt - 1}\n"
        kind = inst.op
        src_ty = inst.value.type
        dst_ty = inst.type
        desc = f"r{d} = {kind.value} r{s} to {dst_ty}"
        if kind == CastOp.TRUNC:
            assert isinstance(dst_ty, IntType)
            mask = dst_ty.mask
            src = f"regs[{d}] = {x} & {mask}"

            def op(ctx, frame, d=d, s=s, mask=mask, nxt=nxt):
                regs = frame.regs
                regs[d] = regs[s] & mask
                frame.index = nxt
        elif kind == CastOp.ZEXT:
            src = f"regs[{d}] = {x}"

            def op(ctx, frame, d=d, s=s, nxt=nxt):
                regs = frame.regs
                regs[d] = regs[s]
                frame.index = nxt
        elif kind == CastOp.SEXT:
            assert isinstance(src_ty, IntType) and isinstance(
                dst_ty, IntType
            )
            smask = src_ty.mask
            shalf = 1 << (src_ty.bits - 1)
            sfull = 1 << src_ty.bits
            dmask = dst_ty.mask
            src = f"regs[{d}] = ({_signed(x, smask, shalf)}) & {dmask}"

            def op(
                ctx, frame, d=d, s=s,
                smask=smask, shalf=shalf, sfull=sfull, dmask=dmask,
                nxt=nxt,
            ):
                regs = frame.regs
                v = regs[s] & smask
                if v >= shalf:
                    v -= sfull
                regs[d] = v & dmask
                frame.index = nxt
        elif kind in (CastOp.FPTOSI, CastOp.FPTOUI):
            assert isinstance(dst_ty, IntType)
            dmask = dst_ty.mask
            src = f"{at}regs[{d}] = int({x}) & {dmask}"

            def op(ctx, frame, d=d, s=s, dmask=dmask, nxt=nxt):
                regs = frame.regs
                regs[d] = int(regs[s]) & dmask
                frame.index = nxt
        elif kind == CastOp.SITOFP:
            assert isinstance(src_ty, IntType)
            smask = src_ty.mask
            shalf = 1 << (src_ty.bits - 1)
            sfull = 1 << src_ty.bits
            narrow = isinstance(dst_ty, FloatType) and dst_ty.bits == 32
            value = f"float({_signed(x, smask, shalf)})"
            src = f"regs[{d}] = {f'_f32({value})' if narrow else value}"

            def op(
                ctx, frame, d=d, s=s,
                smask=smask, shalf=shalf, sfull=sfull, narrow=narrow,
                nxt=nxt,
            ):
                regs = frame.regs
                v = regs[s] & smask
                if v >= shalf:
                    v -= sfull
                result = float(v)
                if narrow:
                    result = _f32(result)
                regs[d] = result
                frame.index = nxt
        elif kind == CastOp.UITOFP:
            narrow = isinstance(dst_ty, FloatType) and dst_ty.bits == 32
            value = f"float({x})"
            src = f"regs[{d}] = {f'_f32({value})' if narrow else value}"

            def op(ctx, frame, d=d, s=s, narrow=narrow, nxt=nxt):
                regs = frame.regs
                result = float(regs[s])
                if narrow:
                    result = _f32(result)
                regs[d] = result
                frame.index = nxt
        elif kind in (CastOp.FPEXT, CastOp.FPTRUNC):
            narrow = isinstance(dst_ty, FloatType) and dst_ty.bits == 32
            # narrowing a double past f32's range overflows
            src = (
                f"{at}regs[{d}] = _f32({x})" if narrow
                else f"regs[{d}] = float({x})"
            )

            def op(ctx, frame, d=d, s=s, narrow=narrow, nxt=nxt):
                regs = frame.regs
                v = regs[s]
                regs[d] = _f32(v) if narrow else float(v)
                frame.index = nxt
        elif kind in (CastOp.PTRTOINT, CastOp.INTTOPTR, CastOp.BITCAST):
            if isinstance(dst_ty, IntType):
                dmask = dst_ty.mask
                src = f"{at}regs[{d}] = int({x}) & {dmask}"

                def op(ctx, frame, d=d, s=s, dmask=dmask, nxt=nxt):
                    regs = frame.regs
                    regs[d] = int(regs[s]) & dmask
                    frame.index = nxt
            else:
                src = f"regs[{d}] = {x}"

                def op(ctx, frame, d=d, s=s, nxt=nxt):
                    regs = frame.regs
                    regs[d] = regs[s]
                    frame.index = nxt
        else:  # pragma: no cover - enum is closed
            raise InterpreterError(f"unhandled cast {kind}")
        return op, desc, (src, ())

    # ------------------------------------------------------------------
    def _compile_alloca(self, code, inst: AllocaInst, nxt: int):
        d = code.slots[id(inst)]
        el_size = inst.allocated_type.size_bytes()
        zero = self.interp.memory.zero
        if inst.array_size is None:
            size = el_size

            def op(ctx, frame, d=d, size=size, zero=zero, nxt=nxt):
                addr = ctx.stack_alloc(size)
                zero(addr, size)
                frame.regs[d] = addr
                frame.index = nxt

            return op, f"r{d} = alloca {inst.allocated_type} ({size}B)"
        c = self._slot(code, inst.array_size)

        def op(
            ctx, frame, d=d, c=c, el_size=el_size, zero=zero, nxt=nxt
        ):
            count = frame.regs[c]
            size = el_size * max(1, count)
            addr = ctx.stack_alloc(size)
            zero(addr, size)
            frame.regs[d] = addr
            frame.index = nxt

        return op, f"r{d} = alloca {inst.allocated_type} x r{c}"

    # ------------------------------------------------------------------
    def _compile_load(self, code, inst: LoadInst, nxt: int):
        d = code.slots[id(inst)]
        p, ptr = self._operand(code, inst.pointer)
        ty = inst.type
        mem = self.interp.memory
        data = mem.data
        fault = mem.fault
        desc = f"r{d} = load {ty}, r{p}"
        if isinstance(ty, IntType) and ty.bits in _INT_STRUCTS:
            codec = _INT_STRUCTS[ty.bits]
            size = ty.size_bytes()
            unpack_from = codec.unpack_from
            if ty.bits == 1:
                def op(
                    ctx, frame, d=d, p=p, data=data, fault=fault,
                    unpack_from=unpack_from, size=size, nxt=nxt,
                ):
                    regs = frame.regs
                    addr = regs[p]
                    if addr <= 0 or addr + size > len(data):
                        fault(addr, size)
                    regs[d] = unpack_from(data, addr)[0] & 1
                    frame.index = nxt
            else:
                def op(
                    ctx, frame, d=d, p=p, data=data, fault=fault,
                    unpack_from=unpack_from, size=size, nxt=nxt,
                ):
                    regs = frame.regs
                    addr = regs[p]
                    if addr <= 0 or addr + size > len(data):
                        fault(addr, size)
                    regs[d] = unpack_from(data, addr)[0]
                    frame.index = nxt
            return op, desc, _load_source(
                d, ptr, size, f"_u{ty.bits}", nxt,
                " & 1" if ty.bits == 1 else "",
            )
        if isinstance(ty, FloatType) or isinstance(ty, PointerType):
            codec = (
                _F64
                if isinstance(ty, FloatType) and ty.bits == 64
                else _F32
                if isinstance(ty, FloatType)
                else _INT_STRUCTS[64]
            )
            size = ty.size_bytes()
            unpack_from = codec.unpack_from

            def op(
                ctx, frame, d=d, p=p, data=data, fault=fault,
                unpack_from=unpack_from, size=size, nxt=nxt,
            ):
                regs = frame.regs
                addr = regs[p]
                if addr <= 0 or addr + size > len(data):
                    fault(addr, size)
                regs[d] = unpack_from(data, addr)[0]
                frame.index = nxt

            name = (
                f"_uf{ty.bits}" if isinstance(ty, FloatType) else "_u64"
            )
            return op, desc, _load_source(d, ptr, size, name, nxt)
        # Aggregate or exotic width: defer to Memory.load for the exact
        # error behaviour.
        load = mem.load

        def op(ctx, frame, d=d, p=p, load=load, ty=ty, nxt=nxt):
            regs = frame.regs
            regs[d] = load(ty, regs[p])
            frame.index = nxt

        return op, desc, None

    def _compile_store(self, code, inst: StoreInst, nxt: int):
        v, value = self._operand(code, inst.value)
        p, ptr = self._operand(code, inst.pointer)
        ty = inst.value.type
        mem = self.interp.memory
        data = mem.data
        fault = mem.fault
        desc = f"store {ty} r{v} -> r{p}"
        if isinstance(ty, IntType) and ty.bits in _INT_STRUCTS:
            codec = _INT_STRUCTS[ty.bits]
            size = ty.size_bytes()
            mask = ty.mask
            pack_into = codec.pack_into

            def op(
                ctx, frame, v=v, p=p, data=data, fault=fault,
                pack_into=pack_into, size=size, mask=mask, nxt=nxt,
            ):
                regs = frame.regs
                addr = regs[p]
                if addr <= 0 or addr + size > len(data):
                    fault(addr, size)
                pack_into(data, addr, int(regs[v]) & mask)
                frame.index = nxt

            if value.isdigit():
                return op, desc, _store_source(
                    ptr, str(int(value) & mask), size, f"_p{ty.bits}", nxt
                )
            return op, desc, _store_source(
                ptr, f"int({value}) & {mask}", size, f"_p{ty.bits}", nxt,
                converts=True,
            )
        if isinstance(ty, FloatType):
            codec = _F32 if ty.bits == 32 else _F64
            size = ty.size_bytes()
            pack_into = codec.pack_into

            def op(
                ctx, frame, v=v, p=p, data=data, fault=fault,
                pack_into=pack_into, size=size, nxt=nxt,
            ):
                regs = frame.regs
                addr = regs[p]
                if addr <= 0 or addr + size > len(data):
                    fault(addr, size)
                pack_into(data, addr, float(regs[v]))
                frame.index = nxt

            # f32 packing overflows past its range
            return op, desc, _store_source(
                ptr, f"float({value})", size, f"_pf{ty.bits}", nxt,
                converts=True,
            )
        if isinstance(ty, PointerType):
            codec = _INT_STRUCTS[64]
            pack_into = codec.pack_into
            mask64 = (1 << 64) - 1

            def op(
                ctx, frame, v=v, p=p, data=data, fault=fault,
                pack_into=pack_into, mask64=mask64, nxt=nxt,
            ):
                regs = frame.regs
                addr = regs[p]
                if addr <= 0 or addr + 8 > len(data):
                    fault(addr, 8)
                pack_into(data, addr, int(regs[v]) & mask64)
                frame.index = nxt

            return op, desc, _store_source(
                ptr, f"int({value}) & {mask64}", 8, "_p64", nxt,
                converts=True,
            )
        store = mem.store

        def op(ctx, frame, v=v, p=p, store=store, ty=ty, nxt=nxt):
            regs = frame.regs
            store(ty, regs[p], regs[v])
            frame.index = nxt

        return op, desc, None

    # ------------------------------------------------------------------
    def _compile_gep(self, code, inst: GEPInst, nxt: int):
        d = code.slots[id(inst)]
        p, ptr = self._operand(code, inst.pointer)
        ty = inst.element_type
        el_size = ty.size_bytes()
        first = inst.indices[0]
        desc = (
            f"r{d} = gep {ty}, r{p} + "
            f"[{', '.join(self._ref(i) for i in inst.indices)}]"
        )
        if len(inst.indices) == 1:
            if isinstance(first, ConstantInt):
                off = first.signed_value * el_size

                def op(ctx, frame, d=d, p=p, off=off, nxt=nxt):
                    regs = frame.regs
                    regs[d] = regs[p] + off
                    frame.index = nxt

                return op, desc, (f"regs[{d}] = {ptr} + {off}", ())
            i0, index = self._operand(code, first)
            idx_ty = first.type
            if isinstance(idx_ty, IntType):
                mask = idx_ty.mask
                half = 1 << (idx_ty.bits - 1)
                full = 1 << idx_ty.bits
                index = f"({_signed(index, mask, half)})"

                def op(
                    ctx, frame, d=d, p=p, i0=i0, el_size=el_size,
                    mask=mask, half=half, full=full, nxt=nxt,
                ):
                    regs = frame.regs
                    idx = regs[i0] & mask
                    if idx >= half:
                        idx -= full
                    regs[d] = regs[p] + idx * el_size
                    frame.index = nxt
            else:
                def op(
                    ctx, frame, d=d, p=p, i0=i0, el_size=el_size, nxt=nxt
                ):
                    regs = frame.regs
                    regs[d] = regs[p] + regs[i0] * el_size
                    frame.index = nxt

            return op, desc, (f"regs[{d}] = {ptr} + {index} * {el_size}", ())
        # Multi-index: fold when every aggregate step is constant
        # (struct field access, constant array indices).
        if isinstance(first, ConstantInt) and all(
            isinstance(i, ConstantInt) for i in inst.indices[1:]
        ):
            walk_ty = ty
            off = first.signed_value * el_size
            for raw in inst.indices[1:]:
                idx_val = raw.value
                if isinstance(walk_ty, StructType):
                    off += walk_ty.offset_of(idx_val)
                    walk_ty = walk_ty.elements[idx_val]
                elif isinstance(walk_ty, ArrayType):
                    signed = raw.signed_value
                    off += signed * walk_ty.element.size_bytes()
                    walk_ty = walk_ty.element
                else:
                    raise InterpreterError(
                        f"gep into non-aggregate type {walk_ty}"
                    )

            def op(ctx, frame, d=d, p=p, off=off, nxt=nxt):
                regs = frame.regs
                regs[d] = regs[p] + off
                frame.index = nxt

            return op, desc, (f"regs[{d}] = {ptr} + {off}", ())
        # Generic fallback mirroring ExecutionContext._gep exactly.
        idx_slots = [self._slot(code, i) for i in inst.indices]
        idx_types = [i.type for i in inst.indices]

        def op(
            ctx, frame, d=d, p=p, ty=ty,
            idx_slots=idx_slots, idx_types=idx_types, nxt=nxt,
        ):
            regs = frame.regs
            addr = regs[p]
            indices = [regs[s] for s in idx_slots]
            first_val = indices[0]
            idx_ty = idx_types[0]
            if isinstance(idx_ty, IntType):
                first_val = idx_ty.to_signed(first_val)
            addr += first_val * ty.size_bytes()
            walk_ty = ty
            for raw_ty, idx_val in zip(idx_types[1:], indices[1:]):
                if isinstance(walk_ty, StructType):
                    addr += walk_ty.offset_of(idx_val)
                    walk_ty = walk_ty.elements[idx_val]
                elif isinstance(walk_ty, ArrayType):
                    signed = idx_val
                    if isinstance(raw_ty, IntType):
                        signed = raw_ty.to_signed(idx_val)
                    addr += signed * walk_ty.element.size_bytes()
                    walk_ty = walk_ty.element
                else:
                    raise InterpreterError(
                        f"gep into non-aggregate type {walk_ty}"
                    )
            regs[d] = addr
            frame.index = nxt

        return op, desc, None

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def _edge(
        self,
        code: CompiledFunction,
        origin: BasicBlock,
        target: BasicBlock,
        index: int = 0,
        first: int = 0,
    ):
        """Pre-linked jump closure for the edge ``origin -> target``: the
        phi parallel copy plus the block/ops/index switch.  Signature is
        ``(ctx, frame)`` so an unconditional branch op *is* its edge.

        Returns ``(edge, fragment)``; the fragment names the target's
        BlockCode and op list ``x<index>_<first>`` and
        ``x<index>_<first + 1>``, and is None when the edge raises."""
        tbc = code.blocks[id(target)]
        tops = tbc.ops  # list object is stable; filled by fill order
        phis = []
        for i in target.instructions:
            if isinstance(i, PhiInst):
                phis.append(i)
            else:
                break
        jump = (
            f"frame.bc = x{index}_{first}\n"
            f"frame.ops = x{index}_{first + 1}\n"
            f"frame.index = {len(phis)}"
        )
        if not phis:
            def edge(ctx, frame, tbc=tbc, tops=tops):
                frame.bc = tbc
                frame.ops = tops
                frame.index = 0

            return edge, (jump, (tbc, tops))
        tindex = len(phis)
        copies = []
        spelled = []
        for phi in phis:
            incoming = phi.incoming_for(origin)
            if incoming is None:
                return _raiser(
                    InterpreterError(
                        f"phi %{phi.name} has no incoming for {origin.name}"
                    )
                ), None
            slot, value = self._operand(code, incoming)
            copies.append((code.slots[id(phi)], slot))
            spelled.append(value)
        # One tuple assignment is a parallel copy: the right-hand side
        # is read in full before any register is written.
        fragment = (
            f"{', '.join(f'regs[{pd}]' for pd, _ in copies)} = "
            f"{', '.join(spelled)}\n{jump}",
            (tbc, tops),
        )
        if len(copies) == 1:
            (pd, ps) = copies[0]

            def edge(
                ctx, frame, pd=pd, ps=ps,
                tbc=tbc, tops=tops, tindex=tindex,
            ):
                regs = frame.regs
                regs[pd] = regs[ps]
                frame.bc = tbc
                frame.ops = tops
                frame.index = tindex

            return edge, fragment
        if len(copies) == 2:
            (pd0, ps0), (pd1, ps1) = copies

            def edge(
                ctx, frame, pd0=pd0, ps0=ps0, pd1=pd1, ps1=ps1,
                tbc=tbc, tops=tops, tindex=tindex,
            ):
                regs = frame.regs
                v0 = regs[ps0]
                regs[pd1] = regs[ps1]
                regs[pd0] = v0
                frame.bc = tbc
                frame.ops = tops
                frame.index = tindex

            return edge, fragment
        copies = tuple(copies)

        def edge(
            ctx, frame, copies=copies,
            tbc=tbc, tops=tops, tindex=tindex,
        ):
            regs = frame.regs
            values = [regs[s] for _, s in copies]
            for (pd, _), value in zip(copies, values):
                regs[pd] = value
            frame.bc = tbc
            frame.ops = tops
            frame.index = tindex

        return edge, fragment

    def _compile_condbr(self, code, block, inst: CondBranchInst, index):
        c, cond = self._operand(code, inst.condition)
        te, taken = self._edge(code, block, inst.true_block, index, 0)
        fe, other = self._edge(code, block, inst.false_block, index, 2)

        def op(ctx, frame, c=c, te=te, fe=fe):
            (te if frame.regs[c] else fe)(ctx, frame)

        _inherit_may_raise(op, (te, fe))
        fragment = None
        if taken is not None and other is not None:
            fragment = (
                f"if {cond}:\n{_indent(taken[0])}\n"
                f"else:\n{_indent(other[0])}",
                taken[1] + other[1],
            )
        return op, (
            f"br r{c} ? %{inst.true_block.name} : "
            f"%{inst.false_block.name}"
        ), fragment

    def _compile_switch(self, code, block, inst: SwitchInst):
        c = self._slot(code, inst.condition)
        default_edge = self._edge(code, block, inst.default)[0]
        table = {}
        for case_value, target in inst.cases:
            # First matching case wins, like the interpreter's scan.
            table.setdefault(
                case_value, self._edge(code, block, target)[0]
            )
        ty = inst.condition.type
        desc = (
            f"switch r{c} "
            f"[{', '.join(str(v) for v, _ in inst.cases)}] "
            f"default %{inst.default.name}"
        )
        if isinstance(ty, IntType):
            mask = ty.mask
            half = 1 << (ty.bits - 1)
            full = 1 << ty.bits

            def op(
                ctx, frame, c=c, table=table, default_edge=default_edge,
                mask=mask, half=half, full=full,
            ):
                v = frame.regs[c] & mask
                if v >= half:
                    v -= full
                table.get(v, default_edge)(ctx, frame)
        else:
            def op(
                ctx, frame, c=c, table=table, default_edge=default_edge
            ):
                table.get(frame.regs[c], default_edge)(ctx, frame)

        _inherit_may_raise(op, (default_edge, *table.values()))
        return op, desc

    def _compile_ret(self, code, inst: ReturnInst):
        if inst.value is not None:
            v = self._slot(code, inst.value)

            def op(ctx, frame, v=v, _DONE=_DONE):
                stack = ctx.stack
                stack.pop()
                ctx.stack_ptr = frame.stack_mark
                value = frame.regs[v]
                if not stack:
                    ctx.return_value = value
                    ctx.state = _DONE
                    return
                rd = frame.ret_dst
                caller = stack[-1]
                if rd is not None:
                    caller.regs[rd] = value
                caller.index = frame.ret_index

            return op, f"ret r{v}"

        def op(ctx, frame, _DONE=_DONE):
            stack = ctx.stack
            stack.pop()
            ctx.stack_ptr = frame.stack_mark
            if not stack:
                ctx.return_value = None
                ctx.state = _DONE
                return
            rd = frame.ret_dst
            caller = stack[-1]
            if rd is not None:
                caller.regs[rd] = None
            caller.index = frame.ret_index

        return op, "ret void"

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _native_convs(self, inst: CallInst):
        """Positions of int args natives see as C-signed values."""
        convs = []
        for i, a in enumerate(inst.args):
            ty = a.type
            if isinstance(ty, IntType) and ty.bits > 1:
                convs.append(
                    (i, ty.mask, 1 << (ty.bits - 1), 1 << ty.bits)
                )
        return tuple(convs)

    def _compile_call(self, code, inst: CallInst, nxt: int):
        interp = self.interp
        arg_slots = tuple(self._slot(code, a) for a in inst.args)
        dst = None if inst.type.is_void else code.slots[id(inst)]
        convs = self._native_convs(inst)
        callee = inst.callee
        if isinstance(callee, Function):
            name = callee.name
            # native_for raises for an undefined external — defer that
            # to execution time (the interpreter only fails when the
            # call actually runs).
            native = interp.native_for(callee)
            if native is not None:
                desc = (
                    f"{'call' if dst is None else f'r{dst} = call'} "
                    f"native @{name}"
                    f"({', '.join(f'r{s}' for s in arg_slots)})"
                )

                def op(
                    ctx, frame, native=native, interp=interp,
                    arg_slots=arg_slots, convs=convs, dst=dst, nxt=nxt,
                ):
                    regs = frame.regs
                    args = [regs[s] for s in arg_slots]
                    for i, mask, half, full in convs:
                        v = args[i] & mask
                        if v >= half:
                            v -= full
                        args[i] = v
                    result = native(interp, ctx, args)
                    if result is RETRY:
                        return
                    if dst is not None:
                        regs[dst] = result
                    frame.index = nxt

                return op, desc
            callee_code = interp.code_for(callee)
            depth = interp.max_call_depth
            desc = (
                f"{'call' if dst is None else f'r{dst} = call'} "
                f"@{name}({', '.join(f'r{s}' for s in arg_slots)})"
            )

            def op(
                ctx, frame, callee_code=callee_code,
                arg_slots=arg_slots, depth=depth, name=name,
                dst=dst, nxt=nxt,
            ):
                stack = ctx.stack
                if len(stack) >= depth:
                    raise InterpreterError(
                        f"guest call depth exceeded the limit of "
                        f"{depth} frames while calling @{name} "
                        f"(runaway recursion?)"
                    )
                regs = frame.regs
                frame_new = ClosureFrame(
                    callee_code,
                    [regs[s] for s in arg_slots],
                    ctx.stack_ptr,
                )
                frame_new.ret_dst = dst
                frame_new.ret_index = nxt
                stack.append(frame_new)

            return op, desc
        # Indirect call: resolve the target at run time, like the
        # interpreter (invalid address traps, undefined extern raises).
        cslot = self._slot(code, callee)
        desc = (
            f"{'call' if dst is None else f'r{dst} = call'} "
            f"*r{cslot}({', '.join(f'r{s}' for s in arg_slots)})"
        )

        def op(
            ctx, frame, interp=interp, cslot=cslot,
            arg_slots=arg_slots, convs=convs, dst=dst, nxt=nxt,
        ):
            regs = frame.regs
            addr = regs[cslot]
            fn = interp.memory.function_at(addr)
            if fn is None:
                raise Trap(
                    f"indirect call to invalid address {addr:#x}"
                )
            args = [regs[s] for s in arg_slots]
            native = interp.native_for(fn)
            if native is not None:
                for i, mask, half, full in convs:
                    v = args[i] & mask
                    if v >= half:
                        v -= full
                    args[i] = v
                result = native(interp, ctx, args)
                if result is RETRY:
                    return
                if dst is not None:
                    regs[dst] = result
                frame.index = nxt
                return
            stack = ctx.stack
            if len(stack) >= interp.max_call_depth:
                raise InterpreterError(
                    f"guest call depth exceeded the limit of "
                    f"{interp.max_call_depth} frames while calling "
                    f"@{fn.name} (runaway recursion?)"
                )
            if fn.is_declaration:  # pragma: no cover - native_for raised
                raise InterpreterError(
                    f"call to undefined function @{fn.name}"
                )
            frame_new = ClosureFrame(
                interp.code_for(fn), args, ctx.stack_ptr
            )
            frame_new.ret_dst = dst
            frame_new.ret_index = nxt
            stack.append(frame_new)

        return op, desc


# ---------------------------------------------------------------------------
# Run source printer: one fragment per op, the closure's semantics as text
# ---------------------------------------------------------------------------
_CMP_SYMBOLS = {
    operator.eq: "==", operator.ne: "!=",
    operator.lt: "<", operator.le: "<=",
    operator.gt: ">", operator.ge: ">=",
}
_FLOAT_SYMBOLS = {BinOp.FADD: "+", BinOp.FSUB: "-", BinOp.FMUL: "*"}
_INT_SYMBOLS = {
    BinOp.ADD: "+", BinOp.SUB: "-", BinOp.MUL: "*",
    BinOp.AND: "&", BinOp.OR: "|", BinOp.XOR: "^",
    BinOp.UDIV: "//", BinOp.UREM: "%",
}


def _float_binop_source(kind: BinOp, d: int, x: str, y: str, nxt: int):
    if kind in _FLOAT_SYMBOLS:
        return f"regs[{d}] = {x} {_FLOAT_SYMBOLS[kind]} {y}"
    if kind == BinOp.FDIV:
        return f"r = {y}\nregs[{d}] = {x} / r if r != 0.0 else _fdiv0({x})"
    return f"frame.index = {nxt - 1}\nregs[{d}] = _frem({x}, {y})"


def _int_binop_source(
    kind: BinOp, d: int, x: str, y: str, ty: IntType, nxt: int
) -> str:
    mask = ty.mask
    half = 1 << (ty.bits - 1)
    bits = ty.bits
    #: the right operand when it is a literal
    constant = int(y) if y.isdigit() else None
    if kind in (BinOp.ADD, BinOp.SUB, BinOp.MUL):
        return f"regs[{d}] = ({x} {_INT_SYMBOLS[kind]} {y}) & {mask}"
    if kind in (BinOp.AND, BinOp.OR, BinOp.XOR):
        return f"regs[{d}] = {x} {_INT_SYMBOLS[kind]} {y}"
    if kind in (BinOp.SHL, BinOp.LSHR, BinOp.ASHR):
        shift = f"({y} % {bits})" if constant is None else constant % bits
        if kind == BinOp.SHL:
            return f"regs[{d}] = ({x} << {shift}) & {mask}"
        if kind == BinOp.LSHR:
            return f"regs[{d}] = {x} >> {shift}"
        return f"regs[{d}] = (({_signed(x, mask, half)}) >> {shift}) & {mask}"
    if kind in (BinOp.UDIV, BinOp.UREM):
        symbol = _INT_SYMBOLS[kind]
        if constant:
            return f"regs[{d}] = {x} {symbol} {constant}"
        return (
            f"frame.index = {nxt - 1}\nr = {y}\nif r == 0: _div0()\n"
            f"regs[{d}] = {x} {symbol} r"
        )
    # sdiv/srem: C's truncating quotient of the signed operands
    if constant:
        sb = ((constant & mask) ^ half) - half
        lines = [
            f"a = {_signed(x, mask, half)}",
            f"q = abs(a) // {abs(sb)}",
            f"if a {'<' if sb > 0 else '>='} 0: q = -q",
        ]
        sb_text = f"({sb})"
    else:
        lines = [
            f"frame.index = {nxt - 1}",
            f"r = {y}",
            "if r == 0: _div0()",
            f"a = {_signed(x, mask, half)}",
            f"b = {_signed('r', mask, half)}",
            "q = abs(a) // abs(b)",
            "if (a < 0) != (b < 0): q = -q",
        ]
        sb_text = "b"
    if kind == BinOp.SDIV:
        lines.append(f"regs[{d}] = q & {mask}")
    else:
        lines.append(f"regs[{d}] = (a - q * {sb_text}) & {mask}")
    return "\n".join(lines)


def _load_source(
    d: int, ptr: str, size: int, unpack: str, nxt: int, suffix: str = ""
):
    """A load only raises through ``fault``, so only that path stores
    the index."""
    return (
        f"a = {ptr}\n"
        f"if a <= 0 or a + {size} > len(data): "
        f"frame.index = {nxt - 1}; fault(a, {size})\n"
        f"regs[{d}] = {unpack}(data, a)[0]{suffix}",
        (),
    )


def _store_source(
    ptr: str, value: str, size: int, pack: str, nxt: int,
    converts: bool = False,
):
    """A store that *converts* its value (``int()``/``float()``) may
    raise after the bounds check too, so it stores the index first."""
    at = f"frame.index = {nxt - 1}"
    return (
        (f"{at}\n" if converts else "")
        + f"a = {ptr}\n"
        f"if a <= 0 or a + {size} > len(data): "
        + ("" if converts else f"{at}; ")
        + f"fault(a, {size})\n"
        f"{pack}(data, a, {value})",
        (),
    )


# ---------------------------------------------------------------------------
# Shared op helpers
# ---------------------------------------------------------------------------
def _raiser(exc: BaseException):
    """An op that raises *exc* when (and only when) executed."""

    def op(ctx, frame, exc=exc):
        raise exc

    op.may_raise = True
    return op


def _inherit_may_raise(op, edges) -> None:
    """A branch whose edge raises (a phi without an incoming value)
    raises too, so it is not thread-local."""
    if any(getattr(edge, "may_raise", False) for edge in edges):
        op.may_raise = True


_LOCAL_BINOPS = frozenset(
    {
        BinOp.ADD, BinOp.SUB, BinOp.MUL,
        BinOp.AND, BinOp.OR, BinOp.XOR,
        BinOp.SHL, BinOp.LSHR, BinOp.ASHR,
        BinOp.FADD, BinOp.FSUB, BinOp.FMUL, BinOp.FDIV,
    }
)
_DIV_BINOPS = frozenset({BinOp.UDIV, BinOp.SDIV, BinOp.UREM, BinOp.SREM})
_LOCAL_CASTS = frozenset({CastOp.ZEXT, CastOp.SEXT, CastOp.TRUNC})


def _is_local(inst: Instruction, op, private: set[int]) -> bool:
    """Whether *op* (compiled from *inst*) touches nothing but its
    frame's registers and private stack slots (ids in *private*) and
    cannot raise — may it join a thread-local run?"""
    if getattr(op, "may_raise", False):
        return False
    if isinstance(inst, (LoadInst, StoreInst)):
        return id(inst.pointer) in private
    if isinstance(inst, BinaryInst):
        if inst.op in _LOCAL_BINOPS:
            return True
        rhs = inst.rhs
        return (
            inst.op in _DIV_BINOPS
            and isinstance(rhs, ConstantInt)
            and rhs.value != 0
        )
    if isinstance(inst, CastInst):
        return inst.op in _LOCAL_CASTS
    if isinstance(inst, GEPInst):
        # Only the folded shapes: the generic walk can raise.
        return len(inst.indices) == 1 or all(
            isinstance(i, ConstantInt) for i in inst.indices
        )
    return isinstance(
        inst,
        (
            ICmpInst, FCmpInst, SelectInst,
            BranchInst, CondBranchInst, SwitchInst,
        ),
    )


def _private_slots(fn: Function) -> set[int]:
    """Ids of *fn*'s private stack slots: integer or pointer allocas
    whose address goes only to the pointer operand of loads and stores
    of the slot's own type, and to arguments of the runtime entry
    points in :data:`~repro.runtime.kmp.NOCAPTURE`.  No other thread
    can learn such an address, and an access of the slot's own type is
    in bounds by construction, so it cannot fault either."""
    slots = {
        id(inst)
        for block in fn.blocks
        for inst in block.instructions
        if isinstance(inst, AllocaInst)
        and (
            isinstance(inst.allocated_type, PointerType)
            or (
                isinstance(inst.allocated_type, IntType)
                and inst.allocated_type.bits in _INT_STRUCTS
            )
        )
    }
    if not slots:  # mem2reg promoted them all: skip the operand scan
        return slots
    for block in fn.blocks:
        for inst in block.instructions:
            for value in inst.operands():
                if isinstance(value, AllocaInst) and not _keeps_private(
                    inst, value
                ):
                    slots.discard(id(value))
    return slots


def _keeps_private(inst: Instruction, slot: AllocaInst) -> bool:
    """Whether *inst*, an instruction using *slot*'s address, neither
    hands the address on nor reinterprets the slot's bytes."""
    ty = slot.allocated_type
    if isinstance(inst, LoadInst):
        return inst.type is ty
    if isinstance(inst, StoreInst):
        return inst.value is not slot and inst.value.type is ty
    if isinstance(inst, CallInst):
        callee = inst.callee
        return (
            isinstance(callee, Function)
            and callee.is_declaration
            and callee.name in NOCAPTURE
        )
    return False


def _fell_off(block_name: str):
    def op(ctx, frame, block_name=block_name):
        raise InterpreterError(
            f"fell off the end of block {block_name}"
        )

    return op


class ClosureFrame:
    """Compiled call frame: dense register file + current dispatch
    table.  ``bc``/``index`` track the real IR position so scheduler
    snapshots and call-site identity (``single``) stay exact."""

    __slots__ = (
        "fn",
        "code",
        "bc",
        "ops",
        "index",
        "regs",
        "stack_mark",
        "ret_dst",
        "ret_index",
    )

    def __init__(
        self, code: CompiledFunction, args: list, stack_mark: int
    ) -> None:
        self.fn = code.fn
        self.code = code
        entry = code.entry
        #: the current block's :class:`BlockCode` (its run tables)
        self.bc = entry
        self.ops = entry.ops
        self.index = 0
        regs = code.regs_template.copy()
        for slot, value in zip(code.arg_slots, args):
            regs[slot] = value
        self.regs = regs
        self.stack_mark = stack_mark
        #: where the matching ret writes its value in the caller
        self.ret_dst = None
        self.ret_index = 0

    @property
    def block(self) -> BasicBlock:
        return self.bc.block
