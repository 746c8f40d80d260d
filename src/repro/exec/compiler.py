"""The closure compiler: optimized IR -> generated Python code.

One op per *instruction*, one :class:`BlockCode` per basic block.
Operands are resolved at compile time to dense register-file slots;
constants (global and function addresses too, fixed per interpreter)
live in a pool appended to the register file.  Every integer register
holds its type's unsigned bit pattern: constants are pooled that way,
every op that can leave the range masks its result, and a native's
result and an entry point's host arguments are wrapped to their types
(:func:`repro.interp.interpreter.canonical`).  So a signed read of a
register needs no mask; only a literal is masked.

A *run* is a stretch of one block's ops the engine may retire in one
dispatch.  A **serial run** starts at the block's entry index or just
after a call and ends before the first call, ``ret`` or ``unreachable``
(else it includes the terminator): nothing in it can push or pop a frame
or change the thread's state.  A **thread-local run** holds only ops
that touch nothing but the frame's registers and the thread's private
stack slots and cannot raise (:func:`_is_local`, :func:`_private_slots`),
so the team scheduler (:meth:`repro.runtime.team.Team.run`) may retire
them ahead of its lockstep clock: their order against other threads'
instructions is unobservable.

A function's runs of one kind are one generated Python function
(:func:`_function_source`), built when one of them first executes and
entered through the run tables (:attr:`BlockCode.runs`,
:attr:`BlockCode.local_runs`).  An edge from a run to a run is a jump
inside it, and each block is printed once.  Each loop nest of runs is
nested ``while`` loops, one per loop (the canonical skeleton of paper
Fig. 7 gives each loop one header), as Emscripten's Relooper structures
code, and a block-number state moves control where that structure
cannot (a loop entered again at an inner header, a nest deeper than
:data:`MAX_NESTED_LOOPS`).  So a tile nest or a partially unrolled loop
with its remainder takes one dispatch per entry.  The code is called
with the most ops it may retire, goes on from a loop header or an entry
only while the ops up to the next one fit, and returns how many it
retired.  It writes ``frame`` only where control leaves; a serial op
that can raise first notes its site in a local, and the handler
(:func:`_unwind`) leaves the frame at the raiser and reports how many
ops ran.

Each inlined op's semantics are written once, as a *printer*
(``_int_binop_text``, ``_load_text``, ``_edge_text``, ...) that returns
its source.  :meth:`ClosureCompiler._compile_inst` describes each such
op (binops, compares, ``select``, scalar casts, loads and stores, folded
``gep``s, branches with their phi copies) as a *fragment*: its printer,
its *shape* (op kind, predicate and types), its register slots,
immediates and objects.  That is all the compiler builds for the op:

* the generated code prints it with operands ``regs[<slot>]``, integer
  constants as literals and float constants in their pool slot, and a
  *block-local* value (every use a later op of its block or a phi copy
  leaving it) as the Python local ``v<slot>``;
* its entry in :attr:`BlockCode.ops` is :func:`_first_step` until the op
  is first single-stepped (team lockstep, the fuel boundary or an armed
  fault injector), which binds its single-step closure: the printer and
  shape printed once per process with every operand a parameter (a
  *template*), so ops of one shape share one code object;
* :meth:`CompiledFunction.describe` prints it with operands ``r<slot>``.

Any other op (``alloca``, aggregate loads and stores, the generic
``gep``, ``switch``, ``ret``, calls, compile-time raisers) is a
hand-written closure, and the code calls it.

Generated source holds only integers, slot indices and fixed operator
text, never an IR name or user identifier, and nothing of one
interpreter: ``Memory.data``, ``Memory.fault``, blocks and closures are
parameters of its factory ``make(data, fault, ...)`` or a template's
defaults.  One process-wide table maps source text to its code object
(:data:`RUN_CODE_CAP` entries at most), and in front of it the runs'
fragments and edges map to their source, so code seen before, in this
program or another, is bound, not printed.

Parity rules mirrored from :class:`repro.interp.interpreter.
ExecutionContext` (the reference): anything it raises lazily stays lazy
(a compile-time failure becomes a closure that raises the same exception
when its instruction executes); phi nodes are resolved on the edge as a
parallel copy and never retired; natives see C-signed argument values,
may return ``RETRY`` to spin, and void-typed calls discard results.
Non-local instructions retire one at a time in lockstep order, so the
runtime's observable scheduling is exactly lockstep's.
"""

from __future__ import annotations

import builtins
import math
import struct
import time
import zlib
from functools import partial
from types import CodeType, FunctionType
from typing import TYPE_CHECKING, Any, Callable

from repro.exec import BINDS, COMPILE_SECONDS, SOURCE_BYTES
from repro.interp.interpreter import (
    RETRY,
    InterpreterError,
    ThreadState,
    Trap,
    check_cast,
    fdiv_by_zero,
    fp_to_int,
    canonical,
    round_f32,
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
from repro.ir.printer import ModulePrinter
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


def _div0() -> None:
    raise Trap("division by zero")


def _frem(lhs: float, rhs: float) -> float:
    return math.fmod(lhs, rhs) if rhs != 0 else float("nan")


def _stop(frame, bc: "BlockCode", index: int, count: int) -> int:
    """Leave *frame* at op *index* of *bc*; return *count*, the ops
    retired."""
    frame.bc = bc
    frame.ops = bc.ops
    frame.index = index
    return count


def _unwind(frame, count: int, site, blocks: tuple, charge) -> None:
    """Generated code raised at *site* ``(run, index, ran, ops)``, *ran*
    ops after the *count* it had summed: leave *frame* at op *index* of
    ``blocks[run]``, note in ``frame.unwound`` the ops retired up to the
    raiser and it, and charge its block *ops* through *charge* (a
    detailed profile's ``count_block``, else None)."""
    if site is None:  # raised before its first op
        frame.unwound = count
        return
    run, index, ran, ops = site
    frame.unwound = count + ran
    bc = blocks[run]
    _stop(frame, bc, index, 0)
    if charge is not None and ops:
        charge(frame.fn.name, bc.block.name, ops)


#: most code objects kept in :data:`_RUN_CODE`
RUN_CODE_CAP = 1 << 10

#: most ``while`` statements generated code nests: a deeper loop runs on
#: the block-number state of the loop holding it (CPython allows 20
#: statically nested blocks, the ``try`` around serial code included)
MAX_NESTED_LOOPS = 16

#: generated source -> code object of the function it defines (a
#: function's ``make`` factory or an op template), shared by every
#: interpreter in the process (oldest entry evicted first)
_RUN_CODE: dict[str, CodeType] = {}

#: a function's runs of one kind (their fragments and edge structure)
#: -> ``(source, entries, sites)`` (see :func:`_function_source`),
#: which they determine, so code seen before is not printed again (at
#: most :data:`RUN_CODE_CAP` entries, oldest evicted first)
_RUN_SOURCE: dict[tuple, tuple] = {}

#: (printer, shape) -> code object of the op template, filled when an
#: op of that shape is first single-stepped; shapes are op kinds,
#: predicates and types, so it stays small
_TEMPLATES: dict[tuple, CodeType] = {}

#: the (printer, shape) pairs whose printer is known to print
_PRINTABLE: set[tuple] = set()

#: the only globals generated run code sees: fixed helpers and codecs
_RUN_GLOBALS = {
    "__builtins__": builtins,
    "_div0": _div0,
    "_fdiv0": fdiv_by_zero,
    "_frem": _frem,
    "_f32": round_f32,
    "_itof32": FloatType(32).from_int,
    "_fptoi": fp_to_int,
    "_stop": _stop,
    "_unwind": _unwind,
    **{f"_u{bits}": c.unpack_from for bits, c in _INT_STRUCTS.items()},
    **{f"_p{bits}": c.pack_into for bits, c in _INT_STRUCTS.items()},
    "_uf32": _F32.unpack_from,
    "_uf64": _F64.unpack_from,
    "_pf32": _F32.pack_into,
    "_pf64": _F64.pack_into,
}


def _factory_code(source: str) -> CodeType:
    """The code object of the function *source* defines, compiled once
    per process while the table has room.  Its file name is a CRC of
    *source*, so a profile has one row per run or op shape.
    (``zlib`` is loaded already; ``hashlib`` would load OpenSSL into
    every process that runs a program.)"""
    code = _RUN_CODE.get(source)
    if code is None:
        digest = zlib.crc32(source.encode())
        start = time.perf_counter()
        module = compile(source, f"<run {digest:08x}>", "exec")
        COMPILE_SECONDS.observe(time.perf_counter() - start)
        SOURCE_BYTES.observe(len(source))
        code = next(c for c in module.co_consts if isinstance(c, CodeType))
        if len(_RUN_CODE) >= RUN_CODE_CAP:
            del _RUN_CODE[next(iter(_RUN_CODE))]
        _RUN_CODE[source] = code
    return code


def _indent(text: str, width: int = 4) -> str:
    pad = " " * width
    return pad + text.replace("\n", "\n" + pad)


class BlockCode:
    """Compiled form of one basic block: ``ops[i]`` executes
    ``block.instructions[i]``.  A sentinel op at ``ops[len]`` reports
    falling off the end (malformed IR), like the interpreter's bounds
    check."""

    __slots__ = (
        "block", "first_slot", "escaped", "ops", "entry_index",
        "fragments", "shape", "exits", "runs", "local_runs",
    )

    def __init__(self, block: BasicBlock, first_slot: int, escaped) -> None:
        self.block = block
        #: register slot of the block's first instruction (the others
        #: follow in order)
        self.first_slot = first_slot
        #: the function's :attr:`CompiledFunction.escaped`
        self.escaped = escaped
        self.ops: list[Callable] = []
        #: index execution enters at after a jump (skips leading phis)
        self.entry_index = 0
        #: per op: its fragment, or None when a run calls its closure
        self.fragments: list[tuple | None] = []
        #: :func:`_block_shape` of the block, once a run needs it
        self.shape: tuple | None = None
        #: per edge of a ``br``/``condbr`` terminator (true edge first):
        #: the target's BlockCode, or None when the edge raises
        self.exits: tuple[BlockCode | None, ...] = ()
        #: ``runs[i]``: ``(function, length)`` for the serial run of
        #: *length* ops starting at op *i*: the function's generated
        #: code entered there, or None when that code cannot be
        #: entered there (a block inside a loop other than its header)
        self.runs: list[tuple[Callable, int] | None] = []
        #: ``local_runs[i]``: the same for the thread-local run
        self.local_runs: list[tuple[Callable, int] | None] = []


class CompiledFunction:
    """Dispatch tables for one function under one interpreter instance.

    The register file layout is ``[args..., instruction results...,
    constant pool...]``; ``regs_template`` is copied per frame so
    constants need no runtime resolution at all."""

    __slots__ = (
        "fn", "slots", "arg_slots", "n_values", "consts", "const_index",
        "regs_template", "blocks", "entry", "escaped", "uses",
    )

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        #: id(Value) -> register slot, for Arguments and Instructions
        self.slots: dict[int, int] = {}
        self.arg_slots: list[int] = []
        self.n_values = 0
        self.consts: list[Any] = []
        #: int value or float bits -> pooled slot; per function because
        #: compiling a call compiles the callee in the middle of the caller
        self.const_index: dict[int | bytes, int] = {}
        self.regs_template: list[Any] = []
        self.blocks: dict[int, BlockCode] = {}
        self.entry: BlockCode | None = None
        #: slots of instruction results used other than by a later
        #: instruction of their own block or a phi copy on an edge
        #: leaving it; the rest are *block-local* (see
        #: :func:`_function_source`)
        self.escaped: set[int] = set()
        #: while an instruction compiles, the slots an operand read may
        #: name without escaping: those of the earlier instructions of
        #: its block
        self.uses = range(0)

    def describe(self) -> str:
        """Deterministic text rendering of the dispatch table; byte-equal
        for byte-equal input IR (same IR -> same dispatch table).  One
        line per op: an inlined op as its printer's text with operands
        ``r<slot>`` and blocks ``%<name>``, a compile-time raiser as the
        exception it raises, any other op as its instruction's IR."""
        names = {}
        for bc in self.blocks.values():
            names[id(bc)] = f"%{bc.block.name}"
            names[id(bc.ops)] = f"%{bc.block.name}.ops"
        ir = ModulePrinter()
        lines = [
            f"function @{self.fn.name}: {self.n_values} value slot(s), "
            f"{len(self.consts)} constant(s)"
        ]
        for block in self.fn.blocks:
            code = self.blocks[id(block)]
            lines.append(
                f"  block %{block.name} (entry at {code.entry_index}):"
            )
            for i, inst in enumerate(block.instructions):
                fragment = code.fragments[i]
                exc = getattr(code.ops[i], "exc", None)
                if fragment is not None:
                    printer, shape, slots, _, imms, objects = fragment
                    text = printer(
                        shape, [f"r{slot}" for slot in slots],
                        [str(imm) for imm in imms],
                        [names.get(id(o)) or repr(o) for o in objects], "",
                    )
                    text = "; ".join(
                        line.strip() for line in text.split("\n")
                    ).replace(":; ", ": ")
                elif exc is not None:
                    text = f"raise {type(exc).__name__}: {exc}"
                else:
                    text = ir.print_instruction(inst)
                lines.append(f"    [{i}] {text}")
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
            code.blocks[id(block)] = BlockCode(block, n, code.escaped)
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
    def _const_slot(self, code: CompiledFunction, value: int | float) -> int:
        # A float is keyed by its bits: -0.0 == 0.0, and nan != nan.
        key = _F64.pack(value) if value.__class__ is float else value
        slot = code.const_index.get(key)
        if slot is None:
            slot = code.n_values + len(code.consts)
            code.consts.append(value)
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
            if slot not in code.uses:
                code.escaped.add(slot)
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

    def _operand(self, code: CompiledFunction, v) -> tuple[int, int | None]:
        """*v*'s register slot, and the literal run source spells it as
        when it is an integer constant, null or undef (else None)."""
        slot = self._slot(code, v)
        if isinstance(v, ConstantInt):
            return slot, v.value
        if isinstance(v, (ConstantPointerNull, UndefValue)):
            return slot, 0
        return slot, None

    # ------------------------------------------------------------------
    # Block compilation
    # ------------------------------------------------------------------
    def _compile_block(
        self, code: CompiledFunction, block: BasicBlock, private: set[int]
    ) -> None:
        bc = code.blocks[id(block)]
        phis = 0
        fragments = bc.fragments
        first = bc.first_slot
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, PhiInst) and phis == index:
                phis += 1
            code.uses = range(first, first + index)
            try:
                op = self._compile_inst(code, block, inst, index)
                if op.__class__ is tuple and op[:2] not in _PRINTABLE:
                    # A shape its printer cannot print fails here, not
                    # when code or a single step first prints it.
                    _template_source(op)
                    _PRINTABLE.add(op[:2])
            except Exception as exc:
                # Parity: the interpreter evaluates lazily, so anything
                # we cannot compile must fail only when executed.  Its
                # ``exc`` keeps it out of local runs and describes it.
                op = _raiser(exc)
                op.exc = exc
            if op.__class__ is tuple:
                fragments.append(op)
                op = _first_step
            else:
                fragments.append(None)
            bc.ops.append(op)
        bc.entry_index = phis
        if fragments and fragments[-1] is not None:
            last = block.instructions[-1]
            shape = fragments[-1][1]
            if isinstance(last, BranchInst):
                edges = ((last.target, shape),)
            elif isinstance(last, CondBranchInst):
                edges = zip((last.true_block, last.false_block), shape)
            else:
                edges = ()
            bc.exits = tuple(
                None if phis is None else code.blocks[id(target)]
                for target, phis in edges
            )
        self._build_runs(code, bc, private)
        fell = InterpreterError(f"fell off the end of block {block.name}")
        bc.ops.append(_raiser(fell))

    def _build_runs(
        self, code: CompiledFunction, bc: BlockCode, private: set[int]
    ) -> None:
        """One classification pass over the block fills both run
        tables (see the module docstring); *private* holds the ids of
        the function's private stack slots."""
        insts = bc.block.instructions
        ops = bc.ops
        n = len(ops)
        local = [
            _is_local(inst, fragment or op, private)
            for inst, op, fragment in zip(insts, ops, bc.fragments)
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
                if end > start:
                    runs[start] = self._first_call(code, bc, start, end, False)
            if local[start] and (start == entry or not local[start - 1]):
                end = start
                while end < n and local[end]:
                    end += 1
                local_runs[start] = self._first_call(
                    code, bc, start, end, True
                )
        bc.runs = runs
        bc.local_runs = local_runs

    def _first_call(self, code, bc: BlockCode, start, end, local) -> tuple:
        """The run's table entry until a run of its kind in its function
        first executes: a function that puts their generated code in
        their tables and runs this one.  So code that never runs (a team
        member runs only local runs, the serial loop only serial ones)
        is never built, and by then the whole function is compiled."""

        def build(ctx, frame, limit):
            table = "local_runs" if local else "runs"
            nodes = [
                (block, i, i + run[1])
                for block in code.blocks.values()
                for i, run in enumerate(getattr(block, table))
                if run is not None
            ]
            fns = self.run_functions(nodes, local, code.blocks)
            for (block, i, stop), fn in zip(nodes, fns):
                getattr(block, table)[i] = fn and (fn, stop - i)
            run = getattr(bc, table)[start]
            return 0 if run is None else run[0](ctx, frame, limit)

        return build, end - start

    def run_functions(self, nodes, local: bool, blocks=None) -> list:
        """The generated function of the runs *nodes* (``(BlockCode,
        start, end)`` each, in block order) of one kind, per run bound to
        start at it, or None (see :func:`_function_source`).  *blocks*
        (id -> BlockCode) is given when *nodes* are all of a function's
        runs.  The text depends only on the fragments and on which run
        each edge leads to, so that is its key: a key seen before, in
        this program or another, binds its code with no printing."""
        index = {(id(bc), start): j for j, (bc, start, _) in enumerate(nodes)}
        arcs = []
        tails = set()
        for bc, start, end in nodes:
            if bc.shape is None:
                bc.shape = _block_shape(bc)
            jumps = end == len(bc.block.instructions) and bc.exits
            tails.update([id(bc)] if jumps else ())
            arcs.append(tuple(
                None if t is None else index.get((id(t), t.entry_index))
                for t in (bc.exits if jumps else ())
            ))
        outside = {  # entered by edges taken outside the code
            index.get((id(blocks[id(s)]), blocks[id(s)].entry_index))
            for bc in (blocks or {}).values() if id(bc) not in tails
            for s in bc.block.successors()
        }
        entered = [j in outside for j in range(len(nodes))]
        detailed = self.interp.profile.detailed
        key = (local, detailed, tuple(
            (bc.shape[0], start, end, edges, entry)
            for (bc, start, end), edges, entry in zip(nodes, arcs, entered)
        ))
        cached = _RUN_SOURCE.get(key)
        if cached is None:
            cached = _function_source(nodes, arcs, entered, local, detailed)
            if len(_RUN_SOURCE) >= RUN_CODE_CAP:
                del _RUN_SOURCE[next(iter(_RUN_SOURCE))]
            _RUN_SOURCE[key] = cached
        source, entries, sites = cached
        memory = self.interp.memory
        run = FunctionType(_factory_code(source), _RUN_GLOBALS)(
            memory.data, memory.fault, sites,
            tuple(bc for bc, _, _ in nodes),
            tuple(
                o for bc, start, end in nodes
                for o in bc.shape[1][bc.shape[2][start]:bc.shape[2][end]]
            ),
        )
        return [
            entry and FunctionType(
                run.__code__, _RUN_GLOBALS, "run", entry, run.__closure__
            )
            for entry in entries
        ]

    # ------------------------------------------------------------------
    # Instruction compilation
    # ------------------------------------------------------------------
    def _compile_inst(
        self, code: CompiledFunction, block: BasicBlock, inst: Instruction,
        index: int,
    ):
        """*inst*'s fragment ``(printer, shape, slots, literals,
        immediates, objects)``, which :func:`_function_source` prints and
        :func:`_bind` binds, or for an op the printer does not inline
        its closure, which the code calls."""
        nxt = index + 1
        if isinstance(inst, (BinaryInst, ICmpInst, FCmpInst)):
            d = code.slots[id(inst)]
            a, x = self._operand(code, inst.lhs)
            b, y = self._operand(code, inst.rhs)
            if isinstance(inst, ICmpInst):
                printer, shape = _icmp_text, (inst.pred, inst.lhs.type)
            elif isinstance(inst, FCmpInst):
                printer, shape = _fcmp_text, inst.pred
            elif inst.op.is_float_op:
                printer, shape = _float_binop_text, (inst.op, inst.type)
            else:
                assert isinstance(inst.type, IntType)
                printer, shape = _int_binop_text, (inst.op, inst.type)
            return (printer, shape, (d, a, b), (None, x, y), (), ())
        if isinstance(inst, CastInst):
            d = code.slots[id(inst)]
            s, x = self._operand(code, inst.value)
            check_cast(inst.op, inst.value.type, inst.type)
            return (
                _cast_text, (inst.op, inst.value.type, inst.type),
                (d, s), (None, x), (), (),
            )
        if isinstance(inst, AllocaInst):
            return self._compile_alloca(code, inst, nxt)
        if isinstance(inst, LoadInst):
            return self._compile_load(code, inst, nxt)
        if isinstance(inst, StoreInst):
            return self._compile_store(code, inst, nxt)
        if isinstance(inst, GEPInst):
            return self._compile_gep(code, inst, nxt)
        if isinstance(inst, BranchInst):
            return self._edge(code, block, inst.target)
        if isinstance(inst, CondBranchInst):
            return self._compile_condbr(code, block, inst)
        if isinstance(inst, SwitchInst):
            return self._compile_switch(code, block, inst)
        if isinstance(inst, ReturnInst):
            return self._compile_ret(code, inst)
        if isinstance(inst, UnreachableInst):
            return _raiser(Trap("reached 'unreachable' instruction"))
        if isinstance(inst, SelectInst):
            d = code.slots[id(inst)]
            c, sc = self._operand(code, inst.condition)
            t, st = self._operand(code, inst.true_value)
            f, sf = self._operand(code, inst.false_value)
            return (
                _select_text, None, (d, c, t, f), (None, sc, st, sf), (), ()
            )
        if isinstance(inst, PhiInst):
            # Never retired: edges resolve phis and jump past them.
            return _raiser(
                InterpreterError("phi encountered outside block entry")
            )
        if isinstance(inst, CallInst):
            return self._compile_call(code, inst, nxt)
        raise InterpreterError(
            f"unhandled instruction {type(inst).__name__}"
        )

    # ------------------------------------------------------------------
    def _compile_alloca(self, code, inst: AllocaInst, nxt: int):
        d = code.slots[id(inst)]
        el_size = inst.allocated_type.size_bytes()
        zero = self.interp.memory.zero
        c = None if inst.array_size is None else self._slot(
            code, inst.array_size
        )

        def op(
            ctx, frame, d=d, c=c, el_size=el_size, zero=zero, nxt=nxt
        ):
            size = el_size if c is None else el_size * max(1, frame.regs[c])
            addr = ctx.stack_alloc(size)
            zero(addr, size)
            frame.regs[d] = addr
            frame.index = nxt

        return op

    # ------------------------------------------------------------------
    def _compile_load(self, code, inst: LoadInst, nxt: int):
        d = code.slots[id(inst)]
        p, lp = self._operand(code, inst.pointer)
        ty = inst.type
        if _is_scalar(ty):
            return (_load_text, ty, (d, p), (None, lp), (), ())
        # Aggregate or exotic width: defer to Memory.load for the exact
        # error behaviour.
        load = self.interp.memory.load

        def op(ctx, frame, d=d, p=p, load=load, ty=ty, nxt=nxt):
            regs = frame.regs
            regs[d] = load(ty, regs[p])
            frame.index = nxt

        return op

    def _compile_store(self, code, inst: StoreInst, nxt: int):
        v, lv = self._operand(code, inst.value)
        p, lp = self._operand(code, inst.pointer)
        ty = inst.value.type
        if _is_scalar(ty):
            return (_store_text, ty, (v, p), (lv, lp), (), ())
        store = self.interp.memory.store

        def op(ctx, frame, v=v, p=p, store=store, ty=ty, nxt=nxt):
            regs = frame.regs
            store(ty, regs[p], regs[v])
            frame.index = nxt

        return op

    # ------------------------------------------------------------------
    def _compile_gep(self, code, inst: GEPInst, nxt: int):
        d = code.slots[id(inst)]
        p, lp = self._operand(code, inst.pointer)
        ty = inst.element_type
        first = inst.indices[0]
        types = [i.type for i in inst.indices]
        # Fold when every step is constant (struct field access,
        # constant array indices).
        if all(isinstance(i, ConstantInt) for i in inst.indices):
            off = _gep_offset(ty, types, [i.value for i in inst.indices])
            return (_gep_text, None, (d, p), (None, lp), (off,), ())
        if len(inst.indices) == 1:
            i0, li = self._operand(code, first)
            return (
                _gep_text, first.type,
                (d, p, i0), (None, lp, li), (ty.size_bytes(),), (),
            )
        slots = [self._slot(code, i) for i in inst.indices]

        def op(ctx, frame, d=d, p=p, ty=ty, slots=slots, types=types, nxt=nxt):
            regs = frame.regs
            offset = _gep_offset(ty, types, [regs[s] for s in slots])
            regs[d] = regs[p] + offset
            frame.index = nxt

        return op

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def _edge(
        self, code: CompiledFunction, origin: BasicBlock, target: BasicBlock
    ) -> tuple:
        """Fragment of the edge ``origin -> target``: the phi parallel
        copy plus the block/ops/index switch.  Its shape is the phi
        count, or None when a phi has no incoming value for *origin*;
        such an edge raises when taken."""
        tbc = code.blocks[id(target)]
        dests: list[int] = []
        sources: list[int] = []
        literals: list[int | None] = []
        for phi in target.instructions:
            if not isinstance(phi, PhiInst):
                break
            incoming = phi.incoming_for(origin)
            if incoming is None:
                exc = InterpreterError(
                    f"phi %{phi.name} has no incoming for {origin.name}"
                )
                return (_edge_text, None, (), (), (), (exc,))
            slot, literal = self._operand(code, incoming)
            dests.append(code.slots[id(phi)])
            sources.append(slot)
            literals.append(literal)
        # tbc.ops is stable: blocks are filled in order, not replaced
        return (
            _edge_text, len(dests), (*dests, *sources),
            (None,) * len(dests) + tuple(literals), (), (tbc, tbc.ops),
        )

    def _compile_condbr(self, code, block, inst: CondBranchInst):
        c, literal = self._operand(code, inst.condition)
        _, taken, tslots, tlits, _, tobjects = self._edge(
            code, block, inst.true_block
        )
        _, other, fslots, flits, _, fobjects = self._edge(
            code, block, inst.false_block
        )
        return (
            _condbr_text, (taken, other),
            (c, *tslots, *fslots), (literal, *tlits, *flits),
            (), tobjects + fobjects,
        )

    def _compile_switch(self, code, block, inst: SwitchInst):
        c = self._slot(code, inst.condition)
        default = self._edge(code, block, inst.default)
        edges = {}
        for case_value, target in inst.cases:
            # First matching case wins, like the interpreter's scan.
            edges.setdefault(case_value, self._edge(code, block, target))
        default_edge = _bind(default, None)
        table = {value: _bind(edge, None) for value, edge in edges.items()}
        ty = inst.condition.type
        # the cases are C-signed values
        half, full = (
            (1 << (ty.bits - 1), 1 << ty.bits) if isinstance(ty, IntType)
            else (math.inf, 0)
        )

        def op(
            ctx, frame, c=c, table=table, default_edge=default_edge,
            half=half, full=full,
        ):
            v = frame.regs[c]
            if v >= half:
                v -= full
            table.get(v, default_edge)(ctx, frame)

        if any(edge[1] is None for edge in (default, *edges.values())):
            # an edge that raises keeps the switch out of local runs
            op.may_raise = True
        return op

    def _compile_ret(self, code, inst: ReturnInst):
        v = None if inst.value is None else self._slot(code, inst.value)

        def op(ctx, frame, v=v, _DONE=_DONE):
            stack = ctx.stack
            stack.pop()
            ctx.stack_ptr = frame.stack_mark
            value = None if v is None else frame.regs[v]
            if not stack:
                ctx.return_value = value
                ctx.state = _DONE
                return
            rd = frame.ret_dst
            caller = stack[-1]
            if rd is not None:
                caller.regs[rd] = value
            caller.index = frame.ret_index

        return op

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _native_convs(self, inst: CallInst):
        """Positions of int args natives see as C-signed values, with
        the bounds that map a register's bit pattern to that value."""
        return tuple(
            (i, 1 << (a.type.bits - 1), 1 << a.type.bits)
            for i, a in enumerate(inst.args)
            if isinstance(a.type, IntType) and a.type.bits > 1
        )

    def _compile_call(self, code, inst: CallInst, nxt: int):
        interp = self.interp
        arg_slots = tuple(self._slot(code, a) for a in inst.args)
        ty = inst.type
        dst = None if ty.is_void else code.slots[id(inst)]
        convs = self._native_convs(inst)
        callee = inst.callee
        if isinstance(callee, Function):
            name = callee.name
            # native_for raises for an undefined external — defer that
            # to execution time (the interpreter only fails when the
            # call actually runs).
            native = interp.native_for(callee)
            if native is not None:
                return partial(
                    _call_native, native, interp, arg_slots, convs, dst, ty,
                    nxt,
                )
            callee_code = interp.code_for(callee)
            depth = interp.max_call_depth

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

            return op
        # Indirect call: resolve the target at run time, like the
        # interpreter (invalid address traps, undefined extern raises).
        cslot = self._slot(code, callee)

        def op(
            ctx, frame, interp=interp, cslot=cslot,
            arg_slots=arg_slots, convs=convs, dst=dst, ty=ty, nxt=nxt,
        ):
            addr = frame.regs[cslot]
            fn = interp.memory.function_at(addr)
            if fn is None:
                raise Trap(f"indirect call to invalid address {addr:#x}")
            native = interp.native_for(fn)
            if native is not None:
                return _call_native(
                    native, interp, arg_slots, convs, dst, ty, nxt, ctx, frame
                )
            frame_new = ctx._push_frame(fn, [frame.regs[s] for s in arg_slots])
            frame_new.ret_dst = dst
            frame_new.ret_index = nxt

        return op


# ---------------------------------------------------------------------------
# Op printers: the one definition of each inlinable op
# ---------------------------------------------------------------------------
# ``printer(shape, r, i, o, at)`` returns the source of one op.  *shape*
# is all its text depends on besides the operands (kind, predicate,
# types); ``r`` spells its registers, destination first, ``i`` its
# immediates and ``o`` its objects.  *at* is the statement an op runs
# before it may raise: ``frame.index = <index>; `` in a run, empty in a
# template, whose op runs at ``frame.index`` already.
_ICMP_SYMBOLS = {
    ICmpPred.EQ: "==", ICmpPred.NE: "!=",
    ICmpPred.SLT: "<", ICmpPred.SLE: "<=",
    ICmpPred.SGT: ">", ICmpPred.SGE: ">=",
    ICmpPred.ULT: "<", ICmpPred.ULE: "<=",
    ICmpPred.UGT: ">", ICmpPred.UGE: ">=",
}
_FCMP_SYMBOLS = {
    FCmpPred.OEQ: "==", FCmpPred.UNE: "!=",
    FCmpPred.OLT: "<", FCmpPred.OLE: "<=",
    FCmpPred.OGT: ">", FCmpPred.OGE: ">=",
}
_FLOAT_SYMBOLS = {BinOp.FADD: "+", BinOp.FSUB: "-", BinOp.FMUL: "*"}
_INT_SYMBOLS = {
    BinOp.ADD: "+", BinOp.SUB: "-", BinOp.MUL: "*",
    BinOp.AND: "&", BinOp.OR: "|", BinOp.XOR: "^",
    BinOp.UDIV: "//", BinOp.UREM: "%",
}


class _Sext(str):
    """A ``sext`` result's spelling in generated code.  Its ``narrow`` is its
    source's spelling and type, so a signed use reads the source's
    signed value instead (:func:`_signed`), which is the same number
    computed on a narrower integer."""

    narrow: tuple


def _signed(expr: str, ty: IntType) -> str:
    """Source of the C-signed value of *expr* (an atom) of type *ty*.
    A register holds its type's unsigned bit pattern, so only a literal
    is masked."""
    if expr.__class__ is _Sext:
        return _signed(*expr.narrow)
    half = 1 << (ty.bits - 1)
    if expr.isdigit():
        return f"(({expr} & {ty.mask}) ^ {half}) - {half}"
    return f"({expr} ^ {half}) - {half}"


def _float_binop_text(shape: tuple, r, i, o, at) -> str:
    kind, ty = shape
    d, x, y = r
    #: an f32 result is rounded to single precision; fmod is exact
    rounded = "_f32({})" if ty.bits == 32 else "{}"
    if kind in _FLOAT_SYMBOLS:
        value = f"{x} {_FLOAT_SYMBOLS[kind]} {y}"
        return f"{d} = {rounded.format(value)}"
    if kind == BinOp.FDIV:
        r, first = (y, "") if y.isidentifier() else ("r", f"r = {y}\n")
        quotient = rounded.format(f"{x} / {r}")
        return (
            f"{first}{d} = {quotient} if {r} != 0.0 else _fdiv0({x}, {r})"
        )
    # frem: math.fmod raises on infinities
    return f"{at}{d} = _frem({x}, {y})"


def _int_binop_text(shape: tuple, r, i, o, at) -> str:
    kind, ty = shape
    d, x, y = r
    mask = ty.mask
    bits = ty.bits
    #: the right operand when it is a literal
    constant = int(y) if y.isdigit() else None
    if kind in (BinOp.ADD, BinOp.SUB, BinOp.MUL):
        return f"{d} = ({x} {_INT_SYMBOLS[kind]} {y}) & {mask}"
    if kind in (BinOp.AND, BinOp.OR, BinOp.XOR):
        return f"{d} = {x} {_INT_SYMBOLS[kind]} {y}"
    if kind in (BinOp.SHL, BinOp.LSHR, BinOp.ASHR):
        shift = f"({y} % {bits})" if constant is None else constant % bits
        if kind == BinOp.SHL:
            return f"{d} = ({x} << {shift}) & {mask}"
        if kind == BinOp.LSHR:
            return f"{d} = {x} >> {shift}"
        return f"{d} = (({_signed(x, ty)}) >> {shift}) & {mask}"
    if kind in (BinOp.UDIV, BinOp.UREM):
        symbol = _INT_SYMBOLS[kind]
        if constant:
            return f"{d} = {x} {symbol} {constant}"
        return f"{at}r = {y}\nif r == 0: _div0()\n{d} = {x} {symbol} r"
    # sdiv/srem: C's truncating quotient of the signed operands
    if constant:
        half = 1 << (bits - 1)
        sb = ((constant & mask) ^ half) - half
        lines = [
            f"a = {_signed(x, ty)}",
            f"q = abs(a) // {abs(sb)}",
            f"if a {'<' if sb > 0 else '>='} 0: q = -q",
        ]
        sb_text = f"({sb})"
    else:
        lines = [
            f"{at}r = {y}",
            "if r == 0: _div0()",
            f"a = {_signed(x, ty)}",
            f"b = {_signed('r', ty)}",
            "q = abs(a) // abs(b)",
            "if (a < 0) != (b < 0): q = -q",
        ]
        sb_text = "b"
    if kind == BinOp.SDIV:
        lines.append(f"{d} = q & {mask}")
    else:
        lines.append(f"{d} = (a - q * {sb_text}) & {mask}")
    return "\n".join(lines)


def _icmp_text(shape: tuple, r, i, o, at) -> str:
    pred, ty = shape
    d, x, y = r
    symbol = _ICMP_SYMBOLS[pred]
    if pred.is_signed and isinstance(ty, IntType):
        if _Sext in (x.__class__, y.__class__):
            return (
                f"{d} = 1 if {_signed(x, ty)} {symbol} {_signed(y, ty)} "
                "else 0"
            )
        # x -> x ^ half maps signed order onto unsigned
        half = 1 << (ty.bits - 1)
        x, y = (f"({v} & {ty.mask})" if v.isdigit() else v for v in (x, y))
        return f"{d} = 1 if {x} ^ {half} {symbol} {y} ^ {half} else 0"
    return f"{d} = 1 if {x} {symbol} {y} else 0"


def _fcmp_text(pred: FCmpPred, r, i, o, at) -> str:
    d, x, y = r
    if pred == FCmpPred.ONE:
        # ordered: false when an operand is NaN, unlike Python's !=
        return f"{d} = 1 if {x} < {y} or {x} > {y} else 0"
    return f"{d} = 1 if {x} {_FCMP_SYMBOLS[pred]} {y} else 0"


def _select_text(shape: None, r, i, o, at) -> str:
    d, c, t, f = r
    return f"{d} = {t} if {c} else {f}"


def _cast_text(shape: tuple, r, i, o, at) -> str:
    kind, src_ty, dst_ty = shape
    d, x = r
    narrow = isinstance(dst_ty, FloatType) and dst_ty.bits == 32
    if kind == CastOp.TRUNC:
        return f"{d} = {x} & {dst_ty.mask}"
    if kind == CastOp.SEXT:
        return f"{d} = {_sext_text(x, src_ty, dst_ty)}"
    if kind in (CastOp.FPTOSI, CastOp.FPTOUI):
        # inf and nan trap
        return f"{at}{d} = _fptoi({x}) & {dst_ty.mask}"
    if kind in (CastOp.PTRTOINT, CastOp.INTTOPTR, CastOp.BITCAST) and (
        isinstance(dst_ty, IntType)
    ):
        # int() raises on inf and nan
        return f"{at}{d} = int({x}) & {dst_ty.mask}"
    if kind in (CastOp.SITOFP, CastOp.UITOFP):
        value = _signed(x, src_ty) if kind == CastOp.SITOFP else x
        # one rounding to a float's 24 bits, not two through a double
        return f"{d} = {'_itof32' if narrow else 'float'}({value})"
    if kind in (CastOp.FPEXT, CastOp.FPTRUNC):
        # narrowing a double past f32's range overflows
        return f"{at}{d} = _f32({x})" if narrow else f"{d} = float({x})"
    return f"{d} = {x}"  # zext and pointer-to-pointer casts


def _sext_text(x: str, src_ty: IntType, dst_ty: IntType) -> str:
    return f"({_signed(x, src_ty)}) & {dst_ty.mask}"


def _load_text(ty, r, i, o, at, size="len(data)") -> str:
    """A load only raises through ``fault``, so only that path stores
    the index.  *size* spells the memory's size."""
    d, p = r
    width = ty.size_bytes()
    suffix = ""
    if isinstance(ty, FloatType):
        unpack = f"_uf{ty.bits}"
    elif isinstance(ty, IntType):
        unpack = f"_u{ty.bits}"
        suffix = " & 1" if ty.bits == 1 else ""
    else:
        unpack = "_u64"
    a, first = _address(p, "")
    return (
        f"{first}"
        f"if {a} <= 0 or {a} + {width} > {size}: {at}fault({a}, {width})\n"
        f"{d} = {unpack}(data, {a})[0]{suffix}"
    )


def _store_text(ty, r, i, o, at, size="len(data)") -> str:
    """A store that converts its value (``int()``/``float()``) may raise
    after the bounds check too, so it stores the index first.  An
    integer register holds the bit pattern it stores already.  *size*
    spells the memory's size."""
    v, p = r
    width = ty.size_bytes()
    if isinstance(ty, FloatType):
        # f32 packing overflows past its range
        pack, value, converts = f"_pf{ty.bits}", f"float({v})", True
    elif isinstance(ty, IntType):
        pack, value, converts = f"_p{ty.bits}", v, False
    else:
        # a pointer may be negative, or a float bitcast to a pointer
        converts = not v.isdigit()
        value = f"int({v}) & {(1 << 64) - 1}" if converts else v
        pack = "_p64"
    a, first = _address(p, at if converts else "")
    return (
        f"{first}"
        f"if {a} <= 0 or {a} + {width} > {size}: "
        f"{'' if converts else at}fault({a}, {width})\n"
        f"{pack}(data, {a}, {value})"
    )


def _address(p: str, at: str) -> tuple[str, str]:
    """How a load or store spells its address *p*, and the line that
    runs *at* and reads *p* into the local ``a`` first unless *p* is a
    name already."""
    if p.isidentifier():
        return p, f"{at.rstrip('; ')}\n" if at else ""
    return "a", f"{at}a = {p}\n"


def _gep_text(idx_ty, r, i, o, at) -> str:
    """A folded ``gep``: the base plus a constant offset ``i[0]`` when
    *idx_ty* is None, else plus the index of type *idx_ty* times the
    element size ``i[0]``."""
    if idx_ty is None:
        d, p = r
        return f"{d} = {p} + {i[0]}"
    d, p, x = r
    if isinstance(idx_ty, IntType):
        x = f"({_signed(x, idx_ty)})"
    return f"{d} = {p} + {x} * {i[0]}"


def _edge_text(phis: int | None, r, i, o, at, jump=None) -> str:
    """Take an edge into a block with *phis* leading phis: ``r`` holds
    their destinations, then their incoming values, and ``o`` the
    target's BlockCode and op list.  An edge whose phis are None raises
    ``o[0]``.  In a function's code, *jump* turns the ``frame`` stores
    that move to the target into the jump (see :func:`_function_source`)."""
    if phis is None:
        return f"{at}raise {o[0]}"
    stores = f"frame.bc = {o[0]}\nframe.ops = {o[1]}\nframe.index = {phis}"
    lines = [stores if jump is None else jump(stores)]
    if phis:
        # One tuple assignment is a parallel copy: the right-hand side
        # is read in full before any register is written.
        lines.insert(0, f"{', '.join(r[:phis])} = {', '.join(r[phis:])}")
    return "\n".join(line for line in lines if line) or "pass"


def _arms(shape: tuple, r, o) -> tuple:
    """``(phis, registers, objects)`` of each edge of a ``condbr`` whose
    phi counts are *shape*: its registers ``r`` (its condition first)
    and objects ``o`` hold theirs in order."""
    k = 1 + 2 * (shape[0] or 0)
    m = 1 if shape[0] is None else 2
    return (shape[0], r[1:k], o[:m]), (shape[1], r[k:], o[m:])


def _condbr_text(shape: tuple, r, i, o, at) -> str:
    """Branch on ``r[0]`` over the two edges whose phi counts are
    *shape*."""
    (t, tr, to), (f, fr, fo) = _arms(shape, r, o)
    return (
        f"if {r[0]}:\n{_indent(_edge_text(t, tr, i, to, at))}\n"
        f"else:\n{_indent(_edge_text(f, fr, i, fo, at))}"
    )


#: printers whose ops read or write guest memory (``data``, ``fault``)
_MEMORY_PRINTERS = frozenset({_load_text, _store_text})
#: printers whose ops define no value (the others' first register is
#: their result)
_NO_RESULT = frozenset({_store_text, _edge_text, _condbr_text})
#: printers whose ops set ``frame.index`` themselves
_JUMP_PRINTERS = frozenset({_edge_text, _condbr_text})


def _template_source(fragment: tuple) -> str:
    """Source of the single-step op for *fragment*'s printer and shape:
    the printer's text with the fragment's registers, immediates and
    objects as parameters ``r<k>``, ``i<k>`` and ``o<k>``.  It holds no
    slot, constant or name, so every op of one shape shares its code."""
    printer, shape, slots, _, imms, objects = fragment
    regs = [f"r{k}" for k in range(len(slots))]
    imm_names = [f"i{k}" for k in range(len(imms))]
    names = [f"o{k}" for k in range(len(objects))]
    params = ["ctx", "frame", *regs, *imm_names, *names]
    text = printer(shape, [f"regs[{r}]" for r in regs], imm_names, names, "")
    if printer in _MEMORY_PRINTERS:
        params += ["data", "fault"]
    if printer not in _JUMP_PRINTERS:
        params.append("nxt")
        text += "\nframe.index = nxt"
    if regs:
        text = "regs = frame.regs\n" + text
    return f"def op({', '.join(params)}):\n{_indent(text)}\n"


def _bind(fragment: tuple, nxt: int | None, memory=None) -> Callable:
    """The single-step closure of *fragment*: the template of its
    printer and shape (:func:`_template_source`) with the fragment's
    slots, immediates and objects, *memory*'s data and fault handler
    (when the op touches memory) and the next index (when it does not
    jump) as default arguments."""
    printer, shape, slots, _, imms, objects = fragment
    code = _TEMPLATES.get((printer, shape))
    if code is None:
        code = _factory_code(_template_source(fragment))
        _TEMPLATES[printer, shape] = code
    args = slots + imms + objects
    if printer in _MEMORY_PRINTERS:
        args += (memory.data, memory.fault)
    if printer not in _JUMP_PRINTERS:
        args += (nxt,)
    return FunctionType(code, _RUN_GLOBALS, None, args)


def _first_step(ctx, frame) -> None:
    """An inlined op's entry in ``BlockCode.ops`` until it is first
    single-stepped: bind the op's closure, put it in its place in the
    same list, and run it."""
    BINDS.inc()
    index = frame.index
    op = frame.ops[index] = _bind(
        frame.bc.fragments[index], index + 1, ctx.interp.memory
    )
    op(ctx, frame)


def _block_shape(bc: BlockCode) -> tuple:
    """``(shape, objects, offsets, locals)`` for *bc*: its shape (its
    fragments without objects, None for a called closure, its first slot
    and block-local slots), the objects its code binds in op order,
    where each op's start, and its block-local slots."""
    shapes = []
    objects: list = []
    offsets = []
    locals_ = []
    for i, src in enumerate(bc.fragments):
        offsets.append(len(objects))
        if src is None:
            shapes.append(None)
            objects.append(bc.ops[i])
        else:
            shapes.append((*src[:5], len(src[5])))
            objects.extend(src[5])
            if src[0] not in _NO_RESULT and src[2][0] not in bc.escaped:
                locals_.append(src[2][0])
    offsets.append(len(objects))
    shape = (tuple(shapes), bc.first_slot, tuple(locals_))
    return shape, objects, offsets, frozenset(locals_)


def _components(members: list[int], succ: list) -> list[list[int]]:
    """The strongly connected components of the graph *succ* on
    *members*, in topological order (Kosaraju's algorithm)."""
    inside = set(members)
    finished: list[int] = []
    seen: set[int] = set()
    for root in members:
        work = [] if root in seen else [(root, iter(succ[root]))]
        seen.add(root)
        while work:
            v, edges = work[-1]
            w = next((w for w in edges if w in inside and w not in seen), None)
            if w is None:
                finished.append(work.pop()[0])
            else:
                seen.add(w)
                work.append((w, iter(succ[w])))
    preds: dict[int, list[int]] = {v: [] for v in members}
    for v in members:
        for w in set(succ[v]) & inside:
            preds[w].append(v)
    out = []
    for v in reversed(finished):
        if v in seen:
            seen.discard(v)
            component = [v]
            for u in component:
                fresh = [w for w in preds[u] if w in seen]
                seen.difference_update(fresh)
                component.extend(fresh)
            out.append(component)
    return out


def _nest(members, succ, preds, entries, heads, depth: int = 1) -> list:
    """The loop nests of the graph *succ* on *members*: its strongly
    connected components in topological order, each a node or, for a
    cycle, ``[head, items...]``: the head (added to *heads*) is its first
    node entered from outside (a natural loop's header), and the items
    nest the rest in turn, flat past :data:`MAX_NESTED_LOOPS`."""
    items: list = []
    for component in _components(members, succ):
        v = component[0]
        if len(component) == 1 and v not in succ[v]:
            items.append(v)
            continue
        inside = set(component)
        head = min([
            v for v in component
            if v in entries or any(u not in inside for u in preds[v])
        ] or component)
        heads.add(head)
        rest = list(dict.fromkeys(
            [t for t in succ[head] if t in inside and t != head]
            + [v for v in members if v in inside and v != head]
        ))
        inner = _nest(rest, succ, preds, entries, heads, depth + 1)
        items.append(
            [head, *(_flat(inner) if depth >= MAX_NESTED_LOOPS else inner)]
        )
    return items


def _flat(items: list):
    """The nodes of nested *items* in order."""
    for item in items:
        if item.__class__ is list:
            yield from _flat(item)
        else:
            yield item


class _Level:
    """Generated code's body (no ``parent``) or one of its loops: its
    *items*, nodes or loops.  ``where`` maps the nodes under it (numbers
    ``lo``..``hi``) to their item; ``guarded[k]``: item ``k`` runs only
    when ``b`` names it; ``conts``: nodes it goes round for; ``fwd[k]``:
    nodes item ``k`` jumps forward to; ``post``: node -> how the parent
    goes on when the loop leaves for it."""

    def __init__(self, items, parent, index, num: dict, level_of: dict):
        self.parent, self.index, self.lo = parent, index, len(num)
        self.where = {}
        self.items = []
        for k, item in enumerate(items):
            if item.__class__ is int:
                num[item] = len(num)
                self.where[item] = k
                level_of[item] = self
            else:
                item = _Level(item, self, k, num, level_of)
                self.where.update(dict.fromkeys(item.where, k))
            self.items.append(item)
        self.hi = len(num) - 1
        self.guarded, self.conts, self.fwd, self.post = [], set(), {}, {}


def _function_source(
    nodes: list, arcs: list, entered: list, local: bool, detailed: bool
) -> tuple:
    """``(source, entries, sites)`` of the generated function of the
    runs *nodes* of one kind (:meth:`ClosureCompiler.run_functions`):
    ``arcs[j]`` holds per edge of run ``j``'s terminator the run it leads
    to or None, ``entered[j]`` whether an edge outside the code does.

    ``make(data, fault, S, N, X)`` returns ``run(ctx, frame, limit, b)``,
    which starts at the run numbered ``b`` (in printing order) and
    returns the ops it retired.  An item
    of the body or of a loop (:func:`_nest`) runs under ``if b ==
    <number>:`` only where control may reach it on its way to another,
    and a run whose only edge in is one edge is printed at that edge.
    ``n`` sums the ops retired where control joins; elsewhere their
    number is a literal.  At a *checkpoint*, a loop head or an *entry*
    (a run no edge in the code leads to, or one an edge outside it
    does), the code goes on only if the most ops it can retire up to the
    next one still fit in *limit*, else it stops there; it is entered
    only at one, so ``entries[j]`` is ``(that bound, b)`` for a
    checkpoint and None for any other run.  A serial op that may raise
    first sets ``k``, and ``sites[k]`` is ``(run, index, ran, ops)``
    for :func:`_unwind`.

    A block-local value (:func:`_block_shape`) is the Python local
    ``v<slot>``, stored to ``regs`` only before a called closure of its
    block and where a run stops inside its block, so code stopping there
    leaves the registers its single steps would; an edge leaves it dead.
    A signed read of a ``sext`` result reads the signed value of its
    source, the same number on a narrower integer, and a block-local
    ``sext`` is spelled as its value, computed only by a read that is not
    signed or a store to ``regs``.  Each register the code cannot write
    is read into ``v<slot>`` once per dispatch, and ``len(data)`` into
    ``size``, again after a called closure, which may grow memory."""
    count = len(nodes)
    succ = [[t for t in edges if t is not None] for edges in arcs]
    preds: list[list[int]] = [[] for _ in nodes]
    for u, targets in enumerate(succ):
        for t in targets:
            preds[t].append(u)
    entries = {j for j in range(count) if entered[j] or not preds[j]}
    heads: set[int] = set()
    roots = sorted(range(count), key=lambda j: bool(preds[j]))
    nested = _nest(roots, succ, preds, entries, heads)
    checks = entries | heads
    #: the most ops from each node up to the next checkpoint or exit
    bound: dict[int, int] = {}
    for u in reversed(list(_flat(nested))):
        bound[u] = nodes[u][2] - nodes[u][1] + max(
            (bound[t] for t in succ[u] if t not in checks), default=0
        )
    #: node -> the node that prints it at the edge between them
    inline: dict[int, int] = {}
    depth: dict[int, int] = {}  # nodes printed around it, at most 24

    def fold(items: list) -> list:
        level = {t for t in items if t.__class__ is int}
        kept = []
        for t in items:
            one = t.__class__ is int and len(preds[t]) == 1
            u = preds[t][0] if one else -1
            if t.__class__ is list:
                kept.append(fold(t))
            elif u in level and t not in checks and depth.get(u, 0) < 24:
                inline[t] = u
                depth[t] = depth.get(u, 0) + 1
            else:
                kept.append(t)
        return kept

    num: dict[int, int] = {}
    level_of: dict[int, _Level] = {}
    top = _Level(fold(nested), None, 0, num, level_of)

    def hops(u: int, t: int) -> list:
        """``(level, from item, to item or None)`` per level a jump
        from *u* to *t* leaves, then for the one holding *t*."""
        while u in inline:
            u = inline[u]
        level = level_of[u]
        steps = [(level, level.where[u], level.where.get(t))]
        while steps[-1][2] is None:
            level = level.parent
            steps.append((level, steps[-1][0].index, level.where.get(t)))
        return steps

    def kind(step: tuple) -> str:
        return "break" if step[2] is None else (
            "fall" if step[2] > step[1] else "continue"
        )

    for u in range(count):
        for t in succ[u]:
            if inline.get(t) != u:
                steps = hops(u, t)
                for (level, _, _), step in zip(steps, steps[1:]):
                    level.post[t] = kind(step)
                level, source, _ = steps[-1]
                if kind(steps[-1]) == "fall":
                    level.fwd.setdefault(source, set()).add(t)
                else:
                    level.conts.add(t)

    def walk(level: _Level, arriving: set) -> None:
        """Guard each item control may reach bound for another node."""
        flight = arriving | level.conts
        for k, item in enumerate(level.items):
            own = {item} if item.__class__ is int else set(item.where)
            level.guarded.append(bool(flight - own))
            if item.__class__ is not int:
                walk(item, flight & own)
            flight = (flight - own) | level.fwd.get(k, set())
        assert not flight, flight

    walk(top, checks)

    def routed(level: _Level, start: int, t: int) -> bool:
        """Whether a guard stands between item *start* and node *t*."""
        k = level.where[t]
        inner = level.items[k].__class__ is _Level
        return any(level.guarded[start:k + 1]) or inner and routed(
            level.items[k], 0, t
        )

    sites: list[tuple] = []
    #: where node *j*'s objects start in ``X``
    base = [0]
    inside: set[int] = set()  # the slots the code can write
    for bc, start, end in nodes:
        offsets = bc.shape[2]
        base.append(base[-1] + offsets[end] - offsets[start])
        inside.update(
            range(bc.first_slot, bc.first_slot + len(bc.block.instructions))
        )
    hoisted: set[int] = set()
    memory = {"size": "size"} if any(
        src is not None and src[0] in _MEMORY_PRINTERS
        for bc, start, end in nodes for src in bc.fragments[start:end]
    ) else {}

    def jump(j: int, t: int | None, p: int):
        """``(jump, ends)``: node *j*'s edge to node *t* (None: out of
        the code), after *p* ops not in ``n`` yet."""
        if t is None:
            return (lambda stores: f"{stores}\nreturn n + {p}"), True
        if inline.get(t) == j:
            text, ends = node_text(t, p)
            return (lambda stores: text), ends
        steps = hops(j, t)
        level, source, target = steps[-1]
        how = kind(steps[0])
        lines = [f"n += {p}"]
        if how == "break" or routed(
            level, source + 1 if target > source else 0, t
        ):
            lines.append(f"b = {num[t]}")
        if how != "fall":
            lines.append(how)
        return (lambda stores: "\n".join(lines)), how != "fall"

    def node_text(j: int, p: int) -> tuple[str, bool]:
        """The code of node *j*, entered after *p* ops not in ``n`` yet,
        and whether it ends in a jump (else it falls through)."""
        bc, start, end = nodes[j]
        fragments = bc.fragments
        insts = bc.block.instructions
        _, _, offsets, locals_ = bc.shape

        def objects(i: int) -> list[str]:
            first = base[j] + offsets[i] - offsets[start]
            return [f"X[{k}]" for k in range(first, first + offsets[i + 1]
                                              - offsets[i])]

        lines = []
        if j in checks:
            limit = f"L{j}" if j in heads else f"limit - {bound[j]}"
            lines.append(
                f"if n > {limit}:\n"
                f"    return _stop(frame, N[{j}], {start}, n)"
            )
        #: spellings of the values the block defined so far
        spelled: dict[int, str] = {}
        #: the block-local values not in ``regs`` yet
        pending: list[tuple[int, str]] = []

        def spell(slot: int, literal: int | None) -> str:
            if literal is not None:
                return str(literal)
            name = spelled.get(slot)
            if name is not None:
                return name
            if slot in inside:
                return f"regs[{slot}]"
            hoisted.add(slot)
            return f"v{slot}"

        def spill() -> None:
            lines.extend(f"regs[{slot}] = {value}" for slot, value in pending)
            pending.clear()

        def sited(text: str, i: int, ops: int) -> str:
            if "@" not in text:
                return text
            sites.append((j, i, p, ops))
            return text.replace("@", str(len(sites)))

        at = "" if local else "k = @; "
        jumps = end == len(insts) and bool(bc.exits)
        for i in range(start, end - jumps):
            p += 1
            src = fragments[i]
            if src is None:
                spill()
                call = f"{at}{objects(i)[0]}(ctx, frame)"
                lines.append(sited(call, i, i - start + 1))
                if memory:
                    lines.append("size = len(data)")
                continue
            printer, shape, slots, literals, imms, _ = src
            regs = [spell(s, literal) for s, literal in zip(slots, literals)]
            if printer not in _NO_RESULT:
                d = slots[0]
                sext = printer is _cast_text and shape[0] is CastOp.SEXT
                if sext and d in locals_:
                    # spelled as its value, computed where it is read
                    spelled[d] = value = _Sext(
                        f"({_sext_text(regs[1], *shape[1:])})"
                    )
                    value.narrow = (regs[1], shape[1])
                    pending.append((d, value))
                    continue
                if d in locals_:
                    regs[0] = f"v{d}"
                    pending.append((d, regs[0]))
                if sext:
                    regs[0] = _Sext(regs[0])
                    regs[0].narrow = (regs[1], shape[1])
                if d in locals_ or sext:
                    spelled[d] = regs[0]
            args = (shape, regs, [str(imm) for imm in imms], objects(i), at)
            text = printer(
                *args, **memory
            ) if printer in _MEMORY_PRINTERS else printer(*args)
            lines.append(sited(text, i, i - start + 1))
        if detailed:
            lines.append(f"cb(F, N[{j}].block.name, {end - start})")
        if not jumps:
            if end == len(insts) and isinstance(insts[-1], SwitchInst):
                lines.append(f"return n + {p}")  # the switch took its edge
            else:
                spill()
                lines.append(f"return _stop(frame, N[{j}], {end}, n + {p})")
            return "\n".join(lines), True
        p += 1
        printer, shape, slots, literals, _, _ = fragments[end - 1]
        arms = [(shape, list(zip(slots, literals)), objects(end - 1))]
        if printer is _condbr_text:
            arms = _arms(shape, *arms[0][1:])
        texts = []
        for (phis, pairs, o), t in zip(arms, arcs[j]):
            # a phi copy writes ``regs``
            r = [f"regs[{s}]" for s, _ in pairs[:phis]]
            r += [spell(s, literal) for s, literal in pairs[phis or 0:]]
            go, ends = jump(j, t, p)
            text = _edge_text(phis, r, (), o, at, go)
            texts.append((text, ends or phis is None))
        if len(texts) == 1:
            text, ends = texts[0]
        else:
            # an arm that ends in a jump goes inside the ``if``
            (yes, ends_yes), (no, ends_no) = texts
            c = spell(slots[0], literals[0])
            if ends_no and (not ends_yes or len(no) <= len(yes)):
                text = f"if not {c}:\n{_indent(no)}\n{yes}"
                ends = ends_yes
            elif ends_yes:
                text, ends = f"if {c}:\n{_indent(yes)}\n{no}", ends_no
            else:
                text = f"if {c}:\n{_indent(yes)}\nelse:\n{_indent(no)}"
                ends = False
        lines.append(sited(text, end - 1, 0))
        return "\n".join(lines), ends

    def level_text(level: _Level) -> str:
        out = []
        for k, item in enumerate(level.items):
            if item.__class__ is int:
                text = node_text(item, 0)[0]
                test = f"b == {num[item]}"
            else:
                text = f"while True:\n{_indent(level_text(item))}"
                test = f"{item.lo} <= b <= {item.hi}"
                for how in ("continue", "break"):
                    to = sorted(
                        num[t] for t, h in item.post.items() if h == how
                    )
                    if to and len(set(item.post.values())) == 1:
                        text += f"\n{how}"
                    elif to:
                        text += f"\nif b in {tuple(to)}:\n    {how}"
            if level.guarded[k]:
                text = f"if {test}:\n{_indent(text)}"
            out.append(text)
        return "\n".join(out)

    body = level_text(top)
    head = ["regs = frame.regs", "n = 0"]
    head += [f"v{slot} = regs[{slot}]" for slot in sorted(hoisted)]
    head += ["size = len(data)"] * bool(memory)
    if detailed:
        head += ["cb = ctx.interp.profile.count_block", "F = frame.fn.name"]
    head += [f"L{h} = limit - {bound[h]}" for h in sorted(heads)]
    if not local:
        head.append("k = 0")
        body = (
            f"try:\n{_indent(body)}\nexcept BaseException:\n"
            f"    _unwind(frame, n, S[k], N, {'cb' if detailed else 'None'})\n"
            f"    raise"
        )
    text = _indent("\n".join([*head, body]), 8)
    source = (
        "def make(data, fault, S, N, X):\n"
        f"    def run(ctx, frame, limit=0, b=0):\n{text}\n    return run\n"
    )
    entries = [
        (bound[j], num[j]) if j in checks else None for j in range(count)
    ]
    return source, entries, (None, *sites)


def _gep_offset(ty, types: list, values: list) -> int:
    """The bytes a ``gep`` over *ty* adds to its base for the index
    *values* (bit patterns) of *types*, exactly as
    ``ExecutionContext._gep`` walks them."""
    off = 0
    for k, (idx_ty, value) in enumerate(zip(types, values)):
        signed = value
        if isinstance(idx_ty, IntType):
            signed = idx_ty.to_signed(value)
        if not k:
            off += signed * ty.size_bytes()
        elif isinstance(ty, StructType):
            off += ty.offset_of(value)
            ty = ty.elements[value]
        elif isinstance(ty, ArrayType):
            off += signed * ty.element.size_bytes()
            ty = ty.element
        else:
            raise InterpreterError(f"gep into non-aggregate type {ty}")
    return off


def _is_scalar(ty) -> bool:
    """Whether loads and stores of *ty* are inlined (a struct codec
    reads and writes it)."""
    return (
        isinstance(ty, IntType) and ty.bits in _INT_STRUCTS
    ) or isinstance(ty, (FloatType, PointerType))


# ---------------------------------------------------------------------------
# Shared op helpers
# ---------------------------------------------------------------------------
def _call_native(
    native, interp, arg_slots, convs, dst, ty, nxt, ctx, frame
) -> None:
    """Call *native* on the registers *arg_slots*, those at *convs* as
    C-signed values; unless it asks to spin (``RETRY``), store its
    result to *dst* and go on to op *nxt*."""
    regs = frame.regs
    args = [regs[s] for s in arg_slots]
    for i, half, full in convs:
        if args[i] >= half:
            args[i] -= full
    result = native(interp, ctx, args)
    if result is not RETRY:
        if dst is not None:
            regs[dst] = canonical(ty, result)
        frame.index = nxt


def _raiser(exc: BaseException):
    """An op that raises *exc* when (and only when) executed."""

    def op(ctx, frame, exc=exc):
        raise exc

    return op


_LOCAL_BINOPS = frozenset({
    BinOp.ADD, BinOp.SUB, BinOp.MUL, BinOp.AND, BinOp.OR, BinOp.XOR,
    BinOp.SHL, BinOp.LSHR, BinOp.ASHR,
    BinOp.FADD, BinOp.FSUB, BinOp.FMUL, BinOp.FDIV,
})
_DIV_BINOPS = frozenset({BinOp.UDIV, BinOp.SDIV, BinOp.UREM, BinOp.SREM})
_LOCAL_CASTS = frozenset({CastOp.ZEXT, CastOp.SEXT, CastOp.TRUNC})


def _is_local(inst: Instruction, op, private: set[int]) -> bool:
    """Whether *op*, the fragment or closure compiled from *inst*,
    touches nothing but its frame's registers and private stack slots
    (ids in *private*) and cannot raise — may it join a thread-local
    run?  An edge whose phi count is None raises."""
    if op.__class__ is tuple:
        printer, shape = op[:2]
        if printer is _edge_text and shape is None or (
            printer is _condbr_text and None in shape
        ):
            return False
    elif hasattr(op, "exc") or hasattr(op, "may_raise"):
        return False
    if isinstance(inst, (LoadInst, StoreInst)):
        return id(inst.pointer) in private
    if isinstance(inst, BinaryInst):
        return inst.op in _LOCAL_BINOPS or inst.op in _DIV_BINOPS and (
            isinstance(inst.rhs, ConstantInt) and inst.rhs.value != 0
        )
    if isinstance(inst, CastInst):
        return inst.op in _LOCAL_CASTS
    if isinstance(inst, GEPInst):
        # Only the folded shapes: the generic walk can raise.
        return len(inst.indices) == 1 or all(
            isinstance(i, ConstantInt) for i in inst.indices
        )
    return isinstance(inst, (
        ICmpInst, FCmpInst, SelectInst, BranchInst, CondBranchInst, SwitchInst,
    ))


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
        if isinstance(inst, AllocaInst) and (
            isinstance(inst.allocated_type, PointerType)
            or isinstance(inst.allocated_type, IntType)
            and inst.allocated_type.bits in _INT_STRUCTS
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
    callee = isinstance(inst, CallInst) and inst.callee
    return isinstance(callee, Function) and callee.is_declaration and (
        callee.name in NOCAPTURE
    )


class ClosureFrame:
    """Compiled call frame: dense register file + current dispatch
    table.  ``bc``/``index`` track the real IR position so scheduler
    snapshots and call-site identity (``single``) stay exact."""

    __slots__ = (
        "fn", "code", "bc", "ops", "index", "regs", "stack_mark",
        "ret_dst", "ret_index", "unwound",
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
        #: ops the last code that raised retired (see :func:`_unwind`)
        self.unwound = 0

    @property
    def block(self) -> BasicBlock:
        return self.bc.block
