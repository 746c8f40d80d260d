"""The closure compiler: optimized IR -> pre-compiled Python closures.

One op per *instruction*, one :class:`BlockCode` per basic block.
Operands are resolved at compile time to dense register-file slots —
constants (including global and function addresses, which are fixed per
interpreter instance) live in a constant pool appended to the register
file, so a single step reads each operand with one ``regs[i]`` index.
Control flow is pre-linked: a branch closure captures the target
block's op list and its per-edge phi parallel copy, so taking an edge
is two attribute stores and no lookups (block parameters are "passed
explicitly" in the block-argument sense — each edge knows exactly which
slots to move).

Every integer register holds its type's unsigned bit pattern: constants
are pooled that way, every op that can leave the range masks its
result, and a native's result and an entry point's host arguments are
wrapped to their types (:func:`repro.interp.interpreter.canonical`).
So a signed read of a register (``sdiv``, ``ashr``, a signed ``icmp``,
``sitofp``, ``sext`` and a ``gep`` index) maps it to its signed value
without masking it first; only a literal is masked.

Every block also carries two *run tables*: for each run a loop may
retire back to back in one dispatch, the run's *trace* (one generated
Python function) and the run's length in the block.

* A **serial run** starts at the block's entry index or just after a
  call and ends before the first call, ``ret`` or ``unreachable``
  (otherwise it includes the terminator).  Nothing in it can push or pop
  a frame or change the thread's state, so the serial loop
  (:meth:`repro.exec.engine.ClosureContext.run_to_completion`) may run
  it without a look at the scheduler.
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

A trace does not stop at its run's terminator (see :func:`_trace`).
When an edge leads to a block whose whole body is one run of the same
kind and not yet in the trace, the trace continues there: the only edge
of a ``br``, at a ``condbr`` the true edge when it qualifies, else the
false one.  An edge back to the trace's first block closes a loop the
trace runs in a Python ``while``; every other edge is a side exit that
stores ``frame.bc``/``frame.ops``/``frame.index`` and returns.  So a
loop whose blocks are all one kind of run, such as a ``for`` loop's
condition and body or the copies of a partially unrolled body, takes one
dispatch per entry, not one per block.  A trace is called with the most
ops it may retire, starts a lap of its blocks only when the whole lap
fits, and returns how many ops it retired.  Inside it ``frame`` is
written only at exits: a serial op that can raise (a load or store
fault, a division by a register zero, ``int()`` or ``float()`` on a
stored value, a fallback closure) first notes its position in the lap
in a local, and the trace's handler (:func:`_unwind`) leaves the frame
at the raiser and reports how many ops ran, so the engine retires
exactly the ops up to the raiser.  A run whose block ends in a call is
simply a trace that does not continue.

Each op's semantics are written once, as a *printer* (``_int_binop_text``,
``_load_text``, ``_edge_text``, ...) that returns the op's Python source.
:meth:`ClosureCompiler._compile_inst` describes every op the printer
inlines — integer and float binops, ``icmp``/``fcmp``/``select``, scalar
casts, scalar loads and stores, folded ``gep``s and branches with their
phi copies — as a *fragment*: its printer, its *shape* (op kind,
predicate and operand types), its register slots, immediates and
objects.  The fragment is all the compiler builds for such an op:

* a trace prints the op's text on the trace's first call with operands
  spelled ``regs[<slot>]``, integer constants as literals and float
  constants left in their pool slot (``inf`` and ``nan`` have no
  literal).  A *block-local* value — one whose every use is a later op
  of its own block or a phi copy on an edge leaving that block, never
  a phi — is the Python local ``v<slot>`` instead, written to ``regs``
  only where something outside the trace text may read it (see
  :func:`_trace_source`).  A branch prints only its phi copy when the
  trace follows it, its side exit or its lap count otherwise;
* the op's entry in :attr:`BlockCode.ops` is :func:`_first_step` until
  the op is first single-stepped (team lockstep, the fuel boundary or
  an armed fault injector), which binds its single-step closure and
  puts it in its place: the printer and shape printed once per process
  with every operand a parameter (a *template*, such as ``regs[r0] =
  (regs[r1] + regs[r2]) & 4294967295``), bound with
  ``FunctionType(code, globals, None, (slots..., nxt))``, so ops of one
  shape share one code object.  Most ops only ever retire in traces and
  are never bound;
* :meth:`CompiledFunction.describe` prints it on demand with operands
  spelled ``r<slot>``.

An op the printer does not inline (``alloca``, aggregate loads and
stores, the generic ``gep``, ``switch``, ``ret``, calls and compile-time
raisers) is a hand-written closure, and a run calls it.

Generated source holds only integers, slot indices and fixed operator
text — never an IR name, string or user identifier — and nothing that
belongs to one interpreter: ``Memory.data``, ``Memory.fault``, branch
targets and fallback closures are parameters of a trace's factory
``make(data, fault, path, ...)`` and default arguments of a template.
One process-wide table maps source text to its code object
(:data:`RUN_CODE_CAP` entries at most), and in front of it a trace's
fragments and edge structure map to its source, so an interpreter pays
only for ``FunctionType(code, globals)(*objects)`` when a trace's shape
was seen before, in this program or another, and prints nothing.
Templates are also kept by shape, so a process compiles each at most
once.

Scheduling stays exactly what one-instruction-per-``step()`` lockstep
produces: the runtime's observable semantics (round-robin interleaving,
FIFO dynamic dispatch, ``critical`` spin order, printf ordering, fuel
exhaustion point) only ever see non-local instructions, and those still
retire one at a time in lockstep order.  Compiling each instruction
ahead of time removes the per-step operand dispatch (``isinstance``
chains, ``id()``-keyed register dicts, ``value_of`` constant
re-evaluation) that dominates the tree walker; the traces remove the
per-instruction and per-block trips through the dispatch loop and the
per-op call, ``frame.regs`` load and ``frame`` stores.

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
import itertools
import math
import struct
import time
import zlib
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


def charge_trace(profile, fn_name: str, path: tuple, count: int) -> None:
    """Charge the detailed *profile* for the first *count* ops of the
    trace through *path* (``(BlockCode, start, length)`` per block): a
    trace ran whole laps of its path and then a prefix of it, so each
    block's count follows from *count* alone."""
    laps, rest = divmod(count, sum(n for _, _, n in path))
    for bc, _, n in path:
        ops = laps * n + (n if rest > n else max(rest, 0))
        rest -= n
        if ops:
            profile.count_block(fn_name, bc.block.name, ops)


def _unwind(frame, path: tuple, count: int) -> None:
    """An op of the trace through *path* raised, the *count*-th op the
    trace ran (counting from 1 across laps): leave *frame* at it and
    note in ``frame.unwound`` that the trace retired *count* ops, the
    reference's count up to and including the raiser."""
    frame.unwound = count
    if not count:
        return
    rest = (count - 1) % sum(n for _, _, n in path) + 1
    for bc, start, n in path:
        if rest <= n:
            frame.bc = bc
            frame.ops = bc.ops
            frame.index = start + rest - 1
            return
        rest -= n


#: most code objects kept in :data:`_RUN_CODE`
RUN_CODE_CAP = 1 << 10

#: generated source -> code object of the function it defines (a
#: trace's ``make`` factory or an op template), shared by every
#: interpreter in the process (oldest entry evicted first)
_RUN_CODE: dict[str, CodeType] = {}

#: a trace's fragments and edge structure -> its source, which they
#: determine, so a trace seen before is not printed again (at most
#: :data:`RUN_CODE_CAP` entries, oldest evicted first)
_TRACE_SOURCE: dict[tuple, str] = {}

#: a block's fragment shapes -> the number that stands for them in
#: trace keys (at most :data:`RUN_CODE_CAP` entries, oldest evicted
#: first; a number is never reused)
_BLOCK_SHAPES: dict[tuple, int] = {}
_SHAPE_NUMBERS = itertools.count()

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
        "fragments", "shape", "exits", "whole", "runs", "local_runs",
    )

    def __init__(
        self, block: BasicBlock, first_slot: int, escaped: set[int]
    ) -> None:
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
        #: :func:`_block_shape` of the block, once a trace needs it
        self.shape: tuple | None = None
        #: per edge of a ``br``/``condbr`` terminator (true edge first):
        #: the target's BlockCode, or None when the edge raises
        self.exits: tuple[BlockCode | None, ...] = ()
        #: ``whole[local]``: whether everything after the phis is one
        #: serial (``whole[False]``) or thread-local (``whole[True]``)
        #: run ending in the terminator, so a trace may continue here
        self.whole = (False, False)
        #: ``runs[i]``: ``(function, length)`` of the serial trace
        #: starting at op *i*, or None; *length* counts its ops in this
        #: block
        self.runs: list[tuple[Callable, int] | None] = []
        #: ``local_runs[i]``: the same for the thread-local trace
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
        "escaped",
        "uses",
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
        #: :func:`_trace_source`)
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
        names: dict[int, str] = {}
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
                    # when a trace or single step first prints it.
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
        self._build_runs(bc, private)
        bc.ops.append(_fell_off(block.name))

    def _build_runs(self, bc: BlockCode, private: set[int]) -> None:
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
        jumps = n > entry and isinstance(
            insts[-1], (BranchInst, CondBranchInst, SwitchInst)
        )
        bc.whole = (
            jumps and not any(stops[entry:]), jumps and all(local[entry:])
        )
        for start in range(entry, n):
            if start == entry or stops[start - 1]:
                end = start
                while end < n and not stops[end]:
                    end += 1
                if end > start:
                    runs[start] = self._first_call(
                        bc, start, end, runs, False
                    )
            if local[start] and (start == entry or not local[start - 1]):
                end = start
                while end < n and local[end]:
                    end += 1
                local_runs[start] = self._first_call(
                    bc, start, end, local_runs, True
                )
        bc.runs = runs
        bc.local_runs = local_runs

    def _first_call(
        self, bc: BlockCode, start: int, end: int, table: list, local: bool
    ) -> tuple:
        """The run's table entry until it first executes: a function
        that lays out the trace, builds its function, puts it in
        *table* and runs it.  Most runs never execute — a team member
        retires only local runs, the serial loop only serial ones — so
        building on first call keeps their source and code out of the
        interpreter's set-up, and by then every block of the function
        is compiled."""
        n = end - start

        def build(ctx, frame, limit):
            fn = self.run_function(bc, start, end, local)
            table[start] = (fn, n)
            return fn(ctx, frame, limit)

        return build, n

    def run_function(
        self, bc: BlockCode, start: int, end: int, local: bool = False
    ) -> Callable:
        """The generated function ``run(ctx, frame, limit)`` of the
        trace that starts with ops *start* .. *end* - 1 of *bc* (see
        :func:`_trace`); it returns how many ops it retired, and
        ``run.path`` is its path.  Its text depends
        only on the fragments and the trace's edge structure, so that
        is the code's key: a key seen before, in this program or
        another, binds its code with no printing.  The objects fragment
        ``i`` of path block ``j`` names are the factory parameters
        ``x<j>_<i>_<m>``."""
        path, plans, loops = _trace(bc, start, end, local)
        memory = self.interp.memory
        objects = [memory.data, memory.fault, path]
        key: list = [local, loops]
        for j, (block, first, n) in enumerate(path):
            if block.shape is None:
                block.shape = _block_shape(block)
            shape, objs, offsets, _ = block.shape
            objects.extend(objs[offsets[first]:offsets[first + n]])
            key.append((first, n, plans[j], shape))
        key = tuple(key)
        source = _TRACE_SOURCE.get(key)
        if source is None:
            source = _trace_source(path, plans, loops, local)
            if len(_TRACE_SOURCE) >= RUN_CODE_CAP:
                del _TRACE_SOURCE[next(iter(_TRACE_SOURCE))]
            _TRACE_SOURCE[key] = source
        fn = FunctionType(_factory_code(source), _RUN_GLOBALS)(*objects)
        fn.path = path
        return fn

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
        """*inst*'s fragment ``(printer, shape, slots, literals,
        immediates, objects)``, which :meth:`run_function` prints and
        :func:`_bind` binds, or for an op the printer does not inline
        its closure, which a run calls."""
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
        if inst.array_size is None:
            size = el_size

            def op(ctx, frame, d=d, size=size, zero=zero, nxt=nxt):
                addr = ctx.stack_alloc(size)
                zero(addr, size)
                frame.regs[d] = addr
                frame.index = nxt

            return op
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
        el_size = ty.size_bytes()
        first = inst.indices[0]
        # Fold when every step is constant (struct field access,
        # constant array indices).
        if all(isinstance(i, ConstantInt) for i in inst.indices):
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
            return (_gep_text, None, (d, p), (None, lp), (off,), ())
        if len(inst.indices) == 1:
            i0, li = self._operand(code, first)
            return (
                _gep_text, first.type,
                (d, p, i0), (None, lp, li), (el_size,), (),
            )
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
        if isinstance(ty, IntType):
            half = 1 << (ty.bits - 1)
            full = 1 << ty.bits

            def op(
                ctx, frame, c=c, table=table, default_edge=default_edge,
                half=half, full=full,
            ):
                v = frame.regs[c]
                if v >= half:
                    v -= full
                table.get(v, default_edge)(ctx, frame)
        else:
            def op(
                ctx, frame, c=c, table=table, default_edge=default_edge
            ):
                table.get(frame.regs[c], default_edge)(ctx, frame)

        if any(edge[1] is None for edge in (default, *edges.values())):
            # an edge that raises keeps the switch out of local runs
            op.may_raise = True
        return op

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

            return op

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

        return op

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _native_convs(self, inst: CallInst):
        """Positions of int args natives see as C-signed values, with
        the bounds that map a register's bit pattern to that value."""
        convs = []
        for i, a in enumerate(inst.args):
            ty = a.type
            if isinstance(ty, IntType) and ty.bits > 1:
                convs.append((i, 1 << (ty.bits - 1), 1 << ty.bits))
        return tuple(convs)

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
                def op(
                    ctx, frame, native=native, interp=interp,
                    arg_slots=arg_slots, convs=convs, dst=dst, ty=ty,
                    nxt=nxt,
                ):
                    regs = frame.regs
                    args = [regs[s] for s in arg_slots]
                    for i, half, full in convs:
                        v = args[i]
                        if v >= half:
                            v -= full
                        args[i] = v
                    result = native(interp, ctx, args)
                    if result is RETRY:
                        return
                    if dst is not None:
                        regs[dst] = canonical(ty, result)
                    frame.index = nxt

                return op
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
                for i, half, full in convs:
                    v = args[i]
                    if v >= half:
                        v -= full
                    args[i] = v
                result = native(interp, ctx, args)
                if result is RETRY:
                    return
                if dst is not None:
                    regs[dst] = canonical(ty, result)
                frame.index = nxt
                return
            frame_new = ctx._push_frame(fn, args)
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
    """A ``sext`` result's spelling in a trace.  Its ``narrow`` is its
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
    ``o[0]``.  Inside a trace, *jump* turns the ``frame`` stores that
    move to the target into the edge's text in the trace (see
    :func:`_trace_source`)."""
    if phis is None:
        return f"{at}raise {o[0]}"
    stores = f"frame.bc = {o[0]}\nframe.ops = {o[1]}\nframe.index = {phis}"
    lines = [stores if jump is None else jump(stores)]
    if phis:
        # One tuple assignment is a parallel copy: the right-hand side
        # is read in full before any register is written.
        lines.insert(0, f"{', '.join(r[:phis])} = {', '.join(r[phis:])}")
    return "\n".join(line for line in lines if line) or "pass"


def _condbr_text(shape: tuple, r, i, o, at, jumps=(None, None)) -> str:
    """Branch on ``r[0]`` over the two edges whose phi counts are
    *shape* and whose registers and objects follow in order."""
    taken, other = shape
    k = 1 + 2 * (taken or 0)
    m = 1 if taken is None else 2
    return (
        f"if {r[0]}:\n"
        f"{_indent(_edge_text(taken, r[1:k], i, o[:m], at, jumps[0]))}\n"
        f"else:\n"
        f"{_indent(_edge_text(other, r[k:], i, o[m:], at, jumps[1]))}"
    )


def _phi_dests(printer, shape) -> range | tuple:
    """Where the phi destinations are among the registers of an op of
    *printer* and *shape*: none unless it is an edge or a ``condbr``."""
    if printer is _edge_text:
        return range(shape or 0)
    if printer is _condbr_text:
        taken, other = (phis or 0 for phis in shape)
        k = 1 + 2 * taken
        return (*range(1, 1 + taken), *range(k, k + other))
    return ()


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
    """``(number, objects, offsets, locals)`` for *bc*: the number
    standing for its shape (each fragment without its objects, or None
    for a called closure, the block's first slot and its block-local
    slots), the objects a trace of it binds in op order, where each
    op's objects start, and the slots of the block-local values its
    fragments define.  Traces of one function overlap, so a block's is
    worked out once, after the whole function is compiled, and a
    trace's key is a few numbers."""
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
    key = (tuple(shapes), bc.first_slot, tuple(locals_))
    number = _BLOCK_SHAPES.get(key)
    if number is None:
        if len(_BLOCK_SHAPES) >= RUN_CODE_CAP:
            del _BLOCK_SHAPES[next(iter(_BLOCK_SHAPES))]
        number = _BLOCK_SHAPES[key] = next(_SHAPE_NUMBERS)
    return number, objects, offsets, frozenset(locals_)


def _trace(bc: BlockCode, start: int, end: int, local: bool):
    """Lay out the trace of the run of ops *start* .. *end* - 1 of
    *bc*: ``(path, plans, loops)``.  *path* holds ``(BlockCode, start,
    length)`` per block the trace runs through in order; ``plans[j]``
    says, per edge of block ``j``'s terminator, whether the trace
    follows it into block ``j + 1`` (``"follow"``), takes it back to
    its first block (``"loop"``) or leaves by it (``"exit"``).  A block
    has a plan when the trace reaches its ``br``/``condbr``.

    The trace follows an edge into a block whose whole body is one run
    of the same kind and is not yet in the trace: the only edge of a
    ``br``, the true edge of a ``condbr`` when it qualifies, else its
    false edge.  An edge back to the first block, when the trace starts
    at that block's entry, closes the loop (*loops*) and ends the
    path."""
    path = [(bc, start, end - start)]
    plans: list[tuple[str, ...] | None] = []
    seen = {bc}
    cur = bc
    while end == len(cur.block.instructions) and cur.exits:
        exits = cur.exits
        if start == bc.entry_index and bc in exits:
            plans.append(tuple("loop" if t is bc else "exit" for t in exits))
            return tuple(path), plans, True
        for e, target in enumerate(exits):
            if (
                target is not None
                and target.whole[local]
                and target not in seen
            ):
                plan = ["exit"] * len(exits)
                plan[e] = "follow"
                plans.append(tuple(plan))
                seen.add(target)
                cur = target
                end = len(target.block.instructions)
                path.append(
                    (target, target.entry_index, end - target.entry_index)
                )
                break
        else:
            plans.append(("exit",) * len(exits))
            break
    plans.extend([None] * (len(path) - len(plans)))
    return tuple(path), plans, False


def _trace_source(path: tuple, plans: list, loops: bool, local: bool) -> str:
    """Source of the factory ``make(data, fault, path, ...)`` of the
    trace *path*/*plans* (see :func:`_trace`).  Its ``run(ctx, frame,
    limit)`` retires at most *limit* ops (one lap of the path by
    default) and returns how many: it starts a lap only when the whole
    lap fits.  Followed edges are a phi copy and nothing else; a side
    exit stores ``frame.bc``/``frame.ops``/``frame.index`` and returns;
    the edge back to the first block counts the lap and goes round the
    ``while`` loop.  A serial op that can raise first notes its position
    in the lap (``k``), and the handler retires exactly the ops up to it
    (:func:`_unwind`); thread-local ops cannot raise.

    A block-local value (:func:`_block_shape`) is the Python local
    ``v<slot>``.  It is stored to ``regs`` only where something else may
    read it there: before a called closure of its block and where the
    trace stops inside its block (before a call or ``ret``, or at the
    first op of another kind), so a trace that stops inside a block
    leaves the registers its single steps would.  Leaving the block by
    an edge leaves it dead.  A signed read of a ``sext`` result defined
    earlier in the block reads the signed value of its source, which is
    the same number on a narrower integer.  A block-local ``sext`` is
    not computed where it stands: its spelling is its value, so only a
    read that is not signed, or a store to ``regs``, computes it (its
    source cannot change within the block).  A looping trace also reads
    each register it cannot write (one outside its path's blocks) into
    ``v<slot>``, and ``len(data)`` into ``size``, once per dispatch;
    ``size`` again after a called closure, which may grow memory."""
    total = sum(n for _, _, n in path)
    params = ["data", "fault", "path"]
    lines = []
    count = 0
    done = "retired + {}" if loops else "{}"
    #: the slots the trace can write: those of its blocks' instructions
    inside: set[int] = set()
    for bc, _, _ in path:
        inside.update(
            range(bc.first_slot, bc.first_slot + len(bc.block.instructions))
        )
    hoisted: set[int] = set()
    size = loops and any(
        src is not None and src[0] in _MEMORY_PRINTERS
        for bc, start, n in path
        for src in bc.fragments[start:start + n]
    )
    memory = {"size": "size"} if size else {}
    #: spellings of the values the current block defined so far
    spelled: dict[int, str] = {}
    #: the block-local values of the current block not yet in ``regs``
    pending: list[tuple[int, str]] = []

    def spell(slot: int, literal: int | None) -> str:
        if literal is not None:
            return str(literal)
        name = spelled.get(slot)
        if name is not None:
            return name
        if loops and slot not in inside:
            hoisted.add(slot)
            return f"v{slot}"
        return f"regs[{slot}]"

    def spill() -> None:
        lines.extend(f"regs[{slot}] = {value}" for slot, value in pending)
        pending.clear()

    def jump(plan: str, count: int):
        if plan == "follow":
            return lambda stores: ""
        if plan == "loop":
            return lambda stores: (
                f"retired += {total}\nif retired > limit:\n"
                f"{_indent(stores)}\n    return retired\ncontinue"
            )
        return lambda stores: f"{stores}\nreturn {done.format(count)}"

    for j, (bc, start, n) in enumerate(path):
        fragments = bc.fragments
        locals_ = bc.shape[3]
        spelled.clear()
        pending.clear()
        for i in range(start, start + n):
            count += 1
            at = "" if local else f"k = {count}; "
            src = fragments[i]
            name = f"x{j}_{i}"
            if src is None:
                params.append(name)
                spill()
                lines.append(f"{at}{name}(ctx, frame)")
                if size:
                    lines.append("size = len(data)")
                continue
            printer, shape, slots, literals, imms, named = src
            names = [f"{name}_{m}" for m in range(len(named))]
            params.extend(names)
            dests = _phi_dests(printer, shape)
            regs = [
                f"regs[{slot}]" if m in dests else spell(slot, literal)
                for m, (slot, literal) in enumerate(zip(slots, literals))
            ]
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
            args = (shape, regs, [str(imm) for imm in imms], names, at)
            if i == start + n - 1 and plans[j] is not None:
                edges = [jump(plan, count) for plan in plans[j]]
                lines.append(
                    printer(*args, edges)
                    if printer is _condbr_text
                    else printer(*args, edges[0])
                )
            elif printer in _MEMORY_PRINTERS:
                lines.append(printer(*args, **memory))
            else:
                lines.append(printer(*args))
    if plans[-1] is None:
        spill()
        bc, start, n = path[-1]
        if not isinstance(
            bc.block.instructions[start + n - 1],
            (BranchInst, CondBranchInst, SwitchInst),
        ):
            lines.append(f"frame.index = {start + n}")
        lines.append(f"return {done.format(count)}")
    head = [f"if limit < {total}:\n    return 0", "regs = frame.regs"]
    head += [f"v{slot} = regs[{slot}]" for slot in sorted(hoisted)]
    if size:
        head.append("size = len(data)")
    body = "\n".join(lines)
    if loops:
        head += [f"limit -= {total}", "retired = 0"]
        body = f"while True:\n{_indent(body)}"
    if not local:
        head.append("k = 0")
        body = (
            f"try:\n{_indent(body)}\nexcept BaseException:\n"
            f"    _unwind(frame, path, {done.format('k')})\n"
            f"    raise"
        )
    text = "\n".join(head) + "\n" + body
    return (
        f"def make({', '.join(params)}):\n"
        f"    def run(ctx, frame, limit={total}):\n"
        f"{_indent(text, 8)}\n"
        f"    return run\n"
    )


def _is_scalar(ty) -> bool:
    """Whether loads and stores of *ty* are inlined (a struct codec
    reads and writes it)."""
    return (
        isinstance(ty, IntType) and ty.bits in _INT_STRUCTS
    ) or isinstance(ty, (FloatType, PointerType))


# ---------------------------------------------------------------------------
# Shared op helpers
# ---------------------------------------------------------------------------
def _raiser(exc: BaseException):
    """An op that raises *exc* when (and only when) executed."""

    def op(ctx, frame, exc=exc):
        raise exc

    return op


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
        "unwound",
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
        #: ops the last trace that raised retired (see :func:`_unwind`)
        self.unwound = 0

    @property
    def block(self) -> BasicBlock:
        return self.bc.block
