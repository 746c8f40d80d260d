"""The stepping IR interpreter.

``ExecutionContext`` is one logical thread: a call stack of frames plus a
``step()`` method executing exactly one instruction.  The top-level
:class:`Interpreter` owns memory, globals and the native-function registry
(the simulated OpenMP runtime and a libc subset); the runtime's thread
teams are additional ``ExecutionContext`` instances stepped round-robin by
``__kmpc_fork_call`` (see :mod:`repro.runtime.kmp`).
"""

from __future__ import annotations

import enum
import math
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.instrument import ExecutionProfile, time_trace_scope
from repro.instrument.faultinject import FAULTS
from repro.interp.memory import Memory, MemoryError_
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
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import (
    ArrayType,
    FloatType,
    IntType,
    IRType,
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
    Value,
)


class InterpreterError(Exception):
    pass


class ExecutionTimeout(InterpreterError):
    """Fuel or wall-clock budget exhausted.

    Carries a :class:`SchedulerSnapshot` so the driver can show *where*
    every logical thread was when the budget ran out — the difference
    between "it hung" and "thread 2 spun at barrier episode 3".
    """

    def __init__(
        self, message: str, snapshot: "SchedulerSnapshot | None" = None
    ) -> None:
        super().__init__(message)
        self.snapshot = snapshot


class DeadlockError(InterpreterError):
    """All-threads-blocked condition that can never resolve (a barrier a
    finished teammate will never reach, or a cyclic lock wait)."""

    def __init__(
        self, message: str, snapshot: "SchedulerSnapshot | None" = None
    ) -> None:
        super().__init__(message)
        self.snapshot = snapshot


class Trap(Exception):
    """Guest program trap (abort, unreachable, assertion failure)."""


class TeamError(Exception):
    """A team member misused the simulated OpenMP runtime (raised by
    :mod:`repro.runtime.team`)."""


_F32 = struct.Struct("f")


def round_f32(value: float) -> float:
    """*value* rounded to single precision (inf past its range)."""
    return _F32.unpack(_F32.pack(value))[0]


def fdiv_by_zero(lhs: float, rhs: float) -> float:
    """``lhs / rhs`` for a zero *rhs*, as IEEE 754 defines it: NaN when
    *lhs* is zero or NaN, else an infinity whose sign is the product of
    the operands' signs (``1.0 / -0.0`` is ``-inf``)."""
    if lhs != lhs or lhs == 0.0:
        return math.nan
    return math.copysign(math.inf, lhs) * math.copysign(1.0, rhs)


def fp_to_int(value: float) -> int:
    """*value* truncated to an integer, which ``fptosi``/``fptoui`` then
    wrap to their width; inf and NaN have no integer value, so
    converting them traps."""
    try:
        return int(value)
    except (OverflowError, ValueError):
        raise Trap("conversion of inf or NaN to an integer") from None


def canonical(ty: IRType, value: Any) -> Any:
    """*value* as a register of type *ty* holds it: an integer wrapped
    to its type's unsigned bit pattern.  Every op keeps its integer
    results so; a native's result (natives compute with C-signed
    values) and an entry point's host arguments pass through here."""
    if isinstance(ty, IntType) and isinstance(value, int):
        return value & ty.mask
    return value


#: cast kinds whose source must be an integer
_INT_SOURCE_CASTS = frozenset({CastOp.SEXT, CastOp.SITOFP, CastOp.UITOFP})
#: cast kinds whose result must be an integer
_INT_RESULT_CASTS = frozenset(
    {CastOp.TRUNC, CastOp.SEXT, CastOp.FPTOSI, CastOp.FPTOUI}
)


def check_cast(op: CastOp, src_ty: IRType, dst_ty: IRType) -> None:
    """Raise :class:`InterpreterError` naming the cast when neither
    engine can evaluate *op* from *src_ty* to *dst_ty* (verified IR
    never holds such a cast)."""
    if (
        op in _INT_SOURCE_CASTS and not isinstance(src_ty, IntType)
    ) or (
        op in _INT_RESULT_CASTS and not isinstance(dst_ty, IntType)
    ) or (
        op in (CastOp.SITOFP, CastOp.UITOFP)
        and not isinstance(dst_ty, FloatType)
    ):
        raise InterpreterError(
            f"cannot evaluate {op.value} from {src_ty} to {dst_ty}"
        )


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    BARRIER = "barrier"
    DONE = "done"


#: Sentinel a native may return to indicate "retry this call on the next
#: step" (used to implement spinlocks for `critical` under deterministic
#: round-robin interleaving).
RETRY = object()


@dataclass
class ThreadSnapshot:
    """Frozen view of one logical thread for abort reports."""

    gtid: int
    thread_id: int
    state: str
    function: str
    instruction: str
    instructions_retired: int
    barrier_waits: int
    waiting_at: str | None = None
    waiting_on_lock: int | None = None

    def render(self) -> str:
        where = (
            f"@{self.function}: {self.instruction}"
            if self.function
            else "<no frame>"
        )
        line = (
            f"  thread {self.gtid} (tid {self.thread_id}): "
            f"{self.state:<8} {where}  "
            f"[{self.instructions_retired} insts, "
            f"{self.barrier_waits} barrier waits]"
        )
        if self.waiting_at:
            line += f"\n      waiting at {self.waiting_at}"
        if self.waiting_on_lock is not None:
            line += f"\n      waiting on lock {self.waiting_on_lock:#x}"
        return line


@dataclass
class SchedulerSnapshot:
    """State of every logical thread at the moment an execution
    guardrail fired (fuel, timeout, deadlock)."""

    threads: list[ThreadSnapshot] = field(default_factory=list)
    total_instructions: int = 0
    barrier_episodes: int = 0

    def render(self) -> str:
        lines = [
            "Scheduler state at abort:",
            f"  {len(self.threads)} logical thread(s), "
            f"{self.total_instructions} instructions retired, "
            f"{self.barrier_episodes} barrier episode(s)",
        ]
        lines.extend(t.render() for t in self.threads)
        return "\n".join(lines)


def scheduler_snapshot(interp: "Interpreter") -> SchedulerSnapshot:
    """Capture every registered ExecutionContext of *interp*."""
    snap = SchedulerSnapshot(
        total_instructions=interp.profile.total_instructions,
        barrier_episodes=interp.profile.barrier_episodes,
    )
    for ctx in interp.profile.contexts:
        function = ""
        instruction = ""
        if ctx.stack:
            frame = ctx.frame
            function = frame.fn.name
            if frame.index < len(frame.block.instructions):
                inst = frame.block.instructions[frame.index]
                instruction = (
                    f"{frame.block.name}[{frame.index}] "
                    f"({type(inst).__name__})"
                )
            else:
                instruction = f"{frame.block.name}[end]"
        snap.threads.append(
            ThreadSnapshot(
                gtid=ctx.gtid,
                thread_id=ctx.thread_id,
                state=ctx.state.value,
                function=function,
                instruction=instruction,
                instructions_retired=ctx.instructions_retired,
                barrier_waits=ctx.barrier_waits,
                waiting_at=ctx.waiting_at,
                waiting_on_lock=ctx.waiting_on_lock,
            )
        )
    return snap


class Frame:
    def __init__(self, fn: Function, args: list[Any], stack_mark: int):
        self.fn = fn
        self.block: BasicBlock = fn.entry_block
        self.prev_block: BasicBlock | None = None
        self.index = 0
        self.registers: dict[int, Any] = {}
        for formal, actual in zip(fn.args, args):
            self.registers[id(formal)] = actual
        self.stack_mark = stack_mark
        #: set by Call handling: instruction waiting for a return value
        self.pending_call: Instruction | None = None


class ExecutionContext:
    """One logical thread of execution."""

    #: default per-thread stack size (bytes)
    STACK_SIZE = 1 << 19

    def __init__(
        self,
        interp: "Interpreter",
        fn: Function,
        args: list[Any],
        thread_id: int = 0,
        stack_size: int | None = None,
    ) -> None:
        self.interp = interp
        self.stack: list[Frame] = []
        self.state = ThreadState.RUNNABLE
        self.return_value: Any = None
        self.thread_id = thread_id
        #: global thread number (OpenMP gtid); set by the runtime
        self.gtid = thread_id
        #: the runtime team this context belongs to (None when serial)
        self.team = None
        #: dynamic instructions executed by this logical thread
        self.instructions_retired = 0
        #: barrier episodes this thread waited at
        self.barrier_waits = 0
        #: human-readable description of the barrier currently waited at
        #: (None while runnable); feeds SchedulerSnapshot
        self.waiting_at: str | None = None
        #: lock address this thread is spinning on (critical sections)
        self.waiting_on_lock: int | None = None
        interp.profile.register(self)
        # Each logical thread gets its own stack region so interleaved
        # frame pushes/pops cannot corrupt each other.
        size = stack_size or self.STACK_SIZE
        self.stack_base = interp.memory.allocate(size)
        self.stack_end = self.stack_base + size
        self.stack_ptr = self.stack_base
        self._push_frame(fn, args)

    def stack_alloc(self, size: int, align: int = 8) -> int:
        addr = (self.stack_ptr + align - 1) // align * align
        if addr + size > self.stack_end:
            raise InterpreterError("guest stack overflow")
        self.stack_ptr = addr + max(1, size)
        return addr

    # ------------------------------------------------------------------
    def _push_frame(self, fn: Function, args: list[Any]) -> Frame:
        """Push and return a frame running *fn* on *args*."""
        if fn.is_declaration:
            raise InterpreterError(
                f"call to undefined function @{fn.name}"
            )
        if len(self.stack) >= self.interp.max_call_depth:
            raise InterpreterError(
                f"guest call depth exceeded the limit of "
                f"{self.interp.max_call_depth} frames while calling "
                f"@{fn.name} (runaway recursion?)"
            )
        frame = self._new_frame(fn, args)
        self.stack.append(frame)
        return frame

    def _new_frame(self, fn: Function, args: list[Any]) -> Frame:
        return Frame(fn, args, self.stack_ptr)

    @property
    def frame(self) -> Frame:
        return self.stack[-1]

    @property
    def done(self) -> bool:
        return self.state == ThreadState.DONE

    # ------------------------------------------------------------------
    # Value resolution
    # ------------------------------------------------------------------
    def value_of(self, v: Value) -> Any:
        if isinstance(v, ConstantInt):
            return v.value
        if isinstance(v, ConstantFP):
            return v.value
        if isinstance(v, ConstantPointerNull):
            return 0
        if isinstance(v, UndefValue):
            return 0
        if isinstance(v, Function):
            return self.interp.memory.address_of_function(v)
        if isinstance(v, GlobalVariable):
            return self.interp.global_address(v)
        if isinstance(v, (Instruction, Argument)):
            try:
                return self.frame.registers[id(v)]
            except KeyError:
                raise InterpreterError(
                    f"use of value %{v.name} before definition in "
                    f"@{self.frame.fn.name}"
                )
        raise InterpreterError(f"cannot evaluate {v!r}")

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction (or finish a pending native call)."""
        if self.state != ThreadState.RUNNABLE:
            return
        frame = self.frame
        if frame.index >= len(frame.block.instructions):
            raise InterpreterError(
                f"fell off the end of block {frame.block.name}"
            )
        inst = frame.block.instructions[frame.index]
        if FAULTS.armed:
            FAULTS.hit("interp-step")
        self.instructions_retired += 1
        profile = self.interp.profile
        if profile.detailed:
            profile.count_block(frame.fn.name, frame.block.name)
        self._execute(inst)

    def run_to_completion(self, fuel: int | None = None) -> Any:
        """Step until done (single-threaded execution).  Returns the
        top-level return value."""
        interp = self.interp
        budget = fuel if fuel is not None else interp.default_fuel
        while not self.done:
            if self.state == ThreadState.BARRIER:
                # Single-threaded contexts pass barriers trivially.
                self.state = ThreadState.RUNNABLE
                self.waiting_at = None
            # A parallel region forked by this instruction draws its
            # team's fuel from the same budget and hands back the rest.
            interp.fuel_left = budget - 1
            self.step()
            budget = interp.fuel_left
            if budget <= 0:
                raise ExecutionTimeout(
                    "execution fuel exhausted (infinite loop?)",
                    scheduler_snapshot(interp),
                )
            if (budget & 0xFFF) == 0:
                interp.check_deadline()
        return self.return_value

    def local_run_retirer(self):
        """The team scheduler's hook for retiring thread-local runs
        ahead of its lockstep clock.  The reference engine has none, so
        its teams run in plain lockstep."""
        return None

    # ------------------------------------------------------------------
    def _jump(self, target: BasicBlock) -> None:
        frame = self.frame
        frame.prev_block = frame.block
        frame.block = target
        frame.index = 0
        # Resolve all phis of the target atomically (parallel copy).
        phis = []
        for inst in target.instructions:
            if isinstance(inst, PhiInst):
                phis.append(inst)
            else:
                break
        if phis:
            values = []
            for phi in phis:
                incoming = phi.incoming_for(frame.prev_block)
                if incoming is None:
                    raise InterpreterError(
                        f"phi %{phi.name} has no incoming for "
                        f"{frame.prev_block.name}"
                    )
                values.append(self.value_of(incoming))
            for phi, value in zip(phis, values):
                frame.registers[id(phi)] = value
            frame.index = len(phis)

    def _set(self, inst: Instruction, value: Any) -> None:
        self.frame.registers[id(inst)] = value
        self.frame.index += 1

    def _return(self, value: Any) -> None:
        frame = self.stack.pop()
        self.stack_ptr = frame.stack_mark
        if not self.stack:
            self.return_value = value
            self.state = ThreadState.DONE
            return
        caller = self.frame
        call_inst = caller.block.instructions[caller.index]
        assert isinstance(call_inst, CallInst)
        if not call_inst.type.is_void:
            caller.registers[id(call_inst)] = value
        caller.index += 1

    # ------------------------------------------------------------------
    # Instruction semantics
    # ------------------------------------------------------------------
    def _execute(self, inst: Instruction) -> None:
        mem = self.interp.memory
        if isinstance(inst, BinaryInst):
            self._set(inst, self._binop(inst))
        elif isinstance(inst, ICmpInst):
            self._set(inst, self._icmp(inst))
        elif isinstance(inst, FCmpInst):
            self._set(inst, self._fcmp(inst))
        elif isinstance(inst, CastInst):
            self._set(inst, self._cast(inst))
        elif isinstance(inst, AllocaInst):
            count = (
                self.value_of(inst.array_size)
                if inst.array_size is not None
                else 1
            )
            size = inst.allocated_type.size_bytes() * max(1, count)
            addr = self.stack_alloc(size)
            mem.zero(addr, size)
            self._set(inst, addr)
        elif isinstance(inst, LoadInst):
            addr = self.value_of(inst.pointer)
            self._set(inst, mem.load(inst.type, addr))
        elif isinstance(inst, StoreInst):
            addr = self.value_of(inst.pointer)
            mem.store(
                inst.value.type, addr, self.value_of(inst.value)
            )
            self.frame.index += 1
        elif isinstance(inst, GEPInst):
            self._set(inst, self._gep(inst))
        elif isinstance(inst, BranchInst):
            self._jump(inst.target)
        elif isinstance(inst, CondBranchInst):
            cond = self.value_of(inst.condition)
            self._jump(
                inst.true_block if cond else inst.false_block
            )
        elif isinstance(inst, SwitchInst):
            value = self.value_of(inst.condition)
            ty = inst.condition.type
            signed = (
                ty.to_signed(value) if isinstance(ty, IntType) else value
            )
            for case_value, target in inst.cases:
                if case_value == signed:
                    self._jump(target)
                    return
            self._jump(inst.default)
        elif isinstance(inst, ReturnInst):
            self._return(
                self.value_of(inst.value)
                if inst.value is not None
                else None
            )
        elif isinstance(inst, UnreachableInst):
            raise Trap("reached 'unreachable' instruction")
        elif isinstance(inst, SelectInst):
            cond = self.value_of(inst.condition)
            self._set(
                inst,
                self.value_of(
                    inst.true_value if cond else inst.false_value
                ),
            )
        elif isinstance(inst, PhiInst):
            raise InterpreterError(
                "phi encountered outside block entry"
            )
        elif isinstance(inst, CallInst):
            self._call(inst)
        else:
            raise InterpreterError(
                f"unhandled instruction {type(inst).__name__}"
            )

    # ------------------------------------------------------------------
    def _binop(self, inst: BinaryInst) -> Any:
        op = inst.op
        lhs = self.value_of(inst.lhs)
        rhs = self.value_of(inst.rhs)
        if op.is_float_op:
            if op == BinOp.FADD:
                result = lhs + rhs
            elif op == BinOp.FSUB:
                result = lhs - rhs
            elif op == BinOp.FMUL:
                result = lhs * rhs
            elif op == BinOp.FDIV:
                result = lhs / rhs if rhs != 0.0 else fdiv_by_zero(lhs, rhs)
            else:
                result = math.fmod(lhs, rhs) if rhs != 0 else float("nan")
            return round_f32(result) if inst.type.bits == 32 else result
        ty = inst.type
        assert isinstance(ty, IntType)
        sa, sb = ty.to_signed(lhs), ty.to_signed(rhs)
        if op == BinOp.ADD:
            return ty.wrap(lhs + rhs)
        if op == BinOp.SUB:
            return ty.wrap(lhs - rhs)
        if op == BinOp.MUL:
            return ty.wrap(lhs * rhs)
        if op == BinOp.UDIV:
            if rhs == 0:
                raise Trap("division by zero")
            return lhs // rhs
        if op == BinOp.SDIV:
            if rhs == 0:
                raise Trap("division by zero")
            q = abs(sa) // abs(sb)
            if (sa < 0) != (sb < 0):
                q = -q
            return ty.wrap(q)
        if op == BinOp.UREM:
            if rhs == 0:
                raise Trap("division by zero")
            return lhs % rhs
        if op == BinOp.SREM:
            if rhs == 0:
                raise Trap("division by zero")
            q = abs(sa) // abs(sb)
            if (sa < 0) != (sb < 0):
                q = -q
            return ty.wrap(sa - q * sb)
        if op == BinOp.AND:
            return lhs & rhs
        if op == BinOp.OR:
            return lhs | rhs
        if op == BinOp.XOR:
            return lhs ^ rhs
        if op == BinOp.SHL:
            return ty.wrap(lhs << (rhs % ty.bits))
        if op == BinOp.LSHR:
            return lhs >> (rhs % ty.bits)
        if op == BinOp.ASHR:
            return ty.wrap(sa >> (rhs % ty.bits))
        raise InterpreterError(f"unhandled binop {op}")

    def _icmp(self, inst: ICmpInst) -> int:
        lhs = self.value_of(inst.lhs)
        rhs = self.value_of(inst.rhs)
        pred = inst.pred
        ty = inst.lhs.type
        if pred.is_signed and isinstance(ty, IntType):
            lhs, rhs = ty.to_signed(lhs), ty.to_signed(rhs)
        result = {
            ICmpPred.EQ: lhs == rhs,
            ICmpPred.NE: lhs != rhs,
            ICmpPred.SLT: lhs < rhs,
            ICmpPred.SLE: lhs <= rhs,
            ICmpPred.SGT: lhs > rhs,
            ICmpPred.SGE: lhs >= rhs,
            ICmpPred.ULT: lhs < rhs,
            ICmpPred.ULE: lhs <= rhs,
            ICmpPred.UGT: lhs > rhs,
            ICmpPred.UGE: lhs >= rhs,
        }[pred]
        return int(result)

    def _fcmp(self, inst: FCmpInst) -> int:
        lhs = self.value_of(inst.lhs)
        rhs = self.value_of(inst.rhs)
        result = {
            FCmpPred.OEQ: lhs == rhs,
            FCmpPred.ONE: lhs < rhs or lhs > rhs,
            FCmpPred.UNE: lhs != rhs,
            FCmpPred.OLT: lhs < rhs,
            FCmpPred.OLE: lhs <= rhs,
            FCmpPred.OGT: lhs > rhs,
            FCmpPred.OGE: lhs >= rhs,
        }[inst.pred]
        return int(result)

    def _cast(self, inst: CastInst) -> Any:
        value = self.value_of(inst.value)
        op = inst.op
        src_ty = inst.value.type
        dst_ty = inst.type
        check_cast(op, src_ty, dst_ty)
        if op == CastOp.TRUNC:
            return dst_ty.wrap(value)
        if op == CastOp.ZEXT:
            return value
        if op == CastOp.SEXT:
            return dst_ty.wrap(src_ty.to_signed(value))
        if op in (CastOp.FPTOSI, CastOp.FPTOUI):
            return dst_ty.wrap(fp_to_int(value))
        if op in (CastOp.SITOFP, CastOp.UITOFP):
            if op == CastOp.SITOFP:
                value = src_ty.to_signed(value)
            return dst_ty.from_int(value)
        if op in (CastOp.FPEXT, CastOp.FPTRUNC):
            result = float(value)
            if isinstance(dst_ty, FloatType) and dst_ty.bits == 32:
                return round_f32(result)
            return result
        if op in (CastOp.PTRTOINT, CastOp.INTTOPTR, CastOp.BITCAST):
            if isinstance(dst_ty, IntType):
                return dst_ty.wrap(int(value))
            return value
        raise InterpreterError(f"unhandled cast {op}")

    def _gep(self, inst: GEPInst) -> int:
        addr = self.value_of(inst.pointer)
        ty: IRType = inst.element_type
        indices = [self.value_of(i) for i in inst.indices]
        # First index scales by the element type as a whole.
        first = indices[0]
        idx_ty = inst.indices[0].type
        if isinstance(idx_ty, IntType):
            first = idx_ty.to_signed(first)
        addr += first * ty.size_bytes()
        for raw, idx_val in zip(inst.indices[1:], indices[1:]):
            if isinstance(ty, StructType):
                addr += ty.offset_of(idx_val)
                ty = ty.elements[idx_val]
            elif isinstance(ty, ArrayType):
                signed = idx_val
                if isinstance(raw.type, IntType):
                    signed = raw.type.to_signed(idx_val)
                addr += signed * ty.element.size_bytes()
                ty = ty.element
            else:
                raise InterpreterError(
                    f"gep into non-aggregate type {ty}"
                )
        return addr

    # ------------------------------------------------------------------
    def _call(self, inst: CallInst) -> None:
        callee = inst.callee
        fn: Function | None = None
        if isinstance(callee, Function):
            fn = callee
        else:
            addr = self.value_of(callee)
            fn = self.interp.memory.function_at(addr)
            if fn is None:
                raise Trap(
                    f"indirect call to invalid address {addr:#x}"
                )
        args = [self.value_of(a) for a in inst.args]
        native = self.interp.native_for(fn)
        if native is not None:
            # Natives see C-signed integer values (the interpreter's
            # register representation is the unsigned bit pattern).
            native_args = [
                a.type.to_signed(value)
                if isinstance(a.type, IntType) and a.type.bits > 1
                else value
                for a, value in zip(inst.args, args)
            ]
            result = native(self.interp, self, native_args)
            if result is RETRY:
                return  # spin: re-execute this call on the next step
            if not inst.type.is_void:
                self.frame.registers[id(inst)] = canonical(
                    inst.type, result
                )
            self.frame.index += 1
            return
        self._push_frame(fn, args)


class Interpreter:
    """Owns a module instance: memory, globals, natives, entry points."""

    #: engine selector this class answers to (``-fexec=``); the closure
    #: engine overrides it
    engine_name = "interp"

    def __init__(
        self,
        module: Module,
        memory_size: int = 1 << 22,
        default_fuel: int = 50_000_000,
        profile_detail: bool = False,
        memory_limit: int | None = None,
        max_call_depth: int = 256,
    ) -> None:
        self.module = module
        self.memory = Memory(memory_size, limit=memory_limit)
        self.default_fuel = default_fuel
        #: fuel left in the current run(): the stepping loops store it
        #: around every single step, so a parallel region forked by that
        #: step draws from it and hands back what its team left
        self.fuel_left = default_fuel
        #: guest recursion guardrail (frames per logical thread)
        self.max_call_depth = max_call_depth
        #: wall-clock guardrail; armed by run(timeout_s=...)
        self.deadline: float | None = None
        self.timeout_s: float | None = None
        #: dynamic execution profile; every ExecutionContext registers
        #: itself here, so the legacy ``instruction_count`` below is a
        #: view over the same data
        self.profile = ExecutionProfile(detailed=profile_detail)
        self.stdout: list[str] = []
        self._global_addresses: dict[int, int] = {}
        self._natives: dict[str, Callable] = {}
        self._install_default_natives()
        self._initialize_globals()
        #: simulated OpenMP runtime state (created lazily)
        from repro.runtime.kmp import OpenMPRuntime

        self.omp = OpenMPRuntime(self)
        self.omp.install(self)

    # ------------------------------------------------------------------
    def _initialize_globals(self) -> None:
        for gv in self.module.globals.values():
            size = gv.value_type.size_bytes()
            if gv.initializer_bytes is not None:
                size = max(size, len(gv.initializer_bytes))
            addr = self.memory.allocate(size)
            self.memory.zero(addr, size)
            if gv.initializer_bytes is not None:
                self.memory.write_bytes(addr, gv.initializer_bytes)
            elif gv.initializer is not None:
                if isinstance(gv.initializer, (ConstantInt, ConstantFP)):
                    self.memory.store(
                        gv.initializer.type,
                        addr,
                        gv.initializer.value,
                    )
            self._global_addresses[id(gv)] = addr

    def global_address(self, gv: GlobalVariable) -> int:
        addr = self._global_addresses.get(id(gv))
        if addr is None:
            raise InterpreterError(f"unknown global @{gv.name}")
        return addr

    # ------------------------------------------------------------------
    # Natives
    # ------------------------------------------------------------------
    def register_native(
        self, name: str, impl: Callable
    ) -> None:
        self._natives[name] = impl

    def native_for(self, fn: Function) -> Callable | None:
        if fn.native_impl is not None:
            return fn.native_impl
        if fn.is_declaration:
            native = self._natives.get(fn.name)
            if native is None:
                raise InterpreterError(
                    f"call to undefined external function @{fn.name}"
                )
            return native
        return None

    def _install_default_natives(self) -> None:
        from repro.interp.native import install_libc

        install_libc(self)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def spawn_context(
        self, fn: Function, args: list[Any], thread_id: int = 0
    ) -> ExecutionContext:
        """Create one logical thread over *fn*.  The single point where
        contexts are born (entry points and the OpenMP runtime's
        fork both route through it) so execution engines can substitute
        their own context type."""
        return ExecutionContext(self, fn, args, thread_id=thread_id)

    def create_context(
        self, fn_name: str, args: list[Any] | None = None
    ) -> ExecutionContext:
        fn = self.module.get_function(fn_name)
        if fn is None:
            raise InterpreterError(f"no function @{fn_name}")
        args = list(args or [])
        for i, param in enumerate(fn.args[: len(args)]):
            args[i] = canonical(param.type, args[i])
        return self.spawn_context(fn, args)

    @property
    def instruction_count(self) -> int:
        """Total dynamic instructions across all logical threads
        (backward-compatible view over the execution profile)."""
        return self.profile.total_instructions

    def check_deadline(self) -> None:
        """Raise :class:`ExecutionTimeout` past the wall-clock deadline.

        Called from the stepping loops on a coarse instruction mask so
        the common case costs one attribute test per step batch."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ExecutionTimeout(
                f"wall-clock timeout of {self.timeout_s:g}s exceeded",
                scheduler_snapshot(self),
            )

    def run(
        self,
        fn_name: str = "main",
        args: list[Any] | None = None,
        fuel: int | None = None,
        timeout_s: float | None = None,
    ) -> Any:
        if timeout_s is not None:
            self.timeout_s = timeout_s
            self.deadline = time.monotonic() + timeout_s
        with time_trace_scope("Execute", fn_name):
            ctx = self.create_context(fn_name, args)
            return ctx.run_to_completion(fuel)

    def output(self) -> str:
        return "".join(self.stdout)
