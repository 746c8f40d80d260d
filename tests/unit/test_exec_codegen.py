"""The closure engine's op printers give single steps and runs alike.

Every inlined op is written once, as a printer (:mod:`repro.exec.compiler`):
its single-step closure is the printer's template, shared by every op
of one shape and bound to the op's slots, and its run text is the same
printer with literal slots.  These tests pin that:

* for every op kind the printer inlines, a one-op generated run and the
  op's closure, started from the same registers and memory, leave equal
  registers, memory, ``frame.index`` and block (or raise the same
  exception), over edge values: 0, -1, ``2**(bits-1)``, the mask, +-0.0,
  nan and inf;
* ops of one shape share one code object, and no template source holds
  a slot number, constant or IR name;
* a function whose block and value names are hostile Python runs
  identically on both engines, and no name reaches the generated
  source; each run's code object is filed under a digest of its
  source instead;
* the process-wide code table never grows past its bound;
* an op is bound to its template only when it is single-stepped, once:
  a serial kernel binds none, a team binds exactly the ops lockstep
  steps, and an op its printer cannot print fails only when it runs;
* ``describe_code()`` prints one line per op.
"""

from __future__ import annotations

import os
import re
import struct
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import compiler, create_interpreter, profile_fingerprint
from repro.exec.compiler import ClosureFrame
from repro.exec.engine import ClosureInterpreter
from repro.ir import (
    ArrayType,
    FunctionType,
    IRBuilder,
    IntType,
    Module,
    double_t,
    float_t,
    i1,
    i8,
    i16,
    i32,
    i64,
    ptr,
    void_t,
)
from repro.ir.instructions import (
    BinaryInst,
    BinOp,
    CastOp,
    FCmpPred,
    ICmpPred,
)
from repro.ir.types import FloatType
from repro.ir.values import ConstantFP, ConstantInt, ConstantPointerNull
from repro.pipeline import compile_source

pytestmark = pytest.mark.exec_differential

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

EXAMPLES = settings(max_examples=25, deadline=None, derandomize=True)

#: bytes of the global every load and store case points into
BUF_SIZE = 32


def int_values(ty: IntType):
    bits = ty.bits
    edges = [0, 1, -1, 1 << (bits - 1), (1 << (bits - 1)) - 1, ty.mask, 7]
    return st.sampled_from(edges) | st.integers(0, ty.mask)


FLOAT_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -2.5, 3.0, float("nan"), float("inf"),
     float("-inf"), 1e300, -1e300, 2.0 ** 63, 1e-310]
) | st.floats()


def pointer_values(buf: int):
    """Addresses in and around the buffer, null, negative and past the
    end of memory."""
    return st.sampled_from(
        [buf, buf + 1, buf + 8, buf + BUF_SIZE - 8, 0, -8, 1 << 40]
    )


def values_for(ty, buf: int):
    if isinstance(ty, IntType):
        return int_values(ty)
    if isinstance(ty, FloatType):
        return FLOAT_VALUES
    return pointer_values(buf)


class Case:
    """One inlined op at index 0 of ``f``'s entry block, operating on
    ``f``'s arguments; ``emit(b, args, fn, buf)`` inserts it."""

    def __init__(self, name, arg_types, emit):
        self.name = name
        self.arg_types = arg_types
        self.emit = emit

    def build(self):
        module = Module("codegen")
        buf_gv = module.add_global(
            "buf", ArrayType(i8, BUF_SIZE), None
        )
        fn = module.add_function("f", FunctionType(void_t, self.arg_types))
        entry = fn.append_block("entry")
        b = IRBuilder(module)
        b.folding_enabled = False
        b.set_insert_point(entry)
        inst = self.emit(b, fn.args, fn, buf_gv)
        if not inst.is_terminator:
            b.ret()
        interp = ClosureInterpreter(module)
        code = interp.code_for(fn)
        bc = code.blocks[id(entry)]
        index = entry.instructions.index(inst)
        src = interp._compiler._compile_inst(code, entry, inst, index)
        assert src.__class__ is tuple, f"{self.name} is not inlined"
        op = compiler._bind(src, index + 1, interp.memory)
        run = interp._compiler.run_functions([(bc, index, index + 1)], False)[0]
        return interp, code, op, run, interp.global_address(buf_gv)


def _regs_key(regs):
    """Registers with floats by bit pattern: nan equals itself, and
    -0.0 differs from 0.0."""
    return [
        (type(v).__name__, struct.pack("<d", v))
        if isinstance(v, float)
        else (type(v).__name__, v)
        for v in regs
    ]


def outcome(interp, code, step, args, buf):
    interp.memory.write_bytes(buf, bytes(BUF_SIZE))
    frame = ClosureFrame(code, list(args), 0)
    try:
        step(None, frame)
        raised = None
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        raised = (type(exc).__name__, str(exc))
    return (
        raised,
        _regs_key(frame.regs),
        frame.index,
        frame.bc.block.name,
        interp.memory.read_bytes(buf, BUF_SIZE),
    )


def _binop(kind, rhs=None):
    def emit(b, args, fn, buf):
        other = args[1] if rhs is None else rhs(args[0].type)
        return b._insert(BinaryInst(kind, args[0], other, "r"))

    return emit


INT_BINOPS = [
    BinOp.ADD, BinOp.SUB, BinOp.MUL, BinOp.AND, BinOp.OR, BinOp.XOR,
    BinOp.SHL, BinOp.LSHR, BinOp.ASHR,
    BinOp.UDIV, BinOp.SDIV, BinOp.UREM, BinOp.SREM,
]

CASES: list[Case] = []
for _ty in (i8, i32, i64):
    for _kind in INT_BINOPS:
        CASES.append(
            Case(f"{_kind.value}-i{_ty.bits}-reg", [_ty, _ty], _binop(_kind))
        )
        for _c in (3, 7, -1, 1 << (_ty.bits - 1)):
            CASES.append(
                Case(
                    f"{_kind.value}-i{_ty.bits}-const{_c}",
                    [_ty],
                    _binop(_kind, lambda ty, c=_c: ConstantInt(ty, c)),
                )
            )
for _kind in (BinOp.FADD, BinOp.FSUB, BinOp.FMUL, BinOp.FDIV, BinOp.FREM):
    CASES.append(
        Case(f"{_kind.value}-reg", [double_t, double_t], _binop(_kind))
    )
    CASES.append(
        Case(
            f"{_kind.value}-const",
            [double_t],
            _binop(_kind, lambda ty: ConstantFP(ty, 0.0)),
        )
    )
for _pred in ICmpPred:
    for _ty in (i8, i64):
        CASES.append(
            Case(
                f"icmp-{_pred.value}-i{_ty.bits}",
                [_ty, _ty],
                lambda b, a, fn, buf, p=_pred: b.icmp(p, a[0], a[1]),
            )
        )
    CASES.append(
        Case(
            f"icmp-{_pred.value}-const",
            [i32],
            lambda b, a, fn, buf, p=_pred: b.icmp(
                p, a[0], ConstantInt(i32, -5)
            ),
        )
    )
    CASES.append(
        Case(
            f"icmp-{_pred.value}-ptr",
            [ptr, ptr],
            lambda b, a, fn, buf, p=_pred: b.icmp(p, a[0], a[1]),
        )
    )
for _pred in (
    FCmpPred.OEQ, FCmpPred.ONE, FCmpPred.OLT,
    FCmpPred.OLE, FCmpPred.OGT, FCmpPred.OGE,
):
    CASES.append(
        Case(
            f"fcmp-{_pred.value}",
            [double_t, double_t],
            lambda b, a, fn, buf, p=_pred: b.fcmp(p, a[0], a[1]),
        )
    )
CASES.append(
    Case(
        "fcmp-une",
        [double_t, double_t],
        lambda b, a, fn, buf: b.fcmp(FCmpPred.UNE, a[0], a[1]),
    )
)
for _pred in FCmpPred:
    CASES.append(
        Case(
            f"fcmp-{_pred.value}-nan",
            [double_t],
            lambda b, a, fn, buf, p=_pred: b.fcmp(
                p, a[0], ConstantFP(double_t, float("nan"))
            ),
        )
    )
for _kind in (BinOp.FADD, BinOp.FSUB, BinOp.FMUL, BinOp.FDIV, BinOp.FREM):
    CASES.append(
        Case(f"{_kind.value}-f32-reg", [float_t, float_t], _binop(_kind))
    )
CASES.append(
    Case(
        "select",
        [i1, i32, i32],
        lambda b, a, fn, buf: b.select(a[0], a[1], a[2]),
    )
)
for _op, _src, _dst in [
    (CastOp.TRUNC, i64, i32),
    (CastOp.TRUNC, i32, i1),
    (CastOp.ZEXT, i8, i32),
    (CastOp.SEXT, i8, i64),
    (CastOp.SEXT, i32, i64),
    (CastOp.FPTOSI, double_t, i32),
    (CastOp.FPTOUI, double_t, i64),
    (CastOp.SITOFP, i32, double_t),
    (CastOp.SITOFP, i64, float_t),
    (CastOp.UITOFP, i64, double_t),
    (CastOp.UITOFP, i32, float_t),
    (CastOp.FPEXT, float_t, double_t),
    (CastOp.FPTRUNC, double_t, float_t),
    (CastOp.PTRTOINT, ptr, i64),
    (CastOp.INTTOPTR, i64, ptr),
    (CastOp.BITCAST, ptr, i64),
    (CastOp.BITCAST, i64, double_t),
]:
    CASES.append(
        Case(
            f"{_op.value}-{_src}-{_dst}",
            [_src],
            lambda b, a, fn, buf, o=_op, t=_dst: b.cast(o, a[0], t),
        )
    )
for _ty in (i1, i8, i16, i32, i64, float_t, double_t, ptr):
    CASES.append(
        Case(
            f"load-{_ty}",
            [ptr],
            lambda b, a, fn, buf, t=_ty: b.load(t, a[0]),
        )
    )
    CASES.append(
        Case(
            f"store-{_ty}",
            [_ty, ptr],
            lambda b, a, fn, buf: b.store(a[0], a[1]),
        )
    )
CASES.append(
    Case(
        "store-i32-const",
        [ptr],
        lambda b, a, fn, buf: b.store(ConstantInt(i32, -3), a[0]),
    )
)
CASES.append(
    Case(
        "store-to-global",
        [i16],
        lambda b, a, fn, buf: b.store(a[0], buf),
    )
)
CASES.append(
    Case(
        "gep-const",
        [ptr],
        lambda b, a, fn, buf: b.gep(i32, a[0], [ConstantInt(i64, -2)]),
    )
)
for _ty in (i32, i64):
    CASES.append(
        Case(
            f"gep-var-i{_ty.bits}",
            [ptr, _ty],
            lambda b, a, fn, buf: b.gep(double_t, a[0], [a[1]]),
        )
    )
CASES.append(
    Case(
        "gep-struct-const",
        [ptr],
        lambda b, a, fn, buf: b.gep(
            ArrayType(i16, 4), a[0], [ConstantInt(i32, 1), ConstantInt(i32, 3)]
        ),
    )
)


def _branch(phis: int, conditional: bool):
    """A branch to block ``t`` (and ``u``) carrying *phis* phi copies
    whose incoming values rotate the arguments."""

    def emit(b, args, fn, buf):
        entry = fn.blocks[0]
        targets = [fn.append_block("t"), fn.append_block("u")]
        for target in targets:
            b.set_insert_point(target)
            for k in range(phis):
                phi = b.phi(i32)
                phi.add_incoming(args[(k + 1) % phis], entry)
            b.ret()
        b.set_insert_point(entry)
        if conditional:
            return b.cond_br(args[-1], targets[0], targets[1])
        return b.br(targets[0])

    return emit


for _phis in (0, 1, 2, 3):
    CASES.append(
        Case(
            f"br-{_phis}-phis",
            [i32] * max(_phis, 1),
            _branch(_phis, conditional=False),
        )
    )
    CASES.append(
        Case(
            f"condbr-{_phis}-phis",
            [i32] * _phis + [i1],
            _branch(_phis, conditional=True),
        )
    )


# Operand shapes the printer specializes that the cases above miss.
for _kind in (BinOp.SUB, BinOp.SHL, BinOp.UDIV, BinOp.SDIV):
    CASES.append(
        Case(
            f"{_kind.value}-i32-lhs-const",
            [i32],
            lambda b, a, fn, buf, k=_kind: b._insert(
                BinaryInst(k, ConstantInt(i32, 0), a[0], "r")
            ),
        )
    )
CASES.append(
    Case(
        "icmp-slt-lhs-const",
        [i32],
        lambda b, a, fn, buf: b.icmp(ICmpPred.SLT, ConstantInt(i32, 5), a[0]),
    )
)
for _ty in (i8, i32):
    for _kind in (BinOp.UDIV, BinOp.SDIV, BinOp.UREM, BinOp.SREM):
        CASES.append(
            Case(
                f"{_kind.value}-i{_ty.bits}-const-zero",
                [_ty],
                _binop(_kind, lambda ty: ConstantInt(ty, 0)),
            )
        )


def _literal_phis(conditional: bool):
    """A branch whose target's phis take an integer literal and a null
    pointer on this edge."""

    def emit(b, args, fn, buf):
        entry = fn.blocks[0]
        targets = [fn.append_block("t"), fn.append_block("u")]
        for target in targets:
            b.set_insert_point(target)
            b.phi(i32).add_incoming(ConstantInt(i32, -7), entry)
            b.phi(ptr).add_incoming(ConstantPointerNull(), entry)
            b.phi(i32).add_incoming(args[0], entry)
            b.ret()
        b.set_insert_point(entry)
        if conditional:
            return b.cond_br(args[-1], targets[0], targets[1])
        return b.br(targets[0])

    return emit


def _missing_incoming(conditional: bool):
    """A branch to ``t``, whose phi has no incoming value for this edge
    (the edge raises when taken), or else to ``u``."""

    def emit(b, args, fn, buf):
        targets = [fn.append_block("t"), fn.append_block("u")]
        b.set_insert_point(targets[0])
        b.phi(i32)
        b.ret()
        b.set_insert_point(targets[1])
        b.ret()
        b.set_insert_point(fn.blocks[0])
        if conditional:
            return b.cond_br(args[0], targets[0], targets[1])
        return b.br(targets[0])

    return emit


CASES.append(Case("br-missing-incoming", [i1], _missing_incoming(False)))
CASES.append(Case("condbr-missing-incoming", [i1], _missing_incoming(True)))
CASES.append(Case("br-literal-phis", [i32], _literal_phis(False)))
CASES.append(Case("condbr-literal-phis", [i32, i1], _literal_phis(True)))


def _both_zeros(b, args, fn, buf):
    """``x * 0.0`` ahead of ``x * -0.0``: the function's constant pool
    holds both zeros."""
    b._insert(BinaryInst(BinOp.FMUL, args[0], ConstantFP(double_t, 0.0), "z"))
    return b._insert(
        BinaryInst(BinOp.FMUL, args[0], ConstantFP(double_t, -0.0), "r")
    )


CASES.append(Case("fmul-both-zeros", [double_t], _both_zeros))


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_generated_run_matches_closure(case):
    interp, code, op, run, buf = case.build()
    arg_values = st.tuples(*(values_for(t, buf) for t in case.arg_types))

    @EXAMPLES
    @given(args=arg_values)
    def check(args):
        assert outcome(interp, code, run, args, buf) == outcome(
            interp, code, op, args, buf
        )

    check()


# ---------------------------------------------------------------------------
# Hostile names
# ---------------------------------------------------------------------------
HOSTILE = ['q"uote', "tri'''ple", "new\nline", "hash#tag", "paren)"]


def hostile_module() -> Module:
    """``main`` loops three times over blocks and values named with
    quote, triple quote, newline, hash and parenthesis, storing into a
    hostile-named global, and returns the sum."""
    module = Module("hostile")
    cell = module.add_global(HOSTILE[4], i32, ConstantInt(i32, 0))
    fn = module.add_function("main", FunctionType(i32, []))
    entry = fn.append_block(HOSTILE[0])
    loop = fn.append_block(HOSTILE[1])
    done = fn.append_block(HOSTILE[2])
    b = IRBuilder(module)
    b.set_insert_point(entry)
    b.br(loop)
    b.set_insert_point(loop)
    k = b.phi(i32, HOSTILE[3])
    total = b.phi(i32, HOSTILE[0])
    scaled = b.mul(k, ConstantInt(i32, 5), HOSTILE[1])
    acc = b.add(total, scaled, HOSTILE[2])
    b.store(acc, cell)
    nxt = b.add(k, ConstantInt(i32, 1), HOSTILE[4])
    again = b.icmp(ICmpPred.SLT, nxt, ConstantInt(i32, 3), HOSTILE[3])
    b.cond_br(again, loop, done)
    k.add_incoming(ConstantInt(i32, 0), entry)
    k.add_incoming(nxt, loop)
    total.add_incoming(ConstantInt(i32, 1), entry)
    total.add_incoming(acc, loop)
    b.set_insert_point(done)
    b.ret(b.load(i32, cell, HOSTILE[0]))
    return module


def test_hostile_names_run_identically_and_stay_out_of_the_source():
    module = hostile_module()
    seen = []
    for engine in ("interp", "closures"):
        interp = create_interpreter(module, engine=engine, profile_detail=True)
        seen.append(
            (interp.run("main", []), profile_fingerprint(interp.profile))
        )
    assert seen[0] == seen[1]
    assert seen[0][0] == 1 + 0 + 5 + 10

    # Runs are built when they first execute: run once more on an
    # empty table to collect every source this program generates.
    compiler._RUN_CODE.clear()
    ClosureInterpreter(module).run("main", [])
    sources = list(compiler._RUN_CODE)
    assert sources
    for source in sources:
        for name in HOSTILE:
            assert name not in source
        assert "main" not in source
    # Each run shape is its own profile row: the run function's file
    # name is a digest of its source, never an IR name.
    files = [compiler._RUN_CODE[s].co_filename for s in sources]
    assert len(set(files)) == len(sources)
    for file, source in zip(files, sources):
        assert re.fullmatch(r"<run [0-9a-f]{8}>", file)
        run = next(
            c for c in compiler._RUN_CODE[source].co_consts
            if isinstance(c, types.CodeType)
        )
        assert run.co_filename == file and run.co_name == "run"


def test_code_table_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(compiler, "RUN_CODE_CAP", 3)
    compiler._RUN_CODE.clear()
    sizes = []
    for c in range(8):
        module = Module("bound")
        fn = module.add_function("main", FunctionType(i64, [i64]))
        b = IRBuilder(module)
        b.set_insert_point(fn.append_block("entry"))
        # A distinct constant per module: a distinct run source.
        first = b.mul(fn.args[0], ConstantInt(i64, c + 2))
        b.ret(b.add(first, ConstantInt(i64, 1)))
        interp = ClosureInterpreter(module)
        assert interp.run("main", [5]) == 5 * (c + 2) + 1
        sizes.append(len(compiler._RUN_CODE))
    assert max(sizes) == 3
    compiler._RUN_CODE.clear()


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------
#: constants and names no template may hold
MARKERS = ["98765", "1111", "4444", "5555", "7777", "2.71828", "zebra",
           "giraffe", "okapi"]


def template_module() -> tuple[Module, object]:
    """``main`` over two i32s and a buffer: every inlined op kind, with
    marker constants and names, and a loop back edge carrying phis."""
    module = Module("templates")
    buf = module.add_global("okapi", ArrayType(i32, 4096), None)
    fn = module.add_function("main", FunctionType(i32, [i32, i32]))
    entry = fn.append_block("zebra")
    loop = fn.append_block("giraffe")
    done = fn.append_block("okapi")
    b = IRBuilder(module)
    b.folding_enabled = False
    b.set_insert_point(entry)
    x, y = fn.args
    first = b.add(x, y, "giraffe")
    second = b.add(first, ConstantInt(i32, 98765), "zebra")
    slot = b.gep(i32, buf, [ConstantInt(i64, 1111)], "okapi")
    b.store(ConstantInt(i32, 7777), slot)
    wide = b.cast(CastOp.SEXT, second, i64)
    b.store(b.cast(CastOp.TRUNC, wide, i32), b.gep(i32, buf, [x]))
    scaled = b.binop(
        BinOp.FMUL,
        b.cast(CastOp.SITOFP, b.load(i32, slot), double_t),
        ConstantFP(double_t, 2.71828),
    )
    b.br(loop)
    b.set_insert_point(loop)
    k = b.phi(i32, "zebra")
    total = b.phi(i32, "okapi")
    nxt = b.add(k, ConstantInt(i32, 1))
    pick = b.select(b.fcmp(FCmpPred.OLT, scaled, scaled), k, total)
    acc = b.add(total, pick)
    b.cond_br(b.icmp(ICmpPred.SLT, nxt, y), loop, done)
    k.add_incoming(ConstantInt(i32, 5555), entry)
    k.add_incoming(nxt, loop)
    total.add_incoming(first, entry)
    total.add_incoming(acc, loop)
    b.set_insert_point(done)
    b.ret(b.sdiv(acc, x))
    return module, fn


def test_ops_of_one_shape_share_their_template():
    module, fn = template_module()
    interp = ClosureInterpreter(module)
    ops = [
        compiler._bind(fragment, i + 1, interp.memory)
        for i, fragment in enumerate(interp.code_for(fn).entry.fragments)
    ]
    # r2 = add r0, r1 and r3 = add r2, <98765>: one code object, two
    # bindings
    assert ops[0].__code__ is ops[1].__code__
    assert ops[0].__defaults__ != ops[1].__defaults__
    assert ops[0].__code__ is not ops[4].__code__  # sext


def test_template_sources_hold_no_slot_constant_or_name():
    module, fn = template_module()
    interp = ClosureInterpreter(module)
    code = interp.code_for(fn)
    seen = 0
    for block in fn.blocks:
        for index, inst in enumerate(block.instructions):
            fragment = interp._compiler._compile_inst(
                code, block, inst, index
            )
            if fragment.__class__ is not tuple:
                continue
            op = compiler._bind(fragment, index + 1, interp.memory)
            seen += 1
            source = compiler._template_source(fragment)
            assert op.__code__ is compiler._TEMPLATES[fragment[:2]]
            assert op.__code__ == compiler._factory_code(source)
            assert not re.search(r"regs\[\d", source), source
            for marker in MARKERS:
                assert marker not in source, (marker, source)
    assert seen >= 15
    # The run text of the same ops spells the slots and constants.
    compiler._RUN_CODE.clear()
    assert interp.run("main", [3, 6]) is not None
    runs = "".join(compiler._RUN_CODE)
    for marker in ("98765", "4444", "5555", "7777"):
        assert marker in runs


def test_importing_the_pipeline_compiles_no_template():
    probe = (
        "import repro.pipeline\n"
        "from repro.exec import compiler\n"
        "print(len(compiler._TEMPLATES), len(compiler._RUN_CODE))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == ["0", "0"]


def _kernel(name: str, seed: int):
    """The run-kernels kernel *name* at *seed* (``perfbench/inputs.py``)."""
    sys.path.append(os.path.join(REPO_ROOT, "perfbench"))
    import inputs

    return next(k for k in inputs.kernels(seed) if k.name == name)


def test_a_serial_kernel_binds_no_single_step():
    """Traces retire every op of a serial kernel, so no op template is
    ever compiled."""
    probe = (
        "import sys\n"
        f"sys.path.append({os.path.join(REPO_ROOT, 'perfbench')!r})\n"
        "import inputs\n"
        "from repro.exec import compiler, create_interpreter\n"
        "from repro.pipeline import compile_source\n"
        "[k] = [k for k in inputs.kernels(1) if k.name == 'reduction']\n"
        "interp = create_interpreter("
        "compile_source(k.source, optimize=True).module)\n"
        "interp.run('main', [])\n"
        "assert interp.output() == k.expected_stdout\n"
        "print(len(compiler._TEMPLATES))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == ["0"]


def test_only_single_stepped_ops_are_bound(monkeypatch):
    """In a team, the ops lockstep single-steps are bound on their first
    step and reuse that closure after; every other inlined op keeps the
    shared first-step entry, and no op list is replaced."""
    from repro.exec.engine import ClosureContext
    from repro.interp.interpreter import ThreadState

    kernel = _kernel("worksharing", 11)
    module = compile_source(kernel.source, optimize=True).module
    interp = ClosureInterpreter(module)
    interp.omp.num_threads = kernel.num_threads
    blocks = [
        bc
        for fn in module.functions.values()
        if not fn.is_declaration
        for bc in interp.code_for(fn).blocks.values()
    ]
    lists = [bc.ops for bc in blocks]
    steps = {}
    binds = []
    step = ClosureContext.step
    bind = compiler._bind

    def counted_step(ctx):
        frame = ctx.stack[-1]
        if ctx.state is ThreadState.RUNNABLE and (
            frame.bc.fragments[frame.index] is not None
        ):
            key = (id(frame.ops), frame.index)
            steps[key] = steps.get(key, 0) + 1
        step(ctx)

    def counted_bind(*args):
        binds.append(args)
        return bind(*args)

    monkeypatch.setattr(ClosureContext, "step", counted_step)
    monkeypatch.setattr(compiler, "_bind", counted_bind)
    assert interp.run("main", []) == 0
    assert interp.output() == kernel.expected_stdout
    assert all(bc.ops is ops for bc, ops in zip(blocks, lists))
    bound = {
        (id(bc.ops), i)
        for bc in blocks
        for i, fragment in enumerate(bc.fragments)
        if fragment is not None and bc.ops[i] is not compiler._first_step
    }
    assert bound and bound == set(steps)
    assert len(binds) == len(bound) < sum(steps.values())


def test_describe_code_has_one_line_per_op():
    """``describe_code()`` prints every op of every block, an inlined
    op through its printer, and an op that failed to compile as the
    exception it raises."""
    module, fn = template_module()
    bad = module.add_function("bad", FunctionType(i32, [i32]))
    b = IRBuilder(module)
    b.folding_enabled = False
    b.set_insert_point(bad.append_block("entry"))
    b.ret(b.add(fn.args[0], ConstantInt(i32, 1)))
    table = ClosureInterpreter(module).describe_code()
    ops = [line for line in table.splitlines() if line.startswith("    [")]
    assert len(ops) == sum(
        len(block.instructions)
        for f in (fn, bad)
        for block in f.blocks
    )
    assert "r2 = (r0 + r1) & 4294967295" in table
    assert (
        f"raise InterpreterError: use of value %{fn.args[0].name} "
        "before definition in @bad"
    ) in table
    assert "0x" not in table


def test_an_op_its_printer_cannot_print_raises_only_when_run():
    """A malformed op whose printer fails on its shape (a ``trunc`` to
    a float type) fails only when it executes: the ops before it retire
    and their store lands, and both engines raise one error naming the
    op."""
    module = Module("unprintable")
    gv = module.add_global("g", i32, None)
    fn = module.add_function("main", FunctionType(i32, [i64]))
    b = IRBuilder(module)
    b.folding_enabled = False
    b.set_insert_point(fn.append_block("entry"))
    x = b.add(b.cast(CastOp.TRUNC, fn.args[0], i32), ConstantInt(i32, 1))
    b.store(x, gv)
    b.cast(CastOp.TRUNC, fn.args[0], double_t)
    b.ret(x)
    outcomes = []
    for engine in ("interp", "closures"):
        interp = create_interpreter(module, engine=engine)
        with pytest.raises(Exception) as info:
            interp.run("main", [5])
        outcomes.append((
            interp.instruction_count,
            interp.memory.read_bytes(interp.global_address(gv), 4),
            type(info.value).__name__,
            str(info.value),
        ))
    assert outcomes[0] == outcomes[1] == (
        4, b"\x06\0\0\0",
        "InterpreterError", "cannot evaluate trunc from i64 to double",
    )


def test_missing_incoming_raises_only_when_taken():
    """An edge into a phi with no incoming value raises the reference
    interpreter's error when (and only when) it is taken, and keeps its
    branch out of thread-local runs."""
    module = Module("missing")
    fn = module.add_function("main", FunctionType(i32, [i32]))
    entry = fn.append_block("entry")
    bad = fn.append_block("bad")
    good = fn.append_block("good")
    b = IRBuilder(module)
    b.folding_enabled = False
    b.set_insert_point(entry)
    b.cond_br(b.icmp(ICmpPred.EQ, fn.args[0], ConstantInt(i32, 0)), bad, good)
    b.set_insert_point(bad)
    b.ret(b.phi(i32))
    b.set_insert_point(good)
    b.ret(ConstantInt(i32, 7))
    outcomes = []
    for engine in ("interp", "closures"):
        interp = create_interpreter(module, engine=engine)
        assert interp.run("main", [1]) == 7
        with pytest.raises(Exception) as info:
            create_interpreter(module, engine=engine).run("main", [0])
        outcomes.append((type(info.value).__name__, str(info.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == "phi %phi has no incoming for entry"
    code = ClosureInterpreter(module).code_for(fn)
    assert None in code.entry.fragments[1][1]
    assert code.entry.local_runs[1] is None



def test_fcmp_predicates_order_nan_as_llvm_does():
    """Both engines: the ordered predicates are false when an operand
    is NaN, ``une`` is true."""
    expected = {
        FCmpPred.OEQ: lambda x, y: x == y,
        FCmpPred.ONE: lambda x, y: x < y or x > y,
        FCmpPred.OLT: lambda x, y: x < y,
        FCmpPred.OLE: lambda x, y: x <= y,
        FCmpPred.OGT: lambda x, y: x > y,
        FCmpPred.OGE: lambda x, y: x >= y,
        FCmpPred.UNE: lambda x, y: not x == y,
    }
    assert set(expected) == set(FCmpPred)
    module = Module("fcmp")
    b = IRBuilder(module)
    for pred in FCmpPred:
        fn = module.add_function(
            pred.value, FunctionType(i1, [double_t, double_t])
        )
        b.set_insert_point(fn.append_block("entry"))
        b.ret(b.fcmp(pred, fn.args[0], fn.args[1]))
    nan = float("nan")
    operands = [(1.0, 2.0), (2.0, 2.0), (nan, 2.0), (1.0, nan), (nan, nan)]
    for engine in ("interp", "closures"):
        interp = create_interpreter(module, engine=engine)
        for pred, truth in expected.items():
            for x, y in operands:
                assert interp.run(pred.value, [x, y]) == int(truth(x, y)), (
                    engine, pred, x, y,
                )
