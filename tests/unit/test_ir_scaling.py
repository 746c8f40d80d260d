"""IR utilities on the compile path stay linear in function size.

The tests count calls instead of timing them, so they are
deterministic: doubling the function may at most (about) double the
work.  A utility that rescans the whole function per value or per
block shows up as a ratio near 4.
"""

from __future__ import annotations

import pytest

from repro.ir import FunctionType, IRBuilder, Module, i32, verify_module
from repro.ir.instructions import BinaryInst, BinOp, ICmpPred, Instruction
from repro.ir.module import BasicBlock
from repro.ir.printer import print_module
from repro.ir.values import ConstantInt
from repro.midend import (
    ConstantFoldPass,
    DeadCodeEliminationPass,
    DominatorTree,
    LoopInfo,
    Mem2RegPass,
    SimplifyCFGPass,
    default_pass_pipeline,
)
from repro.pipeline import compile_source

N = 40
MAX_RATIO = 2.5


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _count_calls(monkeypatch, classes, method: str) -> list[int]:
    """Wrap *method* on every class in *classes* that defines it; the
    returned one-element list holds the running call count."""
    calls = [0]
    for cls in classes:
        original = cls.__dict__.get(method)
        if original is None:
            continue

        def counted(self, *args, __original=original, **kwargs):
            calls[0] += 1
            return __original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)
    return calls


def straight_line_locals(n: int):
    """``f(x)``: *n* promotable locals, each stored once and loaded
    once, summed into the return value."""
    mod = Module("locals")
    fn = mod.add_function("f", FunctionType(i32, [i32]))
    b = IRBuilder(mod)
    b.set_insert_point(fn.append_block("entry"))
    slots = [b.alloca(i32, name=f"v{k}") for k in range(n)]
    for k, slot in enumerate(slots):
        b.store(b.add(fn.args[0], b.const_int(i32, k)), slot)
    total = b.load(i32, slots[0])
    for slot in slots[1:]:
        total = b.add(total, b.load(i32, slot))
    b.ret(total)
    return mod, fn


def branch_chain(n: int):
    """``g(x)``: *n* blocks in a chain, each also branching to a shared
    exit block with *n* predecessors."""
    mod = Module("chain")
    fn = mod.add_function("g", FunctionType(i32, [i32]))
    b = IRBuilder(mod)
    blocks = [fn.append_block(f"b{k}") for k in range(n)]
    exit_block = fn.append_block("exit")
    b.set_insert_point(blocks[0])
    cond = b.icmp(ICmpPred.SGT, fn.args[0], b.const_int(i32, 0))
    for k, block in enumerate(blocks):
        b.set_insert_point(block)
        nxt = blocks[k + 1] if k + 1 < n else exit_block
        b.cond_br(cond, nxt, exit_block)
    b.set_insert_point(exit_block)
    b.ret(b.const_int(i32, 0))
    return mod


def foldable_chain(n: int):
    """``f(x)``: *n* adds, each of a constant and the one before (built
    by hand: the IRBuilder would fold them as it went)."""
    mod = Module("fold")
    fn = mod.add_function("f", FunctionType(i32, [i32]))
    entry = fn.append_block("entry")
    value = ConstantInt(i32, 1)
    for k in range(n):
        value = entry.append(
            BinaryInst(BinOp.ADD, value, ConstantInt(i32, k), f"c{k}")
        )
    b = IRBuilder(mod)
    b.set_insert_point(entry)
    b.ret(b.add(fn.args[0], value))
    return mod, fn


def dead_chain(n: int):
    """``f(x)``: *n* adds, each of ``x`` and the one before, none of them
    used by the return."""
    mod = Module("dead")
    fn = mod.add_function("f", FunctionType(i32, [i32]))
    b = IRBuilder(mod)
    b.set_insert_point(fn.append_block("entry"))
    value = fn.args[0]
    for _ in range(n):
        value = b.add(fn.args[0], value)
    b.ret(fn.args[0])
    return mod, fn


def phi_chain(n: int):
    """``f(x)``: a straight line of *n* blocks, each with one
    predecessor and a phi of the value the block before computed."""
    mod = Module("phis")
    fn = mod.add_function("f", FunctionType(i32, [i32]))
    b = IRBuilder(mod)
    blocks = [fn.append_block(f"b{k}") for k in range(n + 1)]
    b.set_insert_point(blocks[0])
    value = b.add(fn.args[0], b.const_int(i32, 1))
    b.br(blocks[1])
    for k in range(1, n + 1):
        b.set_insert_point(blocks[k])
        phi = b.phi(i32, f"p{k}")
        phi.add_incoming(value, blocks[k - 1])
        value = b.add(phi, b.const_int(i32, k))
        if k < n:
            b.br(blocks[k + 1])
    b.ret(value)
    return mod, fn


@pytest.mark.parametrize(
    "build, pass_",
    [
        (foldable_chain, ConstantFoldPass),
        (dead_chain, DeadCodeEliminationPass),
        (phi_chain, SimplifyCFGPass),
    ],
    ids=["constant-fold", "dce", "simplify-cfg"],
)
def test_cleanup_operand_walks_scale_linearly(monkeypatch, build, pass_):
    calls = _count_calls(
        monkeypatch, [Instruction, *_subclasses(Instruction)], "operands"
    )
    counts = []
    for n in (N, 2 * N):
        mod, fn = build(n)
        calls[0] = 0
        assert pass_().run_on_function(fn)
        counts.append(calls[0])
        verify_module(mod)
    assert counts[1] / counts[0] <= MAX_RATIO, counts


LOOPS_SRC = """
int printf(const char *fmt, ...);
int plain(int n) {
  int s = 0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < i; j++) s += j;
  return s;
}
int hinted(int n) {
  int s = 0;
  #pragma omp unroll partial(4)
  for (int i = 0; i < n; i++) s += i;
  #pragma omp unroll full
  for (int i = 0; i < 6; i++) s += 2 * i;
  return s;
}
int main(void) {
  printf("%d %d\\n", plain(9), hinted(9));
  return 0;
}
"""


def _cfg_shape(fn):
    return tuple(
        (block.name, tuple(s.name for s in block.successors()))
        for block in fn.blocks
    )


@pytest.mark.parametrize("irbuilder", [False, True])
def test_no_loop_metadata_builds_no_loop_info(monkeypatch, irbuilder):
    module = compile_source(LOOPS_SRC, enable_irbuilder=irbuilder).module
    built: list[str] = []
    original = LoopInfo.__init__

    def counted(self, fn, *args, **kwargs):
        built.append(fn.name)
        original(self, fn, *args, **kwargs)

    monkeypatch.setattr(LoopInfo, "__init__", counted)
    default_pass_pipeline().run(module)
    assert "plain" not in built and "main" not in built
    assert "hinted" in built


@pytest.mark.parametrize("irbuilder", [False, True])
def test_one_dominator_tree_per_cfg_state(monkeypatch, irbuilder):
    """Each dominator tree the pipeline builds is for a CFG no earlier
    tree of the same function saw: a pass that keeps the CFG reuses the
    tree, so there is at most one build per function per CFG-changing
    pass."""
    module = compile_source(LOOPS_SRC, enable_irbuilder=irbuilder).module
    shapes: list[tuple] = []
    original = DominatorTree.__init__

    def counted(self, fn, *args, **kwargs):
        shapes.append((fn.name, _cfg_shape(fn)))
        original(self, fn, *args, **kwargs)

    monkeypatch.setattr(DominatorTree, "__init__", counted)
    default_pass_pipeline().run(module)
    assert shapes
    assert len(shapes) == len(set(shapes)), [name for name, _ in shapes]


def test_mem2reg_operand_walks_scale_linearly(monkeypatch):
    calls = _count_calls(
        monkeypatch, [Instruction, *_subclasses(Instruction)], "operands"
    )
    counts = []
    for n in (N, 2 * N):
        _, fn = straight_line_locals(n)
        calls[0] = 0
        assert Mem2RegPass().run_on_function(fn)
        counts.append(calls[0])
    assert counts[1] / counts[0] <= MAX_RATIO, counts


def test_verify_and_print_successor_walks_scale_linearly(monkeypatch):
    calls = _count_calls(monkeypatch, [BasicBlock], "successors")
    counts = []
    for n in (N, 2 * N):
        mod = branch_chain(n)
        calls[0] = 0
        verify_module(mod)
        print_module(mod)
        counts.append(calls[0])
    assert counts[1] / counts[0] <= MAX_RATIO, counts


@pytest.mark.parametrize("n", [1, 7])
def test_promoted_function_is_correct(n):
    from repro.interp import Interpreter

    mod, fn = straight_line_locals(n)
    Mem2RegPass().run_on_function(fn)
    verify_module(mod)
    text = print_module(mod)
    assert "alloca" not in text and "load" not in text
    assert Interpreter(mod).run("f", [3]) == sum(3 + k for k in range(n))
