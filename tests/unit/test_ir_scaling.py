"""IR utilities on the compile path stay linear in function size.

The tests count calls instead of timing them, so they are
deterministic: doubling the function may at most (about) double the
work.  A utility that rescans the whole function per value or per
block shows up as a ratio near 4.
"""

from __future__ import annotations

import pytest

from repro.ir import FunctionType, IRBuilder, Module, i32, verify_module
from repro.ir.instructions import ICmpPred, Instruction
from repro.ir.module import BasicBlock
from repro.ir.printer import print_module
from repro.midend import Mem2RegPass

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
