"""Golden text for the IR surfaces that list predecessors.

The printer's ``; preds =`` headers, simplify-cfg's ``-print-after-all``
dumps and the verifier's phi diagnostic all depend on each block's
predecessor list: each predecessor once, in function order, however many
edges it has to the block.  The expected text is pinned byte for byte.
"""

from __future__ import annotations

import io

import pytest

from repro.ir import (
    FunctionType,
    IRBuilder,
    Module,
    VerificationError,
    i32,
    predecessor_map,
    print_module,
    verify_module,
)
from repro.ir.instructions import ICmpPred
from repro.instrument.passinstrument import PassInstrumentation
from repro.midend.pass_manager import PassManager
from repro.midend.simplify_cfg import SimplifyCFGPass


def _function(name: str):
    mod = Module(name)
    fn = mod.add_function(name, FunctionType(i32, [i32]))
    return mod, fn, IRBuilder(mod)


def same_target_condbr():
    mod, fn, b = _function("same")
    entry = fn.append_block("entry")
    join = fn.append_block("join")
    b.set_insert_point(entry)
    cond = b.icmp(ICmpPred.SGT, fn.args[0], b.const_int(i32, 0))
    b.cond_br(cond, join, join)
    b.set_insert_point(join)
    phi = b.phi(i32, "p")
    phi.add_incoming(fn.args[0], entry)
    b.ret(phi)
    return mod


def repeated_switch_cases():
    mod, fn, b = _function("sw")
    entry = fn.append_block("entry")
    one = fn.append_block("one")
    other = fn.append_block("other")
    b.set_insert_point(entry)
    sw = b.switch(fn.args[0], other)
    for value, target in [(1, one), (2, one), (3, other), (4, one)]:
        sw.add_case(value, target)
    b.set_insert_point(one)
    b.br(other)
    b.set_insert_point(other)
    phi = b.phi(i32, "p")
    phi.add_incoming(b.const_int(i32, 7), entry)
    phi.add_incoming(b.const_int(i32, 8), one)
    b.ret(phi)
    return mod


def merge_chain():
    """``chain``: entry branches to a straight-line chain (with a
    single-pred phi to resolve) and to a jump-only block; both meet in
    a phi, so the jump-only block stays.  ``thread``: two jump-only
    arms into a phi-free join, which are threaded away."""
    mod, fn, b = _function("chain")
    entry, a, m, t, hop, done = (
        fn.append_block(n) for n in ("entry", "a", "m", "t", "hop", "exit")
    )
    b.set_insert_point(entry)
    cond = b.icmp(ICmpPred.SGT, fn.args[0], b.const_int(i32, 0))
    b.cond_br(cond, a, hop)
    b.set_insert_point(a)
    x = b.add(fn.args[0], b.const_int(i32, 1), "x")
    b.br(m)
    b.set_insert_point(m)
    p = b.phi(i32, "p")
    p.add_incoming(x, a)
    y = b.mul(p, b.const_int(i32, 3), "y")
    b.br(t)
    b.set_insert_point(t)
    z = b.sub(y, fn.args[0], "z")
    b.br(done)
    b.set_insert_point(hop)
    b.br(done)
    b.set_insert_point(done)
    r = b.phi(i32, "r")
    r.add_incoming(z, t)
    r.add_incoming(fn.args[0], hop)
    b.ret(r)

    fn = mod.add_function("thread", FunctionType(i32, [i32]))
    entry, left, right, join = (
        fn.append_block(n) for n in ("entry", "left", "right", "join")
    )
    b.set_insert_point(entry)
    cond = b.icmp(ICmpPred.SGT, fn.args[0], b.const_int(i32, 0))
    b.cond_br(cond, left, right)
    for arm in (left, right):
        b.set_insert_point(arm)
        b.br(join)
    b.set_insert_point(join)
    b.ret(fn.args[0])
    return mod


def test_condbr_to_one_block_lists_it_once():
    mod = same_target_condbr()
    verify_module(mod)
    assert print_module(mod) == (
        "; ModuleID = 'same'\n"
        "\n"
        "\n"
        "define i32 @same(i32 %arg0) {\n"
        "entry:\n"
        "  %cmp = icmp sgt i32 %arg0, 0\n"
        "  br i1 %cmp, label %join, label %join\n"
        "join:                                             ; preds = %entry\n"
        "  %p = phi i32 [ %arg0, %entry ]\n"
        "  ret i32 %p\n"
        "}\n"
    )


def test_switch_with_repeated_cases_lists_each_block_once():
    mod = repeated_switch_cases()
    verify_module(mod)
    fn = mod.functions["sw"]
    preds = predecessor_map(fn)
    for block in fn.blocks:
        assert preds[id(block)] == block.predecessors()
    assert print_module(mod) == (
        "; ModuleID = 'sw'\n"
        "\n"
        "\n"
        "define i32 @sw(i32 %arg0) {\n"
        "entry:\n"
        "  switch i32 %arg0, label %other [ i64 1, label %one"
        " i64 2, label %one i64 3, label %other i64 4, label %one ]\n"
        "one:                                              ; preds = %entry\n"
        "  br label %other\n"
        "other:                                            ; preds = %entry, %one\n"
        "  %p = phi i32 [ 7, %entry ], [ 8, %one ]\n"
        "  ret i32 %p\n"
        "}\n"
    )


def test_simplify_cfg_print_after_all():
    mod = merge_chain()
    verify_module(mod)
    stream = io.StringIO()
    instrument = PassInstrumentation(print_after_all=True, stream=stream)
    PassManager(passes=[SimplifyCFGPass()]).run(mod, instrument)
    verify_module(mod)
    assert stream.getvalue() == (
        "*** IR Dump After simplify-cfg on chain ***\n"
        "define i32 @chain(i32 %arg0) {\n"
        "entry:\n"
        "  %cmp = icmp sgt i32 %arg0, 0\n"
        "  br i1 %cmp, label %a, label %hop\n"
        "a:                                                ; preds = %entry\n"
        "  %x = add i32 %arg0, 1\n"
        "  %y = mul i32 %x, 3\n"
        "  %z = sub i32 %y, %arg0\n"
        "  br label %exit\n"
        "hop:                                              ; preds = %entry\n"
        "  br label %exit\n"
        "exit:                                             ; preds = %a, %hop\n"
        "  %r = phi i32 [ %z, %a ], [ %arg0, %hop ]\n"
        "  ret i32 %r\n"
        "}\n"
        "*** IR Dump After simplify-cfg on thread ***\n"
        "define i32 @thread(i32 %arg0) {\n"
        "entry:\n"
        "  %cmp = icmp sgt i32 %arg0, 0\n"
        "  br i1 %cmp, label %join, label %join\n"
        "join:                                             ; preds = %entry\n"
        "  ret i32 %arg0\n"
        "}\n"
    )


@pytest.mark.parametrize(
    "incoming, message",
    [
        (
            ["entry"],
            "sw: phi %p in other incoming blocks ['entry'] != "
            "predecessors ['entry', 'one']",
        ),
        (
            ["one", "entry", "one"],
            None,
        ),
        (
            ["entry", "one", "other"],
            "sw: phi %p in other incoming blocks ['entry', 'one', 'other'] "
            "!= predecessors ['entry', 'one']",
        ),
    ],
    ids=["missing-pred", "repeated-pred", "extra-block"],
)
def test_verifier_phi_predecessor_message(incoming, message):
    mod = repeated_switch_cases()
    fn = mod.functions["sw"]
    blocks = {b.name: b for b in fn.blocks}
    (phi,) = blocks["other"].phis()
    value = phi.incoming[0][0]
    phi.incoming = [(value, blocks[name]) for name in incoming]
    if message is None:
        verify_module(mod)
        return
    with pytest.raises(VerificationError) as info:
        verify_module(mod)
    assert str(info.value) == message
