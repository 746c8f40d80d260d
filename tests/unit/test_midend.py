"""Unit tests: mid-end analyses and passes (dominators, loop info,
LoopUnroll, simplify-cfg, constant folding, DCE)."""

import itertools

import pytest

from repro.ir import (
    ConstantInt,
    FunctionType,
    IRBuilder,
    Module,
    i32,
    i64,
    loop_metadata,
    verify_module,
    void_t,
)
from repro.ir.instructions import BinOp, ICmpPred
from repro.interp import Interpreter
from repro.midend import (
    ConstantFoldPass,
    DeadCodeEliminationPass,
    DominatorTree,
    LoopInfo,
    LoopUnrollPass,
    SimplifyCFGPass,
    default_pass_pipeline,
)
from repro.midend.cfg import postorder, reverse_postorder
from tests.conftest import compile_c, loop_nest_source, run_both, run_c


def diamond_function():
    """entry -> (left|right) -> merge -> exit"""
    mod = Module("t")
    fn = mod.add_function("f", FunctionType(i32, [i32]))
    b = IRBuilder(mod)
    entry = fn.append_block("entry")
    left = fn.append_block("left")
    right = fn.append_block("right")
    merge = fn.append_block("merge")
    b.set_insert_point(entry)
    cmp = b.icmp(ICmpPred.SGT, fn.args[0], b.const_int(i32, 0))
    b.cond_br(cmp, left, right)
    b.set_insert_point(left)
    b.br(merge)
    b.set_insert_point(right)
    b.br(merge)
    b.set_insert_point(merge)
    phi = b.phi(i32, "v")
    phi.add_incoming(b.const_int(i32, 1), left)
    phi.add_incoming(b.const_int(i32, 2), right)
    b.ret(phi)
    return mod, fn


def memory_loop_function(bound_const: int | None = None):
    """Memory-form loop: i alloca, for(i=0; i<bound; i+=1) call body(i).

    bound_const None -> uses the i32 argument as the bound.
    """
    mod = Module("t")
    fn = mod.add_function("f", FunctionType(void_t, [i32]))
    sink = mod.add_function("body", FunctionType(void_t, [i32]))
    b = IRBuilder(mod)
    b.folding_enabled = False
    entry = fn.append_block("entry")
    cond = fn.append_block("for.cond")
    body = fn.append_block("for.body")
    inc = fn.append_block("for.inc")
    end = fn.append_block("for.end")
    b.set_insert_point(entry)
    iv = b.alloca(i32, name="i")
    b.store(b.const_int(i32, 0), iv)
    b.br(cond)
    b.set_insert_point(cond)
    loaded = b.load(i32, iv, "i.val")
    bound = (
        b.const_int(i32, bound_const)
        if bound_const is not None
        else fn.args[0]
    )
    cmp = b.icmp(ICmpPred.SLT, loaded, bound, "cmp")
    b.cond_br(cmp, body, end)
    b.set_insert_point(body)
    v = b.load(i32, iv)
    b.call(sink, [v])
    b.br(inc)
    b.set_insert_point(inc)
    old = b.load(i32, iv)
    new = b.binop(BinOp.ADD, old, b.const_int(i32, 1), "next")
    b.store(new, iv)
    latch_br = b.br(cond)
    b.set_insert_point(end)
    b.ret()
    return mod, fn, latch_br


class TestCFGTraversal:
    def test_postorder_ends_at_entry(self):
        _, fn = diamond_function()
        order = postorder(fn)
        assert order[-1].name == "entry"

    def test_rpo_starts_at_entry(self):
        _, fn = diamond_function()
        assert reverse_postorder(fn)[0].name == "entry"

    def test_all_blocks_visited(self):
        _, fn = diamond_function()
        assert len(postorder(fn)) == 4


class TestDominators:
    def test_entry_dominates_all(self):
        _, fn = diamond_function()
        dt = DominatorTree(fn)
        for block in fn.blocks:
            assert dt.dominates(fn.entry_block, block)

    def test_branches_do_not_dominate_merge(self):
        _, fn = diamond_function()
        dt = DominatorTree(fn)
        left = next(b for b in fn.blocks if b.name == "left")
        merge = next(b for b in fn.blocks if b.name == "merge")
        assert not dt.dominates(left, merge)
        assert dt.immediate_dominator(merge) is fn.entry_block

    def test_loop_header_dominates_body(self):
        _, fn, _ = memory_loop_function(10)
        dt = DominatorTree(fn)
        cond = next(b for b in fn.blocks if b.name == "for.cond")
        body = next(b for b in fn.blocks if b.name == "for.body")
        assert dt.dominates(cond, body)

    def test_dominates_is_reflexive(self):
        _, fn = diamond_function()
        dt = DominatorTree(fn)
        for block in fn.blocks:
            assert dt.dominates(block, block)


class TestLoopInfo:
    def test_finds_loop(self):
        _, fn, _ = memory_loop_function(10)
        li = LoopInfo(fn)
        assert len(li.loops) == 1
        loop = li.loops[0]
        assert loop.header.name == "for.cond"
        assert loop.single_latch.name == "for.inc"
        assert {b.name for b in loop.blocks} == {
            "for.cond",
            "for.body",
            "for.inc",
        }

    def test_preheader_and_exits(self):
        _, fn, _ = memory_loop_function(10)
        loop = LoopInfo(fn).loops[0]
        assert loop.preheader().name == "entry"
        assert [b.name for b in loop.exit_blocks()] == ["for.end"]

    def test_no_loops_in_diamond(self):
        _, fn = diamond_function()
        assert LoopInfo(fn).loops == []


def run_counting_body(mod, arg=None):
    """Execute @f; return list of body(i) call arguments."""
    interp = Interpreter(mod)
    calls = []
    interp.register_native(
        "body", lambda i, c, a: calls.append(a[0])
    )
    interp.run("f", [arg] if arg is not None else [0])
    return calls


class TestLoopUnrollFull:
    def test_full_unroll_constant_trip(self):
        mod, fn, latch_br = memory_loop_function(6)
        latch_br.metadata["llvm.loop"] = loop_metadata(unroll_full=True)
        pass_ = LoopUnrollPass()
        assert pass_.run_on_function(fn)
        verify_module(mod)
        assert pass_.stats.fully_unrolled == 1
        # No loop remains.
        from repro.midend import LoopInfo as LI

        assert LI(fn).loops == []
        assert run_counting_body(mod) == [0, 1, 2, 3, 4, 5]

    def test_full_unroll_trip_zero(self):
        mod, fn, latch_br = memory_loop_function(0)
        latch_br.metadata["llvm.loop"] = loop_metadata(unroll_full=True)
        LoopUnrollPass().run_on_function(fn)
        verify_module(mod)
        assert run_counting_body(mod) == []

    def test_full_without_constant_trip_falls_back(self):
        mod, fn, latch_br = memory_loop_function(None)
        latch_br.metadata["llvm.loop"] = loop_metadata(unroll_full=True)
        pass_ = LoopUnrollPass()
        pass_.run_on_function(fn)
        verify_module(mod)
        assert pass_.stats.fully_unrolled == 0
        assert run_counting_body(mod, 5) == [0, 1, 2, 3, 4]


class TestLoopUnrollPartialRemainder:
    def test_remainder_structure(self):
        """E6: the main loop + remainder loop of paper Listing 2."""
        mod, fn, latch_br = memory_loop_function(None)
        latch_br.metadata["llvm.loop"] = loop_metadata(unroll_count=4)
        pass_ = LoopUnrollPass()
        assert pass_.run_on_function(fn)
        verify_module(mod)
        assert pass_.stats.partially_unrolled == 1
        assert pass_.stats.remainder_loops_created == 1
        # Two loops now: the unrolled main loop and the remainder.
        loops = LoopInfo(fn).loops
        assert len(loops) == 2
        names = {loop.header.name for loop in loops}
        assert "for.cond.unrolled" in names
        assert "for.cond" in names  # original survives as remainder

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 7, 8, 15, 16, 100])
    def test_semantics_preserved_all_remainders(self, n):
        mod, fn, latch_br = memory_loop_function(None)
        latch_br.metadata["llvm.loop"] = loop_metadata(unroll_count=4)
        LoopUnrollPass().run_on_function(fn)
        verify_module(mod)
        assert run_counting_body(mod, n) == list(range(n))

    def test_main_loop_guard_strengthened(self):
        mod, fn, latch_br = memory_loop_function(None)
        latch_br.metadata["llvm.loop"] = loop_metadata(unroll_count=4)
        LoopUnrollPass().run_on_function(fn)
        main_header = next(
            b for b in fn.blocks if b.name == "for.cond.unrolled"
        )
        from repro.ir.instructions import BinaryInst

        adds = [
            inst
            for inst in main_header.instructions
            if isinstance(inst, BinaryInst)
            and inst.op == BinOp.ADD
        ]
        # iv + (F-1)*step with F=4, step=1 -> +3
        assert any(
            isinstance(a.rhs, ConstantInt) and a.rhs.value == 3
            for a in adds
        )

    def test_metadata_consumed(self):
        mod, fn, latch_br = memory_loop_function(None)
        latch_br.metadata["llvm.loop"] = loop_metadata(unroll_count=4)
        LoopUnrollPass().run_on_function(fn)
        for block in fn.blocks:
            term = block.terminator
            assert term is None or "llvm.loop" not in term.metadata

    def test_disable_metadata_respected(self):
        mod, fn, latch_br = memory_loop_function(None)
        latch_br.metadata["llvm.loop"] = loop_metadata(
            unroll_disable=True
        )
        pass_ = LoopUnrollPass()
        changed = pass_.run_on_function(fn)
        assert not changed
        assert pass_.stats.skipped == 1


class TestLoopUnrollHeuristic:
    def test_small_constant_trip_fully_unrolls(self):
        mod, fn, latch_br = memory_loop_function(8)
        latch_br.metadata["llvm.loop"] = loop_metadata(
            unroll_enable=True
        )
        pass_ = LoopUnrollPass()
        pass_.run_on_function(fn)
        assert pass_.stats.fully_unrolled == 1

    def test_runtime_trip_partial(self):
        mod, fn, latch_br = memory_loop_function(None)
        latch_br.metadata["llvm.loop"] = loop_metadata(
            unroll_enable=True
        )
        pass_ = LoopUnrollPass()
        pass_.run_on_function(fn)
        assert pass_.stats.partially_unrolled == 1
        assert run_counting_body(mod, 13) == list(range(13))


class TestCleanupPasses:
    def test_constant_fold(self):
        mod = Module("t")
        fn = mod.add_function("f", FunctionType(i32, []))
        b = IRBuilder(mod)
        b.folding_enabled = False
        b.set_insert_point(fn.append_block("entry"))
        x = b.add(b.const_int(i32, 2), b.const_int(i32, 3))
        y = b.mul(x, b.const_int(i32, 4))
        b.ret(y)
        assert ConstantFoldPass().run_on_function(fn)
        verify_module(mod)
        assert Interpreter(mod).run("f") == 20
        # Everything folded away except the return.
        assert len(fn.entry_block.instructions) == 1

    def test_dce_removes_unused(self):
        mod = Module("t")
        fn = mod.add_function("f", FunctionType(i32, [i32]))
        b = IRBuilder(mod)
        b.folding_enabled = False
        b.set_insert_point(fn.append_block("entry"))
        b.add(fn.args[0], b.const_int(i32, 1), "unused")
        b.ret(fn.args[0])
        assert DeadCodeEliminationPass().run_on_function(fn)
        assert len(fn.entry_block.instructions) == 1

    def test_dce_keeps_calls(self):
        mod = Module("t")
        fn = mod.add_function("f", FunctionType(void_t, []))
        effect = mod.add_function("effect", FunctionType(void_t, []))
        b = IRBuilder(mod)
        b.set_insert_point(fn.append_block("entry"))
        b.call(effect, [])
        b.ret()
        DeadCodeEliminationPass().run_on_function(fn)
        assert any(
            inst.opcode == "call"
            for inst in fn.entry_block.instructions
        )

    def test_dce_removes_store_only_allocas(self):
        mod = Module("t")
        fn = mod.add_function("f", FunctionType(void_t, []))
        b = IRBuilder(mod)
        b.set_insert_point(fn.append_block("entry"))
        slot = b.alloca(i32, name="deadslot")
        b.store(b.const_int(i32, 1), slot)
        b.ret()
        assert DeadCodeEliminationPass().run_on_function(fn)
        assert len(fn.entry_block.instructions) == 1

    def test_simplify_cfg_merges_chain(self):
        mod = Module("t")
        fn = mod.add_function("f", FunctionType(i32, []))
        b = IRBuilder(mod)
        a_bb = fn.append_block("a")
        b_bb = fn.append_block("b")
        c_bb = fn.append_block("c")
        b.set_insert_point(a_bb)
        b.br(b_bb)
        b.set_insert_point(b_bb)
        b.br(c_bb)
        b.set_insert_point(c_bb)
        b.ret(b.const_int(i32, 7))
        assert SimplifyCFGPass().run_on_function(fn)
        verify_module(mod)
        assert len(fn.blocks) == 1
        assert Interpreter(mod).run("f") == 7

    def test_pipeline_on_full_unroll_cleans_up(self):
        mod, fn, latch_br = memory_loop_function(4)
        latch_br.metadata["llvm.loop"] = loop_metadata(unroll_full=True)
        default_pass_pipeline().run(mod)
        verify_module(mod)
        assert run_counting_body(mod) == [0, 1, 2, 3]
        # No loop remains and the per-copy cond blocks were merged away
        # (entry + one straight-line body block per copy + exit).
        assert LoopInfo(fn).loops == []
        assert len(fn.blocks) <= 2 + 4


class TestAblations:
    """The design choices DESIGN.md calls out, each against its
    alternative on the same program."""

    FOLDING_SRC = r"""
    int main(void) {
      int x = (3 + 4) * 2;
      int arr[8];
      for (int i = 0 * 1; i < 8 * 1 + 0; i += 1 + 0)
        arr[i] = i * 1 + (2 - 2);
      int sum = 0;
      #pragma omp unroll partial(2 + 2)
      for (int i = 0; i < 8; i += 1) sum += arr[i] + (10 / 2);
      printf("%d %d\n", x, sum);
      return 0;
    }
    """

    REMAINDER_ELIGIBLE = r"""
    int main(void) {
      long acc = 0;
      #pragma clang loop unroll_count(4)
      for (int i = 0; i < 997; i += 1) acc += i;
      printf("%d\n", (int)acc);
      return 0;
    }
    """
    # The && in the condition forces the conditional-exit scheme.
    CONDITIONAL_ONLY = r"""
    int main(void) {
      long acc = 0;
      int limit = 997;
      #pragma clang loop unroll_count(4)
      for (int i = 0; i < 997 && i < limit; i += 1) acc += i;
      printf("%d\n", (int)acc);
      return 0;
    }
    """

    def test_folding_emits_fewer_instructions(self, monkeypatch):
        """Paper §1.3: on-the-fly folding avoids creating instructions
        that would be optimized away anyway; output is unchanged."""

        def compiled(folding):
            original_init = IRBuilder.__init__

            def init(self_b, module):
                original_init(self_b, module)
                self_b.folding_enabled = folding

            with monkeypatch.context() as patch:
                patch.setattr(IRBuilder, "__init__", init)
                module = compile_c(self.FOLDING_SRC).module
            interp = Interpreter(module)
            interp.run("main")
            size = sum(
                len(block.instructions)
                for fn in module.functions.values()
                for block in fn.blocks
            )
            return size, interp.output()

        folded, folded_out = compiled(True)
        unfolded, unfolded_out = compiled(False)
        assert folded < unfolded
        assert folded_out == unfolded_out

    def test_conditional_exit_scheme_for_compound_condition(self):
        result = compile_c(self.CONDITIONAL_ONLY, openmp=False)
        pass_ = LoopUnrollPass()
        pass_.run_on_function(result.module.get_function("main"))
        assert pass_.stats.conditionally_unrolled == 1

    def test_remainder_beats_conditional(self):
        """The remainder scheme drops the per-copy exit checks, so it
        retires fewer instructions on the same trip count."""
        remainder = run_c(self.REMAINDER_ELIGIBLE, openmp=False, optimize=True)
        conditional = run_c(self.CONDITIONAL_ONLY, openmp=False, optimize=True)
        assert remainder.stdout == conditional.stdout
        assert remainder.instruction_count < conditional.instruction_count

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_parallel_for_over_nest_passes_sema(self, depth):
        src = loop_nest_source(depth, 4, "#pragma omp parallel for")
        for irbuilder in (False, True):
            assert compile_c(
                src, syntax_only=True, enable_irbuilder=irbuilder
            ).ok

    @pytest.mark.parametrize("depth", [2, 3])
    def test_collapse_executes_correctly_at_depth(self, depth):
        pragma = f"#pragma omp parallel for collapse({depth}) reduction(+: acc)"
        legacy, _ = run_both(loop_nest_source(depth, 3, pragma))
        assert int(legacy.stdout) == sum(
            sum(idx) for idx in itertools.product(range(3), repeat=depth)
        )
