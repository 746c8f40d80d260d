"""E9: the loop skeleton of ``create_canonical_loop`` (paper Fig. 7) and
the CanonicalLoopInfo invariants (paper §3.2)."""

import pytest

from repro.ir import (
    FunctionType,
    IRBuilder,
    Module,
    i64,
    verify_module,
    void_t,
)
from repro.ir.instructions import BranchInst, CondBranchInst, ICmpPred
from repro.ompirbuilder import (
    CanonicalLoopInfo,
    OpenMPIRBuilder,
    SkeletonError,
)


@pytest.fixture
def env():
    mod = Module("t")
    fn = mod.add_function("f", FunctionType(void_t, [i64]))
    fn.args[0].name = "n"
    entry = fn.append_block("entry")
    b = IRBuilder(mod)
    b.set_insert_point(entry)
    ompb = OpenMPIRBuilder(mod)
    return mod, fn, b, ompb


def make_loop(env, name="omp_loop"):
    mod, fn, b, ompb = env
    sink = mod.add_function("sink", FunctionType(void_t, [i64]))
    cli = ompb.create_canonical_loop(
        b, fn.args[0], lambda bld, iv: bld.call(sink, [iv]), name
    )
    b.ret()
    return cli


class TestFig7Skeleton:
    def test_seven_explicit_blocks(self, env):
        """Paper: 'Explicit basic blocks for preheader, header, condition
        check, body entry, latch, exit and after.'"""
        cli = make_loop(env)
        roles = cli.block_names()
        assert set(roles) == {
            "preheader",
            "header",
            "cond",
            "body",
            "latch",
            "exit",
            "after",
        }
        # All distinct blocks.
        assert len(set(roles.values())) == 7

    def test_edge_structure(self, env):
        cli = make_loop(env)
        assert isinstance(cli.preheader.terminator, BranchInst)
        assert cli.preheader.terminator.target is cli.header
        assert cli.header.terminator.target is cli.cond
        cond_term = cli.cond.terminator
        assert isinstance(cond_term, CondBranchInst)
        assert cond_term.true_block is cli.body
        assert cond_term.false_block is cli.exit
        assert cli.body.terminator.target is cli.latch
        assert cli.latch.terminator.target is cli.header
        assert cli.exit.terminator.target is cli.after

    def test_identifiable_induction_variable(self, env):
        """'Identifiable logical iteration variable/induction variable':
        the header phi, starting at 0, incremented by 1 in the latch."""
        cli = make_loop(env)
        indvar = cli.indvar
        assert indvar.parent is cli.header
        start = indvar.incoming_for(cli.preheader)
        from repro.ir import ConstantInt

        assert isinstance(start, ConstantInt) and start.value == 0
        inc = indvar.incoming_for(cli.latch)
        assert inc.parent is cli.latch

    def test_identifiable_trip_count_no_scev(self, env):
        """'Identifiable loop trip count, without requiring analysis by
        ScalarEvolution': it is literally the compare's rhs."""
        mod, fn, b, ompb = env
        cli = make_loop(env)
        assert cli.trip_count is fn.args[0]
        assert cli.compare.pred == ICmpPred.ULT

    def test_unsigned_comparison(self, env):
        """The logical iteration counter is unsigned (paper §3.1)."""
        cli = make_loop(env)
        assert cli.compare.pred == ICmpPred.ULT

    def test_assert_ok_passes(self, env):
        cli = make_loop(env)
        cli.assert_ok()

    def test_assert_ok_passes_without_body(self, env):
        mod, fn, b, ompb = env
        cli = ompb.create_canonical_loop(b, fn.args[0], None)
        b.ret()
        cli.assert_ok()

    def test_module_verifies(self, env):
        mod, *_ = env
        make_loop(env)
        verify_module(mod)

    def test_body_callback_receives_indvar(self, env):
        mod, fn, b, ompb = env
        seen = {}
        sink = mod.add_function("sink", FunctionType(void_t, [i64]))

        def body(bld, iv):
            seen["iv"] = iv
            bld.call(sink, [iv])

        cli = ompb.create_canonical_loop(b, fn.args[0], body)
        assert seen["iv"] is cli.indvar

    def test_builder_left_at_after_block(self, env):
        mod, fn, b, ompb = env
        cli = ompb.create_canonical_loop(
            b, fn.args[0], None, "omp_loop"
        )
        assert b.insert_block is cli.after


class TestSkeletonInvariantChecking:
    def test_broken_preheader_edge_detected(self, env):
        cli = make_loop(env)
        other = cli.function.append_block("rogue")
        cli.preheader.terminator.target = other
        with pytest.raises(SkeletonError, match="preheader"):
            cli.assert_ok()

    def test_nonzero_start_detected(self, env):
        from repro.ir import ConstantInt
        from repro.ir.types import IntType

        cli = make_loop(env)
        indvar = cli.indvar
        indvar.incoming = [
            (
                (ConstantInt(IntType(64), 5), blk)
                if blk is cli.preheader
                else (v, blk)
            )
            for v, blk in indvar.incoming
        ]
        with pytest.raises(SkeletonError, match="start at 0"):
            cli.assert_ok()

    def test_invalidated_handle_rejected(self, env):
        cli = make_loop(env)
        cli.invalidate()
        with pytest.raises(SkeletonError, match="invalidated"):
            cli.assert_ok()

    def test_wrong_compare_predicate_detected(self, env):
        cli = make_loop(env)
        cli.compare.pred = ICmpPred.SLT
        with pytest.raises(SkeletonError, match="ult"):
            cli.assert_ok()


class TestCodegenProducesSkeleton:
    """The full pipeline in IRBuilder mode emits Fig. 7 skeletons."""

    def test_skeleton_blocks_in_emitted_ir(self):
        from tests.conftest import compile_c

        src = """
        void body(int);
        void f(int N) {
          #pragma omp unroll partial(2)
          for (int i = 0; i < N; ++i) body(i);
        }
        """
        result = compile_c(src, enable_irbuilder=True)
        text = result.ir_text()
        # After unroll_loop_partial (tiling), floor/tile skeleton blocks:
        for role in ("header", "cond", "body", "inc", "exit"):
            assert f"floor.0.{role}" in text, role
            assert f"tile.0.{role}" in text, role

    def test_workshare_loop_keeps_skeleton(self):
        from tests.conftest import compile_c

        src = """
        void body(int);
        void f(int N) {
          #pragma omp for
          for (int i = 0; i < N; ++i) body(i);
        }
        """
        result = compile_c(src, enable_irbuilder=True)
        text = result.ir_text()
        for role in ("header", "cond", "body", "inc", "exit", "after"):
            assert f"omp_loop.0.{role}" in text, role
        assert "__kmpc_for_static_init_4u" in text
        assert "__kmpc_for_static_fini" in text


class TestTileLoopsInvariants:
    def test_tile_returns_2n_valid_handles(self, env):
        mod, fn, b, ompb = env
        cli = make_loop(env)
        b2 = IRBuilder(mod)
        result = ompb.tile_loops(b2, [cli], [4])
        assert len(result) == 2
        for new_cli in result:
            new_cli.assert_ok()
        assert not cli.is_valid  # old handle abandoned
        verify_module(mod)

    def test_unroll_partial_returns_valid_handle(self, env):
        mod, fn, b, ompb = env
        cli = make_loop(env)
        unrolled = ompb.unroll_loop_partial(IRBuilder(mod), cli, 4)
        unrolled.assert_ok()
        verify_module(mod)

    def test_collapse_returns_single_valid_handle(self, env):
        mod, fn, b, ompb = env
        sink = mod.add_function("sink", FunctionType(void_t, [i64]))
        outer = ompb.create_canonical_loop(
            b, fn.args[0], None, "omp_loop.0"
        )
        b.set_insert_point(outer.body, 0)
        inner = ompb.create_canonical_loop(
            b, fn.args[0], None, "omp_loop.1"
        )
        b.set_insert_point(inner.body, 0)
        b.call(sink, [inner.indvar])
        b.set_insert_point(outer.after)
        b.ret()
        b2 = IRBuilder(mod)
        collapsed = ompb.collapse_loops(b2, [outer, inner])
        collapsed.assert_ok()
        assert not outer.is_valid and not inner.is_valid
        verify_module(mod)

    def test_tile_deletes_only_abandoned_control_blocks(self, env):
        """A nest transformed while the enclosing body is still being
        emitted: the enclosing latch has no predecessor yet, like an
        unrelated unreachable block, and both must survive; only the
        replaced loop's own control blocks are deleted."""
        mod, fn, b, ompb = env
        sink = mod.add_function("sink", FunctionType(void_t, [i64]))
        outer = ompb.create_canonical_loop(
            b, fn.args[0], None, "omp_loop.0"
        )
        b.set_insert_point(outer.after)
        b.ret()
        # Open the enclosing body as CodeGen does: drop its `br latch`.
        outer.body.terminator.erase()
        b.set_insert_point(outer.body)
        inner = ompb.create_canonical_loop(
            b, fn.args[0], lambda bld, iv: bld.call(sink, [iv]), "inner"
        )
        unrelated = fn.append_block("unrelated")
        b.set_insert_point(unrelated)
        b.ret()
        old_blocks = [inner.header, inner.cond, inner.latch, inner.exit]

        ompb.tile_loops(IRBuilder(mod), [inner], [4])

        assert outer.latch in fn.blocks
        assert unrelated in fn.blocks
        for block in old_blocks:
            assert block not in fn.blocks, block.name
        # Close the enclosing body; the whole function is well formed.
        b.set_insert_point(inner.after)
        b.br(outer.latch)
        fn.remove_block(unrelated)
        outer.assert_ok()
        verify_module(mod)
