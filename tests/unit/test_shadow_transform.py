"""Unit tests: shadow-AST transform builders (repro.core.shadow)."""

import pytest

from repro.astlib import exprs as e
from repro.astlib import stmts as s
from repro.astlib.dump import dump_ast
from repro.core.shadow import (
    DEFAULT_CONSUMED_UNROLL_FACTOR,
    ShadowTransformBuilder,
    build_tile_transform,
    build_unroll_transform,
)
from repro.sema.canonical_loop import analyze_canonical_loop, collect_loop_nest

from tests.conftest import compile_c


def analyzed_loop(loop_src: str, params: str = "void"):
    src = f"void body(int); void f({params}) {{ {loop_src} }}"
    result = compile_c(src, syntax_only=True)
    body = result.function("f").body
    loop = next(
        st for st in body.statements if isinstance(st, s.ForStmt)
    )
    analysis = analyze_canonical_loop(
        result.ast_context, result.diagnostics, loop
    )
    assert analysis is not None
    return analysis, result


class TestTripCountExpr:
    def evaluate_trip(self, loop_src: str):
        analysis, result = analyzed_loop(loop_src)
        builder = ShadowTransformBuilder(result.ast_context)
        trip_expr = builder.build_trip_count_expr(analysis)
        from repro.sema.expr_eval import IntExprEvaluator

        return IntExprEvaluator(result.ast_context).evaluate(trip_expr)

    @pytest.mark.parametrize(
        "loop,expected",
        [
            ("for (int i = 0; i < 10; ++i) body(i);", 10),
            ("for (int i = 7; i < 17; i += 3) body(i);", 4),
            ("for (int i = 0; i <= 10; i += 2) body(i);", 6),
            ("for (int i = 10; i > 0; i -= 4) body(i);", 3),
            ("for (int i = 10; i >= 0; i -= 5) body(i);", 3),
            ("for (int i = 5; i < 5; ++i) body(i);", 0),
            ("for (int i = 9; i < 5; ++i) body(i);", 0),
            ("for (int i = 0; i != 9; i += 3) body(i);", 3),
        ],
    )
    def test_constant_trip_counts(self, loop, expected):
        assert self.evaluate_trip(loop) == expected

    def test_trip_count_type_is_logical(self):
        analysis, result = analyzed_loop(
            "for (int i = 0; i < 10; ++i) body(i);"
        )
        builder = ShadowTransformBuilder(result.ast_context)
        trip_expr = builder.build_trip_count_expr(analysis)
        assert trip_expr.type.is_unsigned_integer()


class TestUnrollPartial:
    def transform(self, loop_src: str, factor: int, params="void"):
        analysis, result = analyzed_loop(loop_src, params)
        return (
            build_unroll_transform(
                result.ast_context, analysis, factor, full=False
            ),
            result,
        )

    def test_structure_matches_paper_listing(self):
        """Paper Listing 'transformedast': outer strip loop
        `unrolled.iv.i`, inner retained loop `unroll_inner.iv.i` under
        an AttributedStmt with LoopHintAttr(UnrollCount)."""
        transformed, _ = self.transform(
            "for (int i = 7; i < 17; i += 3) body(i);", 2
        )
        outer = transformed.transformed_stmt
        assert isinstance(outer, s.ForStmt)
        outer_var = outer.init.single_decl
        assert outer_var.name == "unrolled.iv.i"
        annotated = outer.body
        assert isinstance(annotated, s.AttributedStmt)
        hints = annotated.loop_hints()
        assert len(hints) == 1
        assert hints[0].option == s.LoopHintAttr.UNROLL_COUNT
        assert hints[0].value.ignore_implicit_casts().value == 2
        inner = annotated.sub_stmt
        assert isinstance(inner, s.ForStmt)
        assert inner.init.single_decl.name == "unroll_inner.iv.i"
        dump = dump_ast(outer)
        assert "unrolled.iv.i" in dump and "LoopHintAttr" in dump

    def test_inner_condition_is_conjunction(self):
        """inner < outer + factor && inner < tripcount."""
        transformed, _ = self.transform(
            "for (int i = 0; i < 100; ++i) body(i);", 4
        )
        inner = transformed.transformed_stmt.body.sub_stmt
        cond = inner.cond.ignore_implicit_casts()
        assert isinstance(cond, e.BinaryOperator)
        assert cond.opcode == e.BinaryOperatorKind.LAND

    def test_no_body_duplication(self):
        """Paper §2.1: 'Instead of cloning the body statement according
        to the unroll factor, the inner loop is kept'."""
        transformed, _ = self.transform(
            "for (int i = 0; i < 100; ++i) body(i);", 8
        )
        dump = dump_ast(transformed.transformed_stmt)
        assert dump.count("CallExpr") == 1  # body appears exactly once

    def test_pre_inits_materialize_capture_expr(self):
        transformed, _ = self.transform(
            "for (int i = 0; i < 100; ++i) body(i);", 2
        )
        assert transformed.pre_inits is not None
        dump = dump_ast(transformed.pre_inits)
        assert ".capture_expr." in dump

    def test_constant_trip_folds_to_const_capture(self):
        transformed, _ = self.transform(
            "for (int i = 0; i < 100; ++i) body(i);", 2
        )
        decl = transformed.pre_inits.single_decl
        assert decl.type.is_const
        assert decl.init.ignore_implicit_casts().value == 100

    def test_runtime_trip_is_not_const(self):
        analysis, result = analyzed_loop(
            "for (int i = 0; i < N; ++i) body(i);", params="int N"
        )
        transformed = build_unroll_transform(
            result.ast_context, analysis, 2, full=False
        )
        decl = transformed.pre_inits.single_decl
        assert not decl.type.is_const

    def test_generated_loop_count(self):
        transformed, _ = self.transform(
            "for (int i = 0; i < 8; ++i) body(i);", 2
        )
        assert transformed.num_generated_loops == 1

    def test_body_iter_var_remapped(self):
        """The body's reference to `i` must point to the freshly
        declared user variable, not the original loop's decl."""
        analysis, result = analyzed_loop(
            "for (int i = 0; i < 8; ++i) body(i);"
        )
        transformed = build_unroll_transform(
            result.ast_context, analysis, 2, full=False
        )
        original = analysis.iter_var
        refs = [
            node
            for node in transformed.transformed_stmt.walk()
            if isinstance(node, e.DeclRefExpr)
            and node.decl.name == "i"
        ]
        assert refs
        assert all(r.decl is not original for r in refs)


class TestUnrollFull:
    def test_no_generated_loop(self):
        """Paper §1.1: 'If fully unrolled, there is no generated loop
        that can be associated with another directive.'"""
        analysis, result = analyzed_loop(
            "for (int i = 0; i < 4; ++i) body(i);"
        )
        transformed = build_unroll_transform(
            result.ast_context, analysis, None, full=True
        )
        assert transformed.transformed_stmt is None
        assert transformed.num_generated_loops == 0


class TestDefaultFactor:
    def test_paper_default_is_two(self):
        """Paper §2.2: 'The current implementation uses the unroll factor
        of two in this case.'"""
        assert DEFAULT_CONSUMED_UNROLL_FACTOR == 2


class TestTile:
    def nest(self, loop_src: str, sizes, params="void"):
        src = f"void body(int); void f({params}) {{ {loop_src} }}"
        result = compile_c(src, syntax_only=True)
        loop = result.function("f").body.statements[0]
        analyses = collect_loop_nest(
            result.ast_context,
            result.diagnostics,
            loop,
            len(sizes),
            "tile",
        )
        assert analyses is not None
        return (
            build_tile_transform(result.ast_context, analyses, sizes),
            result,
        )

    def count_for_loops(self, stmt):
        return sum(
            1 for node in stmt.walk() if isinstance(node, s.ForStmt)
        )

    def test_tiling_doubles_loop_count(self):
        """Paper §1.1: 'Tiling ... generates twice as many loops.'"""
        transformed, _ = self.nest(
            "for (int i = 0; i < 8; ++i)"
            " for (int j = 0; j < 8; ++j) body(i + j);",
            [2, 4],
        )
        assert transformed.num_generated_loops == 4
        assert (
            self.count_for_loops(transformed.transformed_stmt) == 4
        )

    def test_1d_tile(self):
        transformed, _ = self.nest(
            "for (int i = 0; i < 10; ++i) body(i);", [4]
        )
        assert transformed.num_generated_loops == 2
        assert (
            self.count_for_loops(transformed.transformed_stmt) == 2
        )

    def test_3d_tile(self):
        transformed, _ = self.nest(
            "for (int i = 0; i < 8; ++i)"
            " for (int j = 0; j < 8; ++j)"
            " for (int k = 0; k < 8; ++k) body(i + j + k);",
            [4, 4, 4],
        )
        assert transformed.num_generated_loops == 6
        assert (
            self.count_for_loops(transformed.transformed_stmt) == 6
        )

    def test_floor_and_tile_naming(self):
        transformed, _ = self.nest(
            "for (int i = 0; i < 8; ++i)"
            " for (int j = 0; j < 8; ++j) body(i);",
            [2, 2],
        )
        dump = dump_ast(transformed.transformed_stmt)
        assert ".floor.0.iv.i" in dump
        assert ".floor.1.iv.j" in dump
        assert ".tile.0.iv.i" in dump
        assert ".tile.1.iv.j" in dump

    def test_loop_order_floors_then_tiles(self):
        transformed, _ = self.nest(
            "for (int i = 0; i < 8; ++i)"
            " for (int j = 0; j < 8; ++j) body(i);",
            [2, 2],
        )
        outer = transformed.transformed_stmt
        names = []
        node = outer
        while isinstance(node, s.ForStmt):
            names.append(node.init.single_decl.name)
            inner = node.body
            while isinstance(inner, s.CompoundStmt):
                loops = [
                    c
                    for c in inner.statements
                    if isinstance(c, s.ForStmt)
                ]
                inner = loops[0] if loops else None
            node = inner
        assert names == [
            ".floor.0.iv.i",
            ".floor.1.iv.j",
            ".tile.0.iv.i",
            ".tile.1.iv.j",
        ]

    def test_pre_inits_one_per_level(self):
        transformed, _ = self.nest(
            "for (int i = 0; i < 8; ++i)"
            " for (int j = 0; j < 6; ++j) body(i);",
            [2, 2],
        )
        dump = dump_ast(transformed.pre_inits)
        assert dump.count(".capture_expr.") == 2
