"""Unit tests: shadow-AST transform builders (repro.core.shadow)."""

import pytest

from repro.astlib import exprs as e
from repro.astlib import stmts as s
from repro.astlib.dump import dump_ast
from repro.core.shadow import (
    DEFAULT_CONSUMED_UNROLL_FACTOR,
    ShadowTransformBuilder,
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


def analyzed_nest(loop_src: str, depth: int, params: str = "void"):
    src = f"void body(int); void f({params}) {{ {loop_src} }}"
    result = compile_c(src, syntax_only=True)
    loop = result.function("f").body.statements[0]
    analyses = collect_loop_nest(
        result.ast_context, result.diagnostics, loop, depth, "test"
    )
    assert analyses is not None
    return analyses, result


def loop_names(stmt) -> list[str]:
    """The IV names of a generated nest, outermost first."""
    names = []
    node = stmt
    while isinstance(node, s.ForStmt):
        names.append(node.init.single_decl.name)
        inner = node.body
        while isinstance(inner, (s.CompoundStmt, s.AttributedStmt)):
            if isinstance(inner, s.AttributedStmt):
                inner = inner.sub_stmt
                continue
            loops = [
                c for c in inner.statements if isinstance(c, s.ForStmt)
            ]
            inner = loops[0] if loops else None
        node = inner
    return names


def body_refs(stmt, name: str) -> list[e.DeclRefExpr]:
    return [
        node
        for node in stmt.walk()
        if isinstance(node, e.DeclRefExpr) and node.decl.name == name
    ]


def pre_init_names(pre_inits) -> list[str]:
    return [
        decl_stmt.single_decl.name for decl_stmt in pre_inits.statements
    ]


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
            ShadowTransformBuilder(result.ast_context).build_unroll(
                analysis, factor
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
        transformed = ShadowTransformBuilder(
            result.ast_context
        ).build_unroll(analysis, 2)
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
        transformed = ShadowTransformBuilder(
            result.ast_context
        ).build_unroll(analysis, 2)
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
        transformed = ShadowTransformBuilder(
            result.ast_context
        ).build_unroll(analysis, None)
        assert transformed.transformed_stmt is None
        assert transformed.num_generated_loops == 0


class TestDefaultFactor:
    def test_paper_default_is_two(self):
        """Paper §2.2: 'The current implementation uses the unroll factor
        of two in this case.'"""
        assert DEFAULT_CONSUMED_UNROLL_FACTOR == 2


class TestTile:
    def nest(self, loop_src: str, sizes, params="void"):
        analyses, result = analyzed_nest(loop_src, len(sizes), params)
        return (
            ShadowTransformBuilder(result.ast_context).build_tile(
                analyses, sizes
            ),
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
        names = loop_names(transformed.transformed_stmt)
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


class TestUnrollIsOneLoopTile:
    def test_partial_unroll_builds_the_one_loop_tile_nest(self):
        """Paper §2: partial unrolling is strip-mining plus a hint on the
        inner loop, i.e. ``tile sizes(f)`` on the same loop apart from
        the IV names, the hint and the pre-init wrapper."""
        loop = "for (int i = 3; i < N; i += 2) body(i);"
        analysis, result = analyzed_loop(loop, params="int N")
        builder = ShadowTransformBuilder(result.ast_context)
        unrolled = builder.build_unroll(analysis, 4)
        tiled = builder.build_tile([analysis], [4])
        assert unrolled.num_generated_loops == 1
        assert tiled.num_generated_loops == 2

        outer = unrolled.transformed_stmt
        assert isinstance(outer.body, s.AttributedStmt)
        outer.body = outer.body.sub_stmt  # drop the hint
        renamed = (
            dump_ast(outer)
            .replace("unrolled.iv.i", ".floor.0.iv.i")
            .replace("unroll_inner.iv.i", ".tile.0.iv.i")
        )
        assert renamed == dump_ast(tiled.transformed_stmt)
        assert isinstance(unrolled.pre_inits, s.DeclStmt)
        assert dump_ast(unrolled.pre_inits) == dump_ast(
            tiled.pre_inits.statements[0]
        )


class TestReverse:
    def transform(self, loop_src: str, params="void"):
        analysis, result = analyzed_loop(loop_src, params)
        return (
            ShadowTransformBuilder(result.ast_context).build_reverse(
                analysis
            ),
            analysis,
        )

    def test_one_generated_loop(self):
        transformed, _ = self.transform(
            "for (int i = 0; i < 10; i += 3) body(i);"
        )
        assert transformed.num_generated_loops == 1
        assert loop_names(transformed.transformed_stmt) == [
            "reversed.iv.i"
        ]

    def test_pre_init_is_capture_expr(self):
        transformed, _ = self.transform(
            "for (int i = 0; i < N; ++i) body(i);", params="int N"
        )
        assert isinstance(transformed.pre_inits, s.DeclStmt)
        decl = transformed.pre_inits.single_decl
        assert decl.name == ".capture_expr."
        assert not decl.type.is_const

    def test_user_var_mirrors_logical_iv(self):
        """``T i = lb + (trip - 1 - rev.iv) * step``."""
        transformed, _ = self.transform(
            "for (int i = 0; i < 10; ++i) body(i);"
        )
        body = transformed.transformed_stmt.body
        user_var = body.statements[0].single_decl
        assert user_var.name == "i"
        mirrored = [
            node
            for node in user_var.init.walk()
            if isinstance(node, e.BinaryOperator)
            and node.opcode == e.BinaryOperatorKind.SUB
        ]
        assert len(mirrored) == 2

    def test_body_copied_once_and_remapped(self):
        transformed, analysis = self.transform(
            "for (int i = 0; i < 10; ++i) body(i);"
        )
        dump = dump_ast(transformed.transformed_stmt)
        assert dump.count("CallExpr") == 1
        refs = body_refs(transformed.transformed_stmt, "i")
        assert refs
        assert all(r.decl is not analysis.iter_var for r in refs)


class TestFuse:
    def transform(self):
        src = (
            "void body(int); void f(int N) {"
            " for (int i = 0; i < 8; ++i) body(i);"
            " for (int j = 0; j < N; ++j) body(j); }"
        )
        result = compile_c(src, syntax_only=True)
        analyses = [
            analyze_canonical_loop(
                result.ast_context, result.diagnostics, loop
            )
            for loop in result.function("f").body.statements
        ]
        assert all(a is not None for a in analyses)
        builder = ShadowTransformBuilder(result.ast_context)
        return builder.build_fuse(analyses), analyses

    def test_one_generated_loop(self):
        transformed, _ = self.transform()
        assert transformed.num_generated_loops == 1
        assert loop_names(transformed.transformed_stmt) == ["fused.iv"]

    def test_pre_inits_trip_counts_then_max(self):
        transformed, _ = self.transform()
        assert pre_init_names(transformed.pre_inits) == [
            ".capture_expr.",
            ".capture_expr.",
            ".fuse.max",
        ]
        fuse_max = transformed.pre_inits.statements[2].single_decl
        assert isinstance(fuse_max.init, e.ConditionalOperator)

    def test_each_body_guarded_copied_once_and_remapped(self):
        transformed, analyses = self.transform()
        guarded = transformed.transformed_stmt.body.statements
        assert [type(st) for st in guarded] == [s.IfStmt, s.IfStmt]
        dump = dump_ast(transformed.transformed_stmt)
        assert dump.count("CallExpr") == 2
        for analysis, branch in zip(analyses, guarded):
            name = analysis.iter_var.name
            refs = body_refs(branch, name)
            assert refs
            assert all(r.decl is not analysis.iter_var for r in refs)


class TestInterchange:
    NEST = (
        "for (int i = 0; i < 4; ++i)"
        " for (int j = 0; j < 5; ++j)"
        " for (int k = 0; k < 6; ++k) body(i + j + k);"
    )

    def transform(self, permutation):
        analyses, result = analyzed_nest(self.NEST, 3)
        builder = ShadowTransformBuilder(result.ast_context)
        return builder.build_interchange(analyses, permutation), analyses

    def test_permutation_orders_the_nest(self):
        """``permutation(3, 1, 2)``: k outermost, then i, then j."""
        transformed, _ = self.transform([2, 0, 1])
        assert transformed.num_generated_loops == 3
        assert loop_names(transformed.transformed_stmt) == [
            "interchanged.iv.k",
            "interchanged.iv.i",
            "interchanged.iv.j",
        ]

    def test_pre_inits_one_capture_expr_per_loop(self):
        transformed, _ = self.transform([1, 0, 2])
        assert pre_init_names(transformed.pre_inits) == [
            ".capture_expr."
        ] * 3

    def test_user_vars_redeclared_in_source_order(self):
        transformed, _ = self.transform([2, 0, 1])
        innermost = transformed.transformed_stmt.body.body.body
        assert isinstance(innermost, s.CompoundStmt)
        redeclared = [
            st.single_decl.name
            for st in innermost.statements
            if isinstance(st, s.DeclStmt)
        ]
        assert redeclared == ["i", "j", "k"]

    def test_body_copied_once_and_remapped(self):
        transformed, analyses = self.transform([2, 0, 1])
        dump = dump_ast(transformed.transformed_stmt)
        assert dump.count("CallExpr") == 1
        for analysis in analyses:
            refs = body_refs(
                transformed.transformed_stmt, analysis.iter_var.name
            )
            assert refs
            assert all(r.decl is not analysis.iter_var for r in refs)
