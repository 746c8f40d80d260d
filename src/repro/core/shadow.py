"""Shadow-AST loop transformations (paper §2).

Transformations are applied on the loops in the AST, creating a new AST —
"similar to how TreeTransform works already".  The result is stored as the
*transformed statement* of ``OMPUnrollDirective``/``OMPTileDirective`` and
is a shadow AST: invisible to ``children()`` and dumps, retrievable via
``get_transformed_stmt()`` by a consuming directive.

Naming follows the paper's Listing "Transformed AST of the unroll
directive": the strip-mined outer loop's variable is ``unrolled.iv.<name>``
and the retained inner loop's is ``unroll_inner.iv.<name>``; tiling uses
clang's ``.floor.<k>.iv.<name>`` / ``.tile.<k>.iv.<name>``.  Materialized
bounds are named ``.capture_expr.`` — these internal names are exactly what
leaks into diagnostics when a consuming context constant-evaluates the
shadow AST (the paper's ``read of non-const variable '.capture_expr.'``
example), which the tests reproduce.

Every generated loop is built by one constructor,
``for (iv; [iv < floor + size &&] iv < trip; ++iv | iv += step)``, over
per-loop ``.capture_expr.`` trip counts and a body that re-declares the
user variables before the copied loop body.  Partial unrolling is the
tiling core run on one loop: it does **not** clone the body, the inner
loop is kept and annotated with ``LoopHintAttr(UnrollCount, factor)``;
the code generator lowers that to ``llvm.loop.unroll.count`` metadata and
the mid-end ``LoopUnroll`` pass performs the duplication ("No duplication
takes place until that point").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.astlib import exprs as e
from repro.astlib import stmts as s
from repro.astlib.context import ASTContext
from repro.astlib.decls import VarDecl
from repro.astlib.tree_transform import DirectiveRebuilder, TreeTransform
from repro.astlib.types import QualType, desugar
from repro.instrument import get_statistic
from repro.sema.canonical_loop import (
    CanonicalLoopAnalysis,
    LoopDirection,
)

_SHADOW_NODES = get_statistic(
    "shadow", "nodes-built", "Shadow AST nodes constructed"
)
#: counted once per transformation directive Sema builds in this
#: representation
TRANSFORMS_BUILT = get_statistic(
    "shadow", "transforms-built", "Shadow-AST loop transformations built"
)


@dataclass
class TransformResult:
    """Outcome of a shadow transform."""

    #: the generated loop nest (None when no generated loop remains, e.g.
    #: a full unroll)
    transformed_stmt: Optional[s.Stmt]
    #: declarations that must run before the generated loops
    pre_inits: Optional[s.Stmt]
    #: number of generated loops available for consumption by an outer
    #: directive
    num_generated_loops: int


class ShadowTransformBuilder:
    """Builds transformed ASTs for the OpenMP 5.1 loop transformations."""

    def __init__(
        self,
        ctx: ASTContext,
        rebuild_directive: DirectiveRebuilder | None = None,
    ) -> None:
        self.ctx = ctx
        #: rebuilds directives nested in a copied loop body (Sema's
        #: rebuild, paper §2: the copy must not share their shadow AST)
        self.rebuild_directive = rebuild_directive

    # ------------------------------------------------------------------
    # Small AST helpers
    # ------------------------------------------------------------------
    def _copy(self, expr: e.Expr) -> e.Expr:
        copy = TreeTransform().transform_expr(expr)
        assert copy is not None
        _SHADOW_NODES.inc()
        return copy

    def _int(self, value: int, ty: QualType) -> e.Expr:
        _SHADOW_NODES.inc()
        if value < 0:
            return e.UnaryOperator(
                e.UnaryOperatorKind.MINUS,
                e.IntegerLiteral(-value, ty),
                ty,
            )
        return e.IntegerLiteral(value, ty)

    def _ref(self, decl: VarDecl) -> e.DeclRefExpr:
        canonical = desugar(decl.type)
        _SHADOW_NODES.inc()
        return e.DeclRefExpr(
            decl, QualType(canonical.type), e.ValueCategory.LVALUE
        )

    def _load(self, decl: VarDecl) -> e.Expr:
        ref = self._ref(decl)
        return e.ImplicitCastExpr(
            e.CastKind.LVALUE_TO_RVALUE, ref, ref.type.unqualified()
        )

    def _cast_to(self, expr: e.Expr, ty: QualType) -> e.Expr:
        src = desugar(expr.type)
        dst = desugar(ty)
        if src.type is dst.type:
            return expr
        if src.is_pointer() or dst.is_pointer():
            kind = e.CastKind.BITCAST
        elif src.is_floating() and dst.is_integer():
            kind = e.CastKind.FLOATING_TO_INTEGRAL
        else:
            kind = e.CastKind.INTEGRAL_CAST
        return e.ImplicitCastExpr(kind, expr, ty)

    def _bin(
        self,
        op: e.BinaryOperatorKind,
        lhs: e.Expr,
        rhs: e.Expr,
        ty: QualType | None = None,
    ) -> e.Expr:
        result_ty = ty or lhs.type
        if op.is_comparison():
            result_ty = self.ctx.int_type
        _SHADOW_NODES.inc()
        return e.BinaryOperator(op, lhs, rhs, result_ty)

    # ------------------------------------------------------------------
    # Trip count (the "distance function" in shadow-AST form)
    # ------------------------------------------------------------------
    def build_trip_count_expr(
        self, analysis: CanonicalLoopAnalysis
    ) -> e.Expr:
        """``precond ? (ub - lb [+/- adj]) / step : 0`` in the unsigned
        logical iteration type.

        The precondition guard implements "evaluating to 0 if __begin is
        larger than __end" (paper §3.1); the unsigned type makes the
        INT32_MIN..INT32_MAX iteration space representable.
        """
        B = e.BinaryOperatorKind
        logical = analysis.logical_type
        lb = self._copy(analysis.lower_bound)
        ub = self._copy(analysis.upper_bound)
        step = self._copy(analysis.step)
        iter_canonical = desugar(analysis.iter_var.type)

        if analysis.is_inequality:
            # (ub - lb) / step, known to divide exactly per OpenMP rules.
            if iter_canonical.is_pointer():
                distance = self._bin(B.SUB, ub, lb, self.ctx.ptrdiff_type)
            else:
                distance = self._bin(B.SUB, ub, lb, ub.type)
            distance = self._cast_to(distance, logical)
            quotient = self._bin(
                B.DIV, distance, self._cast_to(step, logical), logical
            )
            return quotient

        up = analysis.direction == LoopDirection.UP
        # positive step magnitude
        if analysis.step_value is not None:
            magnitude: e.Expr = self._int(
                abs(analysis.step_value), logical
            )
        else:
            mag_src = (
                step
                if up
                else e.UnaryOperator(
                    e.UnaryOperatorKind.MINUS, step, step.type
                )
            )
            magnitude = self._cast_to(mag_src, logical)

        if iter_canonical.is_pointer():
            raw_distance = (
                self._bin(B.SUB, ub, lb, self.ctx.ptrdiff_type)
                if up
                else self._bin(B.SUB, lb, ub, self.ctx.ptrdiff_type)
            )
        else:
            raw_distance = (
                self._bin(B.SUB, ub, lb, ub.type)
                if up
                else self._bin(B.SUB, lb, ub, lb.type)
            )
        distance = self._cast_to(raw_distance, logical)
        if analysis.inclusive:
            distance = self._bin(
                B.ADD, distance, e.IntegerLiteral(1, logical), logical
            )
        # ceil-div: (distance + magnitude - 1) / magnitude
        numerator = self._bin(
            B.SUB,
            self._bin(B.ADD, distance, self._copy(magnitude), logical),
            e.IntegerLiteral(1, logical),
            logical,
        )
        quotient = self._bin(B.DIV, numerator, magnitude, logical)

        # Precondition: does at least one iteration run?
        cmp_op = {
            (True, False): B.LT,
            (True, True): B.LE,
            (False, False): B.GT,
            (False, True): B.GE,
        }[(up, analysis.inclusive)]
        precond = self._bin(
            cmp_op,
            self._copy(analysis.lower_bound),
            self._copy(analysis.upper_bound),
        )
        return e.ConditionalOperator(
            precond,
            quotient,
            e.IntegerLiteral(0, logical),
            logical,
        )

    def _capture_trip_counts(
        self, analyses: list[CanonicalLoopAnalysis]
    ) -> tuple[list[VarDecl], list[s.Stmt]]:
        """Bind each loop's trip count to a ``.capture_expr.`` variable
        evaluated once before the generated loops (clang materializes such
        bounds the same way — and its internal name is what leaks into
        diagnostics, paper §2).  Returns the variables and their
        declarations.

        When the trip count folds to a constant the variable is declared
        ``const`` with a literal initializer, so an enclosing directive
        that needs a constant trip count (e.g. ``unroll full``) can see
        through it.  A runtime trip count stays non-const — and a consumer
        that constant-evaluates it then reports exactly the paper's
        ``read of non-const variable '.capture_expr.'`` diagnostic.
        """
        from repro.sema.expr_eval import IntExprEvaluator

        decls: list[VarDecl] = []
        for analysis in analyses:
            trip = self.build_trip_count_expr(analysis)
            folded = IntExprEvaluator(self.ctx).try_evaluate(trip)
            ty = analysis.logical_type
            if folded is not None:
                trip = e.IntegerLiteral(folded, ty)
                ty = ty.with_const()
            decls.append(self._implicit_var(".capture_expr.", ty, trip))
        return decls, [s.DeclStmt([decl]) for decl in decls]

    # ------------------------------------------------------------------
    # User iteration variable reconstruction
    # ------------------------------------------------------------------
    def _rebuild_user_var(
        self,
        analysis: CanonicalLoopAnalysis,
        logical_ref: e.Expr,
    ) -> tuple[VarDecl, s.Stmt]:
        """``T i = lb + logical * step;`` — converts a logical iteration
        number back into the loop user variable (the same role as the
        canonical representation's user value function)."""
        B = e.BinaryOperatorKind
        var = analysis.iter_var
        var_ty = QualType(desugar(var.type).type)
        step = self._copy(analysis.step)
        if desugar(var_ty).is_pointer():
            offset = self._cast_to(logical_ref, self.ctx.ptrdiff_type)
            scaled = self._bin(
                B.MUL, offset, self._cast_to(step, self.ctx.ptrdiff_type),
                self.ctx.ptrdiff_type,
            )
            value = self._bin(
                B.ADD, self._copy(analysis.lower_bound), scaled, var_ty
            )
        else:
            scaled = self._bin(
                B.MUL,
                self._cast_to(logical_ref, var_ty),
                self._cast_to(step, var_ty),
                var_ty,
            )
            value = self._bin(
                B.ADD,
                self._cast_to(self._copy(analysis.lower_bound), var_ty),
                scaled,
                var_ty,
            )
        new_var = VarDecl(var.name, var.type, value)
        return new_var, s.DeclStmt([new_var])

    def _rebuild_user_env(
        self,
        analysis: CanonicalLoopAnalysis,
        logical_ref: e.Expr,
    ) -> tuple[list[s.Stmt], dict[int, VarDecl], list]:
        """Re-materialize the per-iteration user environment.

        For a literal for-loop that is the iteration variable itself; a
        range-based for-loop additionally re-declares the *loop user
        variable* (``T &Val = *__begin;``) from the rebuilt iterator.
        Returns (statements, substitution map for TreeTransform,
        (old, new) decl pairs for CodeGen redirection).
        """
        new_iter, iter_stmt = self._rebuild_user_var(
            analysis, logical_ref
        )
        stmts: list[s.Stmt] = [iter_stmt]
        subs: dict[int, VarDecl] = {id(analysis.iter_var): new_iter}
        pairs: list = [(analysis.iter_var, new_iter)]
        if isinstance(analysis.loop_stmt, s.CXXForRangeStmt):
            loop_var = analysis.loop_stmt.loop_variable
            tt = TreeTransform()
            tt.substitute_decl(analysis.iter_var, new_iter)
            new_init = tt.transform_expr(loop_var.init)
            new_loop_var = VarDecl(
                loop_var.name, loop_var.type, new_init
            )
            stmts.append(s.DeclStmt([new_loop_var]))
            subs[id(loop_var)] = new_loop_var
            pairs.append((loop_var, new_loop_var))
        return stmts, subs, pairs

    def _copy_body(
        self,
        analyses: list[CanonicalLoopAnalysis],
        logical_refs: list[e.Expr],
    ) -> s.CompoundStmt:
        """``{ T1 i = ...; T2 j = ...; body }``: re-declare the user
        variables of *analyses* from their logical iteration numbers, then
        copy the innermost body with the old variables remapped to the new
        ones (TreeTransform, paper §1.3/§2)."""
        transform = TreeTransform(self.rebuild_directive)
        stmts: list[s.Stmt] = []
        for analysis, logical_ref in zip(analyses, logical_refs):
            env_stmts, subs, _ = self._rebuild_user_env(
                analysis, logical_ref
            )
            transform.decl_substitutions.update(subs)
            stmts.extend(env_stmts)
        body = transform.transform_stmt(analyses[-1].body)
        assert body is not None
        return s.CompoundStmt([*stmts, body])

    # ------------------------------------------------------------------
    # Generated loops
    # ------------------------------------------------------------------
    @staticmethod
    def _implicit_var(
        name: str, ty: QualType, init: e.Expr | None
    ) -> VarDecl:
        """An implicit variable: a generated loop's logical IV or a
        materialized bound."""
        var = VarDecl(name, ty, init)
        var.is_implicit = True
        return var

    def _loop(
        self,
        iv: VarDecl,
        trip: VarDecl,
        body: s.Stmt,
        step: int | None = None,
        tile: tuple[VarDecl, int] | None = None,
    ) -> s.ForStmt:
        """The one generated loop::

            for (iv; [iv < floor + size &&] iv < trip; ++iv | iv += step)

        *tile* is the ``(floor, size)`` pair of an intra-tile loop: the
        ``min(floor + size, trip)`` bound is the conjunction.
        """
        B = e.BinaryOperatorKind
        logical = iv.type
        cond = self._bin(B.LT, self._load(iv), self._load(trip))
        if tile is not None:
            floor, size = tile
            upper = self._bin(
                B.ADD,
                self._load(floor),
                e.IntegerLiteral(size, logical),
                logical,
            )
            cond = self._bin(
                B.LAND,
                self._bin(B.LT, self._load(iv), upper),
                cond,
                self.ctx.int_type,
            )
        if step is None:
            inc: e.Expr = e.UnaryOperator(
                e.UnaryOperatorKind.PRE_INC, self._ref(iv), logical
            )
        else:
            inc = e.CompoundAssignOperator(
                B.ADD_ASSIGN,
                self._ref(iv),
                e.IntegerLiteral(step, logical),
                logical,
                logical,
            )
        return s.ForStmt(s.DeclStmt([iv]), cond, inc, body)

    def _tile(
        self,
        analyses: list[CanonicalLoopAnalysis],
        sizes: list[int],
        floor_name: str,
        tile_name: str,
    ) -> tuple[s.ForStmt, list[s.Stmt]]:
        """Strip-mine each loop of a perfect nest: the floor loops step
        over tile origins, then the tile loops run one tile.  The names
        are formats of the nest level ``k`` and the user variable
        ``name``.  Returns the nest and the trip-count declarations."""
        trips, pre_inits = self._capture_trip_counts(analyses)
        floors: list[VarDecl] = []
        tiles: list[VarDecl] = []
        for k, analysis in enumerate(analyses):
            logical = analysis.logical_type
            name = analysis.iter_var.name
            floor = self._implicit_var(
                floor_name.format(k=k, name=name),
                logical,
                e.IntegerLiteral(0, logical),
            )
            floors.append(floor)
            tiles.append(
                self._implicit_var(
                    tile_name.format(k=k, name=name),
                    logical,
                    self._load(floor),
                )
            )
        nest: s.Stmt = self._copy_body(
            analyses, [self._load(tile) for tile in tiles]
        )
        for k in reversed(range(len(analyses))):
            nest = self._loop(
                tiles[k], trips[k], nest, tile=(floors[k], sizes[k])
            )
        for k in reversed(range(len(analyses))):
            nest = self._loop(floors[k], trips[k], nest, step=sizes[k])
        assert isinstance(nest, s.ForStmt)
        return nest, pre_inits

    # ------------------------------------------------------------------
    # Unroll (paper §2.1, Listing "transformedast")
    # ------------------------------------------------------------------
    def build_unroll(
        self,
        analysis: CanonicalLoopAnalysis,
        factor: int | None,
    ) -> TransformResult:
        """``unroll partial(factor)`` strip-mines the loop by *factor* (a
        one-loop tile) and annotates the inner loop with
        ``LoopHintAttr(UnrollCount, factor)`` instead of cloning the body.

        Full and heuristic unrolling pass ``factor=None``: there is **no
        generated loop** that another directive could be associated with
        (paper §1.1), so no transformed AST is produced; CodeGen emits the
        loop with ``llvm.loop.unroll`` metadata and the mid-end pass
        performs the expansion (paper §2.2).
        """
        if factor is None:
            return TransformResult(None, None, 0)
        assert factor >= 1
        outer, pre_inits = self._tile(
            [analysis], [factor], "unrolled.iv.{name}",
            "unroll_inner.iv.{name}",
        )
        outer.body = s.AttributedStmt(
            [
                s.LoopHintAttr(
                    s.LoopHintAttr.UNROLL_COUNT,
                    e.IntegerLiteral(factor, self.ctx.int_type),
                )
            ],
            outer.body,
        )
        return TransformResult(outer, pre_inits[0], 1)

    # ------------------------------------------------------------------
    # Tile (paper §1.1: generates twice as many loops)
    # ------------------------------------------------------------------
    def build_tile(
        self,
        analyses: list[CanonicalLoopAnalysis],
        sizes: list[int],
    ) -> TransformResult:
        """Tile an n-deep perfect nest with the given tile sizes.

        Generates ``2n`` loops: n *floor* loops iterating tile origins over
        each logical iteration space, then n *tile* (intra-tile) loops::

            for (.floor.0.iv.i = 0; < tc_i; += size_0)
              for (.floor.1.iv.j = 0; < tc_j; += size_1)
                for (.tile.0.iv.i = floor0; < min(floor0+size_0, tc_i); ++)
                  for (.tile.1.iv.j = floor1; < min(...); ++) body

        ``min`` is expressed as a conjunction in the condition, exactly as
        the shadow-AST unroll does.
        """
        assert len(analyses) == len(sizes) and analyses
        nest, pre_inits = self._tile(
            analyses, sizes, ".floor.{k}.iv.{name}", ".tile.{k}.iv.{name}"
        )
        return TransformResult(
            nest, s.CompoundStmt(pre_inits), 2 * len(analyses)
        )

    # ------------------------------------------------------------------
    # OpenMP 6.0 extensions (paper §4 future work)
    # ------------------------------------------------------------------
    def build_reverse(
        self, analysis: CanonicalLoopAnalysis
    ) -> TransformResult:
        """``omp reverse``: iterate the logical space backwards.

        Generated loop::

            for (L rev.iv = 0; rev.iv < trip; ++rev.iv) {
              T i = lb + (trip - 1 - rev.iv) * step;
              body
            }
        """
        B = e.BinaryOperatorKind
        logical = analysis.logical_type
        (trip,), pre_inits = self._capture_trip_counts([analysis])
        rev_var = self._implicit_var(
            f"reversed.iv.{analysis.iter_var.name}",
            logical,
            e.IntegerLiteral(0, logical),
        )
        mirrored = self._bin(
            B.SUB,
            self._bin(
                B.SUB,
                self._load(trip),
                e.IntegerLiteral(1, logical),
                logical,
            ),
            self._load(rev_var),
            logical,
        )
        loop = self._loop(
            rev_var, trip, self._copy_body([analysis], [mirrored])
        )
        return TransformResult(loop, pre_inits[0], 1)

    def build_fuse(
        self, analyses: list[CanonicalLoopAnalysis]
    ) -> TransformResult:
        """``omp fuse``: merge a *sequence* of canonical loops (paper §4).

        Generated loop (OpenMP 6.0 semantics: iterate the union of the
        logical spaces; each body guarded by its own trip count)::

            L tcK = <distance K>; ...            // pre-inits
            for (L fused.iv = 0; fused.iv < max(tc...); ++fused.iv) {
              if (fused.iv < tc1) { T1 i = ...; body1 }
              if (fused.iv < tc2) { T2 j = ...; body2 }
            }
        """
        assert analyses
        B = e.BinaryOperatorKind
        logical = max(
            (a.logical_type for a in analyses),
            key=lambda t: self.ctx.type_width(t),
        )
        trips, pre_inits = self._capture_trip_counts(analyses)
        # max of the trip counts, via chained conditionals (the AST is
        # immutable, so each use of the running max is a fresh copy).
        max_expr: e.Expr = self._cast_to(self._load(trips[0]), logical)
        for decl in trips[1:]:
            running_copy = TreeTransform().transform_expr(max_expr)
            rhs = self._cast_to(self._load(decl), logical)
            max_expr = e.ConditionalOperator(
                self._bin(B.LT, max_expr, rhs),
                rhs,
                running_copy,
                logical,
            )
        max_decl = self._implicit_var(".fuse.max", logical, max_expr)
        pre_inits.append(s.DeclStmt([max_decl]))

        fused_var = self._implicit_var(
            "fused.iv", logical, e.IntegerLiteral(0, logical)
        )
        guarded: list[s.Stmt] = [
            s.IfStmt(
                self._bin(
                    B.LT,
                    self._cast_to(self._load(fused_var), logical),
                    self._cast_to(self._load(trip), logical),
                ),
                self._copy_body(
                    [analysis],
                    [
                        self._cast_to(
                            self._load(fused_var), analysis.logical_type
                        )
                    ],
                ),
            )
            for analysis, trip in zip(analyses, trips)
        ]
        loop = self._loop(fused_var, max_decl, s.CompoundStmt(guarded))
        return TransformResult(loop, s.CompoundStmt(pre_inits), 1)

    def build_interchange(
        self,
        analyses: list[CanonicalLoopAnalysis],
        permutation: list[int],
    ) -> TransformResult:
        """``omp interchange permutation(...)``: permute a perfect nest.

        *permutation* is 0-based: position k of the generated nest runs
        the original loop ``permutation[k]``.  The generated loops iterate
        each original logical space; user variables are re-materialized in
        the innermost body, so the permutation is purely an order change.
        """
        assert sorted(permutation) == list(range(len(analyses)))
        trips, pre_inits = self._capture_trip_counts(analyses)
        ivs = [
            self._implicit_var(
                f"interchanged.iv.{analysis.iter_var.name}",
                analysis.logical_type,
                e.IntegerLiteral(0, analysis.logical_type),
            )
            for analysis in analyses
        ]
        nest: s.Stmt = self._copy_body(
            analyses, [self._load(iv) for iv in ivs]
        )
        for k in reversed(permutation):
            nest = self._loop(ivs[k], trips[k], nest)
        return TransformResult(
            nest, s.CompoundStmt(pre_inits), len(analyses)
        )


#: The unroll factor chosen when a consumed ``omp unroll`` has no
#: ``partial`` argument ("The current implementation uses the unroll factor
#: of two in this case.  Future improvements may implement a better
#: heuristic." — paper §2.2).
DEFAULT_CONSUMED_UNROLL_FACTOR = 2
