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

Partial unrolling does **not** clone the body: the inner loop is kept and
annotated with ``LoopHintAttr(UnrollCount, factor)``; the code generator
lowers that to ``llvm.loop.unroll.count`` metadata and the mid-end
``LoopUnroll`` pass performs the duplication ("No duplication takes place
until that point").
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
_SHADOW_TRANSFORMS = get_statistic(
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

    def materialize_trip_count(
        self, analysis: CanonicalLoopAnalysis
    ) -> tuple[VarDecl, s.Stmt]:
        """Bind the trip count to a ``.capture_expr.`` variable evaluated
        once before the generated loops (clang materializes such bounds the
        same way — and its internal name is what leaks into diagnostics,
        paper §2).

        When the trip count folds to a constant the variable is declared
        ``const`` with a literal initializer, so an enclosing directive
        that needs a constant trip count (e.g. ``unroll full``) can see
        through it.  A runtime trip count stays non-const — and a consumer
        that constant-evaluates it then reports exactly the paper's
        ``read of non-const variable '.capture_expr.'`` diagnostic.
        """
        from repro.sema.expr_eval import IntExprEvaluator

        trip = self.build_trip_count_expr(analysis)
        folded = IntExprEvaluator(self.ctx).try_evaluate(trip)
        ty = analysis.logical_type
        if folded is not None:
            trip = e.IntegerLiteral(folded, ty)
            ty = ty.with_const()
        decl = VarDecl(".capture_expr.", ty, trip)
        decl.is_implicit = True
        return decl, s.DeclStmt([decl])

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

    def _remap_body(
        self,
        analysis: CanonicalLoopAnalysis,
        subs: dict[int, VarDecl],
    ) -> s.Stmt:
        """Copy the loop body, remapping the old iteration/user variables
        to the freshly declared ones (TreeTransform, paper §1.3/§2)."""
        transform = TreeTransform(self.rebuild_directive)
        for key, new_var in subs.items():
            transform.decl_substitutions[key] = new_var
        body = transform.transform_stmt(analysis.body)
        assert body is not None
        return body

    # ------------------------------------------------------------------
    # Unroll (paper §2.1, Listing "transformedast")
    # ------------------------------------------------------------------
    def build_unroll_partial(
        self,
        analysis: CanonicalLoopAnalysis,
        factor: int,
    ) -> TransformResult:
        """Strip-mine by *factor*; keep the inner loop and annotate it with
        ``LoopHintAttr(UnrollCount, factor)`` instead of cloning the body.
        """
        assert factor >= 1
        B = e.BinaryOperatorKind
        logical = analysis.logical_type
        var_name = analysis.iter_var.name

        trip_decl, pre_inits = self.materialize_trip_count(analysis)

        # Outer loop: for (L unrolled.iv.i = 0; iv < trip; iv += factor)
        outer_var = VarDecl(
            f"unrolled.iv.{var_name}",
            logical,
            e.IntegerLiteral(0, logical),
        )
        outer_var.is_implicit = True
        outer_cond = self._bin(
            B.LT, self._load(outer_var), self._load(trip_decl)
        )
        outer_inc = e.CompoundAssignOperator(
            B.ADD_ASSIGN,
            self._ref(outer_var),
            e.IntegerLiteral(factor, logical),
            logical,
            logical,
        )

        # Inner loop:
        # for (L unroll_inner.iv.i = unrolled.iv.i;
        #      inner < unrolled.iv.i + factor && inner < trip; ++inner)
        inner_var = VarDecl(
            f"unroll_inner.iv.{var_name}", logical, self._load(outer_var)
        )
        inner_var.is_implicit = True
        inner_cond = self._bin(
            B.LAND,
            self._bin(
                B.LT,
                self._load(inner_var),
                self._bin(
                    B.ADD,
                    self._load(outer_var),
                    e.IntegerLiteral(factor, logical),
                    logical,
                ),
            ),
            self._bin(B.LT, self._load(inner_var), self._load(trip_decl)),
            self.ctx.int_type,
        )
        inner_inc = e.UnaryOperator(
            e.UnaryOperatorKind.PRE_INC,
            self._ref(inner_var),
            logical,
        )

        env_stmts, subs, _ = self._rebuild_user_env(
            analysis, self._load(inner_var)
        )
        body = self._remap_body(analysis, subs)
        inner_body = s.CompoundStmt([*env_stmts, body])
        inner_loop = s.ForStmt(
            s.DeclStmt([inner_var]), inner_cond, inner_inc, inner_body
        )
        annotated = s.AttributedStmt(
            [
                s.LoopHintAttr(
                    s.LoopHintAttr.UNROLL_COUNT,
                    e.IntegerLiteral(factor, self.ctx.int_type),
                )
            ],
            inner_loop,
        )
        outer_loop = s.ForStmt(
            s.DeclStmt([outer_var]), outer_cond, outer_inc, annotated
        )
        return TransformResult(outer_loop, pre_inits, 1)

    def build_unroll_full(
        self, analysis: CanonicalLoopAnalysis
    ) -> TransformResult:
        """Full unroll: there is **no generated loop** that another
        directive could be associated with (paper §1.1), so no transformed
        AST is produced; CodeGen emits the loop with
        ``llvm.loop.unroll.enable``/full metadata and the mid-end pass
        performs the expansion (paper §2.2)."""
        return TransformResult(None, None, 0)

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
        B = e.BinaryOperatorKind
        n = len(analyses)

        pre_stmts: list[s.Stmt] = []
        trip_decls: list[VarDecl] = []
        for analysis in analyses:
            decl, stmt = self.materialize_trip_count(analysis)
            trip_decls.append(decl)
            pre_stmts.append(stmt)

        floor_vars: list[VarDecl] = []
        tile_vars: list[VarDecl] = []
        for k, (analysis, size) in enumerate(zip(analyses, sizes)):
            logical = analysis.logical_type
            name = analysis.iter_var.name
            fv = VarDecl(
                f".floor.{k}.iv.{name}",
                logical,
                e.IntegerLiteral(0, logical),
            )
            fv.is_implicit = True
            floor_vars.append(fv)
            tv = VarDecl(f".tile.{k}.iv.{name}", logical, None)
            tv.is_implicit = True
            tile_vars.append(tv)

        # Innermost body: re-materialize each user variable then the body.
        transform = TreeTransform(self.rebuild_directive)
        body_stmts: list[s.Stmt] = []
        for k, analysis in enumerate(analyses):
            env_stmts, subs, _ = self._rebuild_user_env(
                analysis, self._load(tile_vars[k])
            )
            for key, new_var in subs.items():
                transform.decl_substitutions[key] = new_var
            body_stmts.extend(env_stmts)
        innermost_body = transform.transform_stmt(analyses[-1].body)
        assert innermost_body is not None
        body_stmts.append(innermost_body)
        current: s.Stmt = s.CompoundStmt(body_stmts)

        # Tile loops, innermost outwards.
        for k in range(n - 1, -1, -1):
            analysis, size = analyses[k], sizes[k]
            logical = analysis.logical_type
            tv = tile_vars[k]
            tv.init = self._load(floor_vars[k])
            cond = self._bin(
                B.LAND,
                self._bin(
                    B.LT,
                    self._load(tv),
                    self._bin(
                        B.ADD,
                        self._load(floor_vars[k]),
                        e.IntegerLiteral(size, logical),
                        logical,
                    ),
                ),
                self._bin(
                    B.LT, self._load(tv), self._load(trip_decls[k])
                ),
                self.ctx.int_type,
            )
            inc = e.UnaryOperator(
                e.UnaryOperatorKind.PRE_INC, self._ref(tv), logical
            )
            current = s.ForStmt(s.DeclStmt([tv]), cond, inc, current)

        # Floor loops, innermost outwards.
        for k in range(n - 1, -1, -1):
            analysis, size = analyses[k], sizes[k]
            logical = analysis.logical_type
            fv = floor_vars[k]
            cond = self._bin(
                B.LT, self._load(fv), self._load(trip_decls[k])
            )
            inc = e.CompoundAssignOperator(
                B.ADD_ASSIGN,
                self._ref(fv),
                e.IntegerLiteral(size, logical),
                logical,
                logical,
            )
            current = s.ForStmt(s.DeclStmt([fv]), cond, inc, current)

        return TransformResult(
            current, s.CompoundStmt(pre_stmts), 2 * n
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
        name = analysis.iter_var.name
        trip_decl, pre_inits = self.materialize_trip_count(analysis)

        rev_var = VarDecl(
            f"reversed.iv.{name}",
            logical,
            e.IntegerLiteral(0, logical),
        )
        rev_var.is_implicit = True
        cond = self._bin(
            B.LT, self._load(rev_var), self._load(trip_decl)
        )
        inc = e.UnaryOperator(
            e.UnaryOperatorKind.PRE_INC, self._ref(rev_var), logical
        )
        mirrored = self._bin(
            B.SUB,
            self._bin(
                B.SUB,
                self._load(trip_decl),
                e.IntegerLiteral(1, logical),
                logical,
            ),
            self._load(rev_var),
            logical,
        )
        env_stmts, subs, _ = self._rebuild_user_env(analysis, mirrored)
        body = self._remap_body(analysis, subs)
        loop = s.ForStmt(
            s.DeclStmt([rev_var]),
            cond,
            inc,
            s.CompoundStmt([*env_stmts, body]),
        )
        return TransformResult(loop, pre_inits, 1)

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
        pre_stmts: list[s.Stmt] = []
        trip_decls: list[VarDecl] = []
        for analysis in analyses:
            decl, stmt = self.materialize_trip_count(analysis)
            trip_decls.append(decl)
            pre_stmts.append(stmt)
        # max of the trip counts, via chained conditionals (the AST is
        # immutable, so each use of the running max is a fresh copy).
        max_expr: e.Expr = self._cast_to(
            self._load(trip_decls[0]), logical
        )
        for decl in trip_decls[1:]:
            running_copy = TreeTransform().transform_expr(max_expr)
            rhs = self._cast_to(self._load(decl), logical)
            max_expr = e.ConditionalOperator(
                self._bin(B.LT, max_expr, rhs),
                rhs,
                running_copy,
                logical,
            )
        max_decl = VarDecl(".fuse.max", logical, max_expr)
        max_decl.is_implicit = True
        pre_stmts.append(s.DeclStmt([max_decl]))

        fused_var = VarDecl(
            "fused.iv", logical, e.IntegerLiteral(0, logical)
        )
        fused_var.is_implicit = True
        cond = self._bin(
            B.LT, self._load(fused_var), self._load(max_decl)
        )
        inc = e.UnaryOperator(
            e.UnaryOperatorKind.PRE_INC, self._ref(fused_var), logical
        )
        guarded: list[s.Stmt] = []
        for k, analysis in enumerate(analyses):
            guard = self._bin(
                B.LT,
                self._cast_to(self._load(fused_var), logical),
                self._cast_to(self._load(trip_decls[k]), logical),
            )
            env_stmts, subs, _ = self._rebuild_user_env(
                analysis,
                self._cast_to(
                    self._load(fused_var), analysis.logical_type
                ),
            )
            body = self._remap_body(analysis, subs)
            guarded.append(
                s.IfStmt(
                    guard, s.CompoundStmt([*env_stmts, body])
                )
            )
        loop = s.ForStmt(
            s.DeclStmt([fused_var]),
            cond,
            inc,
            s.CompoundStmt(guarded),
        )
        return TransformResult(loop, s.CompoundStmt(pre_stmts), 1)

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
        B = e.BinaryOperatorKind
        pre_stmts: list[s.Stmt] = []
        trip_decls: list[VarDecl] = []
        for analysis in analyses:
            decl, stmt = self.materialize_trip_count(analysis)
            trip_decls.append(decl)
            pre_stmts.append(stmt)

        new_vars: list[VarDecl] = []
        for k, analysis in enumerate(analyses):
            logical = analysis.logical_type
            var = VarDecl(
                f"interchanged.iv.{analysis.iter_var.name}",
                logical,
                e.IntegerLiteral(0, logical),
            )
            var.is_implicit = True
            new_vars.append(var)

        transform_subs: dict[int, VarDecl] = {}
        body_stmts: list[s.Stmt] = []
        for k, analysis in enumerate(analyses):
            env_stmts, subs, _ = self._rebuild_user_env(
                analysis, self._load(new_vars[k])
            )
            transform_subs.update(subs)
            body_stmts.extend(env_stmts)
        body = self._remap_body(analyses[-1], transform_subs)
        body_stmts.append(body)
        current: s.Stmt = s.CompoundStmt(body_stmts)

        for k in reversed(permutation):
            analysis = analyses[k]
            logical = analysis.logical_type
            var = new_vars[k]
            cond = self._bin(
                B.LT, self._load(var), self._load(trip_decls[k])
            )
            inc = e.UnaryOperator(
                e.UnaryOperatorKind.PRE_INC, self._ref(var), logical
            )
            current = s.ForStmt(s.DeclStmt([var]), cond, inc, current)

        return TransformResult(
            current, s.CompoundStmt(pre_stmts), len(analyses)
        )


# ---------------------------------------------------------------------------
# Convenience entry points (used by OpenMPSema and by library users)
# ---------------------------------------------------------------------------
def build_unroll_transform(
    ctx: ASTContext,
    analysis: CanonicalLoopAnalysis,
    factor: int | None,
    full: bool,
    rebuild_directive: DirectiveRebuilder | None = None,
) -> TransformResult:
    """Build the shadow transformed AST for ``omp unroll``.

    ``factor=None`` with ``full=False`` is the heuristic mode; when the
    result must be consumable the caller passes the implementation-chosen
    factor (the current implementation uses two — paper §2.2).
    *rebuild_directive* rebuilds directives nested in the loop body
    (every builder below takes it too).
    """
    _SHADOW_TRANSFORMS.inc()
    builder = ShadowTransformBuilder(ctx, rebuild_directive)
    if full:
        return builder.build_unroll_full(analysis)
    if factor is None:
        return TransformResult(None, None, 0)
    return builder.build_unroll_partial(analysis, factor)


def build_tile_transform(
    ctx: ASTContext,
    analyses: list[CanonicalLoopAnalysis],
    sizes: list[int],
    rebuild_directive: DirectiveRebuilder | None = None,
) -> TransformResult:
    """Build the shadow transformed AST for ``omp tile sizes(...)``."""
    _SHADOW_TRANSFORMS.inc()
    return ShadowTransformBuilder(ctx, rebuild_directive).build_tile(
        analyses, sizes
    )


def build_reverse_transform(
    ctx: ASTContext,
    analysis: CanonicalLoopAnalysis,
    rebuild_directive: DirectiveRebuilder | None = None,
) -> TransformResult:
    """Build the shadow transformed AST for ``omp reverse`` (6.0 ext)."""
    _SHADOW_TRANSFORMS.inc()
    return ShadowTransformBuilder(ctx, rebuild_directive).build_reverse(
        analysis
    )


def build_fuse_transform(
    ctx: ASTContext,
    analyses: list[CanonicalLoopAnalysis],
    rebuild_directive: DirectiveRebuilder | None = None,
) -> TransformResult:
    """Build the shadow transformed AST for ``omp fuse`` (6.0 ext)."""
    _SHADOW_TRANSFORMS.inc()
    return ShadowTransformBuilder(ctx, rebuild_directive).build_fuse(
        analyses
    )


def build_interchange_transform(
    ctx: ASTContext,
    analyses: list[CanonicalLoopAnalysis],
    permutation: list[int],
    rebuild_directive: DirectiveRebuilder | None = None,
) -> TransformResult:
    """Build the shadow transformed AST for ``omp interchange`` (6.0)."""
    _SHADOW_TRANSFORMS.inc()
    return ShadowTransformBuilder(ctx, rebuild_directive).build_interchange(
        analyses, permutation
    )


#: The unroll factor chosen when a consumed ``omp unroll`` has no
#: ``partial`` argument ("The current implementation uses the unroll factor
#: of two in this case.  Future improvements may implement a better
#: heuristic." — paper §2.2).
DEFAULT_CONSUMED_UNROLL_FACTOR = 2
