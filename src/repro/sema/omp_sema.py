"""OpenMP semantic analysis: directive construction and clause checking.

Implements both representations the paper describes:

* **Shadow AST mode** (default; paper §2): loop transformations build their
  transformed AST here in Sema; worksharing directives populate the
  ``OMPLoopDirective`` shadow helper expressions (the "code generation that
  already takes place when creating the AST").
* **IRBuilder mode** (``-fopenmp-enable-irbuilder``; paper §3): associated
  loops are wrapped in ``OMPCanonicalLoop`` meta nodes carrying only the
  distance function, user value function and user variable reference; all
  loop code generation moves to :mod:`repro.ompirbuilder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.astlib import clauses as cl
from repro.astlib import exprs as e
from repro.astlib import omp
from repro.astlib import stmts as s
from repro.astlib.decls import (
    CapturedDecl,
    Decl,
    FunctionDecl,
    ImplicitParamDecl,
    ParmVarDecl,
    RecordDecl,
    VarDecl,
)
from repro.astlib.tree_transform import TreeTransform
from repro.astlib.types import QualType, desugar
from repro.core.canonical import build_canonical_loop
from repro.instrument import time_trace_scope
from repro.instrument.remarks import RemarkKind
from repro.core.shadow import (
    DEFAULT_CONSUMED_UNROLL_FACTOR,
    TRANSFORMS_BUILT,
    ShadowTransformBuilder,
    TransformResult,
)
from repro.sema.canonical_loop import (
    CanonicalLoopAnalysis,
    analyze_canonical_loop,
    collect_loop_nest,
)
from repro.sema.expr_eval import NotConstant
from repro.sourcemgr.location import SourceLocation

if TYPE_CHECKING:
    from repro.sema.sema import Sema


#: Directive spellings handled by :meth:`OpenMPSema.act_on_directive`.
LOOP_DIRECTIVES = {
    "for": omp.OMPForDirective,
    "parallel for": omp.OMPParallelForDirective,
    "simd": omp.OMPSimdDirective,
    "for simd": omp.OMPForSimdDirective,
    "parallel for simd": omp.OMPParallelForSimdDirective,
    "taskloop": omp.OMPTaskloopDirective,
}

REGION_DIRECTIVES = {
    "parallel": omp.OMPParallelDirective,
    "master": omp.OMPMasterDirective,
    "single": omp.OMPSingleDirective,
    "critical": omp.OMPCriticalDirective,
}

STANDALONE_DIRECTIVES = {
    "barrier": omp.OMPBarrierDirective,
}


# ---------------------------------------------------------------------------
# Loop transformations: what differs between them.  The one flow that builds
# all of them is OpenMPSema._build_transform_directive.
# ---------------------------------------------------------------------------
@dataclass
class _Params:
    """Clause values of one loop transformation directive."""

    #: associated loops: the nest depth (1 for single loops and fuse)
    depth: int = 1
    full: bool = False
    #: ``unroll partial``: the factor (None for full or heuristic)
    factor: int | None = None
    sizes: list[int] | None = None
    #: 0-based
    permutation: list[int] | None = None

    def apply(
        self, directive: omp.OMPLoopTransformationDirective
    ) -> omp.OMPLoopTransformationDirective:
        directive.unroll_factor = self.factor
        directive.tile_sizes = self.sizes
        directive.permutation = self.permutation
        return directive


#: how a transformation finds its associated loops
_LOOP, _NEST, _SEQUENCE = "loop", "nest", "sequence"


@dataclass(frozen=True)
class _Transform:
    directive_cls: type
    #: (sema, clauses, loc) -> clause values, or None after a diagnostic
    params: Callable[..., Optional[_Params]]
    #: one canonical loop, a perfect nest of ``depth``, or a sequence
    loops: str
    #: the ``core/shadow.py`` build: (builder, analyses, params) -> result
    build_shadow: Callable[..., TransformResult]
    #: (params, analyses) -> (kind, message, args) of the remark on a
    #: successful build
    remark: Callable[..., tuple[RemarkKind, str, dict]]
    #: depth -> (message, remark args) when the loops do not analyse
    missed: Optional[Callable[[int], tuple[str, dict]]] = None
    #: why the IRBuilder representation cannot consume a generated loop
    consume_error: Optional[str] = None


def _unroll_params(sema: "OpenMPSema", clauses, loc) -> _Params | None:
    full = next(
        (c for c in clauses if isinstance(c, cl.OMPFullClause)), None
    )
    partial = next(
        (c for c in clauses if isinstance(c, cl.OMPPartialClause)), None
    )
    if full is not None and partial is not None:
        sema.diags.error(
            "'full' and 'partial' clauses are mutually exclusive on "
            "'#pragma omp unroll'",
            loc,
        )
        return None
    factor: int | None = None
    if partial is not None:
        # `partial` without argument: implementation chooses; the
        # current implementation uses two (paper §2.2).
        factor = DEFAULT_CONSUMED_UNROLL_FACTOR
        if partial.factor is not None:
            factor = sema._require_positive_constant(
                partial.factor, "partial", loc
            )
            if factor is None:
                return None
    return _Params(full=full is not None, factor=factor)


def _tile_params(sema: "OpenMPSema", clauses, loc) -> _Params | None:
    sizes_clause = next(
        (c for c in clauses if isinstance(c, cl.OMPSizesClause)), None
    )
    if sizes_clause is None or not sizes_clause.sizes:
        sema.diags.error(
            "expected 'sizes' clause on '#pragma omp tile'", loc
        )
        return None
    sizes: list[int] = []
    for size_expr in sizes_clause.sizes:
        value = sema._require_positive_constant(size_expr, "sizes", loc)
        if value is None:
            return None
        sizes.append(value)
    return _Params(depth=len(sizes), sizes=sizes)


def _interchange_params(
    sema: "OpenMPSema", clauses, loc
) -> _Params | None:
    perm_clause = next(
        (c for c in clauses if isinstance(c, cl.OMPPermutationClause)),
        None,
    )
    if perm_clause is None:
        # default: swap the two loops
        return _Params(depth=2, permutation=[1, 0])
    permutation: list[int] = []
    for expr in perm_clause.indices:
        value = sema._require_positive_constant(expr, "permutation", loc)
        if value is None:
            return None
        permutation.append(value - 1)  # OpenMP uses 1-based
    if sorted(permutation) != list(range(len(permutation))):
        sema.diags.error(
            "'permutation' clause must name each loop of the "
            "nest exactly once",
            perm_clause.location or loc,
        )
        return None
    return _Params(depth=len(permutation), permutation=permutation)


def _no_params(sema: "OpenMPSema", clauses, loc) -> _Params:
    return _Params()


def _unroll_remark(p: _Params, analyses) -> tuple[RemarkKind, str, dict]:
    if p.full:
        return (
            RemarkKind.PASSED,
            "marked loop for full unrolling by the mid-end LoopUnroll "
            "pass (shadow AST builds no residual loop)",
            {"full": True},
        )
    if p.factor is not None:
        return (
            RemarkKind.PASSED,
            f"unrolled loop by a factor of {p.factor} (shadow-AST "
            "strip-mine; body duplication deferred to the mid-end)",
            {"factor": p.factor},
        )
    return (
        RemarkKind.ANALYSIS,
        "loop marked for heuristic unrolling by the mid-end",
        {},
    )


#: Directive spelling -> its transformation entry.
TRANSFORMS: dict[str, _Transform] = {
    "unroll": _Transform(
        omp.OMPUnrollDirective,
        _unroll_params,
        _LOOP,
        lambda b, analyses, p: b.build_unroll(analyses[0], p.factor),
        _unroll_remark,
        missed=lambda depth: (
            "unroll not applied: associated loop is not in "
            "OpenMP canonical form",
            {},
        ),
    ),
    "tile": _Transform(
        omp.OMPTileDirective,
        _tile_params,
        _NEST,
        lambda b, analyses, p: b.build_tile(analyses, p.sizes),
        lambda p, analyses: (
            RemarkKind.PASSED,
            f"tiled loop nest of depth {p.depth} with sizes "
            f"({', '.join(str(size) for size in p.sizes)})",
            {"sizes": tuple(p.sizes)},
        ),
        missed=lambda depth: (
            "tile not applied: associated statement is not a "
            f"perfect rectangular loop nest of depth {depth}",
            {"depth": depth},
        ),
    ),
    # OpenMP 6.0 loop transformations (paper §4 expected extensions).
    "reverse": _Transform(
        omp.OMPReverseDirective,
        _no_params,
        _LOOP,
        lambda b, analyses, p: b.build_reverse(analyses[0]),
        lambda p, analyses: (
            RemarkKind.PASSED, "reversed loop iteration order", {}
        ),
    ),
    "interchange": _Transform(
        omp.OMPInterchangeDirective,
        _interchange_params,
        _NEST,
        lambda b, analyses, p: b.build_interchange(
            analyses, p.permutation
        ),
        lambda p, analyses: (
            RemarkKind.PASSED,
            "interchanged loop nest with permutation "
            f"({', '.join(str(i + 1) for i in p.permutation)})",
            {"permutation": tuple(p.permutation)},
        ),
        # Only the single outermost generated handle is available, and
        # interchange needs a nest of at least two loops.
        consume_error="'#pragma omp interchange' cannot be applied to a "
        "generated loop in the OpenMPIRBuilder representation: only one "
        "generated loop is available to permute",
    ),
    "fuse": _Transform(
        omp.OMPFuseDirective,
        _no_params,
        _SEQUENCE,
        lambda b, analyses, p: b.build_fuse(analyses),
        lambda p, analyses: (
            RemarkKind.PASSED,
            f"fused {len(analyses)} loops into one",
            {"num_loops": len(analyses)},
        ),
    ),
}


#: Clauses permitted per directive (subset sufficient for the paper).
_ALLOWED_CLAUSES: dict[str, tuple[type, ...]] = {
    "parallel": (
        cl.OMPNumThreadsClause,
        cl.OMPIfClause,
        cl.OMPPrivateClause,
        cl.OMPFirstprivateClause,
        cl.OMPSharedClause,
        cl.OMPReductionClause,
        cl.OMPDefaultClause,
    ),
    "for": (
        cl.OMPScheduleClause,
        cl.OMPCollapseClause,
        cl.OMPPrivateClause,
        cl.OMPFirstprivateClause,
        cl.OMPLastprivateClause,
        cl.OMPReductionClause,
        cl.OMPNowaitClause,
        cl.OMPOrderedClause,
    ),
    "simd": (
        cl.OMPCollapseClause,
        cl.OMPSimdlenClause,
        cl.OMPPrivateClause,
        cl.OMPLastprivateClause,
        cl.OMPReductionClause,
    ),
    "taskloop": (
        cl.OMPCollapseClause,
        cl.OMPPrivateClause,
        cl.OMPFirstprivateClause,
        cl.OMPLastprivateClause,
        cl.OMPNumThreadsClause,
    ),
    "unroll": (cl.OMPFullClause, cl.OMPPartialClause),
    "tile": (cl.OMPSizesClause,),
    "reverse": (),
    "interchange": (cl.OMPPermutationClause,),
    "fuse": (),
    "master": (),
    "single": (cl.OMPPrivateClause, cl.OMPFirstprivateClause,
               cl.OMPNowaitClause),
    "critical": (),
    "barrier": (),
}


def _allowed_clauses_for(name: str) -> tuple[type, ...]:
    if name in _ALLOWED_CLAUSES:
        return _ALLOWED_CLAUSES[name]
    # Combined directives allow the union of their parts.
    parts = name.split(" ")
    allowed: tuple[type, ...] = ()
    for part in parts:
        allowed += _ALLOWED_CLAUSES.get(part, ())
    return allowed


class OpenMPSema:
    """OpenMP-specific Sema helper; reachable as ``sema.openmp``."""

    def __init__(self, sema: "Sema") -> None:
        self.sema = sema
        #: -fopenmp-enable-irbuilder: build OMPCanonicalLoop nodes and let
        #: the OpenMPIRBuilder generate loop code (paper §3).
        self.use_irbuilder = False

    # Convenience ------------------------------------------------------
    @property
    def ctx(self):
        return self.sema.ctx

    @property
    def diags(self):
        return self.sema.diags

    # ==================================================================
    # Entry point
    # ==================================================================
    def act_on_directive(
        self,
        name: str,
        clauses: Sequence[cl.OMPClause],
        associated_stmt: Optional[s.Stmt],
        loc: SourceLocation | None = None,
    ) -> s.Stmt | None:
        with time_trace_scope("Sema.OMPDirective", name):
            return self._act_on_directive(
                name, clauses, associated_stmt, loc
            )

    def _act_on_directive(
        self,
        name: str,
        clauses: Sequence[cl.OMPClause],
        associated_stmt: Optional[s.Stmt],
        loc: SourceLocation | None = None,
    ) -> s.Stmt | None:
        self._check_allowed_clauses(name, clauses, loc)
        if name in STANDALONE_DIRECTIVES:
            return STANDALONE_DIRECTIVES[name](clauses, None, loc)
        if associated_stmt is None:
            self.diags.error(
                f"expected a statement after '#pragma omp {name}'", loc
            )
            return None
        if name in REGION_DIRECTIVES:
            return self._build_region_directive(
                name, clauses, associated_stmt, loc
            )
        if name in TRANSFORMS:
            return self._build_transform_directive(
                name, clauses, associated_stmt, loc
            )
        if name in LOOP_DIRECTIVES:
            return self._build_loop_directive(
                name, clauses, associated_stmt, loc
            )
        self.diags.error(
            f"unknown OpenMP directive '#pragma omp {name}'", loc
        )
        return None

    def _check_allowed_clauses(
        self,
        name: str,
        clauses: Sequence[cl.OMPClause],
        loc: SourceLocation | None,
    ) -> None:
        allowed = _allowed_clauses_for(name)
        for clause in clauses:
            if not isinstance(clause, allowed):
                self.diags.error(
                    f"'{clause.clause_name}' clause is not allowed on "
                    f"directive '#pragma omp {name}'",
                    clause.location or loc,
                )

    # ==================================================================
    # Region directives (parallel, master, single, critical)
    # ==================================================================
    def _build_region_directive(
        self,
        name: str,
        clauses: Sequence[cl.OMPClause],
        body: s.Stmt,
        loc: SourceLocation | None,
    ) -> s.Stmt:
        directive_cls = REGION_DIRECTIVES[name]
        if name == "parallel":
            captured = self.build_captured_stmt(body, with_thread_ids=True)
            return directive_cls(clauses, captured, loc)
        if name == "critical":
            return omp.OMPCriticalDirective("", clauses, body, loc)
        return directive_cls(clauses, body, loc)

    # ==================================================================
    # Worksharing / simd loop directives
    # ==================================================================
    def _collapse_depth(
        self, clauses: Sequence[cl.OMPClause], loc
    ) -> int:
        collapse = next(
            (c for c in clauses if isinstance(c, cl.OMPCollapseClause)),
            None,
        )
        if collapse is None:
            return 1
        value = self._require_positive_constant(
            collapse.num_loops, "collapse", loc
        )
        return value if value is not None else 1

    def _require_positive_constant(
        self, expr: e.Expr, clause_name: str, loc
    ) -> int | None:
        try:
            value = self.sema.evaluator.evaluate(expr)
        except NotConstant as err:
            diag = self.diags.error(
                f"argument of '{clause_name}' clause must be a constant "
                "expression",
                expr.location or loc,
            )
            diag.add_note(str(err), expr.location or loc)
            return None
        if value <= 0:
            self.diags.error(
                f"argument to '{clause_name}' clause must be a strictly "
                f"positive integer value",
                expr.location or loc,
            )
            return None
        return value

    def _resolve_associated_loop(
        self, stmt: s.Stmt, directive_name: str, loc
    ) -> tuple[s.Stmt | None, list[s.Stmt]]:
        """Resolve the loop a directive is associated with.

        When the associated statement is itself a loop transformation, use
        its transformed AST (``get_transformed_stmt()``, paper §2) and
        collect its pre-init statements.  Transformation directives compose,
        so this recurses through a chain of them.
        """
        pre_inits: list[s.Stmt] = []
        current: s.Stmt | None = stmt
        while isinstance(current, omp.OMPLoopTransformationDirective):
            transformed = current.get_transformed_stmt()
            if transformed is None:
                unroll = isinstance(current, omp.OMPUnrollDirective)
                if unroll and current.has_clause(cl.OMPFullClause):
                    self.diags.error(
                        f"'#pragma omp {directive_name}' cannot be "
                        "applied to the '#pragma omp unroll full' "
                        "construct: a fully unrolled loop leaves no "
                        "generated loop to associate with",
                        current.location or loc,
                    )
                elif unroll and not current.has_clause(
                    cl.OMPPartialClause
                ):
                    # Heuristic unroll: whether a loop remains (and its
                    # shape) is unspecified, so nothing may consume it.
                    self.diags.error(
                        f"'#pragma omp {directive_name}' cannot be "
                        "applied to the '#pragma omp unroll' construct "
                        "without a 'partial' clause: the shape of the "
                        "generated loop is unspecified",
                        current.location or loc,
                    )
                else:
                    # The IRBuilder representation keeps a generated
                    # loop only as a CanonicalLoopInfo handle, which
                    # only loop-associated directives consume.
                    self.diags.error(
                        f"'#pragma omp {directive_name}' over transformed "
                        "loops is not supported in the OpenMPIRBuilder "
                        "representation",
                        loc,
                    )
                return None, pre_inits
            if current.pre_inits is not None:
                pre_inits.append(current.pre_inits)
            current = transformed
        return current, pre_inits

    def _build_loop_directive(
        self,
        name: str,
        clauses: Sequence[cl.OMPClause],
        associated: s.Stmt,
        loc: SourceLocation | None,
        pre_inits: Sequence[s.Stmt] = (),
    ) -> s.Stmt | None:
        """*pre_inits* run before the loop nest; a rebuild passes those
        a consumed transformation left in the captured region."""
        directive_cls = LOOP_DIRECTIVES[name]
        depth = self._collapse_depth(clauses, loc)

        if self.use_irbuilder and isinstance(
            associated, omp.OMPLoopTransformationDirective
        ):
            # §4 extension: in the canonical representation a consuming
            # directive takes the CanonicalLoopInfo handle(s) returned by
            # the inner transformation ("after tiling a loop, it is
            # possible to apply worksharing to the outer loop") — no
            # transformed AST exists to re-analyse.
            if not self._consume_generated_loop(
                name,
                associated,
                depth,
                "collapse over a generated loop nest is not supported",
                loc,
            ):
                return None
            self._check_data_sharing_clauses(clauses, loc)
            consumer: s.Stmt = associated
            if "parallel" in name:
                consumer = self.build_captured_stmt(
                    consumer, with_thread_ids=True
                )
            directive = directive_cls(clauses, consumer, depth, loc)
            directive.consumed_transform = associated
            directive.analyses = list(associated.analyses)
            return directive

        loop, resolved_pre_inits = self._resolve_associated_loop(
            associated, name, loc
        )
        if loop is None:
            return None
        pre_inits = [*pre_inits, *resolved_pre_inits]
        analyses = collect_loop_nest(
            self.ctx, self.diags, loop, depth, name
        )
        if analyses is None:
            return None
        self._check_data_sharing_clauses(clauses, loc)

        if self.use_irbuilder:
            # Canonical representation: wrap each nest level; codegen
            # calls OpenMPIRBuilder.create_canonical_loop (+
            # collapse_loops for collapse>1, create_workshare_loop for
            # the schedule) — paper §3.2.
            canonical_loops = [
                build_canonical_loop(self.ctx, a) for a in analyses
            ]
            body: s.Stmt = canonical_loops[0]
            if pre_inits:
                body = s.CompoundStmt([*pre_inits, body])
            # Directives containing `parallel` still outline via a
            # CapturedStmt even in IRBuilder mode — "other directives
            # such as OMPParallelForDirective still may [wrap the
            # associated statement]" (paper §3.1).
            if "parallel" in name:
                body = self.build_captured_stmt(
                    body, with_thread_ids=True
                )
            directive = directive_cls(
                clauses, body, depth, loc
            )
            directive.analyses = analyses
            directive.canonical_loops = canonical_loops
            return directive

        # Shadow representation: capture the region and populate the
        # shadow helper expressions used by CodeGen.
        nest_stmt: s.Stmt = loop
        if pre_inits:
            nest_stmt = s.CompoundStmt([*pre_inits, loop])
        captured = self.build_captured_stmt(
            nest_stmt, with_thread_ids=True
        )
        directive = directive_cls(clauses, captured, depth, loc)
        self._populate_loop_helpers(directive, analyses)
        directive.analyses = analyses
        return directive

    def _consume_generated_loop(
        self,
        name: str,
        inner: omp.OMPLoopTransformationDirective,
        depth: int,
        depth_error: str,
        loc,
    ) -> bool:
        """Whether directive *name* can chain from *inner*'s generated
        loop in the OpenMPIRBuilder representation (paper §4: composed
        transformations hand over their ``CanonicalLoopInfo`` result
        instead of a transformed AST).  Only the outermost generated
        loop is handed over, so *depth* must be one."""
        if isinstance(inner, omp.OMPUnrollDirective):
            if inner.has_clause(cl.OMPFullClause):
                self.diags.error(
                    f"'#pragma omp {name}' cannot be applied to the "
                    "'#pragma omp unroll full' construct: a fully "
                    "unrolled loop leaves no generated loop to "
                    "associate with",
                    inner.location or loc,
                )
                return False
            if not inner.has_clause(cl.OMPPartialClause):
                self.diags.error(
                    f"'#pragma omp {name}' cannot be applied to the "
                    "'#pragma omp unroll' construct without a "
                    "'partial' clause: the shape of the generated loop "
                    "is unspecified",
                    inner.location or loc,
                )
                return False
        if inner.canonical_loops is None and inner.consumed_transform is None:
            self.diags.error(
                f"'#pragma omp {name}' cannot consume this construct "
                "in the OpenMPIRBuilder representation",
                inner.location or loc,
            )
            return False
        if depth != 1:
            self.diags.error(depth_error, loc)
            return False
        return True

    def _check_data_sharing_clauses(
        self, clauses: Sequence[cl.OMPClause], loc
    ) -> None:
        seen: dict[int, str] = {}
        for clause in clauses:
            if not isinstance(clause, cl.OMPVarListClause):
                continue
            for ref in clause.variables:
                decl = ref.decl
                if not isinstance(decl, VarDecl):
                    self.diags.error(
                        f"'{decl.name}' is not a variable", ref.location
                    )
                    continue
                prev = seen.get(id(decl))
                compatible = {"firstprivate", "lastprivate"}
                if prev is not None and not (
                    prev in compatible
                    and clause.clause_name in compatible
                ):
                    self.diags.error(
                        f"variable '{decl.name}' cannot appear in both "
                        f"'{prev}' and '{clause.clause_name}' clauses",
                        ref.location,
                    )
                seen[id(decl)] = clause.clause_name
                if (
                    clause.clause_name == "reduction"
                    and not desugar(decl.type).is_arithmetic()
                ):
                    self.diags.error(
                        f"variable '{decl.name}' of type "
                        f"'{decl.type.spelling()}' is not valid for "
                        "reduction",
                        ref.location,
                    )

    def _populate_loop_helpers(
        self,
        directive: omp.OMPLoopDirective,
        analyses: list[CanonicalLoopAnalysis],
    ) -> None:
        """Fill the ``OMPLoopDirective`` shadow AST (paper §1.2).

        Creates the ``.omp.iv`` / ``.omp.lb`` / ``.omp.ub`` /
        ``.omp.stride`` bookkeeping variables and the expressions CodeGen
        later emits — the "significant portion of the code generation
        [that] already takes place when creating the AST".
        """
        ctx = self.ctx
        x = ShadowTransformBuilder(ctx)
        B = e.BinaryOperatorKind
        primary = analyses[0]
        logical = primary.logical_type

        def mkvar(name_suffix: str, init: e.Expr | None) -> VarDecl:
            return x._implicit_var(f".omp.{name_suffix}", logical, init)

        # Combined trip count over the collapsed nest: product of per-loop
        # trip counts, computed in the widest logical type.
        trip: e.Expr = x.build_trip_count_expr(primary)
        for inner in analyses[1:]:
            inner_trip = x._cast_to(
                x.build_trip_count_expr(inner), logical
            )
            trip = e.BinaryOperator(B.MUL, trip, inner_trip, logical)

        iv = mkvar("iv", None)
        lb = mkvar("lb", e.IntegerLiteral(0, logical))
        last_iter_expr = e.BinaryOperator(
            B.SUB, trip, e.IntegerLiteral(1, logical), logical
        )
        ub = mkvar("ub", last_iter_expr)
        stride = mkvar("stride", e.IntegerLiteral(1, logical))
        is_last = x._implicit_var(
            ".omp.is_last", ctx.int_type, e.IntegerLiteral(0, ctx.int_type)
        )

        h = directive.helpers
        h.pre_init = s.DeclStmt([lb, ub, stride, is_last])
        h.iter_init = s.DeclStmt([iv])
        h.iteration_variable = x._ref(iv)
        h.num_iterations = trip
        h.last_iteration = last_iter_expr
        h.calc_last_iteration = e.BinaryOperator(
            B.EQ,
            x._load(iv),
            e.BinaryOperator(
                B.SUB,
                x.build_trip_count_expr(primary),
                e.IntegerLiteral(1, logical),
                logical,
            ),
            ctx.int_type,
        )
        # Precondition: at least one iteration will execute (over the
        # whole collapsed space).
        h.precondition = e.BinaryOperator(
            B.GT,
            x._copy(trip),
            e.IntegerLiteral(0, logical),
            ctx.int_type,
        )
        h.init = e.BinaryOperator(
            B.ASSIGN, x._ref(iv), x._load(lb), logical
        )
        h.cond = e.BinaryOperator(
            B.LE, x._load(iv), x._load(ub), ctx.int_type
        )
        h.inc = e.UnaryOperator(
            e.UnaryOperatorKind.PRE_INC, x._ref(iv), logical
        )
        h.lower_bound_variable = x._ref(lb)
        h.upper_bound_variable = x._ref(ub)
        h.stride_variable = x._ref(stride)
        h.is_last_iter_variable = x._ref(is_last)
        # EnsureUpperBound: ub = min(ub, numiters-1), as conditional assign.
        h.ensure_upper_bound = e.BinaryOperator(
            B.ASSIGN,
            x._ref(ub),
            e.ConditionalOperator(
                e.BinaryOperator(
                    B.LT, x._load(ub), x._copy(last_iter_expr),
                    ctx.int_type,
                ),
                x._load(ub),
                x._copy(last_iter_expr),
                logical,
            ),
            logical,
        )
        h.next_lower_bound = e.CompoundAssignOperator(
            B.ADD_ASSIGN, x._ref(lb), x._load(stride), logical, logical
        )
        h.next_upper_bound = e.CompoundAssignOperator(
            B.ADD_ASSIGN, x._ref(ub), x._load(stride), logical, logical
        )

        # Per-loop helpers: counters and the update recomputing each user
        # variable from the logical iteration number.
        remaining: e.Expr = x._load(iv)
        for level, analysis in enumerate(analyses):
            bundle = directive.loop_helpers[level]
            # Index of this loop level within the collapsed space:
            # iv / (product of inner trip counts) % own trip count.
            inner_product: e.Expr | None = None
            for inner in analyses[level + 1 :]:
                t = x._cast_to(x.build_trip_count_expr(inner), logical)
                inner_product = (
                    t
                    if inner_product is None
                    else e.BinaryOperator(B.MUL, inner_product, t, logical)
                )
            level_index: e.Expr = x._load(iv)
            if inner_product is not None:
                level_index = e.BinaryOperator(
                    B.DIV, level_index, inner_product, logical
                )
            own_trip = x._cast_to(
                x.build_trip_count_expr(analysis), logical
            )
            level_index = e.BinaryOperator(
                B.REM, level_index, own_trip, logical
            )
            env_stmts, subs, pairs = x._rebuild_user_env(
                analysis, level_index
            )
            bundle.counter = x._ref(analysis.iter_var)
            bundle.private_counter = x._ref(pairs[0][1])
            bundle.counter_init = x._copy(analysis.lower_bound)
            bundle.counter_update = (
                env_stmts[0]
                if len(env_stmts) == 1
                else s.CompoundStmt(env_stmts)
            )
            bundle.counter_substitutions = pairs
            final_env, _, _ = x._rebuild_user_env(
                analysis,
                x._cast_to(x.build_trip_count_expr(analysis), logical),
            )
            bundle.counter_final = (
                final_env[0]
                if len(final_env) == 1
                else s.CompoundStmt(final_env)
            )

    # ==================================================================
    # Loop transformation directives (the paper's contribution)
    # ==================================================================
    def _build_transform_directive(
        self,
        name: str,
        clauses: Sequence[cl.OMPClause],
        associated: s.Stmt,
        loc: SourceLocation | None,
    ) -> s.Stmt | None:
        """Build any of the five loop transformation directives.

        The flow is the same for every kind; :data:`TRANSFORMS` holds
        what differs.  Clause arguments are checked before the
        associated loops, as Clang checks them when it parses the
        clause.  In the IRBuilder representation a transformation over
        another one consumes its generated loop; otherwise the
        associated loops are resolved (through inner transformations'
        transformed ASTs) and analysed, then either wrapped in
        ``OMPCanonicalLoop``s (paper §3.1) or transformed into a shadow
        AST (paper §2).
        """
        kind = TRANSFORMS[name]
        # §4 composition: in the IRBuilder representation consume the
        # inner transformation's CanonicalLoopInfo handle instead of
        # re-analysing a transformed AST (which the canonical
        # representation never builds).
        consumes = (
            self.use_irbuilder
            and kind.loops != _SEQUENCE
            and isinstance(associated, omp.OMPLoopTransformationDirective)
        )
        if consumes and kind.consume_error is not None:
            self.diags.error(kind.consume_error, loc)
            return None
        params = kind.params(self, clauses, loc)
        if params is None:
            return None
        if consumes:
            # Only tile's depth can exceed one here.
            if not self._consume_generated_loop(
                name,
                associated,
                params.depth,
                f"'#pragma omp {name}' over a generated loop supports "
                "only a single 'sizes' dimension in the OpenMPIRBuilder "
                "representation",
                loc,
            ):
                return None
            directive = kind.directive_cls(
                clauses, associated, 1, None, None, loc
            )
            directive.consumed_transform = associated
            directive.analyses = list(associated.analyses)
            return params.apply(directive)

        found = self._transform_loops(
            kind, name, associated, params.depth, loc
        )
        if found is None:
            return None
        analyses, pre_inits = found
        if params.full:
            # Full unrolling requires a compile-time constant trip count.
            # The constant evaluation may fail on internal shadow-AST
            # variables; per the paper (§2) the note then names them
            # (".capture_expr.") but points at a *representative source
            # location* of the associated literal loop.
            self._check_constant_trip_count(analyses[0], loc, associated)

        if self.use_irbuilder:
            # One wrapper per nest level (per sibling loop for fuse);
            # CodeGen hands them to the OpenMPIRBuilder (paper §3.2).
            canonical_loops = [
                build_canonical_loop(self.ctx, a) for a in analyses
            ]
            wrapped: s.Stmt = (
                s.CompoundStmt(list(canonical_loops))
                if kind.loops == _SEQUENCE
                else canonical_loops[0]
            )
            if pre_inits:
                wrapped = s.CompoundStmt([*pre_inits, wrapped])
            directive = kind.directive_cls(
                clauses, wrapped, params.depth, None, None, loc
            )
            directive.canonical_loops = canonical_loops
        else:
            TRANSFORMS_BUILT.inc()
            result = kind.build_shadow(
                ShadowTransformBuilder(self.ctx, self.rebuild_directive),
                analyses,
                params,
            )
            self._remark(name, kind.remark(params, analyses), loc)
            # Note: the associated code is deliberately NOT wrapped in a
            # CapturedStmt — a loop transformation is never outlined by
            # itself, and capturing would redirect local variable
            # references (paper §2.1).  The *syntactic* child stays the
            # statement as written (possibly an inner transformation
            # directive, paper Listing 5); pre-inits of consumed inner
            # transformations are folded into this directive's own
            # pre-inits so a consumer collects them in one step.
            directive = kind.directive_cls(
                clauses,
                associated,
                params.depth,
                result.transformed_stmt,
                self._merge_pre_inits([*pre_inits, result.pre_inits]),
                loc,
            )
        directive.analyses = analyses
        return params.apply(directive)

    def _transform_loops(
        self,
        kind: "_Transform",
        name: str,
        associated: s.Stmt,
        depth: int,
        loc: SourceLocation | None,
    ) -> tuple[list[CanonicalLoopAnalysis], list[s.Stmt]] | None:
        """The analysed loops a transformation applies to, plus the
        pre-inits of the inner transformations it consumes; None after
        a diagnostic."""
        if kind.loops == _SEQUENCE:
            analyses = self._loop_sequence(associated, name, loc)
            return None if analyses is None else (analyses, [])
        loop, pre_inits = self._resolve_associated_loop(
            associated, name, loc
        )
        if loop is None:
            return None
        if kind.loops == _NEST:
            analyses = collect_loop_nest(
                self.ctx, self.diags, loop, depth, name
            )
        else:
            analysis = analyze_canonical_loop(
                self.ctx, self.diags, loop, name
            )
            analyses = None if analysis is None else [analysis]
        if analyses is None:
            if kind.missed is not None:
                self._remark(
                    name, (RemarkKind.MISSED, *kind.missed(depth)), loc
                )
            return None
        return analyses, pre_inits

    def _loop_sequence(
        self, associated: s.Stmt, name: str, loc: SourceLocation | None
    ) -> list[CanonicalLoopAnalysis] | None:
        """``omp fuse`` applies to a *sequence* of loops written as a
        compound statement (paper §4: fusion handles "sequences of loops
        in addition to loop nests")."""
        if not isinstance(associated, s.CompoundStmt):
            self.diags.error(
                f"'#pragma omp {name}' must be applied to a compound "
                "statement containing the loop sequence",
                loc,
            )
            return None
        analyses: list[CanonicalLoopAnalysis] = []
        for child in associated.statements:
            if isinstance(child, s.NullStmt):
                continue
            loop, child_pre = self._resolve_associated_loop(
                child, name, loc
            )
            if loop is None:
                return None
            if child_pre:
                self.diags.error(
                    f"'#pragma omp {name}' over transformed loops with "
                    "pre-initialization is not supported",
                    loc,
                )
                return None
            if not isinstance(loop, (s.ForStmt, s.CXXForRangeStmt)):
                self.diags.error(
                    f"every statement in the '#pragma omp {name}' region "
                    "must be a canonical for loop",
                    child.location or loc,
                )
                return None
            analysis = analyze_canonical_loop(
                self.ctx, self.diags, loop, name
            )
            if analysis is None:
                return None
            analyses.append(analysis)
        if len(analyses) < 2:
            self.diags.error(
                f"'#pragma omp {name}' requires at least two loops", loc
            )
            return None
        return analyses

    def _remark(
        self, name: str, remark: tuple[RemarkKind, str, dict], loc
    ) -> None:
        kind, message, args = remark
        self.diags.remarks.emit(kind, name, message, location=loc, **args)

    @staticmethod
    def _representative_loop_location(stmt: s.Stmt | None):
        """A source location of the associated *literal* loop (paper §2:
        shadow-AST diagnostics should point at a representative location
        even when they concern generated code)."""
        current = stmt
        while isinstance(current, omp.OMPExecutableDirective):
            current = current.associated_stmt
        if current is not None and current.location.is_valid():
            return current.location
        return None

    def _check_constant_trip_count(
        self,
        analysis: CanonicalLoopAnalysis,
        loc,
        syntactic_stmt: s.Stmt | None = None,
    ) -> int | None:
        ev = self.sema.evaluator
        builder = ShadowTransformBuilder(self.ctx)
        trip_expr = builder.build_trip_count_expr(analysis)
        try:
            return ev.evaluate(trip_expr)
        except NotConstant as err:
            diag = self.diags.error(
                "loop to fully unroll must have a constant trip count",
                loc,
            )
            note_loc = (
                self._representative_loop_location(syntactic_stmt)
                or analysis.loop_stmt.location
            )
            diag.add_note(str(err), note_loc)
            return None

    @staticmethod
    def _merge_pre_inits(parts: list[s.Stmt | None]) -> s.Stmt | None:
        stmts = [p for p in parts if p is not None]
        if not stmts:
            return None
        if len(stmts) == 1:
            return stmts[0]
        return s.CompoundStmt(stmts)

    def rebuild_directive(
        self, d: omp.OMPExecutableDirective, transform: TreeTransform
    ) -> s.Stmt:
        """Rebuild directive *d*, nested in a loop body a transformation
        copies, on the copies of its associated statement and clauses.

        Its Sema-built children (shadow AST, loop analyses, captures)
        must read the copied body's declarations, not the original's,
        so Sema runs again, as Clang's ``TreeTransform::
        TransformOMPExecutableDirective`` does.  The original build
        already reported the diagnostics and remarks, so the rebuild's
        are dropped.
        """
        body = d.associated_stmt
        if isinstance(body, s.CapturedStmt):
            body = body.captured_decl.body
        body = transform.transform_stmt(body)
        clauses = [transform.transform_clause(c) for c in d.clauses]
        with self.diags.suppressed():
            if isinstance(d, omp.OMPLoopDirective):
                # A shadow loop directive's region holds the pre-inits
                # of a consumed transformation before its loop.
                pre_inits: list[s.Stmt] = []
                if isinstance(body, s.CompoundStmt) and len(
                    body.statements
                ) > 1:
                    *pre_inits, body = body.statements
                rebuilt = self._build_loop_directive(
                    d.directive_name, clauses, body, d.location, pre_inits
                )
            else:
                rebuilt = self._act_on_directive(
                    d.directive_name, clauses, body, d.location
                )
        if rebuilt is None:
            raise RuntimeError(
                f"rebuilding '#pragma omp {d.directive_name}' failed"
            )
        if isinstance(rebuilt, omp.OMPCriticalDirective):
            assert isinstance(d, omp.OMPCriticalDirective)
            rebuilt.name = d.name
        return rebuilt

    # ==================================================================
    # Captured statements (early outlining support, paper §1.2)
    # ==================================================================
    def build_captured_stmt(
        self, body: s.Stmt, with_thread_ids: bool
    ) -> s.CapturedStmt:
        """Wrap *body* in a ``CapturedStmt``/``CapturedDecl`` pair.

        Computes the variables captured from enclosing scopes (they become
        fields of the implicit ``__context`` record) and attaches the
        implicit parameters the OpenMP runtime passes to the outlined
        function: ``.global_tid.``, ``.bound_tid.`` and ``__context``.
        """
        ctx = self.ctx
        captures = self.compute_captures(body)
        context_record = RecordDecl("", is_union=False)
        context_record.is_complete = True
        for var in captures:
            from repro.astlib.decls import FieldDecl

            field_ty = ctx.get_pointer(var.type)
            context_record.add_field(FieldDecl(var.name, field_ty))
        record_qt = ctx.get_record(context_record)

        params: list[ImplicitParamDecl] = []
        if with_thread_ids:
            tid_ty = ctx.get_pointer(
                ctx.int_type.with_const()
            ).with_const()
            tid_ty = QualType(
                tid_ty.type, is_const=True, is_restrict=True
            )
            params.append(ImplicitParamDecl(".global_tid.", tid_ty))
            params.append(ImplicitParamDecl(".bound_tid.", tid_ty))
        context_ty = QualType(
            ctx.get_pointer(record_qt).type,
            is_const=True,
            is_restrict=True,
        )
        params.append(ImplicitParamDecl("__context", context_ty))

        decl = CapturedDecl(body, params)
        captured = s.CapturedStmt(decl, captures)
        captured.context_record = context_record
        return captured

    def compute_captures(self, body: s.Stmt) -> list[VarDecl]:
        """Variables referenced in *body* but declared outside it.

        Clang "keeps track of which variables are used inside the
        CapturedStmt to become parameters of the outlined function"
        (paper §1.2).
        """
        declared: set[int] = set()
        referenced: dict[int, VarDecl] = {}

        from repro.astlib.visitor import RecursiveASTVisitor

        class CaptureScanner(RecursiveASTVisitor):
            def visit_decl(self, decl: Decl) -> bool:
                if isinstance(decl, VarDecl):
                    declared.add(id(decl))
                return True

            def visit_stmt(self, stmt: s.Stmt) -> bool:
                if isinstance(stmt, e.DeclRefExpr):
                    decl = stmt.decl
                    if (
                        isinstance(decl, VarDecl)
                        and not isinstance(decl, ParmVarDecl)
                        and not decl.is_global
                        and not isinstance(decl, FunctionDecl)
                    ):
                        referenced.setdefault(id(decl), decl)
                return True

        CaptureScanner(traverse_shadow=False).traverse_stmt(body)
        return [
            var
            for key, var in referenced.items()
            if key not in declared
        ]
