"""OpenMP directive AST nodes (paper Figs. 4/5, §2.1, §3.1).

Class hierarchy (paper Fig. 5)::

    Stmt
     └─ OMPExecutableDirective
         ├─ OMPParallelDirective, OMPBarrierDirective, ...
         └─ OMPLoopBasedDirective              (new)
             ├─ OMPLoopDirective               (carries ~30+6n shadow nodes)
             │   ├─ OMPForDirective
             │   ├─ OMPParallelForDirective
             │   ├─ OMPSimdDirective, ...
             ├─ OMPUnrollDirective             (new, shadow transformed AST)
             └─ OMPTileDirective               (new, shadow transformed AST)

plus the second representation's meta node :class:`OMPCanonicalLoop`
(paper §3.1), which wraps a literal loop and carries exactly the three
pieces of Sema-resolved information: the distance function, the loop
user value function, and the user variable reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.astlib.stmts import CapturedStmt, Stmt
from repro.sourcemgr.location import SourceLocation

if TYPE_CHECKING:
    from repro.astlib.clauses import OMPClause
    from repro.astlib.decls import VarDecl
    from repro.astlib.exprs import DeclRefExpr, Expr
    from repro.sema.canonical_loop import CanonicalLoopAnalysis


class OMPExecutableDirective(Stmt):
    """Base class for directives placeable wherever a statement can appear.

    ``children()`` yields only the associated statement — clauses are a
    different class family and are therefore *not* enumerable through the
    inherited ``children()`` (paper §1.2 footnote); dumps print them via
    dedicated code.
    """

    #: directive name as written after ``#pragma omp``
    directive_name = "<directive>"

    def __init__(
        self,
        clauses: Sequence["OMPClause"] = (),
        associated_stmt: Stmt | None = None,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.clauses = list(clauses)
        self.associated_stmt = associated_stmt

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.associated_stmt,)

    def get_clause(self, clause_type):
        for clause in self.clauses:
            if isinstance(clause, clause_type):
                return clause
        return None

    def has_clause(self, clause_type) -> bool:
        return self.get_clause(clause_type) is not None

    @property
    def captured_stmt(self) -> CapturedStmt | None:
        if isinstance(self.associated_stmt, CapturedStmt):
            return self.associated_stmt
        return None

    def dump_name(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------------------
# Non-loop directives
# ---------------------------------------------------------------------------
class OMPParallelDirective(OMPExecutableDirective):
    directive_name = "parallel"


class OMPBarrierDirective(OMPExecutableDirective):
    directive_name = "barrier"

    def children(self) -> Iterable[Optional[Stmt]]:
        return ()


class OMPMasterDirective(OMPExecutableDirective):
    directive_name = "master"


class OMPSingleDirective(OMPExecutableDirective):
    directive_name = "single"


class OMPCriticalDirective(OMPExecutableDirective):
    directive_name = "critical"

    def __init__(
        self,
        name: str = "",
        clauses: Sequence["OMPClause"] = (),
        associated_stmt: Stmt | None = None,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(clauses, associated_stmt, location)
        self.name = name


# ---------------------------------------------------------------------------
# Shadow-AST helper expression bundles
# ---------------------------------------------------------------------------
@dataclass
class LoopDirectiveHelpers:
    """The loop-nest-level shadow AST of :class:`OMPLoopDirective`.

    Paper §1.2: "``OMPLoopDirective`` has up to 30 shadow AST statements
    for representing a loop nest".  Each field is an expression/statement
    computed by Sema that effectively *is* code generation performed while
    building the AST — e.g. the number of iterations, whether an iteration
    is the last one, how to advance the loop counter, the per-thread
    lower/upper bound bookkeeping of a worksharing loop.
    """

    iteration_variable: Optional["Expr"] = None
    last_iteration: Optional["Expr"] = None
    calc_last_iteration: Optional["Expr"] = None
    precondition: Optional["Expr"] = None
    cond: Optional["Expr"] = None
    init: Optional["Expr"] = None
    inc: Optional["Expr"] = None
    num_iterations: Optional["Expr"] = None
    is_last_iter_variable: Optional["Expr"] = None
    lower_bound_variable: Optional["Expr"] = None
    upper_bound_variable: Optional["Expr"] = None
    stride_variable: Optional["Expr"] = None
    ensure_upper_bound: Optional["Expr"] = None
    next_lower_bound: Optional["Expr"] = None
    next_upper_bound: Optional["Expr"] = None
    prev_lower_bound_variable: Optional["Expr"] = None
    prev_upper_bound_variable: Optional["Expr"] = None
    dist_inc: Optional["Expr"] = None
    prev_ensure_upper_bound: Optional["Expr"] = None
    combined_lower_bound: Optional["Expr"] = None
    combined_upper_bound: Optional["Expr"] = None
    combined_ensure_upper_bound: Optional["Expr"] = None
    combined_init: Optional["Expr"] = None
    combined_cond: Optional["Expr"] = None
    combined_next_lower_bound: Optional["Expr"] = None
    combined_next_upper_bound: Optional["Expr"] = None
    combined_dist_cond: Optional["Expr"] = None
    combined_parallel_for_in_dist_cond: Optional["Expr"] = None
    pre_init: Optional[Stmt] = None
    iter_init: Optional[Stmt] = None

    def populated(self) -> list[Stmt]:
        return [
            getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        ]

    @classmethod
    def capacity(cls) -> int:
        """Number of shadow slots at the loop-nest level (paper: "up to
        30")."""
        return len(fields(cls))


@dataclass
class LoopHelperExprs:
    """Per-associated-loop shadow AST (paper: "plus 6 for each loop")."""

    counter: Optional["Expr"] = None
    private_counter: Optional["Expr"] = None
    counter_init: Optional["Expr"] = None
    counter_update: Optional["Expr"] = None
    counter_final: Optional["Expr"] = None
    dependent_counter: Optional["Expr"] = None
    #: (original decl, per-iteration private decl) pairs CodeGen
    #: redirects when emitting the body; bookkeeping, not a shadow slot
    counter_substitutions: list[tuple["VarDecl", "VarDecl"]] = field(
        default_factory=list, metadata={"slot": False}
    )

    def populated(self) -> list[Stmt]:
        return [
            getattr(self, f.name)
            for f in self._slots()
            if getattr(self, f.name) is not None
        ]

    @classmethod
    def capacity(cls) -> int:
        return len(cls._slots())

    @classmethod
    def _slots(cls):
        return [f for f in fields(cls) if f.metadata.get("slot", True)]


# ---------------------------------------------------------------------------
# Loop-based directives
# ---------------------------------------------------------------------------
class OMPLoopBasedDirective(OMPExecutableDirective):
    """Base class for directives associated with a canonical loop nest.

    Inserted between ``OMPExecutableDirective`` and ``OMPLoopDirective``
    (paper §2.1, Fig. 5) so that loop *transformations* — which only need
    the transformed AST, not the many worksharing shadow nodes — do not pay
    for ``OMPLoopDirective``'s machinery.
    """

    def __init__(
        self,
        clauses: Sequence["OMPClause"] = (),
        associated_stmt: Stmt | None = None,
        num_associated_loops: int = 1,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(clauses, associated_stmt, location)
        self.num_associated_loops = num_associated_loops
        # What Sema hands to CodeGen besides the AST itself.
        #: the canonical-loop analysis of each associated loop: one per
        #: nest level, or one per loop of a ``fuse`` sequence
        self.analyses: list["CanonicalLoopAnalysis"] = []
        #: IRBuilder representation: the ``OMPCanonicalLoop`` wrappers
        #: CodeGen hands to the OpenMPIRBuilder, one per nest level (one
        #: per sibling loop for ``fuse``); None when nothing was wrapped
        self.canonical_loops: list["OMPCanonicalLoop"] | None = None
        #: IRBuilder representation: the inner loop transformation whose
        #: generated loop this directive consumes (paper §4)
        self.consumed_transform: "OMPLoopTransformationDirective | None" = (
            None
        )


class OMPLoopDirective(OMPLoopBasedDirective):
    """Base for loop-associated *worksharing* directives.

    Owns the shadow AST bundles (:class:`LoopDirectiveHelpers` and one
    :class:`LoopHelperExprs` per associated loop).  The shadow nodes are
    **not** part of :meth:`children` and not dumped — the defining property
    of the shadow AST (paper §1.2).
    """

    def __init__(
        self,
        clauses: Sequence["OMPClause"] = (),
        associated_stmt: Stmt | None = None,
        num_associated_loops: int = 1,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(
            clauses, associated_stmt, num_associated_loops, location
        )
        self.helpers = LoopDirectiveHelpers()
        self.loop_helpers: list[LoopHelperExprs] = [
            LoopHelperExprs() for _ in range(num_associated_loops)
        ]

    def shadow_children(self) -> Iterable[Optional[Stmt]]:
        out: list[Stmt] = list(self.helpers.populated())
        for bundle in self.loop_helpers:
            out.extend(bundle.populated())
        return out

    def shadow_node_count(self) -> int:
        return len(list(self.shadow_children()))

    @classmethod
    def shadow_capacity(cls, num_loops: int = 1) -> int:
        """Maximum shadow slots: ~30 plus 6 per loop (paper §1.2)."""
        return (
            LoopDirectiveHelpers.capacity()
            + num_loops * LoopHelperExprs.capacity()
        )


class OMPForDirective(OMPLoopDirective):
    directive_name = "for"


class OMPParallelForDirective(OMPLoopDirective):
    directive_name = "parallel for"


class OMPSimdDirective(OMPLoopDirective):
    directive_name = "simd"


class OMPForSimdDirective(OMPLoopDirective):
    directive_name = "for simd"


class OMPParallelForSimdDirective(OMPLoopDirective):
    directive_name = "parallel for simd"


class OMPTaskloopDirective(OMPLoopDirective):
    directive_name = "taskloop"


# ---------------------------------------------------------------------------
# Loop transformations (OpenMP 5.1; the paper's contribution)
# ---------------------------------------------------------------------------
class OMPLoopTransformationDirective(OMPLoopBasedDirective):
    """Common base of tile/unroll: owns the *transformed AST* (shadow).

    The transformed statement is semantically equivalent code built by Sema
    (:mod:`repro.core.shadow`), stored next to the syntactic AST.  A
    consuming directive calls :meth:`get_transformed_stmt` and re-analyses
    the result as if the programmer had written it (paper §2).

    ``pre_inits`` are declarations that must execute before the generated
    loops (e.g. materialized bounds), kept separate so a consuming
    directive can emit them outside the loop nest it analyses.
    """

    def __init__(
        self,
        clauses: Sequence["OMPClause"] = (),
        associated_stmt: Stmt | None = None,
        num_associated_loops: int = 1,
        transformed_stmt: Stmt | None = None,
        pre_inits: Stmt | None = None,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(
            clauses, associated_stmt, num_associated_loops, location
        )
        self._transformed_stmt = transformed_stmt
        self.pre_inits = pre_inits
        # Clause values Sema evaluated (None where the kind has none).
        #: ``unroll partial``: the factor (None for full or heuristic)
        self.unroll_factor: int | None = None
        #: ``tile``: one size per nest level
        self.tile_sizes: list[int] | None = None
        #: ``interchange``: the new order of the nest levels, 0-based
        self.permutation: list[int] | None = None

    def get_transformed_stmt(self) -> Stmt | None:
        """The semantically equivalent replacement loop (shadow AST).

        ``None`` when no replacement exists/is needed: a full unroll leaves
        no loop to associate with (OpenMP rules), and a directive that is
        not consumed by an outer directive generates code directly
        (paper §2.2).
        """
        return self._transformed_stmt

    def shadow_children(self) -> Iterable[Optional[Stmt]]:
        out = []
        if self.pre_inits is not None:
            out.append(self.pre_inits)
        if self._transformed_stmt is not None:
            out.append(self._transformed_stmt)
        return out

    def shadow_node_count(self) -> int:
        return len(list(self.shadow_children()))


class OMPTileDirective(OMPLoopTransformationDirective):
    directive_name = "tile"


class OMPUnrollDirective(OMPLoopTransformationDirective):
    directive_name = "unroll"


class OMPReverseDirective(OMPLoopTransformationDirective):
    """OpenMP 6.0 ``reverse`` (paper §4: "OpenMP 6.0 is expected to
    introduce additional loop transformations"); implemented here on both
    representations as the extension the paper's abstractions enable."""

    directive_name = "reverse"


class OMPInterchangeDirective(OMPLoopTransformationDirective):
    """OpenMP 6.0 ``interchange`` (loop permutation); see
    :class:`OMPReverseDirective`."""

    directive_name = "interchange"


class OMPFuseDirective(OMPLoopTransformationDirective):
    """OpenMP 6.0 ``fuse``: merges a *sequence* of canonical loops into
    one generated loop — the paper's §4: "The additional loop
    transformation will likely include loop fusion and fission that
    handle sequences of loops in addition to loop nests"."""

    directive_name = "fuse"


# ---------------------------------------------------------------------------
# The canonical loop meta-node (second representation, paper §3.1)
# ---------------------------------------------------------------------------
class OMPCanonicalLoop(Stmt):
    """Wraps a literal loop that satisfies OpenMP's canonical form.

    Acts like an implicit AST node (analogous to an implicit cast): it is
    inserted as the parent of a ``ForStmt``/``CXXForRangeStmt`` whenever
    the loop needs to be "converted" into an OpenMP canonical loop as part
    of a loop-associated directive, and can be losslessly removed again if
    the wrapped loop must be re-analysed.

    Children (paper Listing "Unroll directive using OMPCanonicalLoop"):

    1. ``loop_stmt`` — the wrapped literal loop,
    2. ``distance_func`` — a :class:`CapturedStmt` lambda
       ``[&](size_t &Result) { Result = __end - __begin; }`` evaluating the
       trip count before loop entry,
    3. ``loop_var_func`` — a :class:`CapturedStmt` lambda
       ``[&,__begin](auto &Result, size_t __i) { Result = __begin + __i; }``
       converting a *logical iteration number* into the value of the loop
       user variable,
    4. ``loop_var_ref`` — a ``DeclRefExpr`` naming the user variable that
       must be updated before each iteration.

    That is the complete minimal meta-information set the paper identifies
    — reduced from the ~36 shadow nodes of ``OMPLoopDirective``.
    """

    def __init__(
        self,
        loop_stmt: Stmt,
        distance_func: CapturedStmt,
        loop_var_func: CapturedStmt,
        loop_var_ref: "DeclRefExpr",
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.loop_stmt = loop_stmt
        self.distance_func = distance_func
        self.loop_var_func = loop_var_func
        self.loop_var_ref = loop_var_ref

    def children(self) -> Iterable[Optional[Stmt]]:
        return (
            self.loop_stmt,
            self.distance_func,
            self.loop_var_func,
            self.loop_var_ref,
        )

    def unwrap(self) -> Stmt:
        """Losslessly remove the canonical-loop wrapper (paper §3.1)."""
        return self.loop_stmt

    def meta_node_count(self) -> int:
        """The Sema-resolved meta nodes: distance fn, user-value fn, user
        variable reference (always 3; contrast with
        ``OMPLoopDirective.shadow_capacity()``)."""
        return 3
