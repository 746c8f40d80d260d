"""The Expr hierarchy.

``Expr`` derives from ``Stmt`` (an expression can be used as a statement
with its result ignored — paper §1.2), carries a :class:`QualType` and a
value category.  Implicit conversions materialize as ``ImplicitCastExpr``
nodes inserted by Sema, keeping syntax and semantics in one tree.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.astlib.stmts import Stmt
from repro.astlib.types import QualType
from repro.sourcemgr.location import SourceLocation

if TYPE_CHECKING:
    from repro.astlib.decls import FieldDecl, ValueDecl


class ValueCategory(enum.Enum):
    __hash__ = object.__hash__  # a hot dictionary key

    LVALUE = "lvalue"
    RVALUE = "rvalue"  # C's rvalue == C++ prvalue; sufficient for MiniC


class Expr(Stmt):
    def __init__(
        self,
        type: QualType,
        value_category: ValueCategory = ValueCategory.RVALUE,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(location)
        self.type = type
        self.value_category = value_category

    @property
    def is_lvalue(self) -> bool:
        return self.value_category == ValueCategory.LVALUE

    def ignore_parens(self) -> "Expr":
        expr = self
        while isinstance(expr, ParenExpr):
            expr = expr.sub_expr
        return expr

    def ignore_implicit_casts(self) -> "Expr":
        expr = self
        while True:
            if isinstance(expr, ParenExpr):
                expr = expr.sub_expr
            elif isinstance(expr, ImplicitCastExpr):
                expr = expr.sub_expr
            elif isinstance(expr, ConstantExpr):
                expr = expr.sub_expr
            else:
                return expr


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------
class IntegerLiteral(Expr):
    def __init__(
        self,
        value: int,
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, ValueCategory.RVALUE, location)
        self.value = value


class FloatingLiteral(Expr):
    def __init__(
        self,
        value: float,
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, ValueCategory.RVALUE, location)
        self.value = value


class CharacterLiteral(Expr):
    def __init__(
        self,
        value: int,
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, ValueCategory.RVALUE, location)
        self.value = value


class BoolLiteralExpr(Expr):
    def __init__(
        self,
        value: bool,
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, ValueCategory.RVALUE, location)
        self.value = value


class StringLiteral(Expr):
    def __init__(
        self,
        value: str,
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        # String literals are lvalues in C (they designate the array).
        super().__init__(type, ValueCategory.LVALUE, location)
        self.value = value


# ---------------------------------------------------------------------------
# References and grouping
# ---------------------------------------------------------------------------
class DeclRefExpr(Expr):
    def __init__(
        self,
        decl: "ValueDecl",
        type: QualType,
        value_category: ValueCategory = ValueCategory.LVALUE,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, value_category, location)
        self.decl = decl
        decl.is_referenced = True


class ParenExpr(Expr):
    """Syntactic-only node: keeps user-written parentheses in the tree."""

    def __init__(
        self, sub_expr: Expr, location: SourceLocation | None = None
    ) -> None:
        super().__init__(sub_expr.type, sub_expr.value_category, location)
        self.sub_expr = sub_expr

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.sub_expr,)


class OpaqueValueExpr(Expr):
    """A placeholder for an already-evaluated value (clang uses these in
    the OMPLoopDirective shadow AST to refer to values computed once)."""

    def __init__(
        self,
        source_expr: Expr | None,
        type: QualType,
        value_category: ValueCategory = ValueCategory.RVALUE,
    ) -> None:
        super().__init__(type, value_category)
        self.source_expr = source_expr

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.source_expr,)


class RecoveryExpr(Expr):
    """Error-recovery placeholder (clang's ``RecoveryExpr``).

    Stands in for an expression Sema could not analyse, preserving any
    well-formed subexpressions so the parser can keep going and later
    analysis stays quiet about operands that already carry an error —
    one bad construct yields one diagnostic, not a cascade.  Never
    reaches CodeGen: any compilation that built one has at least one
    error diagnostic and stops before IR emission.
    """

    def __init__(
        self,
        subexprs: Sequence[Expr],
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, ValueCategory.RVALUE, location)
        self.subexprs = list(subexprs)

    def children(self) -> Iterable[Optional[Stmt]]:
        return tuple(self.subexprs)


def contains_errors(*exprs: Optional[Expr]) -> bool:
    """Does any operand (modulo parens/implicit casts) already carry an
    error?  Sema uses this to suppress cascading diagnostics."""
    return any(
        isinstance(expr.ignore_implicit_casts(), RecoveryExpr)
        for expr in exprs
        if expr is not None
    )


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------
class UnaryOperatorKind(enum.Enum):
    __hash__ = object.__hash__  # a hot dictionary key

    POST_INC = "++ (post)"
    POST_DEC = "-- (post)"
    PRE_INC = "++"
    PRE_DEC = "--"
    ADDR_OF = "&"
    DEREF = "*"
    PLUS = "+"
    MINUS = "-"
    NOT = "~"
    LNOT = "!"

    def is_increment_decrement(self) -> bool:
        return self in (
            UnaryOperatorKind.POST_INC,
            UnaryOperatorKind.POST_DEC,
            UnaryOperatorKind.PRE_INC,
            UnaryOperatorKind.PRE_DEC,
        )

    def is_increment(self) -> bool:
        return self in (UnaryOperatorKind.POST_INC, UnaryOperatorKind.PRE_INC)

    def is_prefix(self) -> bool:
        return self not in (
            UnaryOperatorKind.POST_INC,
            UnaryOperatorKind.POST_DEC,
        )


class UnaryOperator(Expr):
    def __init__(
        self,
        opcode: UnaryOperatorKind,
        sub_expr: Expr,
        type: QualType,
        value_category: ValueCategory = ValueCategory.RVALUE,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, value_category, location)
        self.opcode = opcode
        self.sub_expr = sub_expr

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.sub_expr,)


class BinaryOperatorKind(enum.Enum):
    __hash__ = object.__hash__  # a hot dictionary key

    MUL = "*"
    DIV = "/"
    REM = "%"
    ADD = "+"
    SUB = "-"
    SHL = "<<"
    SHR = ">>"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    AND = "&"
    XOR = "^"
    OR = "|"
    LAND = "&&"
    LOR = "||"
    ASSIGN = "="
    MUL_ASSIGN = "*="
    DIV_ASSIGN = "/="
    REM_ASSIGN = "%="
    ADD_ASSIGN = "+="
    SUB_ASSIGN = "-="
    SHL_ASSIGN = "<<="
    SHR_ASSIGN = ">>="
    AND_ASSIGN = "&="
    XOR_ASSIGN = "^="
    OR_ASSIGN = "|="
    COMMA = ","

    def is_assignment(self) -> bool:
        return self in _ASSIGN_OPS

    def is_compound_assignment(self) -> bool:
        return self.is_assignment() and self != BinaryOperatorKind.ASSIGN

    def is_comparison(self) -> bool:
        return self in (
            BinaryOperatorKind.LT,
            BinaryOperatorKind.GT,
            BinaryOperatorKind.LE,
            BinaryOperatorKind.GE,
            BinaryOperatorKind.EQ,
            BinaryOperatorKind.NE,
        )

    def is_relational(self) -> bool:
        return self in (
            BinaryOperatorKind.LT,
            BinaryOperatorKind.GT,
            BinaryOperatorKind.LE,
            BinaryOperatorKind.GE,
        )

    def underlying_compound_op(self) -> "BinaryOperatorKind":
        """``+=`` -> ``+`` etc."""
        assert self.is_compound_assignment()
        return BinaryOperatorKind(self.value[:-1])


_ASSIGN_OPS = frozenset(
    op for op in BinaryOperatorKind if op.value.endswith("=")
    and op not in (
        BinaryOperatorKind.LE,
        BinaryOperatorKind.GE,
        BinaryOperatorKind.EQ,
        BinaryOperatorKind.NE,
    )
)


class BinaryOperator(Expr):
    def __init__(
        self,
        opcode: BinaryOperatorKind,
        lhs: Expr,
        rhs: Expr,
        type: QualType,
        value_category: ValueCategory = ValueCategory.RVALUE,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, value_category, location)
        self.opcode = opcode
        self.lhs = lhs
        self.rhs = rhs

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.lhs, self.rhs)


class CompoundAssignOperator(BinaryOperator):
    """``+=`` etc.; keeps the computation type separately (as clang does)
    because the arithmetic may happen in a promoted type."""

    def __init__(
        self,
        opcode: BinaryOperatorKind,
        lhs: Expr,
        rhs: Expr,
        type: QualType,
        computation_type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(
            opcode, lhs, rhs, type, ValueCategory.RVALUE, location
        )
        self.computation_type = computation_type


class ConditionalOperator(Expr):
    def __init__(
        self,
        cond: Expr,
        true_expr: Expr,
        false_expr: Expr,
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, ValueCategory.RVALUE, location)
        self.cond = cond
        self.true_expr = true_expr
        self.false_expr = false_expr

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.cond, self.true_expr, self.false_expr)


# ---------------------------------------------------------------------------
# Postfix expressions
# ---------------------------------------------------------------------------
class ArraySubscriptExpr(Expr):
    def __init__(
        self,
        base: Expr,
        index: Expr,
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, ValueCategory.LVALUE, location)
        self.base = base
        self.index = index

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.base, self.index)


class CallExpr(Expr):
    def __init__(
        self,
        callee: Expr,
        args: Sequence[Expr],
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, ValueCategory.RVALUE, location)
        self.callee = callee
        self.args = list(args)

    def callee_decl(self):
        """The FunctionDecl being called, or None for indirect calls."""
        from repro.astlib.decls import FunctionDecl

        callee = self.callee.ignore_implicit_casts()
        if isinstance(callee, DeclRefExpr) and isinstance(
            callee.decl, FunctionDecl
        ):
            return callee.decl
        return None

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.callee, *self.args)


class MemberExpr(Expr):
    def __init__(
        self,
        base: Expr,
        member: "FieldDecl",
        is_arrow: bool,
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, ValueCategory.LVALUE, location)
        self.base = base
        self.member = member
        self.is_arrow = is_arrow

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.base,)


# ---------------------------------------------------------------------------
# Casts
# ---------------------------------------------------------------------------
class CastKind(enum.Enum):
    __hash__ = object.__hash__  # a hot dictionary key

    LVALUE_TO_RVALUE = "LValueToRValue"
    INTEGRAL_CAST = "IntegralCast"
    INTEGRAL_TO_FLOATING = "IntegralToFloating"
    FLOATING_TO_INTEGRAL = "FloatingToIntegral"
    FLOATING_CAST = "FloatingCast"
    INTEGRAL_TO_BOOLEAN = "IntegralToBoolean"
    FLOATING_TO_BOOLEAN = "FloatingToBoolean"
    POINTER_TO_BOOLEAN = "PointerToBoolean"
    ARRAY_TO_POINTER_DECAY = "ArrayToPointerDecay"
    FUNCTION_TO_POINTER_DECAY = "FunctionToPointerDecay"
    NULL_TO_POINTER = "NullToPointer"
    BITCAST = "BitCast"
    NOOP = "NoOp"
    TO_VOID = "ToVoid"


class CastExpr(Expr):
    def __init__(
        self,
        kind: CastKind,
        sub_expr: Expr,
        type: QualType,
        value_category: ValueCategory = ValueCategory.RVALUE,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, value_category, location)
        self.cast_kind = kind
        self.sub_expr = sub_expr

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.sub_expr,)


class ImplicitCastExpr(CastExpr):
    """Semantic-only node inserted by Sema."""


class CStyleCastExpr(CastExpr):
    """A user-written ``(T)expr``."""


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------
class UnaryExprOrTypeTraitExpr(Expr):
    """``sizeof`` (the only trait MiniC needs)."""

    def __init__(
        self,
        trait: str,
        argument_type: QualType | None,
        argument_expr: Expr | None,
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, ValueCategory.RVALUE, location)
        self.trait = trait
        self.argument_type = argument_type
        self.argument_expr = argument_expr

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.argument_expr,)


class InitListExpr(Expr):
    def __init__(
        self,
        inits: Sequence[Expr],
        type: QualType,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(type, ValueCategory.RVALUE, location)
        self.inits = list(inits)

    def children(self) -> Iterable[Optional[Stmt]]:
        return tuple(self.inits)


class ConstantExpr(Expr):
    """An expression required to be a constant, with its computed value
    cached (clang's ``ConstantExpr``; see the paper's AST dump of
    ``partial(2)`` where the clause argument is a ConstantExpr with
    ``value: Int 2``)."""

    def __init__(
        self,
        sub_expr: Expr,
        value: int,
        location: SourceLocation | None = None,
    ) -> None:
        super().__init__(sub_expr.type, sub_expr.value_category, location)
        self.sub_expr = sub_expr
        self.value = value

    def children(self) -> Iterable[Optional[Stmt]]:
        return (self.sub_expr,)
