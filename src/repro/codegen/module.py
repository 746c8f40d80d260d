"""CodeGenModule: translation-unit level IR generation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.astlib import exprs as e
from repro.astlib import types as ast_ty
from repro.astlib.context import ASTContext
from repro.astlib.decls import FunctionDecl, TranslationUnitDecl, VarDecl
from repro.codegen.types import TypeLowering
from repro.core.crash_recovery import (
    format_location,
    pretty_stack_entry,
    recovery_scope,
)
from repro.diagnostics import DiagnosticsEngine
from repro.instrument.faultinject import FAULTS
from repro.ir import (
    ConstantFP,
    ConstantInt,
    Function,
    GlobalVariable,
    Module,
)
from repro.instrument import get_statistic, time_trace_scope
from repro.ir import types as ir_ty
from repro.ompirbuilder import OpenMPIRBuilder
from repro.sema.expr_eval import IntExprEvaluator

_FUNCTIONS_EMITTED = get_statistic(
    "codegen", "functions-emitted", "Function bodies lowered to IR"
)
_INSTRUCTIONS_EMITTED = get_statistic(
    "codegen",
    "instructions-emitted",
    "IR instructions present after function emission",
)


@dataclass
class CodeGenOptions:
    """Code-generation configuration (driver flags)."""

    #: clang's -fopenmp-enable-irbuilder: use the OpenMPIRBuilder /
    #: OMPCanonicalLoop path instead of the shadow-AST path (paper §3)
    enable_irbuilder: bool = False
    #: emit llvm.loop metadata for loop hints (always on in clang)
    emit_loop_metadata: bool = True
    module_name: str = "module"


class CodeGenModule:
    def __init__(
        self,
        ast_ctx: ASTContext,
        diags: DiagnosticsEngine,
        options: CodeGenOptions | None = None,
    ) -> None:
        self.ast_ctx = ast_ctx
        self.diags = diags
        self.options = options or CodeGenOptions()
        self.module = Module(self.options.module_name)
        self.types = TypeLowering(ast_ctx)
        self.ompbuilder = OpenMPIRBuilder(
            self.module, remarks=diags.remarks
        )
        self.evaluator = IntExprEvaluator(ast_ctx)
        self._functions: dict[int, Function] = {}
        self._globals: dict[int, GlobalVariable] = {}
        self._strings: dict[str, GlobalVariable] = {}
        self._outline_counter = 0

    # ------------------------------------------------------------------
    def emit_translation_unit(
        self, tu: TranslationUnitDecl
    ) -> Module:
        with time_trace_scope("CodeGen", self.options.module_name):
            for decl in tu.declarations:
                if isinstance(decl, VarDecl):
                    self.get_global(decl)
            for decl in tu.declarations:
                if isinstance(decl, FunctionDecl):
                    self.get_function(decl)
            for decl in tu.declarations:
                if isinstance(decl, FunctionDecl) and decl.is_definition:
                    from repro.codegen.function import CodeGenFunction

                    loc_text = format_location(
                        self.diags.source_manager, decl.location
                    )
                    # Per-function crash recovery: one crashing body
                    # costs one ICE diagnostic, the other functions of
                    # the TU still lower.
                    with recovery_scope(
                        "codegen-function",
                        self.diags,
                        recover=True,
                        location=decl.location,
                    ), pretty_stack_entry(
                        f"emitting IR for function '{decl.name}' "
                        f"at {loc_text}"
                    ), time_trace_scope(
                        "CodeGen.Function", decl.name
                    ):
                        if FAULTS.armed:
                            FAULTS.hit("codegen-function")
                        CodeGenFunction(self).emit_function(decl)
                    _FUNCTIONS_EMITTED.inc()
        _INSTRUCTIONS_EMITTED.inc(
            sum(
                len(block.instructions)
                for fn in self.module.functions.values()
                for block in fn.blocks
            )
        )
        return self.module

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------
    def get_function(self, decl: FunctionDecl) -> Function:
        fn = self._functions.get(id(decl))
        if fn is None:
            fn_type = self.types.lower_function(
                ast_ty.desugar(decl.type).type  # type: ignore[arg-type]
            )
            fn = self.module.add_function(decl.name, fn_type)
            for arg, param in zip(fn.args, decl.params):
                arg.name = param.name
            self._functions[id(decl)] = fn
        return fn

    def next_outlined_name(self, base: str) -> str:
        self._outline_counter += 1
        return f"{base}.omp_outlined.{self._outline_counter}"

    # ------------------------------------------------------------------
    # Globals
    # ------------------------------------------------------------------
    def get_global(self, decl: VarDecl) -> GlobalVariable:
        gv = self._globals.get(id(decl))
        if gv is not None:
            return gv
        value_type = self.types.lower(decl.type)
        gv = self.module.add_global(
            self.module.unique_global_name(decl.name),
            value_type,
            is_constant=decl.type.is_const,
        )
        self._globals[id(decl)] = gv
        if decl.init is not None:
            self._emit_global_initializer(gv, decl, value_type)
        return gv

    def _emit_global_initializer(
        self,
        gv: GlobalVariable,
        decl: VarDecl,
        value_type: ir_ty.IRType,
    ) -> None:
        init = decl.init
        assert init is not None
        if isinstance(init, e.InitListExpr) and isinstance(
            value_type, ir_ty.ArrayType
        ):
            elem = value_type.element
            payload = bytearray(value_type.size_bytes())
            import struct as _s

            for i, item in enumerate(init.inits[: value_type.count]):
                value = self._constant_scalar(item)
                offset = i * elem.size_bytes()
                payload[offset : offset + elem.size_bytes()] = (
                    self._pack_scalar(elem, value)
                )
            gv.initializer_bytes = bytes(payload)
            return
        value = self._constant_scalar(init)
        if isinstance(value_type, ir_ty.IntType):
            gv.initializer = ConstantInt(value_type, int(value))
        elif isinstance(value_type, ir_ty.FloatType):
            gv.initializer = ConstantFP(value_type, float(value))
        else:
            self.diags.warning(
                f"unsupported global initializer for '{decl.name}'; "
                "zero-initializing",
                decl.location,
            )

    def _constant_scalar(self, expr: e.Expr):
        stripped = expr.ignore_implicit_casts()
        if isinstance(stripped, e.FloatingLiteral):
            return stripped.value
        if isinstance(
            expr, e.ImplicitCastExpr
        ) and expr.cast_kind == e.CastKind.INTEGRAL_TO_FLOATING:
            inner = self.evaluator.try_evaluate(expr.sub_expr)
            if inner is not None:
                return float(inner)
        folded = self.evaluator.try_evaluate(expr)
        if folded is not None:
            return folded
        if isinstance(stripped, e.UnaryOperator) and isinstance(
            stripped.sub_expr.ignore_implicit_casts(),
            e.FloatingLiteral,
        ):
            inner_value = stripped.sub_expr.ignore_implicit_casts().value
            if stripped.opcode == e.UnaryOperatorKind.MINUS:
                return -inner_value
            return inner_value
        self.diags.error(
            "initializer element is not a compile-time constant",
            expr.location,
        )
        return 0

    @staticmethod
    def _pack_scalar(ty: ir_ty.IRType, value) -> bytes:
        import struct as _s

        if isinstance(ty, ir_ty.IntType):
            return int(value).to_bytes(
                ty.size_bytes(), "little", signed=False
            ) if value >= 0 else (
                (value + (1 << (8 * ty.size_bytes()))).to_bytes(
                    ty.size_bytes(), "little", signed=False
                )
            )
        if isinstance(ty, ir_ty.FloatType):
            return _s.pack("<f" if ty.bits == 32 else "<d", float(value))
        raise NotImplementedError(str(ty))

    # ------------------------------------------------------------------
    # String literals
    # ------------------------------------------------------------------
    def get_string_literal(self, text: str) -> GlobalVariable:
        gv = self._strings.get(text)
        if gv is None:
            # Sema holds a literal as one char per byte (a \u escape
            # past 0xff has no byte, so it prints as "?")
            payload = text.encode("latin-1", "replace") + b"\x00"
            name = self.module.unique_global_name(".str")
            gv = self.module.add_global(
                name,
                ir_ty.ArrayType(ir_ty.i8, len(payload)),
                is_constant=True,
            )
            gv.initializer_bytes = payload
            self._strings[text] = gv
        return gv
