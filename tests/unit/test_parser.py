"""Unit tests: the recursive-descent parser (declarations, statements,
expressions, precedence)."""

import pytest

from repro.astlib import exprs as e
from repro.astlib import stmts as s
from repro.astlib.decls import FunctionDecl, TypedefDecl, VarDecl
from repro.astlib.printer import print_ast
from repro.pipeline import CompilationError, compile_source

from tests.conftest import compile_c


def parse(source: str, **kw):
    return compile_c(source, syntax_only=True, **kw)


def first_function_body(source: str, name: str = "f"):
    result = parse(source)
    return result.function(name).body


def expr_of(source_expr: str) -> e.Expr:
    """Parse `int f() { return <expr>; }` and return the expr."""
    body = first_function_body(
        f"int a, b, c; int f(void) {{ return {source_expr}; }}"
    )
    ret = body.statements[0]
    assert isinstance(ret, s.ReturnStmt)
    return ret.value


class TestDeclarations:
    def test_global_variable(self):
        result = parse("int x = 5;")
        decl = result.translation_unit.lookup("x")
        assert isinstance(decl, VarDecl)
        assert decl.is_global

    def test_multiple_declarators(self):
        result = parse("int a = 1, b = 2;")
        assert result.translation_unit.lookup("a") is not None
        assert result.translation_unit.lookup("b") is not None

    def test_pointer_declarator(self):
        result = parse("int *p;")
        decl = result.translation_unit.lookup("p")
        assert decl.type.spelling() == "int *"

    def test_array_declarator(self):
        result = parse("double grid[3][4];")
        decl = result.translation_unit.lookup("grid")
        assert decl.type.spelling() == "double[4][3]" or "[3]" in decl.type.spelling()

    def test_typedef(self):
        result = parse("typedef unsigned long word; word w;")
        w = result.translation_unit.lookup("w")
        assert w.type.spelling() == "word"

    def test_builtin_typedefs_available(self):
        parse("size_t n; ptrdiff_t d; int32_t i; uint64_t u;")

    def test_function_declaration(self):
        result = parse("int add(int a, int b);")
        fn = result.translation_unit.lookup("add")
        assert isinstance(fn, FunctionDecl)
        assert not fn.is_definition
        assert len(fn.params) == 2

    def test_function_definition(self):
        result = parse("int id(int x) { return x; }")
        fn = result.function("id")
        assert fn.is_definition

    def test_void_param_list(self):
        result = parse("int f(void);")
        fn = result.translation_unit.lookup("f")
        assert len(fn.params) == 0

    def test_variadic_function(self):
        from repro.astlib.types import FunctionType, desugar

        result = parse("int log_it(const char *fmt, ...);")
        fn = result.translation_unit.lookup("log_it")
        fnty = desugar(fn.type).type
        assert isinstance(fnty, FunctionType) and fnty.is_variadic

    def test_struct_definition_and_member(self):
        src = """
        struct pair { int first; int second; };
        int f(struct pair p) { return p.first + p.second; }
        """
        body = first_function_body(src)
        assert body is not None

    def test_enum(self):
        src = "enum color { RED, GREEN = 5, BLUE }; int f(void) { return BLUE; }"
        body = first_function_body(src)
        ret = body.statements[0]
        # Enum constants fold to integer literals at reference time.
        assert isinstance(ret.value.ignore_implicit_casts(), e.IntegerLiteral)
        assert ret.value.ignore_implicit_casts().value == 6

    def test_array_param_decays(self):
        result = parse("int f(int data[10]);")
        fn = result.translation_unit.lookup("f")
        assert fn.params[0].type.spelling() == "int *"

    def test_redefinition_error(self):
        with pytest.raises(CompilationError) as err:
            parse("int f(void) { int x; int x; }")
        assert "redefinition of 'x'" in str(err.value)

    def test_undeclared_identifier_error(self):
        with pytest.raises(CompilationError) as err:
            parse("int f(void) { return mystery; }")
        assert "use of undeclared identifier 'mystery'" in str(err.value)


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = expr_of("a + b * c")
        root = expr.ignore_implicit_casts()
        assert isinstance(root, e.BinaryOperator)
        assert root.opcode == e.BinaryOperatorKind.ADD
        rhs = root.rhs.ignore_implicit_casts()
        assert isinstance(rhs, e.BinaryOperator)
        assert rhs.opcode == e.BinaryOperatorKind.MUL

    def test_parens_preserved_in_ast(self):
        expr = expr_of("(a + b) * c")
        root = expr.ignore_implicit_casts()
        assert root.opcode == e.BinaryOperatorKind.MUL
        lhs = root.lhs
        # The ParenExpr survives as a syntactic node (paper §1.2).
        found_paren = False
        node = lhs
        while isinstance(node, (e.ImplicitCastExpr, e.ParenExpr)):
            if isinstance(node, e.ParenExpr):
                found_paren = True
            node = node.sub_expr
        assert found_paren

    def test_assignment_right_associative(self):
        body = first_function_body(
            "int f(void) { int a; int b; a = b = 3; return a; }"
        )
        assign = body.statements[2]
        assert isinstance(assign, e.BinaryOperator)
        assert assign.opcode == e.BinaryOperatorKind.ASSIGN
        inner = assign.rhs.ignore_implicit_casts()
        assert isinstance(inner, e.BinaryOperator)
        assert inner.opcode == e.BinaryOperatorKind.ASSIGN

    def test_conditional_operator(self):
        expr = expr_of("a ? b : c")
        assert isinstance(
            expr.ignore_implicit_casts(), e.ConditionalOperator
        )

    def test_comparison_produces_int(self):
        expr = expr_of("a < b")
        assert expr.type.spelling() == "int"

    def test_logical_operators(self):
        expr = expr_of("a && b || c")
        root = expr.ignore_implicit_casts()
        assert root.opcode == e.BinaryOperatorKind.LOR

    def test_unary_operators(self):
        for text, kind in [
            ("-a", e.UnaryOperatorKind.MINUS),
            ("~a", e.UnaryOperatorKind.NOT),
            ("!a", e.UnaryOperatorKind.LNOT),
        ]:
            expr = expr_of(text)
            node = expr.ignore_implicit_casts()
            assert isinstance(node, e.UnaryOperator)
            assert node.opcode == kind

    def test_sizeof_type_and_expr(self):
        assert expr_of("sizeof(int)").ignore_implicit_casts().trait == "sizeof"
        assert expr_of("sizeof a") is not None

    def test_cast_expression(self):
        expr = expr_of("(long)a")
        node = expr.ignore_implicit_casts()
        assert isinstance(node, e.CStyleCastExpr)
        assert node.type.spelling() == "long"

    def test_call_with_args(self):
        body = first_function_body(
            "int g(int, int); int f(void) { return g(1, 2); }"
        )
        call = body.statements[0].value.ignore_implicit_casts()
        assert isinstance(call, e.CallExpr)
        assert len(call.args) == 2

    def test_postfix_chain(self):
        src = """
        struct S { int arr[4]; };
        int f(struct S *s) { return s->arr[2]; }
        """
        body = first_function_body(src)
        value = body.statements[0].value.ignore_implicit_casts()
        assert isinstance(value, e.ArraySubscriptExpr)

    def test_comma_operator(self):
        expr = expr_of("(a, b)")
        inner = expr.ignore_implicit_casts()
        assert isinstance(inner, e.BinaryOperator)
        assert inner.opcode == e.BinaryOperatorKind.COMMA

    def test_char_literal_value(self):
        expr = expr_of("'A'")
        assert expr.ignore_implicit_casts().value == 65

    def test_hex_literal(self):
        expr = expr_of("0xFF")
        assert expr.ignore_implicit_casts().value == 255

    def test_float_literal_type(self):
        body = first_function_body(
            "double f(void) { return 2.5; }"
        )
        value = body.statements[0].value
        assert value.ignore_implicit_casts().type.spelling() == "double"


class TestStatements:
    def test_if_else(self):
        body = first_function_body(
            "int f(int x) { if (x) return 1; else return 2; }",
        )
        stmt = body.statements[0]
        assert isinstance(stmt, s.IfStmt)
        assert stmt.else_stmt is not None

    def test_while(self):
        body = first_function_body(
            "void f(int x) { while (x) x -= 1; }"
        )
        assert isinstance(body.statements[0], s.WhileStmt)

    def test_do_while(self):
        body = first_function_body(
            "void f(int x) { do x -= 1; while (x); }"
        )
        assert isinstance(body.statements[0], s.DoStmt)

    def test_for_all_parts(self):
        body = first_function_body(
            "void f(void) { for (int i = 0; i < 4; i += 1) ; }"
        )
        loop = body.statements[0]
        assert isinstance(loop, s.ForStmt)
        assert loop.init is not None
        assert loop.cond is not None
        assert loop.inc is not None

    def test_for_empty_parts(self):
        body = first_function_body("void f(void) { for (;;) break; }")
        loop = body.statements[0]
        assert loop.init is None and loop.cond is None and loop.inc is None

    def test_break_outside_loop_error(self):
        with pytest.raises(CompilationError) as err:
            parse("void f(void) { break; }")
        assert "'break'" in str(err.value)

    def test_continue_outside_loop_error(self):
        with pytest.raises(CompilationError):
            parse("void f(void) { continue; }")

    def test_switch(self):
        src = """
        int f(int x) {
          switch (x) {
            case 1: return 10;
            case 2: return 20;
            default: return 0;
          }
        }
        """
        body = first_function_body(src)
        assert isinstance(body.statements[0], s.SwitchStmt)

    def test_range_for_parses_to_cxxforrange(self):
        src = "void f(void) { int data[4]; for (int x : data) ; }"
        body = first_function_body(src)
        loop = body.statements[1]
        assert isinstance(loop, s.CXXForRangeStmt)

    def test_range_for_reference_variable(self):
        src = "void f(void) { int data[4]; for (int &x : data) ; }"
        body = first_function_body(src)
        loop = body.statements[1]
        assert loop.loop_variable.type.spelling() == "int &"

    def test_nested_scopes_shadowing(self):
        src = "int f(void) { int x = 1; { int x = 2; } return x; }"
        parse(src)  # no redefinition error

    def test_return_type_mismatch_converts(self):
        src = "double f(void) { return 1; }"
        body = first_function_body(src)
        value = body.statements[0].value
        assert value.type.spelling() == "double"

    def test_void_return_with_value_errors(self):
        with pytest.raises(CompilationError):
            parse("void f(void) { return 1; }")


class TestLoopHintPlacement:
    """``#pragma clang loop`` must precede a loop, as in clang; before,
    a hint over anything else landed on the next loop CodeGen emitted."""

    ERROR = (
        "expected a for, while, or do-while loop to follow "
        "'#pragma clang loop'"
    )

    @pytest.mark.parametrize("irbuilder", [False, True])
    @pytest.mark.parametrize(
        "stmt",
        [
            "#pragma omp simd\n  for (int i = 0; i < 4; i += 1) s += i;",
            "s = 3;",
        ],
        ids=["omp-loop-directive", "expression"],
    )
    def test_hint_before_a_non_loop_is_an_error(self, stmt, irbuilder):
        src = f"""
        int main(void) {{
          int s = 0;
          #pragma clang loop unroll_count(2)
          {stmt}
          for (int j = 0; j < 4; j += 1) s += j;
          return s;
        }}
        """
        with pytest.raises(CompilationError) as err:
            compile_source(src, enable_irbuilder=irbuilder)
        assert self.ERROR in str(err.value)

    @pytest.mark.parametrize(
        "loop",
        [
            "for (int j = 0; j < 4; j += 1) s += j;",
            "while (s < 9) s += 2;",
            "do s += 1; while (s < 5);",
            "for (int v : data) s += v;",
        ],
        ids=["for", "while", "do", "range-for"],
    )
    def test_stacked_hints_before_a_loop_are_accepted(self, loop):
        src = f"""
        int main(void) {{
          int s = 0;
          int data[3];
          #pragma clang loop unroll(enable)
          #pragma clang loop unroll_count(2)
          {loop}
          return s;
        }}
        """
        assert "llvm.loop.unroll.count" in compile_source(src).ir_text()


class TestPrinterRoundTrip:
    """The pretty-printer output re-parses to an equivalent AST."""

    @pytest.mark.parametrize(
        "src",
        [
            "int f(int x) { return x * 2 + 1; }",
            "int f(int x) { if (x > 0) return 1; else return -1; }",
            "int f(void) { int s = 0; for (int i = 0; i < 9; i += 2) s += i; return s; }",
            "int f(int x) { while (x > 10) x /= 2; return x; }",
        ],
    )
    def test_roundtrip(self, src):
        result = parse(src)
        printed = print_ast(result.function("f"))
        reparsed = parse(printed)
        assert reparsed.function("f").is_definition
