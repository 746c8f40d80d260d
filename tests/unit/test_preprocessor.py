"""Unit tests: preprocessor — macros, conditionals, includes, pragmas."""

import pytest

from repro.diagnostics import DiagnosticsEngine, Severity
from repro.lex.lexer import tokenize_string
from repro.lex.tokens import TokenKind
from repro.preprocessor import Preprocessor, PreprocessorOptions
from repro.sourcemgr import FileManager, SourceManager

K = TokenKind


def preprocess(
    source: str,
    defines: dict | None = None,
    files: dict | None = None,
    openmp: bool = True,
    strip_omp_transforms: bool = False,
):
    sm = SourceManager()
    fm = FileManager()
    for name, text in (files or {}).items():
        fm.register_virtual_file(name, text)
    diags = DiagnosticsEngine(sm)
    pp = Preprocessor(
        sm,
        fm,
        diags,
        PreprocessorOptions(
            defines=defines or {},
            openmp=openmp,
            strip_omp_transforms=strip_omp_transforms,
        ),
    )
    pp.enter_source(source, "test.c")
    tokens = pp.lex_all()
    return tokens, diags


def spellings(source: str, **kw) -> list[str]:
    tokens, diags = preprocess(source, **kw)
    assert not diags.has_errors(), diags.render_all()
    return [t.spelling for t in tokens if t.kind != K.EOF]


def gcc_spellings(text: str) -> list[str]:
    """The tokens of *text*, a line of ``gcc -E -P`` output."""
    return [t.spelling for t in tokenize_string(text) if t.kind != K.EOF]


def pragma_body(source: str, **kw) -> list[str]:
    tokens, diags = preprocess(source, **kw)
    assert not diags.has_errors(), diags.render_all()
    annot = next(t for t in tokens if t.kind == K.ANNOT_PRAGMA_OPENMP)
    return [t.spelling for t in annot.annotation_value]


class TestObjectMacros:
    def test_simple_expansion(self):
        assert spellings("#define N 10\nN") == ["10"]

    def test_nested_expansion(self):
        assert spellings("#define A B\n#define B 42\nA") == ["42"]

    def test_self_reference_not_infinite(self):
        assert spellings("#define X X\nX") == ["X"]

    def test_mutual_recursion_guarded(self):
        out = spellings("#define A B\n#define B A\nA")
        assert out == ["A"]

    def test_undef(self):
        assert spellings("#define N 1\n#undef N\nN") == ["N"]

    def test_redefinition_warns(self):
        _, diags = preprocess("#define N 1\n#define N 2\n")
        assert diags.warning_count == 1

    def test_identical_redefinition_no_warning(self):
        _, diags = preprocess("#define N 1\n#define N 1\n")
        assert diags.warning_count == 0

    def test_predefined_openmp_macro(self):
        out = spellings("_OPENMP")
        assert out == ["202011"]

    def test_no_openmp_macro_without_fopenmp(self):
        out = spellings("_OPENMP", openmp=False)
        assert out == ["_OPENMP"]


class TestFunctionMacros:
    def test_basic(self):
        assert spellings("#define SQ(x) ((x)*(x))\nSQ(4)") == list(
            "((4)*(4))"
        )

    def test_multi_arg(self):
        assert spellings(
            "#define ADD(a, b) a + b\nADD(1, 2)"
        ) == ["1", "+", "2"]

    def test_nested_call_args(self):
        out = spellings(
            "#define F(x) x\n#define G(x) F(x)\nG(F(7))"
        )
        assert out == ["7"]

    def test_name_without_parens_not_expanded(self):
        out = spellings("#define F(x) x\nint F;")
        assert out == ["int", "F", ";"]

    def test_stringify(self):
        out = spellings('#define STR(x) #x\nSTR(a + b)')
        assert out == ['"a + b"']

    def test_paste(self):
        out = spellings("#define CAT(a, b) a##b\nCAT(foo, bar)")
        assert out == ["foobar"]

    def test_variadic(self):
        out = spellings(
            "#define CALL(f, ...) f(__VA_ARGS__)\nCALL(g, 1, 2)"
        )
        assert out == ["g", "(", "1", ",", "2", ")"]

    def test_wrong_arity_errors(self):
        _, diags = preprocess("#define F(a, b) a\nF(1)\n")
        assert diags.has_errors()

    def test_args_with_parens(self):
        out = spellings("#define ID(x) x\nID((1, 2))")
        assert out == ["(", "1", ",", "2", ")"]


#: source -> its ``gcc -E -P`` output, recorded from GCC 12.2
GCC_EXPANSIONS = {
    # a function-like name at the end of an expansion takes its
    # arguments from the tokens that follow (C11 6.10.3.4p1)
    "#define f(x) ((x) + 1)\n#define g f\ng(2)": "((2) + 1)",
    "#define APPLY(m) m\n#define f(x) ((x) * 2)\nAPPLY(f)(4)": "((4) * 2)",
    "#define CALL(m, v) m(v)\n#define f(x) ((x) * 2)\nCALL(f, 3)": (
        "((3) * 2)"
    ),
    "#define f(a) a*g\n#define g(a) f(a)\nf(2)(9)": "2*9*g",
    # an argument is expanded in isolation: `f` is not an invocation
    # until the expansion is rescanned with the `(4)` that follows it
    "#define ID(x) x\n#define f(x) [x]\nID(f)(4) ID(f)": "[4] f",
    # mutual recursion stops at the name already being expanded
    "#define a(x) b(x)\n#define b(x) a(x)\na(1) b(2)": "a(1) b(2)",
    # an expanded argument keeps its spacing
    "#define AB a  b\n#define STR(x) #x\n#define XSTR(x) STR(x)\n"
    "XSTR(AB)": '"a b"',
    # C11 6.10.3.5 EXAMPLE 3
    "#define x 3\n#define f(a) f(x * (a))\n#undef x\n#define x 2\n"
    "#define g f\n#define z z[0]\n#define h g(~\n#define m(a) a(w)\n"
    "#define w 0,1\n#define t(a) a\n"
    "f(y+1) + f(f(z)) % t(t(g)(0) + t)(1);\n"
    "g(x+(3,4)-w) | h 5) & m\n(f)^m(m);": (
        "f(2 * (y+1)) + f(2 * (f(2 * (z[0])))) % f(2 * (0)) + t(1); "
        "f(2 * (2+(3,4)-0,1)) | f(2 * (~ 5)) & f(2 * (0,1))^m(0,1);"
    ),
    "#define F(x) ((x) > 0)\n#if F(1)\nyes\n#else\nno\n#endif": "yes",
}


class TestRescan:
    @pytest.mark.parametrize(
        "source", list(GCC_EXPANSIONS), ids=range(len(GCC_EXPANSIONS))
    )
    def test_expansion_matches_gcc(self, source):
        assert spellings(source) == gcc_spellings(GCC_EXPANSIONS[source])

    def test_arity_error_in_a_rescan_is_reported(self):
        _, diags = preprocess(
            "#define f(x, y) ((x) + (y))\n#define g f(1)\ng\n"
        )
        assert diags.error_count == 1
        assert "macro 'f' expects 2 argument(s), got 1" in (
            diags.render_all()
        )

    def test_empty_command_line_define(self):
        assert spellings("int x = 5 X;", defines={"X": ""}) == [
            "int", "x", "=", "5", ";",
        ]


class TestConditionals:
    def test_if_true(self):
        assert spellings("#if 1\nyes\n#endif") == ["yes"]

    def test_if_false(self):
        assert spellings("#if 0\nno\n#endif") == []

    def test_else(self):
        assert spellings("#if 0\nno\n#else\nyes\n#endif") == ["yes"]

    def test_elif_chain(self):
        src = "#if 0\na\n#elif 1\nb\n#elif 1\nc\n#else\nd\n#endif"
        assert spellings(src) == ["b"]

    def test_nested_conditionals(self):
        src = (
            "#if 1\n#if 0\nskip\n#else\nkeep\n#endif\n#endif"
        )
        assert spellings(src) == ["keep"]

    def test_nested_skipped_entirely(self):
        src = "#if 0\n#if 1\nx\n#endif\n#endif\ny"
        assert spellings(src) == ["y"]

    def test_ifdef(self):
        assert spellings("#define X 1\n#ifdef X\nin\n#endif") == ["in"]

    def test_ifndef(self):
        assert spellings("#ifndef X\nout\n#endif") == ["out"]

    def test_defined_operator(self):
        src = "#define X 1\n#if defined(X) && !defined(Y)\nok\n#endif"
        assert spellings(src) == ["ok"]

    def test_arithmetic_in_condition(self):
        assert spellings("#if 2 * 3 == 6\ny\n#endif") == ["y"]

    def test_macro_in_condition(self):
        assert spellings("#define V 5\n#if V > 4\nbig\n#endif") == [
            "big"
        ]

    def test_unterminated_conditional_errors(self):
        _, diags = preprocess("#if 1\nx\n")
        assert diags.has_errors()

    def test_endif_without_if_errors(self):
        _, diags = preprocess("#endif\n")
        assert diags.has_errors()


class TestIncludes:
    def test_quoted_include(self):
        out = spellings(
            '#include "lib.h"\nmain_token',
            files={"lib.h": "lib_token"},
        )
        assert out == ["lib_token", "main_token"]

    def test_include_defines_visible(self):
        out = spellings(
            '#include "defs.h"\nWIDTH',
            files={"defs.h": "#define WIDTH 640"},
        )
        assert out == ["640"]

    def test_nested_include(self):
        out = spellings(
            '#include "a.h"\nend',
            files={"a.h": '#include "b.h"\na', "b.h": "b"},
        )
        assert out == ["b", "a", "end"]

    def test_missing_include_is_fatal(self):
        from repro.diagnostics import FatalErrorOccurred

        sm = SourceManager()
        fm = FileManager()
        diags = DiagnosticsEngine(sm)
        pp = Preprocessor(sm, fm, diags, PreprocessorOptions())
        pp.enter_source('#include "nope.h"\n', "t.c")
        with pytest.raises(FatalErrorOccurred):
            pp.lex_all()


class TestPragmas:
    def test_omp_pragma_becomes_annotation(self):
        tokens, diags = preprocess(
            "#pragma omp parallel for\nx;"
        )
        kinds = [t.kind for t in tokens]
        assert K.ANNOT_PRAGMA_OPENMP in kinds
        assert K.ANNOT_PRAGMA_OPENMP_END in kinds
        annot = next(
            t for t in tokens if t.kind == K.ANNOT_PRAGMA_OPENMP
        )
        body = annot.annotation_value
        assert [t.spelling for t in body] == ["parallel", "for"]

    def test_omp_pragma_disabled_without_fopenmp(self):
        tokens, diags = preprocess(
            "#pragma omp parallel\nx;", openmp=False
        )
        assert all(
            t.kind != K.ANNOT_PRAGMA_OPENMP for t in tokens
        )
        assert diags.warning_count == 1

    def test_macro_expansion_in_pragma_body(self):
        # OpenMP "Directive Format": the tokens after `#pragma omp` are
        # subject to macro replacement.
        assert pragma_body(
            "#define W 8\n#pragma omp unroll partial(W)\n"
        ) == ["unroll", "partial", "(", "8", ")"]

    def test_pragma_clauses_expand_as_gcc_expands_them(self):
        # `gcc -E -P -fopenmp` output, recorded from GCC 12.2
        assert pragma_body(
            "#define SQ(x) ((x)*(x))\n#define CHUNK 2\n"
            "#pragma omp parallel for num_threads(SQ(2)) "
            "schedule(static, CHUNK) reduction(+: acc)\n"
        ) == gcc_spellings(
            "parallel for num_threads(((2)*(2))) schedule(static, 2) "
            "reduction(+: acc)"
        )

    def test_function_like_macro_in_a_transform_clause(self):
        assert pragma_body(
            "#define SQ(x) ((x) * (x))\n#pragma omp tile sizes(SQ(2))\n"
        ) == gcc_spellings("tile sizes(((2) * (2)))")

    def test_pragma_end_is_the_last_source_token(self):
        source = "#define W 8\n#pragma omp unroll partial(W)\nx;"
        tokens, diags = preprocess(source)
        end = next(
            t for t in tokens if t.kind == K.ANNOT_PRAGMA_OPENMP_END
        )
        ploc = diags.source_manager.get_presumed_loc(end.location)
        # just past the `)` of the source line, not of the expansion
        assert (ploc.line, ploc.column) == (2, 30)

    def test_strip_decides_on_the_expanded_directive(self):
        tokens, _ = preprocess(
            "#define DIR unroll\n#pragma omp DIR partial(2)\nx;",
            strip_omp_transforms=True,
        )
        assert [t.spelling for t in tokens if t.kind != K.EOF] == [
            "x", ";",
        ]

    def test_clang_loop_pragma(self):
        tokens, _ = preprocess(
            "#pragma clang loop unroll_count(4)\nx;"
        )
        assert any(
            t.kind == K.ANNOT_PRAGMA_LOOPHINT for t in tokens
        )

    def test_unknown_pragma_warns(self):
        _, diags = preprocess("#pragma weird thing\n")
        assert diags.warning_count == 1

    def test_multiline_pragma_via_splice(self):
        tokens, _ = preprocess(
            "#pragma omp parallel \\\n    num_threads(2)\nx;"
        )
        annot = next(
            t for t in tokens if t.kind == K.ANNOT_PRAGMA_OPENMP
        )
        assert [t.spelling for t in annot.annotation_value] == [
            "parallel",
            "num_threads",
            "(",
            "2",
            ")",
        ]


class TestMiscDirectives:
    def test_error_directive(self):
        _, diags = preprocess("#error something broke\n")
        assert diags.has_errors()
        assert "something broke" in diags.render_all()

    def test_warning_directive(self):
        _, diags = preprocess("#warning heads up\n")
        assert diags.warning_count == 1

    def test_line_directive(self):
        tokens, diags = preprocess('#line 100 "gen.c"\nx\n')
        sm = diags.source_manager
        x = next(t for t in tokens if t.spelling == "x")
        ploc = sm.get_presumed_loc(x.location)
        assert ploc.filename == "gen.c"
        assert ploc.line == 100

    def test_unknown_directive_errors(self):
        _, diags = preprocess("#frobnicate\n")
        assert diags.has_errors()

    def test_line_and_file_magic_macros(self):
        out = spellings("__LINE__\n__LINE__")
        assert out == ["1", "2"]
        out2 = spellings("__FILE__")
        assert out2 == ['"test.c"']
