"""Unit tests: the raw lexer."""

import pytest

from repro.diagnostics import DiagnosticsEngine
from repro.lex import Token, TokenKind
from repro.lex.lexer import tokenize_string

K = TokenKind


def kinds(text: str) -> list[TokenKind]:
    return [t.kind for t in tokenize_string(text)[:-1]]  # strip EOF


def spellings(text: str) -> list[str]:
    return [t.spelling for t in tokenize_string(text)[:-1]]


class TestBasicTokens:
    def test_identifiers_and_keywords(self):
        assert kinds("foo int forx for") == [
            K.IDENTIFIER,
            K.KW_INT,
            K.IDENTIFIER,
            K.KW_FOR,
        ]

    def test_keywords_disabled_mode(self):
        toks = tokenize_string("for int", keywords_enabled=False)
        assert toks[0].kind == K.IDENTIFIER
        assert toks[1].kind == K.IDENTIFIER

    def test_numbers(self):
        assert spellings("0 42 0x1F 010 1.5 1e10 3.25f 1ULL") == [
            "0",
            "42",
            "0x1F",
            "010",
            "1.5",
            "1e10",
            "3.25f",
            "1ULL",
        ]
        assert all(
            k == K.NUMERIC_CONSTANT
            for k in kinds("0 42 0x1F 010 1.5 1e10 3.25f 1ULL")
        )

    def test_float_with_exponent_sign(self):
        toks = tokenize_string("1.5e-3")[:-1]
        assert len(toks) == 1
        assert toks[0].spelling == "1.5e-3"

    def test_string_literal(self):
        toks = tokenize_string(r'"hello \"world\""')[:-1]
        assert toks[0].kind == K.STRING_LITERAL
        assert toks[0].spelling == r'"hello \"world\""'

    def test_char_literal(self):
        toks = tokenize_string(r"'a' '\n'")[:-1]
        assert [t.kind for t in toks] == [
            K.CHAR_CONSTANT,
            K.CHAR_CONSTANT,
        ]

    def test_eof_is_last(self):
        toks = tokenize_string("x")
        assert toks[-1].kind == K.EOF


class TestPunctuators:
    def test_maximal_munch(self):
        assert kinds("<<= << <= <") == [
            K.LESSLESSEQUAL,
            K.LESSLESS,
            K.LESSEQUAL,
            K.LESS,
        ]

    def test_arrows_and_increments(self):
        assert kinds("-> -- - ++ +=") == [
            K.ARROW,
            K.MINUSMINUS,
            K.MINUS,
            K.PLUSPLUS,
            K.PLUSEQUAL,
        ]

    def test_ellipsis(self):
        assert kinds("...") == [K.ELLIPSIS]

    def test_all_single_punctuation(self):
        text = "( ) { } [ ] ; , . ? : = # & | ^ ~ ! % / * + - < >"
        assert len(kinds(text)) == len(text.split())


class TestTriviaHandling:
    def test_line_comment(self):
        assert spellings("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert spellings("a /* x */ b") == ["a", "b"]

    def test_multiline_block_comment_sets_line_start(self):
        toks = tokenize_string("a /* x\ny */ b")[:-1]
        assert toks[1].at_line_start

    def test_unterminated_block_comment_errors(self):
        diags = DiagnosticsEngine()
        tokenize_string("a /* never closed", diags=diags)
        assert diags.error_count == 1

    def test_line_splice(self):
        # backslash-newline disappears: one logical line
        toks = tokenize_string("ab\\\ncd")[:-1]
        # a splice between tokens, not within: two identifiers but the
        # second is NOT at line start
        assert [t.spelling for t in toks] == ["ab", "cd"]
        assert not toks[1].at_line_start

    def test_at_line_start_flag(self):
        toks = tokenize_string("a b\nc")[:-1]
        assert toks[0].at_line_start
        assert not toks[1].at_line_start
        assert toks[2].at_line_start

    def test_has_leading_space(self):
        toks = tokenize_string("a b")[:-1]
        assert not toks[0].has_leading_space
        assert toks[1].has_leading_space
        toks = tokenize_string(" a b")[:-1]
        assert toks[0].has_leading_space
        assert toks[1].has_leading_space

    def test_bare_cr_in_block_comment_sets_line_start(self):
        # A bare CR ends a line wherever it appears, a block comment
        # included, just as a newline in a block comment does.
        toks = tokenize_string("a /* c\r */#")[:-1]
        assert toks[1].spelling == "#"
        assert toks[1].at_line_start

    def test_bare_cr_ends_line_comment(self):
        toks = tokenize_string("a // c\rb")[:-1]
        assert [t.spelling for t in toks] == ["a", "b"]
        assert toks[1].at_line_start

    @pytest.mark.parametrize(
        "text, kind",
        [('"ab\rcd"', K.STRING_LITERAL), ("'a\rb'", K.CHAR_CONSTANT)],
        ids=["string", "char"],
    )
    def test_bare_cr_ends_literal(self, text, kind):
        # A literal cannot span lines: it ends unterminated at a bare CR
        # as at a newline.
        diags = DiagnosticsEngine()
        toks = tokenize_string(text, diags=diags)[:-1]
        assert diags.error_count == 2
        assert toks[0].kind == K.UNKNOWN
        assert toks[0].spelling == text[:text.index("\r")]
        assert toks[1].at_line_start
        assert all(t.kind != kind for t in toks)

    @pytest.mark.parametrize(
        "newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"]
    )
    def test_splice_continues_line_comment(self, newline):
        # Translation phase 2 joins the spliced lines before comments
        # are removed, so `b` is still inside the comment.
        toks = tokenize_string(f"a // c \\{newline}b{newline}d")[:-1]
        assert [t.spelling for t in toks] == ["a", "d"]
        assert toks[1].at_line_start

    @pytest.mark.parametrize(
        "text, kind",
        [('"ab\\\r\ncd"', K.STRING_LITERAL), ("'a\\\r\nb'", K.CHAR_CONSTANT)],
        ids=["string", "char"],
    )
    def test_crlf_splice_inside_literal(self, text, kind):
        # A CRLF splice is one newline, as a bare LF splice is.
        diags = DiagnosticsEngine()
        toks = tokenize_string(text, diags=diags)[:-1]
        assert diags.error_count == 0
        assert [(t.kind, t.spelling) for t in toks] == [(kind, text)]

    def test_directive_after_bare_cr_comment(self):
        from repro.pipeline import run_source

        source = (
            "int printf(const char *fmt, ...);\n"
            "int main(void) {\n"
            "  int s = 0; /* c\r */#pragma omp unroll partial(2)\n"
            "  for (int i = 0; i < 4; i++) s += i;\n"
            '  printf("%d\\n", s);\n'
            "  return 0;\n"
            "}\n"
        )
        assert run_source(source).stdout == "6\n"


class TestLocations:
    def test_token_locations_point_into_buffer(self):
        from repro.sourcemgr import MemoryBuffer, SourceManager
        from repro.lex import Lexer

        sm = SourceManager()
        fid = sm.create_main_file(MemoryBuffer("t.c", "ab cd"))
        lexer = Lexer(sm, fid, DiagnosticsEngine(sm))
        toks = lexer.lex_all()
        ploc = sm.get_presumed_loc(toks[1].location)
        assert (ploc.line, ploc.column) == (1, 4)

    def test_unterminated_string_reports_error(self):
        diags = DiagnosticsEngine()
        tokenize_string('"abc', diags=diags)
        assert diags.error_count == 1

    def test_unknown_character(self):
        diags = DiagnosticsEngine()
        toks = tokenize_string("a ` b", diags=diags)
        assert diags.error_count == 1
        assert any(t.kind == K.UNKNOWN for t in toks)


class TestTokenHelpers:
    def test_is_one_of(self):
        tok = Token(K.KW_INT, "int")
        assert tok.is_one_of(K.KW_VOID, K.KW_INT)
        assert not tok.is_one_of(K.KW_VOID, K.KW_CHAR)

    def test_is_identifier_with_text(self):
        tok = Token(K.IDENTIFIER, "omp")
        assert tok.is_identifier("omp")
        assert not tok.is_identifier("simd")
        assert tok.is_identifier()

    def test_end_location(self):
        from repro.sourcemgr import SourceLocation

        tok = Token(K.IDENTIFIER, "abc", SourceLocation(10))
        assert tok.end_location().offset == 13
