"""The raw lexer: one :class:`MemoryBuffer` -> :class:`Token` stream.

Design notes (mirroring clang's ``Lexer``):

* The lexer is a pull interface — :meth:`Lexer.lex` returns the next token;
  the Preprocessor drives it (paper Fig. 1: the parser pulls tokens through
  the layers below).
* Comments and whitespace are skipped but recorded on the next token via the
  ``has_leading_space`` / ``at_line_start`` flags.
* Line splices (backslash-newline) are handled, which matters for multi-line
  ``#pragma omp`` directives.
* In *keep_comments* mode comments could be returned as tokens; we only need
  the skip behaviour here.
"""

from __future__ import annotations

import re

from repro.diagnostics import DiagnosticsEngine, Severity
from repro.instrument import get_statistic
from repro.instrument.faultinject import FAULTS
from repro.lex.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind
from repro.sourcemgr.location import SourceLocation
from repro.sourcemgr.source_manager import FileID, SourceManager

#: Identifiers, pp-numbers and punctuators in one pattern; group 1 is
#: an identifier, group 2 a pp-number, group 3 a punctuator.  A
#: pp-number is the maximal munch of its grammar (validation is left to
#: the literal parser in Sema, as in clang): digits, identifier
#: characters, periods, and a sign right after an exponent letter.  The
#: punctuators are tried longest first, which is maximal munch too.
_TOKEN = re.compile(
    r"([A-Za-z_$][A-Za-z0-9_$]*)"
    r"|((?:[0-9]|\.[0-9])(?:[eEpP][+-]|[A-Za-z0-9_$.])*)"
    r"|("
    + "|".join(
        re.escape(p) for p in sorted(PUNCTUATORS, key=len, reverse=True)
    )
    + ")"
)

#: A run of whitespace; group 1 is set when the run holds a newline.
_WHITESPACE = re.compile(r"[ \t\f\v]*(?:([\r\n])[ \t\f\v\r\n]*)?")

#: The rest of a line comment: up to a newline or a bare CR, which ends
#: a line too, that no line splice (a backslash right before ``\n``,
#: ``\r\n`` or a bare ``\r``) joins to the next line.
_REST_OF_LINE = re.compile(r"(?:[^\r\n\\]+|\\(?:\r\n?|\n)?)*")

_IDENTIFIER = TokenKind.IDENTIFIER
_NUMERIC_CONSTANT = TokenKind.NUMERIC_CONSTANT

_RAW_TOKENS = get_statistic(
    "lexer", "raw-tokens", "Raw tokens produced from source buffers"
)


class LexerError(Exception):
    """Raised on unrecoverable lexical errors (e.g. unterminated string)."""


class Lexer:
    """Tokenizes a single buffer.

    Parameters
    ----------
    source_manager / fid:
        Identify the buffer and let the lexer mint real
        :class:`SourceLocation` values.
    diags:
        Errors (unterminated literals, stray characters) are reported here.
    keywords_enabled:
        When ``False`` all keywords lex as plain identifiers — used when
        re-lexing pragma bodies where e.g. ``for`` is an OpenMP directive
        name, not the C keyword (the preprocessor does this).
    """

    def __init__(
        self,
        source_manager: SourceManager,
        fid: FileID,
        diags: DiagnosticsEngine,
        keywords_enabled: bool = True,
    ) -> None:
        self.sm = source_manager
        self.fid = fid
        self.diags = diags
        self.buffer = source_manager.get_buffer(fid)
        self.text = self.buffer.text
        self.pos = 0
        self._at_line_start = True
        self._keywords = KEYWORDS if keywords_enabled else {}
        #: offset of the buffer's first character in the location space
        self._base = source_manager.get_loc_for_offset(fid, 0).offset

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _loc(self, offset: int | None = None) -> SourceLocation:
        return self.sm.get_loc_for_offset(
            self.fid, self.pos if offset is None else offset
        )

    # ------------------------------------------------------------------
    # Whitespace / comments
    # ------------------------------------------------------------------
    def _skip_trivia(self) -> bool:
        """Skip whitespace, comments and line splices.

        Returns whether any horizontal space was skipped (for the
        ``has_leading_space`` flag); skipping a newline (``\\n`` or a
        bare ``\\r``), one inside a block comment included, sets
        ``self._at_line_start``.
        """
        skipped_space = False
        text, n = self.text, len(self.text)
        while True:
            match = _WHITESPACE.match(text, self.pos)
            if match.end() != self.pos:
                self.pos = match.end()
                skipped_space = True
                if match.lastindex:
                    self._at_line_start = True
            if self.pos >= n:
                break
            ch = text[self.pos]
            if (
                ch == "\\"
                and self.pos + 1 < n
                and text[self.pos + 1] in "\r\n"
            ):
                # Line splice: backslash-newline vanishes entirely.
                self.pos += 2
                if (
                    text[self.pos - 1] == "\r"
                    and self.pos < n
                    and text[self.pos] == "\n"
                ):
                    self.pos += 1
                skipped_space = True
            elif ch == "/" and self.pos + 1 < n:
                nxt = text[self.pos + 1]
                if nxt == "/":
                    self.pos = _REST_OF_LINE.match(text, self.pos).end()
                    skipped_space = True
                elif nxt == "*":
                    end = text.find("*/", self.pos + 2)
                    if end == -1:
                        self.diags.report(
                            Severity.ERROR,
                            "unterminated /* comment",
                            self._loc(),
                        )
                        self.pos = n
                    else:
                        body = text[self.pos : end]
                        if "\n" in body or "\r" in body:
                            self._at_line_start = True
                        self.pos = end + 2
                    skipped_space = True
                else:
                    break
            else:
                break
        return skipped_space

    # ------------------------------------------------------------------
    # Token producers
    # ------------------------------------------------------------------
    def lex(self) -> Token:
        """Return the next token (EOF token at end of buffer)."""
        if FAULTS.armed:
            FAULTS.hit("lexer")
        leading_space = self._skip_trivia()
        at_line_start = self._at_line_start
        start = self.pos
        if start >= len(self.text):
            return Token(
                TokenKind.EOF,
                "",
                SourceLocation(self._base + start),
                at_line_start,
                leading_space,
            )
        self._at_line_start = False
        match = _TOKEN.match(self.text, start)
        if match is not None:
            spelling = match.group()
            self.pos = match.end()
            group = match.lastindex
            if group == 1:
                kind = self._keywords.get(spelling, _IDENTIFIER)
            elif group == 2:
                kind = _NUMERIC_CONSTANT
            else:
                kind = PUNCTUATORS[spelling]
            return Token(
                kind,
                spelling,
                SourceLocation(self._base + start),
                at_line_start,
                leading_space,
            )
        ch = self.text[start]
        if ch == '"':
            tok = self._lex_quoted(
                '"', TokenKind.STRING_LITERAL, "string literal"
            )
        elif ch == "'":
            tok = self._lex_quoted(
                "'", TokenKind.CHAR_CONSTANT, "character constant"
            )
        else:
            tok = self._lex_stray_character()
        tok.at_line_start = at_line_start
        tok.has_leading_space = leading_space
        tok.location = SourceLocation(self._base + start)
        return tok

    def _lex_quoted(self, quote: str, kind: TokenKind, what: str) -> Token:
        """A string literal or character constant; it ends unterminated
        at a newline or a bare CR."""
        start = self.pos
        text, n = self.text, len(self.text)
        self.pos += 1  # opening quote
        while self.pos < n:
            ch = text[self.pos]
            if ch == "\\" and self.pos + 1 < n:
                # An escape, or a line splice: CR LF is one newline.
                self.pos += 3 if text.startswith("\r\n", self.pos + 1) else 2
                continue
            if ch == quote:
                self.pos += 1
                return Token(kind, text[start : self.pos])
            if ch in "\r\n":
                break
            self.pos += 1
        self.diags.report(
            Severity.ERROR, f"unterminated {what}", self._loc(start)
        )
        return Token(TokenKind.UNKNOWN, text[start : self.pos])

    def _lex_stray_character(self) -> Token:
        bad = self.text[self.pos]
        self.pos += 1
        self.diags.report(
            Severity.ERROR,
            f"unexpected character {bad!r} in source",
            self._loc(self.pos - 1),
        )
        return Token(TokenKind.UNKNOWN, bad)

    # ------------------------------------------------------------------
    # Bulk interface
    # ------------------------------------------------------------------
    def lex_all(self) -> list[Token]:
        """All tokens of the buffer up to and including EOF."""
        tokens: list[Token] = []
        while True:
            tok = self.lex()
            tokens.append(tok)
            if tok.kind is TokenKind.EOF:
                _RAW_TOKENS.inc(len(tokens))
                return tokens


def tokenize_string(
    text: str,
    name: str = "<string>",
    diags: DiagnosticsEngine | None = None,
    keywords_enabled: bool = True,
) -> list[Token]:
    """Convenience wrapper: tokenize a standalone string.

    Builds a throwaway SourceManager; intended for tests and for re-lexing
    snippets (not for real compilation, where locations must be shared).
    """
    from repro.sourcemgr.memory_buffer import MemoryBuffer

    sm = SourceManager()
    fid = sm.create_main_file(MemoryBuffer(name, text))
    # NB: not `diags or ...` — an engine with zero diagnostics is falsy
    # (it defines __len__).
    engine = diags if diags is not None else DiagnosticsEngine(sm)
    lexer = Lexer(sm, fid, engine, keywords_enabled=keywords_enabled)
    return lexer.lex_all()
