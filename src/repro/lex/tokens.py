"""Token kinds and the Token record.

The kind set mirrors clang's ``TokenKinds.def`` restricted to the MiniC
subset, plus the annotation kinds the preprocessor synthesizes for OpenMP
pragmas (clang: ``annot_pragma_openmp`` / ``annot_pragma_openmp_end``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar

from repro.sourcemgr.location import SourceLocation


class TokenKind(enum.Enum):
    __hash__ = object.__hash__  # a hot dictionary key

    # Special
    EOF = "eof"
    UNKNOWN = "unknown"
    EOD = "eod"  # end-of-directive (preprocessor internal)

    # Literals & identifiers
    IDENTIFIER = "identifier"
    NUMERIC_CONSTANT = "numeric_constant"
    CHAR_CONSTANT = "char_constant"
    STRING_LITERAL = "string_literal"

    # Punctuators
    L_PAREN = "l_paren"
    R_PAREN = "r_paren"
    L_BRACE = "l_brace"
    R_BRACE = "r_brace"
    L_SQUARE = "l_square"
    R_SQUARE = "r_square"
    SEMI = "semi"
    COMMA = "comma"
    PERIOD = "period"
    ELLIPSIS = "ellipsis"
    ARROW = "arrow"
    AMP = "amp"
    AMPAMP = "ampamp"
    AMPEQUAL = "ampequal"
    STAR = "star"
    STAREQUAL = "starequal"
    PLUS = "plus"
    PLUSPLUS = "plusplus"
    PLUSEQUAL = "plusequal"
    MINUS = "minus"
    MINUSMINUS = "minusminus"
    MINUSEQUAL = "minusequal"
    TILDE = "tilde"
    EXCLAIM = "exclaim"
    EXCLAIMEQUAL = "exclaimequal"
    SLASH = "slash"
    SLASHEQUAL = "slashequal"
    PERCENT = "percent"
    PERCENTEQUAL = "percentequal"
    LESS = "less"
    LESSLESS = "lessless"
    LESSEQUAL = "lessequal"
    LESSLESSEQUAL = "lesslessequal"
    GREATER = "greater"
    GREATERGREATER = "greatergreater"
    GREATEREQUAL = "greaterequal"
    GREATERGREATEREQUAL = "greatergreaterequal"
    CARET = "caret"
    CARETEQUAL = "caretequal"
    PIPE = "pipe"
    PIPEPIPE = "pipepipe"
    PIPEEQUAL = "pipeequal"
    QUESTION = "question"
    COLON = "colon"
    COLONCOLON = "coloncolon"
    EQUAL = "equal"
    EQUALEQUAL = "equalequal"
    HASH = "hash"
    HASHHASH = "hashhash"

    # Keywords (C subset)
    KW_VOID = "void"
    KW_BOOL = "bool"
    KW_CHAR = "char"
    KW_SHORT = "short"
    KW_INT = "int"
    KW_LONG = "long"
    KW_FLOAT = "float"
    KW_DOUBLE = "double"
    KW_SIGNED = "signed"
    KW_UNSIGNED = "unsigned"
    KW_CONST = "const"
    KW_VOLATILE = "volatile"
    KW_RESTRICT = "restrict"
    KW_STATIC = "static"
    KW_EXTERN = "extern"
    KW_AUTO = "auto"
    KW_TYPEDEF = "typedef"
    KW_STRUCT = "struct"
    KW_UNION = "union"
    KW_ENUM = "enum"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_FOR = "for"
    KW_WHILE = "while"
    KW_DO = "do"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_RETURN = "return"
    KW_SWITCH = "switch"
    KW_CASE = "case"
    KW_DEFAULT = "default"
    KW_GOTO = "goto"
    KW_SIZEOF = "sizeof"
    KW_INLINE = "inline"
    KW_TRUE = "true"
    KW_FALSE = "false"

    # Annotation tokens synthesized by the preprocessor
    ANNOT_PRAGMA_OPENMP = "annot_pragma_openmp"
    ANNOT_PRAGMA_OPENMP_END = "annot_pragma_openmp_end"
    ANNOT_PRAGMA_LOOPHINT = "annot_pragma_loophint"

    def is_keyword(self) -> bool:
        return self.name.startswith("KW_")


#: identifier text -> keyword kind (applied by the lexer, like clang's
#: IdentifierTable).  ``_Bool`` maps onto ``bool``.
KEYWORDS: dict[str, TokenKind] = {
    "void": TokenKind.KW_VOID,
    "bool": TokenKind.KW_BOOL,
    "_Bool": TokenKind.KW_BOOL,
    "char": TokenKind.KW_CHAR,
    "short": TokenKind.KW_SHORT,
    "int": TokenKind.KW_INT,
    "long": TokenKind.KW_LONG,
    "float": TokenKind.KW_FLOAT,
    "double": TokenKind.KW_DOUBLE,
    "signed": TokenKind.KW_SIGNED,
    "unsigned": TokenKind.KW_UNSIGNED,
    "const": TokenKind.KW_CONST,
    "volatile": TokenKind.KW_VOLATILE,
    "restrict": TokenKind.KW_RESTRICT,
    "__restrict": TokenKind.KW_RESTRICT,
    "static": TokenKind.KW_STATIC,
    "extern": TokenKind.KW_EXTERN,
    "auto": TokenKind.KW_AUTO,
    "typedef": TokenKind.KW_TYPEDEF,
    "struct": TokenKind.KW_STRUCT,
    "union": TokenKind.KW_UNION,
    "enum": TokenKind.KW_ENUM,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "for": TokenKind.KW_FOR,
    "while": TokenKind.KW_WHILE,
    "do": TokenKind.KW_DO,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "return": TokenKind.KW_RETURN,
    "switch": TokenKind.KW_SWITCH,
    "case": TokenKind.KW_CASE,
    "default": TokenKind.KW_DEFAULT,
    "goto": TokenKind.KW_GOTO,
    "sizeof": TokenKind.KW_SIZEOF,
    "inline": TokenKind.KW_INLINE,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
}


#: punctuator spelling -> kind, longest-match-first ordering is handled by
#: the lexer via this table's key lengths.
PUNCTUATORS: dict[str, TokenKind] = {
    "<<=": TokenKind.LESSLESSEQUAL,
    ">>=": TokenKind.GREATERGREATEREQUAL,
    "...": TokenKind.ELLIPSIS,
    "->": TokenKind.ARROW,
    "++": TokenKind.PLUSPLUS,
    "--": TokenKind.MINUSMINUS,
    "<<": TokenKind.LESSLESS,
    ">>": TokenKind.GREATERGREATER,
    "<=": TokenKind.LESSEQUAL,
    ">=": TokenKind.GREATEREQUAL,
    "==": TokenKind.EQUALEQUAL,
    "!=": TokenKind.EXCLAIMEQUAL,
    "&&": TokenKind.AMPAMP,
    "||": TokenKind.PIPEPIPE,
    "+=": TokenKind.PLUSEQUAL,
    "-=": TokenKind.MINUSEQUAL,
    "*=": TokenKind.STAREQUAL,
    "/=": TokenKind.SLASHEQUAL,
    "%=": TokenKind.PERCENTEQUAL,
    "&=": TokenKind.AMPEQUAL,
    "|=": TokenKind.PIPEEQUAL,
    "^=": TokenKind.CARETEQUAL,
    "##": TokenKind.HASHHASH,
    "::": TokenKind.COLONCOLON,
    "(": TokenKind.L_PAREN,
    ")": TokenKind.R_PAREN,
    "{": TokenKind.L_BRACE,
    "}": TokenKind.R_BRACE,
    "[": TokenKind.L_SQUARE,
    "]": TokenKind.R_SQUARE,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    ".": TokenKind.PERIOD,
    "&": TokenKind.AMP,
    "*": TokenKind.STAR,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "~": TokenKind.TILDE,
    "!": TokenKind.EXCLAIM,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "<": TokenKind.LESS,
    ">": TokenKind.GREATER,
    "^": TokenKind.CARET,
    "|": TokenKind.PIPE,
    "?": TokenKind.QUESTION,
    ":": TokenKind.COLON,
    "=": TokenKind.EQUAL,
    "#": TokenKind.HASH,
}


@dataclass
class Token:
    """One lexed token.

    ``at_line_start`` and ``has_leading_space`` reproduce clang's
    ``Token::isAtStartOfLine`` / ``hasLeadingSpace`` flags, which the
    preprocessor needs for directive recognition and token pasting, and the
    pretty-printers need for faithful spelling reconstruction.
    ``annotation_value`` carries the payload of annotation tokens (for
    ``ANNOT_PRAGMA_OPENMP`` it is the directive's token list).
    """

    kind: TokenKind
    spelling: str = ""
    location: SourceLocation = field(default_factory=SourceLocation)
    at_line_start: bool = False
    has_leading_space: bool = False
    annotation_value: object = None
    #: Names of the macros this token must not expand again (Prosser's
    #: hide set, C11 6.10.3.4p2).  Only a token a macro expansion makes
    #: sets its own; every other token shares this empty class default.
    hide_set: ClassVar[frozenset[str]] = frozenset()

    def is_(self, kind: TokenKind) -> bool:
        return self.kind == kind

    def is_one_of(self, *kinds: TokenKind) -> bool:
        return self.kind in kinds

    def is_identifier(self, text: str | None = None) -> bool:
        if self.kind != TokenKind.IDENTIFIER:
            return False
        return text is None or self.spelling == text

    @property
    def length(self) -> int:
        return len(self.spelling)

    def end_location(self) -> SourceLocation:
        return self.location.with_offset(self.length)

    def __str__(self) -> str:
        return f"{self.kind.name}({self.spelling!r})"
