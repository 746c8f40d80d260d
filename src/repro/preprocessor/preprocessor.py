"""The Preprocessor: raw tokens -> parser token stream.

Pull-model, as in clang (paper Fig. 1: the Parser steers, each ``lex()``
call pulls from the include/macro stack below).  Responsibilities:

* driving one :class:`~repro.lex.lexer.Lexer` per ``#include`` level,
* macro definition/expansion (with recursion prevention),
* conditional compilation,
* converting ``#pragma omp`` into ``ANNOT_PRAGMA_OPENMP`` annotation tokens
  and ``#pragma clang loop`` into ``ANNOT_PRAGMA_LOOPHINT``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.diagnostics import DiagnosticsEngine, Severity
from repro.instrument import get_statistic, time_trace_scope
from repro.instrument.faultinject import FAULTS
from repro.lex.lexer import Lexer
from repro.lex.tokens import Token, TokenKind
from repro.preprocessor.macro import (
    MacroInfo,
    paste_tokens,
    stringify_tokens,
)
from repro.preprocessor.pp_expr import PPExpressionEvaluator
from repro.sourcemgr.file_manager import FileManager
from repro.sourcemgr.location import SourceLocation
from repro.sourcemgr.memory_buffer import MemoryBuffer
from repro.sourcemgr.source_manager import FileID, SourceManager

#: Default `_OPENMP` value: OpenMP 5.1 (November 2020), the version that
#: introduced the `tile`/`unroll` directives the paper implements.
OPENMP_51_DATE = 202011

#: The pure loop-transformation directives (OpenMP 5.1 §2.11.9 plus the
#: 6.0 extensions this repo implements).  These rewrite the iteration
#: space without changing which iterations execute — exactly the set
#: `strip_omp_transforms` removes.
TRANSFORM_DIRECTIVES = frozenset(
    {"unroll", "tile", "reverse", "interchange", "fuse"}
)

_MAX_INCLUDE_DEPTH = 64

_TOKENS_LEXED = get_statistic(
    "preprocessor",
    "tokens-lexed",
    "Preprocessed tokens handed to the parser",
)


@dataclass
class PreprocessorOptions:
    """Driver-controllable preprocessor configuration."""

    defines: dict[str, str] = field(default_factory=dict)
    include_paths: list[str] = field(default_factory=list)
    openmp: bool = True
    openmp_version: int = OPENMP_51_DATE
    #: Drop loop-TRANSFORMATION directives (unroll/tile/reverse/
    #: interchange/fuse) while keeping worksharing ones — the
    #: differential-testing oracle's reference configuration: by the
    #: paper's semantics-preservation claim the stripped program must
    #: produce the same observable output.
    strip_omp_transforms: bool = False


@dataclass
class _ConditionalState:
    """One entry of the #if stack of the current file."""

    was_taken: bool  # some branch of this #if chain has been entered
    in_else: bool
    location: SourceLocation


class _IncludeLevel:
    """A lexer plus pushback and conditional stack for one include level."""

    def __init__(self, lexer: Lexer, entry_name: str) -> None:
        self.lexer = lexer
        self.entry_name = entry_name
        self.pushback: deque[Token] = deque()
        self.conditionals: list[_ConditionalState] = []

    def lex(self) -> Token:
        if self.pushback:
            return self.pushback.popleft()
        return self.lexer.lex()

    def unlex(self, tok: Token) -> None:
        self.pushback.appendleft(tok)


class Preprocessor:
    """See module docstring."""

    def __init__(
        self,
        source_manager: SourceManager,
        file_manager: FileManager,
        diags: DiagnosticsEngine,
        options: PreprocessorOptions | None = None,
    ) -> None:
        self.sm = source_manager
        self.fm = file_manager
        self.diags = diags
        self.options = options or PreprocessorOptions()
        self.macros: dict[str, MacroInfo] = {}
        self._levels: list[_IncludeLevel] = []
        #: tokens produced by macro expansion / pragma annotation, pending
        #: delivery to the parser.
        self._pending: deque[Token] = deque()
        self._install_builtin_macros()
        for name, value in self.options.defines.items():
            self.define_from_string(name, value)
        self.fm.search_paths.extend(
            p
            for p in self.options.include_paths
            if p not in self.fm.search_paths
        )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _install_builtin_macros(self) -> None:
        builtins = {
            "__STDC__": "1",
            "__STDC_VERSION__": "201710L",
            "__MINICLANG__": "1",
        }
        if self.options.openmp:
            builtins["_OPENMP"] = str(self.options.openmp_version)
        for name, value in builtins.items():
            info = self.define_from_string(name, value)
            info.is_builtin = True
        # __LINE__ / __FILE__ are handled specially during expansion.
        for magic in ("__LINE__", "__FILE__"):
            info = MacroInfo(magic, [], is_builtin=True)
            self.macros[magic] = info

    def define_from_string(self, name: str, value: str = "1") -> MacroInfo:
        """Register a ``-DNAME=VALUE`` style definition."""
        body = value if value != "" else "1"
        if "(" in name:
            # -D'F(x)=...' style; split head from parameter list.
            head, params_part = name.split("(", 1)
            params = [
                p.strip()
                for p in params_part.rstrip(")").split(",")
                if p.strip()
            ]
            info = MacroInfo(
                head, self._tokenize_fragment(body), params=params
            )
        else:
            info = MacroInfo(name, self._tokenize_fragment(body))
        self.macros[info.name] = info
        return info

    def _tokenize_fragment(self, text: str) -> list[Token]:
        from repro.lex.lexer import tokenize_string

        toks = tokenize_string(text, "<define>", self.diags)
        return [t for t in toks if t.kind != TokenKind.EOF]

    def enter_main_file(self, fid: FileID) -> None:
        lexer = Lexer(self.sm, fid, self.diags)
        name = self.sm.get_buffer(fid).name
        self._levels.append(_IncludeLevel(lexer, name))

    def enter_source(self, text: str, name: str = "<input>") -> FileID:
        """Convenience: load *text* as the main file and enter it."""
        fid = self.sm.create_main_file(MemoryBuffer(name, text))
        self.enter_main_file(fid)
        return fid

    # ------------------------------------------------------------------
    # Low-level raw token access (current include level, with fallback)
    # ------------------------------------------------------------------
    @property
    def _level(self) -> _IncludeLevel:
        return self._levels[-1]

    def _raw_lex(self) -> Token:
        """Next raw token, popping finished include levels."""
        levels = self._levels
        while levels:
            level = levels[-1]
            tok = level.lex()
            if tok.kind is not TokenKind.EOF or len(levels) == 1:
                if tok.kind is TokenKind.EOF:
                    # Main-file EOF: diagnose conditionals left open.
                    for cond in level.conditionals:
                        self.diags.report(
                            Severity.ERROR,
                            "unterminated conditional directive",
                            cond.location,
                        )
                    level.conditionals.clear()
                return tok
            level = levels.pop()
            for cond in level.conditionals:
                self.diags.report(
                    Severity.ERROR,
                    "unterminated conditional directive",
                    cond.location,
                )
        return Token(TokenKind.EOF, "")

    def _collect_directive_tokens(self) -> list[Token]:
        """Tokens up to the end of the current directive line."""
        tokens: list[Token] = []
        while True:
            tok = self._level.lex()
            if tok.kind == TokenKind.EOF:
                self._level.unlex(tok)
                return tokens
            if tok.at_line_start:
                self._level.unlex(tok)
                return tokens
            tokens.append(tok)

    # ------------------------------------------------------------------
    # Main pull interface
    # ------------------------------------------------------------------
    def lex(self) -> Token:
        """Next fully preprocessed token for the parser."""
        while True:
            if self._pending:
                return self._pending.popleft()
            tok = self._raw_lex()
            if tok.kind is TokenKind.HASH and tok.at_line_start:
                self._handle_directive()
                continue
            if (
                tok.kind is TokenKind.IDENTIFIER
                and tok.spelling in self.macros
                and self._expand_macro(tok)
            ):
                continue
            return tok

    def lex_all(self) -> list[Token]:
        with time_trace_scope("Preprocess"):
            tokens = []
            while True:
                if FAULTS.armed:
                    FAULTS.hit("preprocessor")
                tok = self.lex()
                tokens.append(tok)
                if tok.kind is TokenKind.EOF:
                    _TOKENS_LEXED.inc(len(tokens))
                    return tokens

    # ------------------------------------------------------------------
    # Macro expansion
    # ------------------------------------------------------------------
    def _expand_macro(self, tok: Token) -> bool:
        """Expand *tok* if it names a macro invocation.

        Returns True when an expansion took place (its tokens were pushed
        onto the pending queue).
        """
        info = self.macros[tok.spelling]
        if info.name == "__LINE__":
            line = self.sm.get_presumed_loc(tok.location).line
            self._push_pending(
                [Token(TokenKind.NUMERIC_CONSTANT, str(line), tok.location)]
            )
            return True
        if info.name == "__FILE__":
            fname = self.sm.get_presumed_loc(tok.location).filename
            self._push_pending(
                [
                    Token(
                        TokenKind.STRING_LITERAL,
                        f'"{fname}"',
                        tok.location,
                    )
                ]
            )
            return True
        if info.is_function_like:
            nxt = self._peek_raw_or_pending()
            if nxt.kind != TokenKind.L_PAREN:
                return False  # not an invocation; plain identifier
            args = self._parse_macro_args(info, tok)
            if args is None:
                return True  # error already reported
            expansion = self._substitute(info, args, tok.location)
        else:
            expansion = [
                Token(t.kind, t.spelling, tok.location) for t in info.replacement
            ]
        expansion = self._rescan(expansion, {info.name})
        self._push_pending(expansion)
        return True

    def _peek_raw_or_pending(self) -> Token:
        if self._pending:
            return self._pending[0]
        tok = self._raw_lex()
        if tok.kind != TokenKind.EOF or len(self._levels) <= 1:
            self._level.unlex(tok)
        return tok

    def _next_raw_or_pending(self) -> Token:
        if self._pending:
            return self._pending.popleft()
        return self._raw_lex()

    def _parse_macro_args(
        self, info: MacroInfo, name_tok: Token
    ) -> list[list[Token]] | None:
        """Parse ``(arg, arg, ...)`` following a function-like macro name."""
        lparen = self._next_raw_or_pending()
        assert lparen.kind == TokenKind.L_PAREN
        args: list[list[Token]] = [[]]
        depth = 1
        while True:
            tok = self._next_raw_or_pending()
            if tok.kind == TokenKind.EOF:
                self.diags.report(
                    Severity.ERROR,
                    f"unterminated argument list for macro "
                    f"'{info.name}'",
                    name_tok.location,
                )
                return None
            if tok.kind == TokenKind.L_PAREN:
                depth += 1
            elif tok.kind == TokenKind.R_PAREN:
                depth -= 1
                if depth == 0:
                    break
            elif tok.kind == TokenKind.COMMA and depth == 1:
                # Split at every top-level comma; extra groups are
                # rejoined into __VA_ARGS__ during substitution.
                args.append([])
                continue
            args[-1].append(tok)
        nparams = len(info.params or [])
        if args == [[]] and nparams == 0:
            args = []
        if len(args) != nparams and not (
            info.is_variadic and len(args) >= nparams
        ):
            self.diags.report(
                Severity.ERROR,
                f"macro '{info.name}' expects {nparams} argument(s), "
                f"got {len(args)}",
                name_tok.location,
            )
            return None
        return args

    def _substitute(
        self,
        info: MacroInfo,
        args: list[list[Token]],
        loc: SourceLocation,
    ) -> list[Token]:
        """Parameter substitution incl. ``#`` and ``##``."""
        out: list[Token] = []
        replacement = info.replacement
        i = 0
        while i < len(replacement):
            tok = replacement[i]
            # '#' param -> stringify
            if (
                tok.kind == TokenKind.HASH
                and i + 1 < len(replacement)
                and info.param_index(replacement[i + 1].spelling) >= 0
            ):
                idx = info.param_index(replacement[i + 1].spelling)
                out.append(stringify_tokens(args[idx]))
                i += 2
                continue
            # token ## token -> paste
            if (
                i + 2 < len(replacement)
                and replacement[i + 1].kind == TokenKind.HASHHASH
            ):
                left = self._param_tokens(info, args, tok) or [
                    Token(tok.kind, tok.spelling, loc)
                ]
                rtok = replacement[i + 2]
                right = self._param_tokens(info, args, rtok) or [
                    Token(rtok.kind, rtok.spelling, loc)
                ]
                pasted = paste_tokens(
                    left[-1] if left else Token(TokenKind.UNKNOWN, ""),
                    right[0] if right else Token(TokenKind.UNKNOWN, ""),
                )
                if pasted is None:
                    self.diags.report(
                        Severity.ERROR,
                        "pasting formed an invalid token",
                        loc,
                    )
                    pasted = Token(TokenKind.UNKNOWN, "")
                out.extend(left[:-1])
                out.append(pasted)
                out.extend(right[1:])
                i += 3
                continue
            param = self._param_tokens(info, args, tok)
            if param is not None:
                out.extend(
                    Token(t.kind, t.spelling, loc, has_leading_space=t.has_leading_space)
                    for t in self._rescan(param, set())
                )
            else:
                out.append(Token(tok.kind, tok.spelling, loc,
                                 has_leading_space=tok.has_leading_space))
            i += 1
        return out

    def _param_tokens(
        self, info: MacroInfo, args: list[list[Token]], tok: Token
    ) -> list[Token] | None:
        if tok.kind != TokenKind.IDENTIFIER:
            return None
        idx = info.param_index(tok.spelling)
        if idx < 0:
            if info.is_variadic and tok.spelling == "__VA_ARGS__":
                varargs: list[Token] = []
                for j, arg in enumerate(args[len(info.params or []) :]):
                    if j:
                        varargs.append(Token(TokenKind.COMMA, ","))
                    varargs.extend(arg)
                return varargs
            return None
        return args[idx] if idx < len(args) else []

    def _rescan(
        self, tokens: list[Token], hidden: set[str]
    ) -> list[Token]:
        """Re-examine an expansion for further macro names (recursion-safe)."""
        out: list[Token] = []
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if (
                tok.kind == TokenKind.IDENTIFIER
                and tok.spelling in self.macros
                and tok.spelling not in hidden
            ):
                info = self.macros[tok.spelling]
                if not info.is_function_like:
                    inner = [
                        Token(t.kind, t.spelling, tok.location)
                        for t in info.replacement
                    ]
                    out.extend(
                        self._rescan(inner, hidden | {info.name})
                    )
                    i += 1
                    continue
                if (
                    i + 1 < len(tokens)
                    and tokens[i + 1].kind == TokenKind.L_PAREN
                ):
                    args, consumed = self._parse_args_from_list(
                        info, tokens, i + 1
                    )
                    if args is not None:
                        inner = self._substitute(info, args, tok.location)
                        out.extend(
                            self._rescan(inner, hidden | {info.name})
                        )
                        i = consumed
                        continue
            out.append(tok)
            i += 1
        return out

    def _parse_args_from_list(
        self, info: MacroInfo, tokens: list[Token], lparen_idx: int
    ) -> tuple[list[list[Token]] | None, int]:
        depth = 0
        args: list[list[Token]] = [[]]
        i = lparen_idx
        while i < len(tokens):
            tok = tokens[i]
            if tok.kind == TokenKind.L_PAREN:
                depth += 1
                if depth > 1:
                    args[-1].append(tok)
            elif tok.kind == TokenKind.R_PAREN:
                depth -= 1
                if depth == 0:
                    nparams = len(info.params or [])
                    if args == [[]] and nparams == 0:
                        args = []
                    if len(args) != nparams and not (
                        info.is_variadic and len(args) >= nparams
                    ):
                        return None, lparen_idx
                    return args, i + 1
                args[-1].append(tok)
            elif tok.kind == TokenKind.COMMA and depth == 1:
                args.append([])
            else:
                args[-1].append(tok)
            i += 1
        return None, lparen_idx

    def _push_pending(self, tokens: list[Token]) -> None:
        self._pending.extendleft(reversed(tokens))

    # ------------------------------------------------------------------
    # Directive handling
    # ------------------------------------------------------------------
    def _handle_directive(self) -> None:
        tokens = self._collect_directive_tokens()
        if not tokens:
            return  # null directive '#'
        head = tokens[0]
        name = head.spelling
        body = tokens[1:]
        handler = {
            "include": self._do_include,
            "define": self._do_define,
            "undef": self._do_undef,
            "if": self._do_if,
            "ifdef": self._do_ifdef,
            "ifndef": self._do_ifndef,
            "elif": self._do_elif,
            "else": self._do_else,
            "endif": self._do_endif,
            "pragma": self._do_pragma,
            "line": self._do_line,
            "error": self._do_error,
            "warning": self._do_warning,
        }.get(name)
        if handler is None:
            self.diags.report(
                Severity.ERROR,
                f"invalid preprocessing directive '#{name}'",
                head.location,
            )
            return
        handler(head, body)

    # --- #include ---------------------------------------------------
    def _do_include(self, head: Token, body: list[Token]) -> None:
        if len(self._levels) >= _MAX_INCLUDE_DEPTH:
            self.diags.report(
                Severity.FATAL,
                "#include nested too deeply",
                head.location,
            )
        angled = False
        filename: str | None = None
        if body and body[0].kind == TokenKind.STRING_LITERAL:
            filename = body[0].spelling[1:-1]
        elif body and body[0].kind == TokenKind.LESS:
            angled = True
            parts = []
            for tok in body[1:]:
                if tok.kind == TokenKind.GREATER:
                    break
                parts.append(tok.spelling)
            filename = "".join(parts)
        if not filename:
            self.diags.report(
                Severity.ERROR,
                "expected \"FILENAME\" or <FILENAME> after #include",
                head.location,
            )
            return
        including = self.sm.get_filename(head.location)
        entry = self.fm.resolve_include(filename, including, angled)
        if entry is None:
            self.diags.report(
                Severity.FATAL,
                f"'{filename}' file not found",
                head.location,
            )
            return
        buffer = self.fm.get_buffer(entry)
        fid = self.sm.create_file_id(buffer)
        self._levels.append(
            _IncludeLevel(Lexer(self.sm, fid, self.diags), entry.name)
        )

    # --- #define / #undef --------------------------------------------
    def _do_define(self, head: Token, body: list[Token]) -> None:
        if not body or body[0].kind != TokenKind.IDENTIFIER:
            self.diags.report(
                Severity.ERROR,
                "macro name missing or not an identifier",
                head.location,
            )
            return
        name_tok = body[0]
        rest = body[1:]
        params: list[str] | None = None
        is_variadic = False
        # Function-like iff '(' immediately follows the name (no space).
        if (
            rest
            and rest[0].kind == TokenKind.L_PAREN
            and not rest[0].has_leading_space
        ):
            params = []
            i = 1
            expecting_param = True
            while i < len(rest) and rest[i].kind != TokenKind.R_PAREN:
                tok = rest[i]
                if tok.kind == TokenKind.IDENTIFIER and expecting_param:
                    params.append(tok.spelling)
                    expecting_param = False
                elif tok.kind == TokenKind.ELLIPSIS and expecting_param:
                    is_variadic = True
                    expecting_param = False
                elif tok.kind == TokenKind.COMMA and not expecting_param:
                    expecting_param = True
                else:
                    self.diags.report(
                        Severity.ERROR,
                        "invalid token in macro parameter list",
                        tok.location,
                    )
                    return
                i += 1
            if i >= len(rest):
                self.diags.report(
                    Severity.ERROR,
                    "missing ')' in macro parameter list",
                    name_tok.location,
                )
                return
            rest = rest[i + 1 :]
        info = MacroInfo(
            name_tok.spelling, rest, params=params, is_variadic=is_variadic
        )
        existing = self.macros.get(info.name)
        if existing is not None and not existing.definition_equals(info):
            self.diags.report(
                Severity.WARNING,
                f"'{info.name}' macro redefined",
                name_tok.location,
            )
        self.macros[info.name] = info

    def _do_undef(self, head: Token, body: list[Token]) -> None:
        if not body or body[0].kind != TokenKind.IDENTIFIER:
            self.diags.report(
                Severity.ERROR,
                "macro name missing after #undef",
                head.location,
            )
            return
        self.macros.pop(body[0].spelling, None)

    # --- Conditionals --------------------------------------------------
    def _evaluate_condition(self, body: list[Token]) -> bool:
        # Resolve `defined` before expansion, as the standard requires.
        resolved: list[Token] = []
        i = 0
        while i < len(body):
            tok = body[i]
            if tok.is_identifier("defined"):
                j = i + 1
                name = None
                if j < len(body) and body[j].kind == TokenKind.L_PAREN:
                    if (
                        j + 2 < len(body)
                        and body[j + 2].kind == TokenKind.R_PAREN
                    ):
                        name = body[j + 1].spelling
                        i = j + 3
                elif j < len(body):
                    name = body[j].spelling
                    i = j + 1
                if name is None:
                    self.diags.report(
                        Severity.ERROR,
                        "macro name missing after 'defined'",
                        tok.location,
                    )
                    return False
                resolved.append(
                    Token(
                        TokenKind.NUMERIC_CONSTANT,
                        "1" if name in self.macros else "0",
                        tok.location,
                    )
                )
                continue
            resolved.append(tok)
            i += 1
        expanded = self._rescan(resolved, set())
        return (
            PPExpressionEvaluator(expanded, self.diags).evaluate() != 0
        )

    def _do_if(self, head: Token, body: list[Token]) -> None:
        taken = self._evaluate_condition(body)
        self._level.conditionals.append(
            _ConditionalState(taken, False, head.location)
        )
        if not taken:
            self._skip_to_next_branch()

    def _do_ifdef(self, head: Token, body: list[Token]) -> None:
        taken = bool(body) and body[0].spelling in self.macros
        self._level.conditionals.append(
            _ConditionalState(taken, False, head.location)
        )
        if not taken:
            self._skip_to_next_branch()

    def _do_ifndef(self, head: Token, body: list[Token]) -> None:
        taken = bool(body) and body[0].spelling not in self.macros
        self._level.conditionals.append(
            _ConditionalState(taken, False, head.location)
        )
        if not taken:
            self._skip_to_next_branch()

    def _do_elif(self, head: Token, body: list[Token]) -> None:
        if not self._level.conditionals:
            self.diags.report(
                Severity.ERROR, "#elif without #if", head.location
            )
            return
        state = self._level.conditionals[-1]
        if state.in_else:
            self.diags.report(
                Severity.ERROR, "#elif after #else", head.location
            )
        # Arriving here in normal lexing means the previous branch was taken;
        # skip to #endif.
        self._skip_to_endif()

    def _do_else(self, head: Token, body: list[Token]) -> None:
        if not self._level.conditionals:
            self.diags.report(
                Severity.ERROR, "#else without #if", head.location
            )
            return
        state = self._level.conditionals[-1]
        if state.in_else:
            self.diags.report(
                Severity.ERROR, "#else after #else", head.location
            )
        state.in_else = True
        # The previous branch was taken -> skip the else branch.
        self._skip_to_endif()

    def _do_endif(self, head: Token, body: list[Token]) -> None:
        if not self._level.conditionals:
            self.diags.report(
                Severity.ERROR, "#endif without #if", head.location
            )
            return
        self._level.conditionals.pop()

    def _skip_tokens_until_branch(
        self, stop_at_branches: bool
    ) -> None:
        """Skip raw tokens tracking #if nesting.

        When *stop_at_branches* is true, stops at #elif/#else at depth 0
        (evaluating #elif conditions); otherwise only #endif terminates.
        """
        depth = 0
        while True:
            tok = self._level.lex()
            if tok.kind == TokenKind.EOF:
                self._level.unlex(tok)
                self.diags.report(
                    Severity.ERROR,
                    "unterminated conditional directive",
                    self._level.conditionals[-1].location
                    if self._level.conditionals
                    else None,
                )
                if self._level.conditionals:
                    self._level.conditionals.pop()
                return
            if not (tok.kind == TokenKind.HASH and tok.at_line_start):
                continue
            dtoks = self._collect_directive_tokens()
            if not dtoks:
                continue
            name = dtoks[0].spelling
            if name in ("if", "ifdef", "ifndef"):
                depth += 1
            elif name == "endif":
                if depth == 0:
                    self._level.conditionals.pop()
                    return
                depth -= 1
            elif depth == 0 and stop_at_branches:
                if name == "elif":
                    state = self._level.conditionals[-1]
                    if not state.was_taken and self._evaluate_condition(
                        dtoks[1:]
                    ):
                        state.was_taken = True
                        return
                elif name == "else":
                    state = self._level.conditionals[-1]
                    state.in_else = True
                    if not state.was_taken:
                        state.was_taken = True
                        return

    def _skip_to_next_branch(self) -> None:
        self._skip_tokens_until_branch(stop_at_branches=True)

    def _skip_to_endif(self) -> None:
        self._skip_tokens_until_branch(stop_at_branches=False)

    # --- #pragma --------------------------------------------------------
    def _do_pragma(self, head: Token, body: list[Token]) -> None:
        if not body:
            return
        first = body[0]
        if first.is_identifier("omp"):
            if not self.options.openmp:
                # Without -fopenmp clang ignores omp pragmas (with a
                # warning when -Wsource-uses-openmp).
                self.diags.report(
                    Severity.WARNING,
                    "unexpected '#pragma omp ...' in program; "
                    "use -fopenmp to enable OpenMP support",
                    head.location,
                )
                return
            directive_tokens = body[1:]
            if (
                self.options.strip_omp_transforms
                and directive_tokens
                and directive_tokens[0].spelling
                in TRANSFORM_DIRECTIVES
            ):
                # the whole directive (clauses included) vanishes; any
                # following directive then associates directly with the
                # loop nest underneath.
                return
            annot = Token(
                TokenKind.ANNOT_PRAGMA_OPENMP,
                "#pragma omp",
                head.location,
                annotation_value=directive_tokens,
            )
            end = Token(
                TokenKind.ANNOT_PRAGMA_OPENMP_END,
                "",
                (directive_tokens[-1].end_location()
                 if directive_tokens
                 else head.location),
            )
            self._push_pending([annot, end])
            return
        if (
            first.is_identifier("clang")
            and len(body) >= 2
            and body[1].is_identifier("loop")
        ):
            annot = Token(
                TokenKind.ANNOT_PRAGMA_LOOPHINT,
                "#pragma clang loop",
                head.location,
                annotation_value=body[2:],
            )
            self._push_pending([annot])
            return
        if first.is_identifier("once"):
            return  # we have no re-include tracking; benign to ignore
        self.diags.report(
            Severity.WARNING,
            f"unknown pragma '{first.spelling}' ignored",
            head.location,
        )

    # --- misc ------------------------------------------------------------
    def _do_line(self, head: Token, body: list[Token]) -> None:
        if not body or body[0].kind != TokenKind.NUMERIC_CONSTANT:
            self.diags.report(
                Severity.ERROR,
                "#line directive requires a positive integer argument",
                head.location,
            )
            return
        line = int(body[0].spelling)
        filename = self.sm.get_filename(head.location)
        if len(body) > 1 and body[1].kind == TokenKind.STRING_LITERAL:
            filename = body[1].spelling[1:-1]
        # The override applies from the *next* line on.
        next_loc = (
            body[-1].end_location()
        )
        self.sm.add_line_override(next_loc, filename, line - 1)

    def _do_error(self, head: Token, body: list[Token]) -> None:
        message = " ".join(t.spelling for t in body)
        self.diags.report(Severity.ERROR, message or "#error", head.location)

    def _do_warning(self, head: Token, body: list[Token]) -> None:
        message = " ".join(t.spelling for t in body)
        self.diags.report(
            Severity.WARNING, message or "#warning", head.location
        )
