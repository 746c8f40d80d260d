"""Diagnostics engine modelled on Clang's ``DiagnosticsEngine``.

The paper (section "Shadow AST Representation") discusses the importance of
diagnostic quality when semantic analysis operates on internal shadow AST
nodes: diagnostics must not leak internal variable names such as
``.capture_expr.`` and should point at a *representative source location* of
the associated literal loop.  This module provides:

* :class:`Severity` — note/remark/warning/error/fatal levels.
* :class:`Diagnostic` — one emitted message with a source location and
  optional attached notes (Clang "note:" diagnostics augmenting a primary
  warning/error, e.g. "template instantiation required here").
* :class:`DiagnosticsEngine` — collects diagnostics, counts errors, renders
  clang-style ``file:line:col: error: message`` text with source snippets and
  caret markers.

The engine is shared by every layer (Lexer, Preprocessor, Parser, Sema,
CodeGen) exactly as in Clang's layered architecture (paper Fig. 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sourcemgr.source_manager import SourceManager
    from repro.sourcemgr.location import SourceLocation


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered from least to most severe."""

    IGNORED = 0
    NOTE = 1
    REMARK = 2
    WARNING = 3
    ERROR = 4
    FATAL = 5

    @property
    def label(self) -> str:
        return _SEVERITY_LABELS[self]


_SEVERITY_LABELS = {
    Severity.IGNORED: "ignored",
    Severity.NOTE: "note",
    Severity.REMARK: "remark",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
    Severity.FATAL: "fatal error",
}


@dataclass
class Diagnostic:
    """A single diagnostic message.

    ``notes`` carries secondary :class:`Diagnostic` objects with
    ``Severity.NOTE`` that explain the primary message, mirroring Clang's
    note diagnostics ("declared here", "required from here", ...).
    """

    severity: Severity
    message: str
    location: Optional["SourceLocation"] = None
    notes: list["Diagnostic"] = field(default_factory=list)
    category: str = ""

    def add_note(
        self, message: str, location: Optional["SourceLocation"] = None
    ) -> "Diagnostic":
        """Attach a note diagnostic and return *self* for chaining."""
        self.notes.append(Diagnostic(Severity.NOTE, message, location))
        return self

    def render(self, source_manager: Optional["SourceManager"] = None) -> str:
        """Render in clang style, optionally with a source snippet + caret."""
        parts = [self._render_one(self, source_manager)]
        for note in self.notes:
            parts.append(self._render_one(note, source_manager))
        return "\n".join(parts)

    @staticmethod
    def _render_one(
        diag: "Diagnostic", source_manager: Optional["SourceManager"]
    ) -> str:
        prefix = "<unknown>"
        snippet = ""
        if diag.location is not None and diag.location.is_valid():
            if source_manager is not None:
                ploc = source_manager.get_presumed_loc(diag.location)
                prefix = f"{ploc.filename}:{ploc.line}:{ploc.column}"
                line_text = source_manager.get_line_text(diag.location)
                if line_text is not None:
                    caret = " " * (ploc.column - 1) + "^"
                    snippet = f"\n{line_text}\n{caret}"
            else:
                prefix = str(diag.location)
        text = f"{prefix}: {diag.severity.label}: {diag.message}"
        return text + snippet

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


class FatalErrorOccurred(Exception):
    """Raised when a diagnostic with ``Severity.FATAL`` is emitted."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class TooManyErrors(Exception):
    """Raised when the error limit is exceeded (clang's ``-ferror-limit``)."""


class DiagnosticsEngine:
    """Collects diagnostics emitted by all compiler layers.

    Parameters
    ----------
    source_manager:
        Used to translate :class:`SourceLocation` to file/line/column when
        rendering.  May be attached later via :attr:`source_manager`.
    error_limit:
        Upper bound on the number of errors before aborting, 0 = unlimited.
    warnings_as_errors:
        Clang's ``-Werror``.
    """

    def __init__(
        self,
        source_manager: Optional["SourceManager"] = None,
        error_limit: int = 0,
        warnings_as_errors: bool = False,
    ) -> None:
        from repro.instrument.remarks import RemarkEmitter

        self.source_manager = source_manager
        self.error_limit = error_limit
        self.warnings_as_errors = warnings_as_errors
        self.diagnostics: list[Diagnostic] = []
        self._suppress_depth = 0
        #: structured optimization remarks (``-Rpass`` family); shared by
        #: every layer holding this engine, like the diagnostics list
        self.remarks = RemarkEmitter()

    # ------------------------------------------------------------------
    # Emission API
    # ------------------------------------------------------------------
    def report(
        self,
        severity: Severity,
        message: str,
        location: Optional["SourceLocation"] = None,
        category: str = "",
    ) -> Diagnostic:
        """Emit a diagnostic and return it (so callers can attach notes)."""
        if severity == Severity.WARNING and self.warnings_as_errors:
            severity = Severity.ERROR
        diag = Diagnostic(severity, message, location, category=category)
        if self._suppress_depth > 0 and severity < Severity.FATAL:
            return diag
        if (
            self.error_limit
            and Severity.ERROR <= severity < Severity.FATAL
            and self.error_count >= self.error_limit
        ):
            # Like clang: exactly -ferror-limit=N errors are shown, the
            # N+1'th is replaced by the "too many errors" fatal.
            raise TooManyErrors(f"more than {self.error_limit} errors emitted")
        self.diagnostics.append(diag)
        if severity >= Severity.FATAL:
            raise FatalErrorOccurred(diag)
        return diag

    def error(
        self, message: str, location: Optional["SourceLocation"] = None
    ) -> Diagnostic:
        return self.report(Severity.ERROR, message, location)

    def warning(
        self, message: str, location: Optional["SourceLocation"] = None
    ) -> Diagnostic:
        return self.report(Severity.WARNING, message, location)

    def note(
        self, message: str, location: Optional["SourceLocation"] = None
    ) -> Diagnostic:
        return self.report(Severity.NOTE, message, location)

    def remark(
        self, message: str, location: Optional["SourceLocation"] = None
    ) -> Diagnostic:
        return self.report(Severity.REMARK, message, location)

    def fatal(
        self, message: str, location: Optional["SourceLocation"] = None
    ) -> Diagnostic:
        return self.report(Severity.FATAL, message, location)

    # ------------------------------------------------------------------
    # Suppression (used by Sema for tentative/speculative analysis)
    # ------------------------------------------------------------------
    class _Suppressor:
        def __init__(self, engine: "DiagnosticsEngine"):
            self.engine = engine
            self.remarks_before = 0

        def __enter__(self) -> "DiagnosticsEngine":
            self.engine._suppress_depth += 1
            self.remarks_before = len(self.engine.remarks.remarks)
            return self.engine

        def __exit__(self, *exc) -> None:
            self.engine._suppress_depth -= 1
            del self.engine.remarks.remarks[self.remarks_before :]

    def suppressed(self) -> "DiagnosticsEngine._Suppressor":
        """Context manager that silences non-fatal diagnostics and drops
        the remarks emitted inside it."""
        return DiagnosticsEngine._Suppressor(self)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def error_count(self) -> int:
        return sum(
            1 for d in self.diagnostics if d.severity >= Severity.ERROR
        )

    @property
    def warning_count(self) -> int:
        return sum(
            1 for d in self.diagnostics if d.severity == Severity.WARNING
        )

    @property
    def ice_count(self) -> int:
        """Internal compiler errors recovered into diagnostics (category
        ``"ice"``, emitted by :mod:`repro.core.crash_recovery`)."""
        return sum(1 for d in self.diagnostics if d.category == "ice")

    def has_internal_errors(self) -> bool:
        return self.ice_count > 0

    def has_errors(self) -> bool:
        return self.error_count > 0

    def errors(self) -> Iterator[Diagnostic]:
        return (d for d in self.diagnostics if d.severity >= Severity.ERROR)

    def warnings(self) -> Iterator[Diagnostic]:
        return (
            d for d in self.diagnostics if d.severity == Severity.WARNING
        )

    def by_category(self, category: str) -> Iterator[Diagnostic]:
        return (d for d in self.diagnostics if d.category == category)

    def clear(self) -> None:
        self.diagnostics.clear()

    def render_all(self) -> str:
        """Render every diagnostic, clang style, one block per diagnostic."""
        return "\n".join(
            d.render(self.source_manager) for d in self.diagnostics
        )

    def summary(self) -> str:
        """A clang-like trailer, e.g. ``2 warnings and 1 error generated.``"""
        pieces = []
        if self.warning_count:
            plural = "s" if self.warning_count != 1 else ""
            pieces.append(f"{self.warning_count} warning{plural}")
        if self.error_count:
            plural = "s" if self.error_count != 1 else ""
            pieces.append(f"{self.error_count} error{plural}")
        if not pieces:
            return ""
        return " and ".join(pieces) + " generated."

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)
