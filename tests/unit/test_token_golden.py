"""Byte-identity golden for the token streams the front end sees.

Pinned in ``token_golden.json``:

* for every example and conformance source (``diagnostics/`` and
  ``strip/`` included), a digest of ``Preprocessor.lex_all``'s tokens
  as ``(kind, spelling, offset, at_line_start, has_leading_space)``,
  the tokens of every pragma annotation's payload, and the diagnostics
  the preprocessor reported;
* for a fixed list of edge strings, the same tuples and diagnostics of
  ``tokenize_string`` with keywords enabled and disabled, spelled out.

A rewrite of the lexer or the preprocessor must not move a token, a
flag or a diagnostic.  A deliberate change regenerates the file with
``PYTHONPATH=src python tests/unit/test_token_golden.py``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import pytest

from repro.diagnostics import DiagnosticsEngine
from repro.lex.lexer import tokenize_string
from repro.preprocessor.preprocessor import Preprocessor
from repro.sourcemgr.file_manager import FileManager
from repro.sourcemgr.source_manager import SourceManager

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
GOLDEN = os.path.join(os.path.dirname(__file__), "token_golden.json")

#: strings at the edges of the lexer's grammar
EDGE_STRINGS = (
    # pp-numbers
    "1e+5",
    "0x1p-3",
    ".5",
    "1.e5",
    "1.5e-3f 1ULL 010 0x1F",
    "0x1e+5",
    "1..2",
    "1.2.3",
    "e+5",
    "9abc_$1",
    # punctuators and maximal munch
    "x+++y",
    "<<=",
    ">>= >> >= >",
    "...",
    "..",
    "a..b",
    "x->y a.b",
    "a&&b||c##d::e",
    "( ) { } [ ] ; , ? : = # & | ^ ~ ! % / * + - < >",
    # identifiers and keywords
    "$id",
    "for int forx _Bool __restrict true",
    # trivia, splices and line endings
    "a\\\nb",
    "a\\\r\nb",
    "a\\\rb",
    "a\r\nb\r\n",
    "a\rb",
    "\t\f\va b",
    " a b",
    "a /* x */ b",
    "a /* x\ny */ b",
    "a // c\nb",
    "a // c\\\nb",
    "a/**/b",
    "a/ /b",
    "#pragma omp for\nx",
    "\\",
    "a\\ \nb",
    # literals
    '"hello \\"world\\""',
    "'a' '\\n' '\\''",
    '"a\\\nb"',
    # unterminated and stray
    '"abc',
    '"ab\ncd"',
    "'a",
    "/* never",
    "a @ b",
    "a ` b",
    "é",
)


def token_tuples(tokens) -> list:
    out = []
    for tok in tokens:
        out.append(
            [
                tok.kind.name,
                tok.spelling,
                tok.location.offset,
                tok.at_line_start,
                tok.has_leading_space,
            ]
        )
        if isinstance(tok.annotation_value, list):
            out.append(token_tuples(tok.annotation_value))
    return out


def diagnostic_tuples(diags: DiagnosticsEngine) -> list:
    return [
        [d.severity.name, d.message, d.location.offset if d.location else None]
        for d in diags.diagnostics
    ]


def source_files() -> dict[str, str]:
    paths = sorted(
        glob.glob(os.path.join(ROOT, "examples", "*.c"))
        + glob.glob(
            os.path.join(ROOT, "tests", "conformance", "**", "*.c"),
            recursive=True,
        )
    )
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out[os.path.relpath(path, ROOT)] = fh.read()
    return out


def preprocessed_digest(source: str) -> str:
    sm = SourceManager()
    diags = DiagnosticsEngine(sm)
    pp = Preprocessor(sm, FileManager([]), diags)
    pp.enter_source(source, "input.c")
    record = {
        "tokens": token_tuples(pp.lex_all()),
        "diagnostics": diagnostic_tuples(diags),
    }
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def edge_record(text: str, keywords_enabled: bool) -> dict:
    diags = DiagnosticsEngine()
    tokens = tokenize_string(
        text, diags=diags, keywords_enabled=keywords_enabled
    )
    return {
        "tokens": token_tuples(tokens),
        "diagnostics": diagnostic_tuples(diags),
    }


def edge_key(text: str, keywords_enabled: bool) -> str:
    return f"{text!r} [{'keywords' if keywords_enabled else 'no-keywords'}]"


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


FILES = source_files()


@pytest.mark.parametrize("name", sorted(FILES))
def test_preprocessed_tokens_match_golden(name):
    assert preprocessed_digest(FILES[name]) == _golden()["files"][name]


@pytest.mark.parametrize("keywords_enabled", [True, False])
@pytest.mark.parametrize("text", EDGE_STRINGS, ids=repr)
def test_edge_string_tokens_match_golden(text, keywords_enabled):
    key = edge_key(text, keywords_enabled)
    assert edge_record(text, keywords_enabled) == _golden()["edges"][key]


def test_golden_covers_every_input():
    golden = _golden()
    assert sorted(golden["files"]) == sorted(FILES)
    assert any(name.startswith("tests/conformance/diagnostics/")
               for name in FILES)
    assert any(name.startswith("tests/conformance/strip/") for name in FILES)
    assert len(golden["edges"]) == 2 * len(EDGE_STRINGS)


if __name__ == "__main__":
    table = {
        "files": {
            name: preprocessed_digest(source)
            for name, source in sorted(FILES.items())
        },
        "edges": {
            edge_key(text, kw): edge_record(text, kw)
            for text in EDGE_STRINGS
            for kw in (True, False)
        },
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
