"""Byte-identity golden for the compiler's observable output.

For every example and conformance source, plus a fixed slice of
generator programs, each compiled in both OpenMP representations, the
outputs of a source that compiles with default flags are hashed:

* the O0 IR (CodeGen's output, before the mid-end);
* the ``-ast-dump`` and ``-ast-dump-shadow`` text;
* the full diagnostics text (warnings included);
* the ``-print-after-all`` dump of the -O1 mid-end;
* the ``-print-stats`` text of the whole compile;
* every optimization remark (``-Rpass=.* -Rpass-missed=.*
  -Rpass-analysis=.*``);
* ``PipelineRunResult.changes_by_pass()``.

A source that does not compile pins its diagnostics text instead.

The digests in ``midend_golden.json`` pin them: a refactor of Sema,
CodeGen or the mid-end must not change a byte of what they print.  A
deliberate output change regenerates the file with
``PYTHONPATH=src python tests/unit/test_midend_golden.py``.
"""

from __future__ import annotations

import glob
import hashlib
import io
import json
import os

import pytest

from repro.instrument import STATS, render_stats
from repro.instrument.passinstrument import PassInstrumentation
from repro.midend import default_pass_pipeline
from repro.pipeline import CompilationError, compile_source
from repro.testing.generator import generate_program

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
GOLDEN = os.path.join(os.path.dirname(__file__), "midend_golden.json")

#: generator programs: first seed and how many (a third with unroll)
GENERATOR_START = 70_000
GENERATED = 20
MODES = ("shadow", "irbuilder")


def fixed_sources() -> dict[str, str]:
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


def generated_sources(start: int = GENERATOR_START, count: int = GENERATED):
    """*count* generator programs with at most one unroll directive,
    a third of them using one."""
    quota = {True: count // 3, False: count - count // 3}
    out: dict[str, str] = {}
    seed = start
    while len(out) < count:
        program = generate_program(seed)
        unrolled = any("unroll" in f for f in program.features)
        if (
            sum("unroll" in p for p in program.pragmas) <= 1
            and quota[unrolled] > 0
        ):
            quota[unrolled] -= 1
            out[f"gen-{seed}"] = program.source
        seed += 1
    return out


def all_sources() -> dict[str, str]:
    return {**fixed_sources(), **generated_sources()}


def midend_outputs(source: str, mode: str) -> dict[str, str]:
    """The observable outputs of one compile; only the diagnostics
    text when *source* does not compile with default flags."""
    before = STATS.counter_values()
    try:
        result = compile_source(
            source,
            filename="input.c",
            enable_irbuilder=mode == "irbuilder",
        )
    except CompilationError as err:
        return {"diagnostics": err.diagnostics_text}
    front_end = {
        "o0-ir": result.ir_text(),
        "ast-dump": result.ast_dump(),
        "ast-dump-shadow": result.ast_dump(dump_shadow=True),
        "diagnostics": result.diagnostics_text(),
    }
    dump = io.StringIO()
    instrument = PassInstrumentation(print_after_all=True, stream=dump)
    remarks = result.diagnostics.remarks
    run = default_pass_pipeline(remarks=remarks, instrument=instrument).run(
        result.module, instrument
    )
    selected = remarks.filtered(passed=".*", missed=".*", analysis=".*")
    return {
        **front_end,
        "print-after-all": dump.getvalue(),
        "print-stats": render_stats(STATS.delta_since(before)),
        "remarks": "\n".join(
            r.render(result.source_manager) for r in selected
        ),
        "changes-by-pass": json.dumps(run.changes_by_pass()),
    }


def digests(source: str, mode: str) -> dict[str, str]:
    outputs = midend_outputs(source, mode)
    return {
        key: hashlib.sha256(text.encode()).hexdigest()
        for key, text in outputs.items()
    }


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


SOURCES = all_sources()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_midend_output_matches_golden(name, mode):
    expected = _golden().get(f"{name} [{mode}]")
    assert digests(SOURCES[name], mode) == expected


def test_golden_covers_generated_programs():
    golden = _golden()
    compiled = {
        key.rsplit(" [", 1)[0]
        for key, v in golden.items()
        if "print-after-all" in v
    }
    assert sum(n.startswith("gen-") for n in compiled) == GENERATED
    assert len(compiled) >= 40


if __name__ == "__main__":
    table = {
        f"{name} [{mode}]": digests(source, mode)
        for name, source in sorted(SOURCES.items())
        for mode in MODES
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
