"""Guest output reaches stdout byte for byte.

A C string literal is bytes: Sema holds ``"é"`` as one char per byte of
its UTF-8 spelling (``sizeof("é")`` is 3, as in GCC), CodeGen emits those
bytes, and a byte the guest writes with ``printf``, ``%c`` or
``putchar`` reaches the driver's stdout as that byte, not as the UTF-8
encoding of a character.  The expected bytes are what GCC 12 binaries of
the same programs write.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.pipeline import compile_source

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

ACCENT = (
    "int printf(const char *fmt, ...);\n"
    'int main(void) { printf("é\\n"); return 0; }\n'
)
HIGH_BYTES = (
    "int printf(const char *fmt, ...);\n"
    "int putchar(int c);\n"
    "int main(void) {\n"
    '  putchar(255); printf("%c", 200); printf("\\xff\\n");\n'
    "  return 0;\n"
    "}\n"
)

#: program -> the bytes its GCC 12 binary writes
GCC_STDOUT = {ACCENT: b"\xc3\xa9\n", HIGH_BYTES: b"\xff\xc8\xff\n"}


@pytest.mark.parametrize("engine", ["interp", "closures"])
@pytest.mark.parametrize("optimize", ["-O0", "-O1"])
@pytest.mark.parametrize(
    "source", list(GCC_STDOUT), ids=["accent", "high-bytes"]
)
def test_cli_writes_the_bytes_gcc_writes(tmp_path, source, optimize, engine):
    path = tmp_path / "prog.c"
    path.write_bytes(source.encode("utf-8"))
    out = subprocess.run(
        [
            sys.executable, "-m", "repro.driver.cli", "--run", optimize,
            f"-fexec={engine}", str(path),
        ],
        capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
    )
    assert out.stdout == GCC_STDOUT[source]


def test_string_literal_ir_holds_its_bytes():
    ir = compile_source(ACCENT).ir_text()
    assert '[4 x i8] c"\\C3\\A9\\0A\\00"' in ir
