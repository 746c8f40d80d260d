"""Floating-point semantics both engines share, end to end.

Each program runs on both engines, in both representations, at O0 and
O1, through the CLI; expected outputs are GCC 12's.

* ``float`` arithmetic rounds to single precision at run time, so a
  ``float`` that mem2reg keeps in a register at O1 prints what it prints
  at O0, where the store to memory rounds it.
* Converting inf or NaN to an integer is a guest trap (exit 1) with one
  message, not an internal compiler error; a constant one compiles.
* C's ``!=`` on floating operands and a float's truth value are
  ``fcmp une``, which is true when an operand is NaN.
* Dividing by a zero gives an infinity whose sign is the product of the
  operands' signs, so ``1.0 / -0.0`` is ``-inf``; ``0.0 / 0.0`` is NaN.
* An integer wider than a double's significand converts to ``float``
  with one rounding, folded at compile time or at run time.
"""

from __future__ import annotations

import pytest

from repro.driver.cli import EXIT_OK, EXIT_USER_ERROR, main
from repro.pipeline import compile_source

pytestmark = [
    pytest.mark.exec_differential,
    pytest.mark.parametrize("engine", ["interp", "closures"]),
    pytest.mark.parametrize("optimize", ["-O0", "-O1"]),
    pytest.mark.parametrize(
        "representation", ["shadow", "irbuilder"]
    ),
]

SINGLE_PRECISION = """
int printf(const char *fmt, ...);
int main(void) {
  float a = 16777216.0f;
  float b = a + 1.0f;
  float s = 0.0f;
  for (int i = 0; i < 10; i++) s += 0.1f;
  printf("%f %.9f\\n", (double)b, (double)s);
  return 0;
}
"""

INF_TO_INT = """
int printf(const char *fmt, ...);
int main(void) {
  double big = 1e308;
  big = big * 10.0;
  int x = (int)big;
  printf("%d\\n", x);
  return 0;
}
"""

CONSTANT_INF_TO_INT = """
int printf(const char *fmt, ...);
int main(void) {
  int x = (int)(1e308 * 10.0);
  printf("%d\\n", x);
  return 0;
}
"""

NAN_UNEQUAL = """
int printf(const char *fmt, ...);
int main(void) {
  double z = 0.0;
  double n = z / z;
  double x = 1.0, y = 2.0;
  printf("%d %d %d %d\\n", n != n, n ? 1 : 0, x != y, x != x);
  return 0;
}
"""


SIGNED_ZERO_DIVISOR = """
int printf(const char *fmt, ...);
int main(void) {
  double z = -0.0;
  double p = 0.0;
  printf("%f %f\\n", 1.0 / z, -1.0 / z);
  printf("%f %f\\n", 1.0 / p, -1.0 / p);
  double n = p / p;
  printf("%d\\n", n != n);
  float fz = -0.0f;
  printf("%f\\n", (double)(2.0f / fz));
  return 0;
}
"""

WIDE_INT_TO_FLOAT = """
int printf(const char *fmt, ...);
long wide = (1L << 54) + (1L << 30) + 1;
unsigned long uwide = (1UL << 63) + (1UL << 39) + 1;
int main(void) {
  long v = (1L << 54) + (1L << 30) + 1;
  float f = v;
  float g = wide;
  float h = uwide;
  float k = -wide;
  printf("%f %f\\n", (double)f, (double)g);
  printf("%f %f\\n", (double)h, (double)k);
  return 0;
}
"""


def run(tmp_path, capsys, source, engine, optimize, representation):
    path = tmp_path / "prog.c"
    path.write_text(source)
    argv = ["--run", "-fexec", engine, optimize, str(path)]
    if representation == "irbuilder":
        argv.insert(0, "-fopenmp-enable-irbuilder")
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_float_arithmetic_rounds_to_single_precision(
    tmp_path, capsys, engine, optimize, representation
):
    assert run(
        tmp_path, capsys, SINGLE_PRECISION, engine, optimize, representation
    ) == (EXIT_OK, "16777216.000000 1.000000119\n", "")


@pytest.mark.parametrize("source", [INF_TO_INT, CONSTANT_INF_TO_INT])
def test_inf_to_int_is_a_guest_trap(
    tmp_path, capsys, source, engine, optimize, representation
):
    assert run(
        tmp_path, capsys, source, engine, optimize, representation
    ) == (
        EXIT_USER_ERROR,
        "",
        "miniclang: error: conversion of inf or NaN to an integer\n",
    )


def test_float_inequality_is_unordered(
    tmp_path, capsys, engine, optimize, representation
):
    assert run(
        tmp_path, capsys, NAN_UNEQUAL, engine, optimize, representation
    ) == (EXIT_OK, "1 1 1 0\n", "")
    if engine == "interp":  # the IR does not depend on the engine
        ir = compile_source(
            "int f(double x, double y) { return x != y; }\n"
            "int g(double x) { return x ? 1 : 0; }\n",
            optimize=optimize == "-O1",
            enable_irbuilder=representation == "irbuilder",
        ).ir_text()
        assert ir.count("fcmp une double") == 2
        assert "fcmp one" not in ir


def test_division_by_zero_takes_the_sign_of_the_zero(
    tmp_path, capsys, engine, optimize, representation
):
    assert run(
        tmp_path, capsys, SIGNED_ZERO_DIVISOR, engine, optimize,
        representation,
    ) == (EXIT_OK, "-inf inf\ninf -inf\n1\n-inf\n", "")


def test_wide_integer_to_float_rounds_once(
    tmp_path, capsys, engine, optimize, representation
):
    assert run(
        tmp_path, capsys, WIDE_INT_TO_FLOAT, engine, optimize,
        representation,
    ) == (
        EXIT_OK,
        "18014400656965632.000000 18014400656965632.000000\n"
        "9223373136366403584.000000 -18014400656965632.000000\n",
        "",
    )
