"""Integer registers hold their type's unsigned bit pattern on both
engines, and the C library natives follow C.

A native computes with C-signed values; the call stores its integer
result wrapped to the call's type.  An entry point's host arguments are
wrapped the same way.  ``putchar(c)`` returns ``(unsigned char)c``.
printf's ``%u``/``%x``/``%X`` read as many bits as the length modifier
says, and ``%d``/``%i`` with ``hh`` or ``h`` wrap their argument to 8
or 16 bits and sign-extend it.  The expected outputs are GCC 12's
(``putchar`` writes its byte as one character of the captured text).
"""

from __future__ import annotations

import pytest

from repro.exec import ENGINES, create_interpreter
from repro.ir import FunctionType, IRBuilder, Module, i8, i32
from repro.ir.instructions import CastOp, ICmpPred
from repro.ir.values import ConstantInt
from repro.pipeline import run_source

pytestmark = pytest.mark.exec_differential

UNSIGNED_FORMATS = r"""
int main(void) {
  printf("%u %u %x %lu\n", (unsigned)-1, -5, -5, (unsigned long)-5);
  printf("%hhu %hu %hhx %hX %llx %zu\n", -1, -1, 300, -2, -1L, (long)-1);
  return 0;
}
"""

SIGNED_FORMATS = r"""
int main(void) {
  printf("%hhd %hd %hhi %hi %d\n", 300, 70000, 200, 40000, -5);
  return 0;
}
"""

PUTCHAR_RESULT = r"""
int main(void) {
  int r = putchar(-1);
  unsigned u = r;
  printf("%u %u %d", u >> 28, u, r);
  return 0;
}
"""

CASES = {
    "unsigned-formats": (
        UNSIGNED_FORMATS,
        "4294967295 4294967291 fffffffb 18446744073709551611\n"
        "255 65535 2c FFFE ffffffffffffffff 18446744073709551615\n",
    ),
    "putchar-result": (PUTCHAR_RESULT, "\xff0 255 255"),
    "signed-formats": (SIGNED_FORMATS, "44 4464 -56 -25536 -5\n"),
}


@pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
@pytest.mark.parametrize("mode", ["shadow", "irbuilder"])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_libc_results_follow_c(case, engine, mode, optimize):
    source, expected = CASES[case]
    result = run_source(
        source,
        optimize=optimize,
        enable_irbuilder=mode == "irbuilder",
        exec_engine=engine,
    )
    assert (result.exit_code, result.stdout) == (0, expected)


@pytest.mark.parametrize("engine", ENGINES)
def test_host_arguments_are_wrapped_to_their_type(engine):
    """``f(i8 x) = (x <s 0) + x / 2``, called with ``-7`` and with its
    bit pattern ``249``, returns the same on both engines."""
    module = Module("host")
    fn = module.add_function("f", FunctionType(i32, [i8]))
    b = IRBuilder(module)
    b.folding_enabled = False
    b.set_insert_point(fn.append_block("entry"))
    (x,) = fn.args
    below = b.icmp(ICmpPred.SLT, x, ConstantInt(i8, 0))
    negative = b.cast(CastOp.ZEXT, below, i32)
    half = b.cast(CastOp.SEXT, b.sdiv(x, ConstantInt(i8, 2)), i32)
    b.ret(b.add(negative, half))
    results = {
        create_interpreter(module, engine=engine).run("f", [value])
        for value in (-7, 249)
    }
    assert results == {(1 - 3) & 0xFFFFFFFF}
