"""``sitofp``/``uitofp`` to ``float`` round once, to nearest, ties to
even, like GCC and LLVM: an integer wider than a double's 53-bit
significand must not be rounded to double first and then to float.

``FloatType.from_int`` (the folder's conversion) and both engines'
``sitofp``/``uitofp`` are checked against a reference in integer
arithmetic over i32/i64 edge values and random values.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import create_interpreter
from repro.ir import FunctionType, IRBuilder, Module, i32, i64
from repro.ir.instructions import CastOp
from repro.ir.types import FloatType

FLOAT = FloatType(32)
_F32 = struct.Struct("<f")
_BITS = struct.Struct("<I")


def _f32_neighbours(value: float) -> list[float]:
    """*value* (a float) and the floats just below and above it."""
    bits = _BITS.unpack(_F32.pack(value))[0]
    out = [value]
    for step in (-1, 1):
        if value == 0.0:
            continue
        other = _F32.unpack(_BITS.pack(bits + step))[0]
        out.append(other)
    return out


def reference(value: int) -> float:
    """The float nearest *value*, ties to the even significand, chosen
    by exact integer comparison among the candidates next to a rough
    conversion (which is off by at most one float)."""
    rough = _F32.unpack(_F32.pack(float(value)))[0]
    best = None
    for candidate in _f32_neighbours(rough):
        distance = abs(int(candidate) - value)
        even = _BITS.unpack(_F32.pack(candidate))[0] % 2 == 0
        rank = (distance, not even)
        if best is None or rank < best[0]:
            best = (rank, candidate)
    return best[1]


def _edges(bits: int) -> list[int]:
    """Signed edge values of an integer type, plus values just around
    the powers of two where float rounding changes step."""
    half = 1 << (bits - 1)
    values = {0, 1, -1, half - 1, -half, 1 << 24, (1 << 24) + 1}
    for shift in range(24, bits - 1):
        for delta in (-1, 0, 1):
            base = 1 << shift
            for extra in (0, 1 << (shift - 24), 1 << (shift - 23)):
                values.add(base + extra + delta)
                values.add(-(base + extra + delta))
    return sorted(v for v in values if -half <= v < half)


EDGES = _edges(64)


def test_from_int_matches_reference_at_edges():
    for value in EDGES:
        assert FLOAT.from_int(value) == reference(value), value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-(1 << 63), (1 << 64) - 1))
def test_from_int_matches_reference(value):
    assert FLOAT.from_int(value) == reference(value)


def test_the_double_rounding_case():
    value = (1 << 54) + (1 << 30) + 1
    assert float(value) == float((1 << 54) + (1 << 30))
    assert FLOAT.from_int(value) == 18014400656965632.0


def _cast_module(src_ty, kind):
    module = Module("cast")
    fn = module.add_function("f", FunctionType(FLOAT, [src_ty]))
    b = IRBuilder(module)
    b.set_insert_point(fn.append_block("entry"))
    b.ret(b.cast(kind, fn.args[0], FLOAT))
    return module


@pytest.mark.parametrize("engine", ["interp", "closures"])
@pytest.mark.parametrize(
    "src_ty,kind",
    [
        (i32, CastOp.SITOFP), (i32, CastOp.UITOFP),
        (i64, CastOp.SITOFP), (i64, CastOp.UITOFP),
    ],
    ids=["si32", "ui32", "si64", "ui64"],
)
def test_engines_match_reference(engine, src_ty, kind):
    module = _cast_module(src_ty, kind)
    mask = src_ty.mask
    half = 1 << (src_ty.bits - 1)
    rng = random.Random(f"int-to-float:{src_ty.bits}:{kind.value}")
    raw = [v & mask for v in EDGES if -half <= v < half]
    raw += [rng.getrandbits(src_ty.bits) for _ in range(200)]
    for bits in raw:
        value = bits if kind == CastOp.UITOFP else src_ty.to_signed(bits)
        got = create_interpreter(module, engine=engine).run("f", [bits])
        assert got == reference(value), (bits, got)
