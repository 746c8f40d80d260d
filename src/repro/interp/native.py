"""libc subset natively implemented for the interpreter.

Covers what the examples and tests need: printf family, abort/exit,
malloc/free, memset/memcpy, and a few math helpers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.interp.interpreter import Interpreter


#: bits of a ``%u``/``%x``/``%X`` argument by length modifier (``l``,
#: ``ll``, ``z``, ``j`` and ``t`` are 64); ``%d``/``%i`` narrow only
#: with ``hh`` and ``h``
_UNSIGNED_BITS = {"hh": 8, "h": 16, "": 32}


def _format_printf(
    interp: "Interpreter", fmt: str, args: list[Any]
) -> str:
    """A small printf engine: %d %i %u %ld %lu %lld %zu %f %g %e %c %s %p
    %x %% with width/precision digits passed through to Python."""
    out: list[str] = []
    i = 0
    arg_index = 0

    def next_arg() -> Any:
        nonlocal arg_index
        if arg_index < len(args):
            value = args[arg_index]
            arg_index += 1
            return value
        return 0

    n = len(fmt)
    while i < n:
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        j = i + 1
        spec = ""
        while j < n and fmt[j] in "-+ #0123456789.*":
            spec += fmt[j]
            j += 1
        length = ""
        while j < n and fmt[j] in "hlzjt":
            length += fmt[j]
            j += 1
        if j >= n:
            out.append("%")
            break
        conv = fmt[j]
        i = j + 1
        if conv == "%":
            out.append("%")
            continue
        if "*" in spec:
            width = next_arg()
            spec = spec.replace("*", str(width), 1)
        value = next_arg()
        if conv in "di":
            bits = _UNSIGNED_BITS[length] if length in ("hh", "h") else 64
            out.append(f"%{spec}d" % _to_signed(value, bits))
        elif conv in "uxX":
            # the length modifier gives the argument's unsigned width
            value &= (1 << _UNSIGNED_BITS.get(length, 64)) - 1
            out.append(f"%{spec}{'d' if conv == 'u' else conv}" % value)
        elif conv in "fFeEgG":
            out.append(f"%{spec}{conv}" % float(value))
        elif conv == "c":
            out.append(chr(int(value) & 0xFF))
        elif conv == "s":
            out.append(interp.memory.read_cstring(int(value)))
        elif conv == "p":
            out.append(hex(int(value)))
        else:
            out.append(f"%{conv}")
    return "".join(out)


def _to_signed(value: Any, bits: int = 64) -> int:
    value = int(value) & ((1 << bits) - 1)
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def install_libc(interp: "Interpreter") -> None:
    mem = interp.memory

    def printf(interp, ctx, args):
        fmt = mem.read_cstring(int(args[0]))
        text = _format_printf(interp, fmt, args[1:])
        interp.stdout.append(text)
        return len(text)

    def puts(interp, ctx, args):
        text = mem.read_cstring(int(args[0]))
        interp.stdout.append(text + "\n")
        return len(text) + 1

    def putchar(interp, ctx, args):
        c = int(args[0]) & 0xFF  # (unsigned char)c
        interp.stdout.append(chr(c))
        return c

    def abort(interp, ctx, args):
        from repro.interp.interpreter import Trap

        raise Trap("abort() called")

    def exit_(interp, ctx, args):
        from repro.interp.interpreter import Trap

        raise Trap(f"exit({_to_signed(args[0])}) called")

    def malloc(interp, ctx, args):
        return mem.allocate(max(1, int(args[0])))

    def free(interp, ctx, args):
        return None  # bump allocator: no-op

    def memset(interp, ctx, args):
        dst, value, count = int(args[0]), int(args[1]) & 0xFF, int(args[2])
        mem.write_bytes(dst, bytes([value]) * count)
        return dst

    def memcpy(interp, ctx, args):
        dst, src, count = int(args[0]), int(args[1]), int(args[2])
        mem.write_bytes(dst, mem.read_bytes(src, count))
        return dst

    def sqrt(interp, ctx, args):
        return math.sqrt(float(args[0]))

    def fabs(interp, ctx, args):
        return abs(float(args[0]))

    def assert_fail(interp, ctx, args):
        from repro.interp.interpreter import Trap

        raise Trap("assertion failed")

    for name, impl in {
        "printf": printf,
        "puts": puts,
        "putchar": putchar,
        "abort": abort,
        "exit": exit_,
        "malloc": malloc,
        "free": free,
        "memset": memset,
        "memcpy": memcpy,
        "sqrt": sqrt,
        "fabs": fabs,
        "__assert_fail": assert_fail,
    }.items():
        interp.register_native(name, impl)
