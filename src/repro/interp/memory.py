"""Flat byte-addressable memory for the interpreter.

Layout: one flat address space of ``size`` bytes; address 0 is
reserved (null).  Globals are allocated at startup, stack frames
bump-allocate and release on return, and a tiny heap serves ``malloc``.
Function "addresses" live in a reserved high range so function pointers
round-trip through memory.

Every address in ``(0, size)`` is valid and reads as zero until
written.  ``data`` is an anonymous private memory map of the whole
logical size, so the operating system backs a page only when it is
first written: a 4-thread region's four 512 KiB team stacks cost the
few pages their threads touch, not 2 MiB.  The map is ``MAP_PRIVATE``
because growing a shared anonymous map and writing past its old end
raises ``SIGBUS``.
"""

from __future__ import annotations

import mmap
import struct
from typing import TYPE_CHECKING

from repro.ir.types import (
    ArrayType,
    FloatType,
    IntType,
    IRType,
    PointerType,
    StructType,
)

if TYPE_CHECKING:
    from repro.ir.module import Function


class MemoryError_(Exception):
    """Out-of-range access or misuse of the simulated memory."""


class MemoryLimitExceeded(MemoryError_):
    """Guest exceeded the configured memory ceiling (``--max-memory``)."""


#: Function pseudo-addresses start here (way above any data address).
FUNCTION_ADDRESS_BASE = 1 << 48


class Memory:
    def __init__(
        self, size: int = 1 << 22, limit: int | None = None
    ) -> None:
        #: logical size: addresses in ``(0, size)`` are valid
        self.size = size
        #: backing store of addresses ``[0, size)``, demand-zero.  Never
        #: rebound: compiled closures hold this map and check
        #: ``len(data)`` before calling :meth:`fault`.
        self.data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        #: hard ceiling on total guest memory (None = unlimited); the
        #: logical size otherwise grows geometrically on demand
        self.limit = limit
        #: bump pointer; 16 keeps null + some red zone free
        self._brk = 16
        self._function_by_address: dict[int, "Function"] = {}
        self._address_by_function: dict[int, int] = {}
        self._next_function_addr = FUNCTION_ADDRESS_BASE

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, size: int, align: int = 8) -> int:
        addr = (self._brk + align - 1) // align * align
        new_brk = addr + max(1, size)
        if self.limit is not None and new_brk > self.limit:
            raise MemoryLimitExceeded(
                f"guest memory ceiling exceeded: allocating {size} bytes "
                f"needs {new_brk} bytes total (limit {self.limit})"
            )
        if new_brk > self.size:
            # Grow geometrically; the interpreter is bounded by tests.
            self.size += max(self.size, new_brk - self.size)
            self.data.resize(self.size)
        self._brk = new_brk
        return addr

    def watermark(self) -> int:
        return self._brk

    def release_to(self, mark: int) -> None:
        """Pop stack allocations (frame unwind)."""
        self._brk = mark

    def release(self) -> None:
        """Free the whole guest heap once its run is over.  The map is
        closed in place: compiled closures hold it, and the
        interpreter's reference cycles would otherwise keep it alive
        until a full garbage collection.  No address stays valid: every
        accessor checks ``size`` before it touches the closed map."""
        self.size = 0
        self.data.close()

    # ------------------------------------------------------------------
    # Function pseudo-addresses
    # ------------------------------------------------------------------
    def address_of_function(self, fn: "Function") -> int:
        addr = self._address_by_function.get(id(fn))
        if addr is None:
            addr = self._next_function_addr
            self._next_function_addr += 16
            self._address_by_function[id(fn)] = addr
            self._function_by_address[addr] = fn
        return addr

    def function_at(self, addr: int) -> "Function | None":
        return self._function_by_address.get(addr)

    # ------------------------------------------------------------------
    # Raw access
    # ------------------------------------------------------------------
    def _check(self, addr: int, size: int) -> None:
        if addr <= 0 or addr + size > self.size:
            self.fault(addr, size)

    def fault(self, addr: int, size: int) -> None:
        """Failed access check (the closure engine's too): ``[addr,
        addr + size)`` is not inside the logical range."""
        raise MemoryError_(
            f"out-of-range access: {size} bytes at {addr:#x}"
        )

    def read_bytes(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        return bytes(self.data[addr : addr + size])

    def write_bytes(self, addr: int, payload: bytes) -> None:
        self._check(addr, len(payload))
        self.data[addr : addr + len(payload)] = payload

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> str:
        """The NUL-terminated string at *addr* (at most *limit* bytes),
        indexed like a sequence: from the end when negative, and
        ``IndexError`` outside the logical range."""
        data = self.data
        if data.closed:
            raise IndexError("read from released memory")
        out = bytearray()
        for i in range(limit):
            b = data[addr + i]
            if b == 0:
                break
            out.append(b)
        return out.decode("latin-1")  # one char per byte

    # ------------------------------------------------------------------
    # Typed access
    # ------------------------------------------------------------------
    _INT_FORMATS = {1: "<B", 8: "<B", 16: "<H", 32: "<I", 64: "<Q"}

    def load(self, ty: IRType, addr: int):
        if isinstance(ty, IntType):
            size = ty.size_bytes()
            fmt = self._INT_FORMATS[max(8, ty.bits) if ty.bits in (1,) else ty.bits]
            raw = self.read_bytes(addr, size)
            value = struct.unpack(fmt, raw)[0]
            return ty.wrap(value)
        if isinstance(ty, FloatType):
            raw = self.read_bytes(addr, ty.size_bytes())
            return struct.unpack("<f" if ty.bits == 32 else "<d", raw)[0]
        if isinstance(ty, PointerType):
            raw = self.read_bytes(addr, 8)
            return struct.unpack("<Q", raw)[0]
        raise MemoryError_(f"cannot load aggregate type {ty}")

    def store(self, ty: IRType, addr: int, value) -> None:
        if isinstance(ty, IntType):
            size = ty.size_bytes()
            fmt = self._INT_FORMATS[max(8, ty.bits) if ty.bits in (1,) else ty.bits]
            self.write_bytes(
                addr, struct.pack(fmt, ty.wrap(int(value)))
            )
            return
        if isinstance(ty, FloatType):
            fmt = "<f" if ty.bits == 32 else "<d"
            self.write_bytes(addr, struct.pack(fmt, float(value)))
            return
        if isinstance(ty, PointerType):
            self.write_bytes(addr, struct.pack("<Q", int(value) & ((1 << 64) - 1)))
            return
        raise MemoryError_(f"cannot store aggregate type {ty}")

    # ------------------------------------------------------------------
    def zero(self, addr: int, size: int) -> None:
        self._check(addr, size)
        self.data[addr : addr + size] = bytes(size)
