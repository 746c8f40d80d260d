"""Flat byte-addressable memory for the interpreter.

Layout: one flat address space of ``size`` bytes; address 0 is
reserved (null).  Globals are allocated at startup, stack frames
bump-allocate and release on return, and a tiny heap serves ``malloc``.
Function "addresses" live in a reserved high range so function pointers
round-trip through memory.

Every address in ``(0, size)`` is valid and reads as zero until
written, but only a prefix of it is backed: ``data`` covers addresses
``[0, len(data))`` and grows in place, in 64 KiB zero chunks, when an
access first touches an address past it (:meth:`Memory.fault`).  A run
that touches 512 KiB never allocates the rest of its 4 MiB.
"""

from __future__ import annotations

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

#: growth unit of the backing store
_CHUNK = 1 << 16
_ZERO_CHUNK = bytes(_CHUNK)


class Memory:
    def __init__(
        self, size: int = 1 << 22, limit: int | None = None
    ) -> None:
        #: logical size: addresses in ``(0, size)`` are valid
        self.size = size
        #: backing store of addresses ``[0, len(data))``.  Never rebound:
        #: compiled closures hold this bytearray and check ``len(data)``
        #: before calling :meth:`fault`.
        self.data = bytearray(min(size, _CHUNK))
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
        self._brk = new_brk
        return addr

    def watermark(self) -> int:
        return self._brk

    def release_to(self, mark: int) -> None:
        """Pop stack allocations (frame unwind)."""
        self._brk = mark

    def release(self) -> None:
        """Free the whole guest heap once its run is over.  Cleared in
        place: compiled closures hold the bytearray itself, and the
        interpreter's reference cycles would otherwise keep it alive
        until a full garbage collection.  No address stays valid."""
        self.data.clear()
        self.size = 0

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
        if addr <= 0 or addr + size > len(self.data):
            self.fault(addr, size)

    def fault(self, addr: int, size: int) -> None:
        """Slow path of every access check (the closure engine's too):
        back ``[addr, addr + size)`` with zero bytes, or raise if it is
        not inside the logical range."""
        end = addr + size
        if addr <= 0 or end > self.size:
            raise MemoryError_(
                f"out-of-range access: {size} bytes at {addr:#x}"
            )
        data = self.data
        end = min(-(-end // _CHUNK) * _CHUNK, self.size)
        while len(data) + _CHUNK <= end:
            data.extend(_ZERO_CHUNK)
        if len(data) < end:
            data.extend(bytes(end - len(data)))

    def read_bytes(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        return bytes(self.data[addr : addr + size])

    def write_bytes(self, addr: int, payload: bytes) -> None:
        self._check(addr, len(payload))
        self.data[addr : addr + len(payload)] = payload

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> str:
        """The NUL-terminated string at *addr* (at most *limit* bytes)."""
        data, size = self.data, self.size
        out = bytearray()
        for i in range(limit):
            index = addr + i
            if not 0 <= index < len(data):
                # Index the logical range as one bytearray of `size`
                # bytes would be indexed: from the end when negative,
                # and with the same IndexError outside it.
                if not -size <= index < size:
                    bytearray()[index]
                index %= size
                if index >= len(data):
                    break  # never written: reads as NUL
            b = data[index]
            if b == 0:
                break
            out.append(b)
        return out.decode("utf-8", errors="replace")

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
