"""File resolution layer (clang's ``FileManager``).

Supports both the real file system and *virtual files* registered by tests
and the driver (``-include``-style in-memory headers).  Include resolution
follows clang: a quoted include is first looked up relative to the including
file's directory, then along the ``-I`` search path; an angled include skips
the relative step.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.sourcemgr.memory_buffer import MemoryBuffer


@dataclass(frozen=True)
class FileEntry:
    """A resolved file identity: unique name + size."""

    name: str
    size: int
    is_virtual: bool = False


class FileManager:
    """Resolves file names to :class:`FileEntry` / :class:`MemoryBuffer`.

    Parameters
    ----------
    search_paths:
        ``-I`` include directories, tried in order.
    """

    def __init__(self, search_paths: list[str] | None = None) -> None:
        self.search_paths: list[str] = list(search_paths or [])
        self._virtual: dict[str, MemoryBuffer] = {}
        self._buffers: dict[str, MemoryBuffer] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_virtual_file(self, name: str, text: str) -> FileEntry:
        """Register an in-memory file; later lookups of *name* find it."""
        buf = MemoryBuffer(name, text)
        self._virtual[name] = buf
        return FileEntry(name, buf.size, is_virtual=True)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get_file(self, name: str) -> FileEntry | None:
        """Resolve *name* exactly (virtual first, then the file system)."""
        if name in self._virtual:
            buf = self._virtual[name]
            return FileEntry(name, buf.size, is_virtual=True)
        if os.path.isfile(name):
            return FileEntry(name, os.path.getsize(name))
        return None

    def resolve_include(
        self, name: str, including_file: str | None, angled: bool
    ) -> FileEntry | None:
        """Resolve ``#include "name"`` / ``#include <name>``."""
        candidates: list[str] = []
        if not angled and including_file is not None:
            base = os.path.dirname(including_file)
            candidates.append(os.path.join(base, name) if base else name)
        candidates.append(name)
        candidates.extend(os.path.join(p, name) for p in self.search_paths)
        for candidate in candidates:
            entry = self.get_file(candidate)
            if entry is not None:
                return entry
        return None

    def get_buffer(self, entry: FileEntry) -> MemoryBuffer:
        """Load (and cache) the contents of a resolved file."""
        if entry.is_virtual:
            return self._virtual[entry.name]
        buf = self._buffers.get(entry.name)
        if buf is None:
            with open(entry.name, "r", encoding="utf-8") as fh:
                buf = MemoryBuffer(entry.name, fh.read())
            self._buffers[entry.name] = buf
        return buf
