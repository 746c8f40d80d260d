"""The SourceManager: global offsets <-> (file, line, column).

Each loaded buffer gets a contiguous slice of the *global offset space*;
``SourceLocation(offset)`` then uniquely identifies one character of one
buffer.  Decoding does a binary search over the loaded buffers, then a
binary search over the buffer's line table — the same two-level scheme as
Clang.  ``#line`` overrides are recorded per buffer and applied when
computing :class:`PresumedLoc`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.sourcemgr.location import PresumedLoc, SourceLocation
from repro.sourcemgr.memory_buffer import MemoryBuffer


@dataclass(frozen=True)
class FileID:
    """Identifies one loaded buffer (clang's ``FileID``)."""

    index: int = -1

    def is_valid(self) -> bool:
        return self.index >= 0


@dataclass
class _LoadedBuffer:
    buffer: MemoryBuffer
    start_offset: int  # first global offset belonging to this buffer
    # (#line directive overrides): list of (local offset, presumed filename,
    # presumed line at that offset)
    line_overrides: list[tuple[int, str, int]] = field(default_factory=list)

    @property
    def end_offset(self) -> int:
        return self.start_offset + self.buffer.size


class SourceManager:
    """Owns all loaded buffers and performs location arithmetic."""

    def __init__(self) -> None:
        self._buffers: list[_LoadedBuffer] = []
        self._starts: list[int] = []  # parallel to _buffers, for bisect
        # Global offset 0 is the invalid location; start handing out at 1.
        self._next_offset = 1

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def create_file_id(self, buffer: MemoryBuffer) -> FileID:
        """Load *buffer* into the global offset space and return its id."""
        loaded = _LoadedBuffer(buffer, self._next_offset)
        self._buffers.append(loaded)
        self._starts.append(loaded.start_offset)
        # +1 so that a location one-past-the-end is still attributable.
        self._next_offset += buffer.size + 1
        return FileID(len(self._buffers) - 1)

    def create_main_file(self, buffer: MemoryBuffer) -> FileID:
        return self.create_file_id(buffer)

    # ------------------------------------------------------------------
    # Location construction / decomposition
    # ------------------------------------------------------------------
    def get_loc_for_offset(self, fid: FileID, offset: int) -> SourceLocation:
        """Location of 0-based *offset* within the file *fid*."""
        loaded = self._buffers[fid.index]
        if not 0 <= offset <= loaded.buffer.size:
            raise ValueError(
                f"offset {offset} out of range for {loaded.buffer.name}"
            )
        return SourceLocation(loaded.start_offset + offset)

    def get_file_id(self, loc: SourceLocation) -> FileID:
        """The file containing *loc* (invalid FileID for invalid locs)."""
        if loc.is_invalid() or not self._buffers:
            return FileID()
        idx = bisect.bisect_right(self._starts, loc.offset) - 1
        if idx < 0:
            return FileID()
        loaded = self._buffers[idx]
        if loc.offset > loaded.end_offset:
            return FileID()
        return FileID(idx)

    def get_decomposed_loc(self, loc: SourceLocation) -> tuple[FileID, int]:
        fid = self.get_file_id(loc)
        if not fid.is_valid():
            raise ValueError(f"cannot decompose {loc}")
        loaded = self._buffers[fid.index]
        return fid, loc.offset - loaded.start_offset

    def get_buffer(self, fid: FileID) -> MemoryBuffer:
        return self._buffers[fid.index].buffer

    def get_filename(self, loc: SourceLocation) -> str:
        fid = self.get_file_id(loc)
        if not fid.is_valid():
            return "<unknown>"
        return self._buffers[fid.index].buffer.name

    # ------------------------------------------------------------------
    # #line directive support
    # ------------------------------------------------------------------
    def add_line_override(
        self, loc: SourceLocation, presumed_file: str, presumed_line: int
    ) -> None:
        """Record that from *loc* on, locations present as *presumed_file*
        starting at *presumed_line* (clang's ``#line`` handling)."""
        fid, local = self.get_decomposed_loc(loc)
        self._buffers[fid.index].line_overrides.append(
            (local, presumed_file, presumed_line)
        )
        self._buffers[fid.index].line_overrides.sort()

    # ------------------------------------------------------------------
    # Human-readable decoding
    # ------------------------------------------------------------------
    def get_presumed_loc(self, loc: SourceLocation) -> PresumedLoc:
        fid, local = self.get_decomposed_loc(loc)
        loaded = self._buffers[fid.index]
        line, column = loaded.buffer.line_column(local)
        filename = loaded.buffer.name
        for ov_offset, ov_file, ov_line in loaded.line_overrides:
            if ov_offset <= local:
                ov_physical_line, _ = loaded.buffer.line_column(ov_offset)
                line = ov_line + (line - ov_physical_line)
                filename = ov_file
            else:
                break
        return PresumedLoc(filename, line, column)

    def get_line_text(self, loc: SourceLocation) -> str | None:
        """The full physical source line containing *loc*."""
        try:
            fid, local = self.get_decomposed_loc(loc)
        except ValueError:
            return None
        loaded = self._buffers[fid.index]
        line, _ = loaded.buffer.line_column(local)
        return loaded.buffer.line_text(line)

    def is_before(self, a: SourceLocation, b: SourceLocation) -> bool:
        """Translation-unit order comparison (clang's
        ``isBeforeInTranslationUnit``)."""
        return a.offset < b.offset
