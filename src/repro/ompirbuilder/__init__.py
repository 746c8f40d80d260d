"""The OpenMPIRBuilder (paper §3.2).

Extracts the base-language-independent portion of OpenMP lowering out of
CodeGen so it can be shared between front-ends (Clang, Flang/MLIR in the
paper; our MiniC CodeGen here).  The central abstraction is
:class:`~repro.ompirbuilder.canonical_loop_info.CanonicalLoopInfo`: a
handle to a loop skeleton in IR with explicit preheader / header / cond /
body / latch / exit / after blocks, an identifiable induction variable and
an identifiable trip count — no ScalarEvolution-style analysis required
(the paper's loop skeleton invariants).

Methods (each mirroring an LLVM patch cited by the paper):

* ``create_canonical_loop``  (D71226) — emit the Fig. 7 skeleton,
* ``create_workshare_loop``  (D73111) — apply a static or dispatch
  schedule; returns the ``p.lastiter`` alloca and leaves the barrier
  to the caller,
* ``tile_loops``             (D76342) — the tile transformation,
* ``collapse_loops``         (D83261) — merge a nest into one loop,
* ``unroll_loop_full / _partial / _heuristic`` — unrolling, deferring
  duplication to the mid-end via ``llvm.loop.unroll.*`` metadata,
* ``create_parallel`` — IR-level outlining of parallel regions.
"""

from repro.ompirbuilder.canonical_loop_info import (
    CanonicalLoopInfo,
    SkeletonError,
)
from repro.ompirbuilder.builder import OpenMPIRBuilder, WorksharedSchedule

__all__ = [
    "CanonicalLoopInfo",
    "OpenMPIRBuilder",
    "SkeletonError",
    "WorksharedSchedule",
]
