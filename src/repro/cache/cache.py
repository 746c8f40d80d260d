"""The two-tier compilation cache.

:class:`CompilationCache` fronts an in-memory LRU tier
(:mod:`repro.cache.lru`) with an optional on-disk content-addressed
tier (:mod:`repro.cache.disk`).  Three namespaces share the tiers:

* **artifacts** — per-stage compile products (IR text + rendered
  diagnostics) under their chained stage key;
* **aliases** — exact-request key → final artifact key, the fast path
  for byte-identical repeats;
* **responses** — terminal service responses under the request
  fingerprint (``miniclang-serve``'s memoized answers); degraded
  results live under a ``#degraded``-tagged key so they can never be
  confused with a primary-path result.

A fourth, memory-only namespace memoizes **live IR modules** keyed by
the codegen-stage key: they cannot cross a process boundary (no IR
parser exists to resurrect them from text) but within a process they
let an ``-O`` flag flip resume at the mid-end instead of re-running
the front end.  Callers receive a deep copy — pass pipelines mutate in
place and must never corrupt the memoized original.

Every operation feeds the ``cache.*`` statistics registry and opens a
time-trace span, so ``-print-cache-stats`` / ``-ftime-trace`` show the
cache working.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cache.disk import DiskTier
from repro.cache.lru import LRUTier
from repro.instrument.stats import get_statistic
from repro.instrument.timetrace import time_trace_scope

HITS = get_statistic("cache", "hits", "Cache lookups served (any tier)")
MISSES = get_statistic("cache", "misses", "Cache lookups that missed")
STORES = get_statistic("cache", "stores", "Entries written to the cache")
EVICTIONS = get_statistic(
    "cache", "evictions", "Entries evicted (LRU or disk byte budget)"
)
MEMORY_HITS = get_statistic(
    "cache", "memory-hits", "Lookups served by the in-memory LRU tier"
)
DISK_HITS = get_statistic(
    "cache", "disk-hits", "Lookups served by the on-disk tier"
)
BYTES_WRITTEN = get_statistic(
    "cache", "bytes-written", "Bytes written to the on-disk tier"
)
BYTES_READ = get_statistic(
    "cache", "bytes-read", "Artifact bytes served from the cache"
)
STAGE_RESUMES = get_statistic(
    "cache",
    "stage-resumes",
    "Compilations resumed downstream of a memoized stage",
)
MODULE_REUSES = get_statistic(
    "cache",
    "module-reuses",
    "Mid-end runs fed from a memoized unoptimized module",
)
RESPONSE_HITS = get_statistic(
    "cache", "response-hits", "Service responses served from the cache"
)
DEGRADED_HITS = get_statistic(
    "cache",
    "degraded-hits",
    "Service responses served from a degraded-tagged cache key",
)
SINGLE_FLIGHT_COLLAPSES = get_statistic(
    "cache",
    "single-flight-collapses",
    "Concurrent identical requests coalesced onto one execution",
)

#: suffix tagging cache keys of degraded (fallback-representation)
#: results — never interchangeable with the primary key
DEGRADED_KEY_SUFFIX = "#degraded"


def degraded_key(key: str) -> str:
    return key + DEGRADED_KEY_SUFFIX


@dataclass
class CachedCompile:
    """What :func:`repro.pipeline.compile_source_cached` returns.

    ``hit`` means the final artifact came straight from the cache;
    ``resumed_from`` names the deepest memoized stage that let the
    compile skip upstream work (``"exact"`` — byte-identical request,
    ``"tokens"`` — identical post-preprocess stream, ``"module"`` —
    memoized unoptimized module fed the mid-end, ``None`` — cold).
    ``key`` is the final artifact's key (the request fingerprint when
    the compile was not cacheable) and ``stage_keys`` the chained key of
    every stage the compile reached.
    """

    ir_text: str
    diagnostics_text: str
    key: str
    hit: bool
    resumed_from: Optional[str] = None
    origin: str = "compiled"  # "memory" | "disk" | "compiled"
    stage_keys: dict[str, str] = field(default_factory=dict)


class CompilationCache:
    """Two-tier cache; ``directory=None`` keeps it memory-only."""

    def __init__(
        self,
        directory: Optional[str] = None,
        max_entries: int = 1024,
        max_memory_bytes: int = 64 * 1024 * 1024,
        max_disk_bytes: int = 256 * 1024 * 1024,
        durable: bool = False,
    ) -> None:
        self.directory = directory
        self.memory = LRUTier(max_entries, max_memory_bytes)
        self.modules = LRUTier(max_entries)
        self.disk: Optional[DiskTier] = (
            DiskTier(directory, max_disk_bytes, durable=durable)
            if directory
            else None
        )

    # ------------------------------------------------------------------
    # Artifacts (namespaced dict payloads)
    # ------------------------------------------------------------------
    def _get(self, namespace: str, key: str) -> Optional[dict]:
        qualified = f"{namespace}:{key}"
        with time_trace_scope("CacheLookup", f"{namespace} {key[:12]}"):
            obj = self.memory.get(qualified)
            if obj is not None:
                HITS.inc()
                MEMORY_HITS.inc()
                BYTES_READ.inc(self._size_of(obj))
                return obj
            if self.disk is not None:
                before = self.disk.evictions
                obj = self.disk.get(qualified)
                EVICTIONS.inc(self.disk.evictions - before)
                if obj is not None:
                    HITS.inc()
                    DISK_HITS.inc()
                    BYTES_READ.inc(self._size_of(obj))
                    # promote so the next lookup is a memory hit
                    EVICTIONS.inc(
                        self.memory.put(
                            qualified, obj, self._size_of(obj)
                        )
                    )
                    return obj
        MISSES.inc()
        return None

    def _put(self, namespace: str, key: str, obj: dict) -> None:
        qualified = f"{namespace}:{key}"
        with time_trace_scope("CacheStore", f"{namespace} {key[:12]}"):
            STORES.inc()
            EVICTIONS.inc(
                self.memory.put(qualified, obj, self._size_of(obj))
            )
            if self.disk is not None:
                before = self.disk.evictions
                BYTES_WRITTEN.inc(self.disk.put(qualified, obj))
                EVICTIONS.inc(self.disk.evictions - before)

    @staticmethod
    def _size_of(obj: dict) -> int:
        return sum(
            len(value) for value in obj.values() if isinstance(value, str)
        )

    def get_artifact(self, key: str) -> Optional[dict]:
        return self._get("artifact", key)

    def put_artifact(self, key: str, artifact: dict) -> None:
        self._put("artifact", key, artifact)

    def get_response(self, key: str) -> Optional[dict]:
        obj = self._get("response", key)
        if obj is not None:
            RESPONSE_HITS.inc()
        return obj

    def put_response(self, key: str, response: dict) -> None:
        self._put("response", key, response)

    # ------------------------------------------------------------------
    # Aliases (exact request identity -> final artifact key)
    # ------------------------------------------------------------------
    def get_alias(self, key: str) -> Optional[str]:
        qualified = f"alias:{key}"
        target = self.memory.get(qualified)
        if isinstance(target, str):
            return target
        if self.disk is not None:
            target = self.disk.get_alias(key)
            if target is not None:
                self.memory.put(qualified, target, len(target))
                return target
        return None

    def put_alias(self, key: str, target: str) -> None:
        self.memory.put(f"alias:{key}", target, len(target))
        if self.disk is not None:
            self.disk.put_alias(key, target)

    # ------------------------------------------------------------------
    # Live-module memo (memory only, deep-copied on the way out)
    # ------------------------------------------------------------------
    def get_module(self, key: str) -> Optional[Any]:
        module = self.modules.get(f"module:{key}")
        if module is None:
            return None
        MODULE_REUSES.inc()
        with time_trace_scope("CacheModuleClone", key[:12]):
            return copy.deepcopy(module)

    def put_module(self, key: str, module: Any) -> None:
        self.modules.put(f"module:{key}", module)

    # No pipeline caller; kept because perfbench's layer_spans wraps it.
    def put_function(self, key: str, ir_text: str) -> None:
        EVICTIONS.inc(
            self.memory.put(f"fn:{key}", {"ir": ir_text}, len(ir_text))
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        bits = [
            f"memory-entries={len(self.memory)}",
            f"memory-bytes={self.memory.bytes}",
            f"module-memos={len(self.modules)}",
        ]
        if self.disk is not None:
            bits.append(f"dir={self.directory}")
            bits.append(f"disk-bytes={self.disk.bytes}")
            if self.disk.durable:
                bits.append("durable=1")
            if self.disk.write_disabled:
                bits.append("disk-writes=disabled")
        else:
            bits.append("dir=<memory-only>")
        return "cache: " + " ".join(bits)
