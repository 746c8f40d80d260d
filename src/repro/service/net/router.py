"""Sharded request routing across independent worker pools.

A :class:`ShardRouter` owns N :class:`~repro.service.CompileService`
instances, each pumped by a dedicated thread (one event loop per shard,
so a slow or wedged shard never stalls the others) with its own worker
processes, admission queue, and breaker board — the per-shard breaker
isolation means a poison input quarantined on shard 2 cannot poison
shard 0's view of the same traffic until it lands there.

Routing is least-queue-depth: a new request goes to the shard with the
fewest unresolved requests, ties broken round-robin.

Thread model: callers (the asyncio server thread) call :meth:`submit`;
the request is appended to the shard's locked inbox and a wakeup byte is
written to the shard's socketpair, which interrupts the shard's
``pool.wait`` (via :meth:`CompileService.step`'s ``extra_conns``).  The
terminal :class:`~repro.service.request.CompileResponse` comes back by
invoking the submit-time callback *on the shard thread* — callers
re-schedule onto their own loop (``call_soon_threadsafe``).

Every shard keeps its own :class:`MetricsRegistry` (registries are
single-threaded by design); the router's shared registry carries only
pre-created per-shard gauge cells, each written by exactly one thread.
:meth:`merged_metrics` folds everything together exactly — call it when
the router is quiescent (after :meth:`shutdown`) for exact accounting.
"""

from __future__ import annotations

import socket
import sys
import threading
from collections import deque
from typing import Callable, Optional, Sequence

from repro.instrument.stats import get_statistic
from repro.instrument.telemetry import MetricsRegistry
from repro.service.request import (
    STATUS_ICE,
    CompileRequest,
    CompileResponse,
)
from repro.service.service import CompileService, ServiceConfig

_ROUTED = get_statistic(
    "net", "routed", "Requests routed to a shard"
)
_SHARD_FAILURES = get_statistic(
    "net",
    "shard-failures",
    "Shard pump threads lost to an unexpected exception",
)

ResponseCallback = Callable[[CompileResponse], None]


class _Shard:
    """One service + its pump thread + its submission inbox."""

    def __init__(self, index: int, config: ServiceConfig) -> None:
        self.index = index
        self.config = config
        self.service = CompileService(config)
        self.service.on_response = self._on_response
        self.inbox: deque = deque()
        self.inbox_lock = threading.Lock()
        #: request_id -> submit-time callback; shard-thread-only after
        #: start (entries are added by _ingest, removed by _on_response,
        #: both on the pump thread)
        self.callbacks: dict[str, ResponseCallback] = {}
        self.wake_recv, self.wake_send = socket.socketpair()
        self.wake_recv.setblocking(False)
        self.wake_send.setblocking(False)
        self.thread = threading.Thread(
            target=self._run,
            name=f"miniclang-shard-{index}",
            daemon=True,
        )
        self.stop_requested = False
        self.failed = False
        #: unresolved requests owned by this shard, maintained by the
        #: router under its lock (the routing signal)
        self.depth = 0
        # Router-registry gauge cells, wired in by the router before
        # the thread starts; written only from the pump thread.
        self.g_depth = None
        self.g_in_flight = None
        self.g_breakers = None

    # -- cross-thread side ---------------------------------------------
    def post(self, item: tuple) -> None:
        with self.inbox_lock:
            self.inbox.append(item)
        try:
            self.wake_send.send(b"x")
        except (BlockingIOError, OSError):
            # A full wakeup buffer means wakeups are already pending;
            # a closed pair means the shard is gone — either way the
            # inbox entry is what matters.
            pass

    # -- pump-thread side ----------------------------------------------
    def _wire_observers(self) -> None:
        """Chain the shard's queue/breaker observer hooks so they feed
        the router's per-shard gauges on top of the service's own."""
        queue = self.service.admission_queue
        inner_q = queue.on_change

        def on_queue(queued: int, in_flight: int) -> None:
            if inner_q is not None:
                inner_q(queued, in_flight)
            if self.g_depth is not None:
                self.g_depth.set(queued)
            if self.g_in_flight is not None:
                self.g_in_flight.set(in_flight)

        queue.on_change = on_queue
        board = self.service.breaker_board
        inner_b = board.on_transition

        def on_breaker(fingerprint: str, old: str, new: str) -> None:
            if inner_b is not None:
                inner_b(fingerprint, old, new)
            if self.g_breakers is not None:
                self.g_breakers.set(board.open_count)

        board.on_transition = on_breaker

    def _on_response(self, response: CompileResponse) -> None:
        callback = self.callbacks.pop(response.request_id, None)
        if callback is None:
            return
        try:
            callback(response)
        except Exception as err:  # noqa: BLE001 - a broken consumer
            # must not take the shard's event loop down with it
            print(
                f"miniclang-serve: warning: shard {self.index} "
                f"response callback failed: {err}",
                file=sys.stderr,
            )

    def _ingest(self) -> None:
        while True:
            with self.inbox_lock:
                if not self.inbox:
                    return
                item = self.inbox.popleft()
            kind = item[0]
            if kind == "submit":
                _, request, callback = item
                # Register before submit: rejects and cache hits
                # resolve synchronously inside submit() and fire
                # _on_response immediately.
                self.callbacks[request.request_id] = callback
                self.service.submit(request)
            elif kind == "drain":
                self.service.begin_drain(item[1])
            elif kind == "stop":
                self.stop_requested = True

    def _drain_wakeups(self) -> None:
        try:
            while self.wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _run(self) -> None:
        self._wire_observers()
        try:
            while True:
                self._ingest()
                if (
                    self.stop_requested
                    and not self.service.pending
                    and not self.inbox
                ):
                    break
                ready = self.service.step(
                    extra_conns=(self.wake_recv,)
                )
                if ready:
                    self._drain_wakeups()
        except Exception as err:  # noqa: BLE001 - fail structured
            self.failed = True
            _SHARD_FAILURES.inc()
            print(
                f"miniclang-serve: error: shard {self.index} pump "
                f"thread failed: {err!r}",
                file=sys.stderr,
            )
        finally:
            # The zero-lost-requests contract survives even a pump
            # bug: every registered callback still gets a terminal
            # (structured-failure) answer.
            for request_id, callback in list(self.callbacks.items()):
                self.callbacks.pop(request_id, None)
                try:
                    callback(
                        CompileResponse(
                            request_id=request_id,
                            status=STATUS_ICE,
                            detail=(
                                f"shard {self.index} pump thread "
                                "exited with this request unresolved"
                            ),
                            mode_used=None,
                        )
                    )
                except Exception:  # noqa: BLE001
                    pass
            try:
                self.service.shutdown()
            except Exception as err:  # noqa: BLE001
                print(
                    f"miniclang-serve: warning: shard {self.index} "
                    f"shutdown failed: {err}",
                    file=sys.stderr,
                )
            try:
                self.wake_recv.close()
                self.wake_send.close()
            except OSError:
                pass


class ShardRouter:
    """Least-queue-depth router over N shard services.

    Use as a context manager, or pair :meth:`start` with
    :meth:`shutdown`::

        with ShardRouter([ServiceConfig(), ServiceConfig()]) as router:
            router.submit(request, callback)
    """

    def __init__(
        self,
        configs: Sequence[ServiceConfig],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not configs:
            raise ValueError("at least one shard config required")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._shards = [
            _Shard(i, config) for i, config in enumerate(configs)
        ]
        self._lock = threading.Lock()
        self._seq = 0
        self._rr = 0
        self._started = False
        self._stopped = False
        self._draining = False
        g_depth = self.metrics.gauge(
            "service_shard_queue_depth",
            "Requests queued per shard, not yet dispatched",
            ("shard",),
        )
        g_in_flight = self.metrics.gauge(
            "service_shard_in_flight",
            "Requests dispatched per shard, not yet resolved",
            ("shard",),
        )
        g_breakers = self.metrics.gauge(
            "service_shard_breakers_open",
            "Open circuit breakers per shard",
            ("shard",),
        )
        self._m_routed = self.metrics.counter(
            "router_requests_total",
            "Requests routed, by shard",
            ("shard",),
        )
        # Pre-create every label cell from this (single) thread so the
        # pump threads only ever mutate their own existing cell.
        self._routed_cells = []
        for shard in self._shards:
            label = str(shard.index)
            shard.g_depth = g_depth.labels(shard=label)
            shard.g_in_flight = g_in_flight.labels(shard=label)
            shard.g_breakers = g_breakers.labels(shard=label)
            self._routed_cells.append(
                self._m_routed.labels(shard=label)
            )

    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def pending(self) -> int:
        """Unresolved requests across all shards."""
        with self._lock:
            return sum(s.depth for s in self._shards)

    @property
    def draining(self) -> bool:
        return self._draining

    def start(self) -> "ShardRouter":
        if self._started:
            return self
        self._started = True
        for shard in self._shards:
            shard.thread.start()
        return self

    # ------------------------------------------------------------------
    def _pick(self) -> _Shard:
        """Least-depth shard, ties broken round-robin (lock held)."""
        best = None
        best_depth = None
        n = len(self._shards)
        for offset in range(n):
            shard = self._shards[(self._rr + offset) % n]
            if shard.failed:
                continue
            if best_depth is None or shard.depth < best_depth:
                best = shard
                best_depth = shard.depth
        if best is None:
            raise RuntimeError("every shard pump thread has failed")
        self._rr = (self._rr + 1) % n
        return best

    def submit(
        self, request: CompileRequest, callback: ResponseCallback
    ) -> int:
        """Route one request; *callback* fires with its terminal
        response on the owning shard's pump thread.  Returns the shard
        index the request landed on."""
        if not self._started or self._stopped:
            raise RuntimeError("router is not running")
        with self._lock:
            self._seq += 1
            request.request_id = f"n{self._seq:06d}"
            shard = self._pick()
            shard.depth += 1

        def release_and_forward(
            response: CompileResponse, _shard=shard
        ) -> None:
            with self._lock:
                _shard.depth -= 1
            callback(response)

        _ROUTED.inc()
        self._routed_cells[shard.index].inc()
        shard.post(("submit", request, release_and_forward))
        return shard.index

    # ------------------------------------------------------------------
    def begin_drain(
        self, deadline_s: Optional[float] = None
    ) -> None:
        """Ask every shard to drain: admission closes (further submits
        get structured rejects), in-flight work gets until the drain
        deadline, stragglers are shed with terminal answers."""
        self._draining = True
        for shard in self._shards:
            shard.post(("drain", deadline_s))

    def shutdown(self, join_timeout_s: float = 30.0) -> None:
        """Stop every pump thread (finishing pending work first) and
        shut the shard services down."""
        if self._stopped:
            return
        self._stopped = True
        for shard in self._shards:
            shard.post(("stop",))
        for shard in self._shards:
            shard.thread.join(timeout=join_timeout_s)
            if shard.thread.is_alive():
                print(
                    f"miniclang-serve: warning: shard {shard.index} "
                    "did not stop within the join timeout",
                    file=sys.stderr,
                )

    def snapshot_state(self) -> None:
        """Persist each shard's durable state (post-shutdown no-op:
        :meth:`CompileService.shutdown` already snapshots)."""
        for shard in self._shards:
            if not shard.thread.is_alive():
                shard.service.snapshot_state()

    # ------------------------------------------------------------------
    def merged_metrics(self) -> MetricsRegistry:
        """A fresh registry holding the router registry plus every
        shard registry, merged exactly (element-wise histogram
        addition).  Only exact while the router is quiescent — take the
        authoritative snapshot after :meth:`shutdown`."""
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        for shard in self._shards:
            merged.merge(shard.service.metrics.snapshot())
        return merged

    @property
    def caches(self) -> list:
        """Every shard's compilation cache (None for an uncached
        shard)."""
        return [shard.service.cache for shard in self._shards]

    def quarantined(self) -> dict[str, dict]:
        """Union of every shard's quarantined fingerprints."""
        out: dict[str, dict] = {}
        for shard in self._shards:
            out.update(shard.service.quarantined)
        return out

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
