"""The retrying network client.

A :class:`NetClient` speaks the frame protocol over blocking sockets
and wraps every request in the full resilience treatment:

* **deadline propagation** — the caller grants one end-to-end budget;
  every attempt stamps the frame with what is *left* of it (the gRPC
  model), so a server-side retry can never outlive the caller's
  patience, and the client itself gives up with a structured
  ``timeout`` response the moment the budget runs dry;
* **retry with backoff** — transport failures and retryable error
  frames (``draining``, ``server-busy``, …) are retried on a fresh
  connection with the exponential-jitter schedule of
  :class:`repro.service.retry.RetryPolicy`, seeded from the request
  fingerprint (deterministic timing, no retry storms);
* **no exceptions** — like the service itself, the client never raises
  for runtime trouble: every failure mode comes back as a structured
  :class:`~repro.service.request.CompileResponse` (status
  ``unavailable`` for transport exhaustion, ``timeout`` for budget
  exhaustion).
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Optional, Union

from repro.instrument.stats import get_statistic
from repro.service.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    encode_frame,
    ping_message,
    request_message,
)
from repro.service.request import (
    STATUS_TIMEOUT,
    CompileRequest,
    CompileResponse,
)
from repro.service.retry import RetryPolicy

#: client-side terminal status: the transport never yielded an answer
#: (refused, reset, evicted, or draining on every attempt)
STATUS_UNAVAILABLE = "unavailable"

#: upper bound on one TCP connect (the attempt's remaining budget may
#: cut it shorter)
_CONNECT_TIMEOUT_S = 5.0

_ATTEMPTS = get_statistic(
    "net", "client-attempts", "Network attempts dispatched"
)
_CLIENT_RETRIES = get_statistic(
    "net", "client-retries", "Network attempts retried with backoff"
)
_DUPLICATES = get_statistic(
    "net",
    "client-duplicate-responses",
    "Response frames received for an already-answered message id",
)


def parse_address(value: str) -> tuple[str, int]:
    """``HOST:PORT`` (IPv6 hosts in brackets: ``[::1]:9000``)."""
    text = value.strip()
    if text.startswith("["):
        host, sep, rest = text[1:].partition("]")
        if not sep or not rest.startswith(":"):
            raise ValueError(f"invalid address {value!r}")
        port_text = rest[1:]
    else:
        host, sep, port_text = text.rpartition(":")
        if not sep:
            raise ValueError(
                f"invalid address {value!r} (expected HOST:PORT)"
            )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"invalid port in address {value!r}"
        ) from None
    if not 0 <= port < 65536:
        # 0 is legal for a server bind (the OS picks); a client
        # connect to port 0 simply fails into the structured-error path
        raise ValueError(f"port out of range in address {value!r}")
    return host or "127.0.0.1", port


class _AttemptOutcome:
    """What one wire attempt produced."""

    __slots__ = ("kind", "response", "detail", "retryable")

    def __init__(
        self,
        kind: str,  # "response" | "error"
        response: Optional[CompileResponse] = None,
        detail: str = "",
        retryable: bool = True,
    ) -> None:
        self.kind = kind
        self.response = response
        self.detail = detail
        self.retryable = retryable


class NetClient:
    """Blocking client for one server address.

    Thread-compatible: each :meth:`request` call opens its own
    connection(s), so concurrent calls from worker threads are safe.
    """

    def __init__(
        self,
        address: Union[str, tuple[str, int]],
        deadline_s: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.address = (
            parse_address(address)
            if isinstance(address, str)
            else tuple(address)
        )
        self.deadline_s = deadline_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_frame_bytes = max_frame_bytes
        self._seq = 0
        self._seq_lock = threading.Lock()
        #: frames that answered an id a second time (must stay 0 — the
        #: chaos campaign's zero-double-answer check reads this)
        self.duplicate_responses = 0

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        with self._seq_lock:
            self._seq += 1
            return f"c{self._seq:06d}"

    def _connect(self, timeout_s: float) -> socket.socket:
        return socket.create_connection(
            self.address,
            timeout=max(0.05, min(_CONNECT_TIMEOUT_S, timeout_s)),
        )

    # ------------------------------------------------------------------
    def ping(self, timeout_s: float = 5.0) -> bool:
        """One ping/pong round trip; False on any failure."""
        msg_id = self._next_id()
        try:
            sock = self._connect(timeout_s)
        except OSError:
            return False
        try:
            sock.settimeout(timeout_s)
            sock.sendall(encode_frame(ping_message(msg_id)))
            decoder = FrameDecoder(self.max_frame_bytes)
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                data = sock.recv(65536)
                if not data:
                    return False
                for event in decoder.feed(data):
                    if (
                        isinstance(event, dict)
                        and event.get("type") == "pong"
                        and event.get("id") == msg_id
                    ):
                        return True
            return False
        except OSError:
            return False
        finally:
            sock.close()

    # ------------------------------------------------------------------
    def _attempt(
        self, request: CompileRequest, remaining_s: float
    ) -> _AttemptOutcome:
        """One connection, one request frame, one answer (or failure).

        The frame carries ``remaining_s`` — the budget left *now*, not
        the original grant — which the server adopts as the request's
        service-side budget."""
        msg_id = self._next_id()
        _ATTEMPTS.inc()
        try:
            sock = self._connect(remaining_s)
        except OSError as err:
            return _AttemptOutcome(
                "error", detail=f"connect failed: {err}"
            )
        try:
            sock.sendall(
                encode_frame(
                    request_message(
                        msg_id, request, deadline_s=remaining_s
                    ),
                    max_frame_bytes=self.max_frame_bytes,
                )
            )
            decoder = FrameDecoder(self.max_frame_bytes)
            deadline = time.monotonic() + remaining_s
            answered: Optional[_AttemptOutcome] = None
            while True:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    return answered or _AttemptOutcome(
                        "error",
                        detail="attempt deadline expired with no "
                        "response frame",
                    )
                sock.settimeout(budget)
                try:
                    data = sock.recv(65536)
                except socket.timeout:
                    return answered or _AttemptOutcome(
                        "error",
                        detail="attempt deadline expired with no "
                        "response frame",
                    )
                if not data:
                    return answered or _AttemptOutcome(
                        "error",
                        detail="connection closed before a response",
                    )
                for event in decoder.feed(data):
                    outcome = self._classify(event, msg_id)
                    if outcome is not None and answered is None:
                        answered = outcome
                if answered is not None:
                    return answered
        except OSError as err:
            return _AttemptOutcome(
                "error", detail=f"transport failure: {err}"
            )
        finally:
            sock.close()

    def _classify(
        self, event, msg_id: str
    ) -> Optional[_AttemptOutcome]:
        """Turn one decoded frame into an attempt outcome (or None for
        frames that do not settle this attempt)."""
        if isinstance(event, FrameError):
            # The *server* sent us bytes we cannot frame — treat like a
            # transport failure and retry elsewhere/later.
            return _AttemptOutcome(
                "error", detail=f"undecodable server frame: {event.code}"
            )
        etype = event.get("type")
        if etype == "response" and event.get("id") == msg_id:
            response = CompileResponse.from_dict(
                event.get("response") or {}
            )
            return _AttemptOutcome("response", response=response)
        if etype == "error":
            if event.get("id") not in (None, msg_id):
                return None  # someone else's trouble (shared conn)
            return _AttemptOutcome(
                "error",
                detail=(
                    f"{event.get('code', 'error')}: "
                    f"{event.get('detail', '')}"
                ),
                retryable=bool(event.get("retryable"))
                or event.get("code") == "draining",
            )
        if etype == "draining":
            return _AttemptOutcome(
                "error", detail="server draining", retryable=True
            )
        if etype == "response":
            self.duplicate_responses += 1
            _DUPLICATES.inc()
        return None

    # ------------------------------------------------------------------
    def request(
        self,
        request: CompileRequest,
        deadline_s: Optional[float] = None,
    ) -> CompileResponse:
        """Send one request; always returns a terminal response."""
        budget = (
            deadline_s if deadline_s is not None else self.deadline_s
        )
        deadline = time.monotonic() + budget
        rng = random.Random(int(request.fingerprint(), 16) ^ 0xC11E57)
        failures: list[str] = []
        attempt = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return self._give_up(
                    request, STATUS_TIMEOUT, budget, failures
                )
            outcome = self._attempt(request, remaining)
            if outcome.kind == "response":
                response = outcome.response
                assert response is not None
                return response
            failures.append(f"attempt {attempt}: {outcome.detail}")
            attempt += 1
            if attempt >= self.retry.max_attempts or not outcome.retryable:
                return self._give_up(
                    request, STATUS_UNAVAILABLE, budget, failures
                )
            delay = self.retry.backoff(attempt - 1, rng)
            if time.monotonic() + delay >= deadline:
                # A retry that cannot start inside the budget is not a
                # retry, it's a slower way to time out.
                return self._give_up(
                    request, STATUS_TIMEOUT, budget, failures
                )
            _CLIENT_RETRIES.inc()
            time.sleep(delay)

    @staticmethod
    def _give_up(
        request: CompileRequest,
        status: str,
        budget: float,
        failures: list[str],
    ) -> CompileResponse:
        history = "; ".join(failures) if failures else "no attempts fit"
        return CompileResponse(
            request_id=request.request_id or "",
            status=status,
            detail=(
                f"network client gave up after {len(failures)} "
                f"attempt(s) within a {budget:.3f}s budget: {history}"
            ),
            mode_used=None,
            attempts=len(failures),
            retries=max(0, len(failures) - 1),
        )
