"""The wire protocol: length-prefixed JSON frames.

Frame layout (all integers big-endian)::

    offset 0  2 bytes   magic  b"MC"
    offset 2  1 byte    protocol version (PROTOCOL_VERSION)
    offset 3  1 byte    reserved, must be 0 on send, ignored on receive
    offset 4  4 bytes   payload length N
    offset 8  N bytes   payload: one UTF-8 JSON object

Design stance: the decoder is *total* over untrusted input.  Arbitrary
byte noise, truncated frames, oversized declared lengths, non-UTF-8 or
non-object payloads all come out of :meth:`FrameDecoder.feed` as
structured :class:`FrameError` records, never exceptions — the server
turns them into error frames (or an eviction), the connection survives
whenever the stream can be resynchronized, and the property tests in
``tests/property/test_net_protocol.py`` hold the decoder to exactly
this contract.

Resynchronization: after garbage the decoder scans forward for the next
magic, coalescing the skipped run into a single ``bad-magic`` error.
Framed-but-unusable payloads (wrong version, undecodable JSON) skip
exactly the declared payload, so the stream stays aligned.  A declared
length over ``max_frame_bytes`` cannot be trusted enough to skip — the
decoder reports ``oversized-frame`` and re-enters the scan; the server
additionally treats it as connection-fatal.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.service.request import CompileRequest

#: bump when the frame payload schema changes incompatibly
PROTOCOL_VERSION = 1

MAGIC = b"MC"
_HEADER = struct.Struct(">2sBBI")
HEADER_SIZE = _HEADER.size  # 8

#: default hard cap on one frame's payload (sources are small; anything
#: bigger is an attack or a bug)
DEFAULT_MAX_FRAME_BYTES = 4 * 1024 * 1024


class ProtocolError(Exception):
    """A peer violated the protocol in a way the caller must handle."""


class FrameTooLarge(ProtocolError):
    """Refusing to *encode* a frame over the configured maximum."""


@dataclass(frozen=True)
class FrameError:
    """One structured decode failure.

    ``code`` is a stable token: ``bad-magic`` (garbage skipped until the
    next magic), ``bad-version`` (unknown protocol stamp; the frame was
    skipped), ``oversized-frame`` (declared length over the cap; the
    decoder resynchronizes by scanning), ``bad-payload`` (framing was
    fine, the payload was not a UTF-8 JSON object).  ``fatal`` marks
    errors after which the server should drop the connection.
    """

    code: str
    detail: str = ""
    skipped: int = 0
    fatal: bool = False


Event = Union[dict, FrameError]


def encode_frame(
    payload: dict,
    *,
    version: int = PROTOCOL_VERSION,
    max_frame_bytes: Optional[int] = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """Serialize one JSON-object payload into a wire frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if max_frame_bytes is not None and len(body) > max_frame_bytes:
        raise FrameTooLarge(
            f"frame payload is {len(body)} bytes, cap is "
            f"{max_frame_bytes}"
        )
    return _HEADER.pack(MAGIC, version, 0, len(body)) + body


class FrameDecoder:
    """Incremental, resyncing frame decoder over an untrusted stream.

    Feed arbitrary chunks; get back decoded payload dicts and
    :class:`FrameError` records, in stream order.  Never raises on
    input bytes.  Chunking is irrelevant: any split of the same byte
    stream produces the same event sequence.
    """

    def __init__(
        self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    ) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        #: bytes skipped in the current desync run (None = in sync)
        self._desync_skipped: Optional[int] = None
        #: non-None while skipping a framed-but-unusable payload:
        #: (bytes still to discard, the error to emit once skipped)
        self._skip: Optional[tuple[int, FrameError]] = None
        #: total well-formed frames decoded
        self.frames_decoded = 0
        #: total FrameError events produced
        self.errors = 0

    @property
    def mid_frame(self) -> bool:
        """True when bytes of an incomplete frame are pending — the
        signal the server's slow-loris timer keys on."""
        return len(self._buffer) > 0 or self._skip is not None

    # ------------------------------------------------------------------
    def _emit_error(
        self, events: list[Event], error: FrameError
    ) -> None:
        self.errors += 1
        events.append(error)

    def _end_desync(self, events: list[Event]) -> None:
        if self._desync_skipped is not None:
            self._emit_error(
                events,
                FrameError(
                    "bad-magic",
                    f"skipped {self._desync_skipped} byte(s) of "
                    "garbage before the next frame boundary",
                    skipped=self._desync_skipped,
                ),
            )
            self._desync_skipped = None

    def feed(self, data: bytes) -> list[Event]:
        """Consume *data*; return the events it completed."""
        self._buffer.extend(data)
        events: list[Event] = []
        while True:
            if self._skip is not None:
                to_skip, error = self._skip
                take = min(to_skip, len(self._buffer))
                del self._buffer[:take]
                to_skip -= take
                if to_skip:
                    self._skip = (to_skip, error)
                    break
                self._skip = None
                self._emit_error(events, error)
                continue
            if self._desync_skipped is not None:
                # Scan for the next magic; keep a tail shorter than the
                # magic in case it straddles the chunk boundary.
                pos = bytes(self._buffer).find(MAGIC)
                if pos < 0:
                    drop = max(0, len(self._buffer) - (len(MAGIC) - 1))
                    self._desync_skipped += drop
                    del self._buffer[:drop]
                    break
                self._desync_skipped += pos
                del self._buffer[:pos]
                self._end_desync(events)
                continue
            if len(self._buffer) < HEADER_SIZE:
                break
            magic, version, _reserved, length = _HEADER.unpack_from(
                self._buffer
            )
            if magic != MAGIC:
                # Enter desync: skip at least one byte so the scan
                # cannot loop on the same spot.
                self._desync_skipped = 0
                del self._buffer[:1]
                self._desync_skipped += 1
                continue
            if length > self.max_frame_bytes:
                self._emit_error(
                    events,
                    FrameError(
                        "oversized-frame",
                        f"declared payload of {length} bytes exceeds "
                        f"the {self.max_frame_bytes}-byte cap",
                        fatal=True,
                    ),
                )
                # The length cannot be trusted; drop the header and
                # scan for the next plausible frame.
                del self._buffer[:HEADER_SIZE]
                self._desync_skipped = 0
                continue
            if len(self._buffer) < HEADER_SIZE + length:
                break
            body = bytes(self._buffer[HEADER_SIZE : HEADER_SIZE + length])
            del self._buffer[: HEADER_SIZE + length]
            if version != PROTOCOL_VERSION:
                self._emit_error(
                    events,
                    FrameError(
                        "bad-version",
                        f"protocol version {version} is not "
                        f"{PROTOCOL_VERSION}; frame skipped",
                        skipped=length,
                    ),
                )
                continue
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as err:
                self._emit_error(
                    events,
                    FrameError(
                        "bad-payload",
                        f"payload is not UTF-8 JSON: {err}",
                        skipped=length,
                    ),
                )
                continue
            if not isinstance(payload, dict):
                self._emit_error(
                    events,
                    FrameError(
                        "bad-payload",
                        "payload JSON is not an object "
                        f"({type(payload).__name__})",
                        skipped=length,
                    ),
                )
                continue
            self.frames_decoded += 1
            events.append(payload)
        return events


# ----------------------------------------------------------------------
# Message constructors (the payload schema over the framing above)
# ----------------------------------------------------------------------
def request_message(
    msg_id: str,
    request: CompileRequest,
    deadline_s: Optional[float] = None,
) -> dict:
    """A ``request`` frame.  ``deadline_s`` is the caller's *remaining*
    deadline budget — gRPC-style propagation: every hop (and every
    retry) sends what is left, never the original full budget."""
    msg: dict = {
        "v": PROTOCOL_VERSION,
        "type": "request",
        "id": msg_id,
        "request": request_to_wire(request),
    }
    if deadline_s is not None:
        msg["deadline_s"] = round(float(deadline_s), 6)
    return msg


def response_message(
    msg_id: str, response_dict: dict, shard: Optional[int] = None
) -> dict:
    msg: dict = {
        "v": PROTOCOL_VERSION,
        "type": "response",
        "id": msg_id,
        "response": response_dict,
    }
    if shard is not None:
        msg["shard"] = shard
    return msg


def error_message(
    code: str,
    detail: str = "",
    msg_id: Optional[str] = None,
    retryable: bool = False,
) -> dict:
    msg: dict = {
        "v": PROTOCOL_VERSION,
        "type": "error",
        "code": code,
        "detail": detail,
    }
    if msg_id is not None:
        msg["id"] = msg_id
    if retryable:
        msg["retryable"] = True
    return msg


def draining_message(detail: str = "") -> dict:
    """The structured goodbye: the server is draining; in-flight work
    will still be answered, new work must go to a live instance."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "draining",
        "detail": detail,
    }


def ping_message(msg_id: str = "ping") -> dict:
    return {"v": PROTOCOL_VERSION, "type": "ping", "id": msg_id}


def pong_message(msg_id: str) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "pong", "id": msg_id}


# ----------------------------------------------------------------------
# CompileRequest <-> wire dict
# ----------------------------------------------------------------------
#: request fields that cross the wire, with their expected types.
#: request_id deliberately does NOT cross: the server assigns its own
#: ids; correlation happens on the frame-level ``id``.
_WIRE_FIELDS: dict[str, tuple] = {
    "source": (str,),
    "filename": (str,),
    "action": (str,),
    "mode": (str,),
    "optimize": (bool,),
    "num_threads": (int,),
    "entry": (str,),
    "defines": (dict,),
    "fuel": (int, type(None)),
    "strip_omp_transforms": (bool,),
    "deadline_s": (int, float, type(None)),
    "allow_degraded": (bool,),
    "inject_faults": (list, tuple),
    "fault_attempts": (int,),
    "trace_id": (str, type(None)),
}

def request_to_wire(request: CompileRequest) -> dict:
    """The JSON-safe projection of a request for a ``request`` frame."""
    wire: dict = {}
    for name in _WIRE_FIELDS:
        value = getattr(request, name)
        if isinstance(value, tuple):
            value = list(value)
        wire[name] = value
    return wire


def request_from_wire(wire: dict) -> CompileRequest:
    """Rebuild a :class:`CompileRequest` from untrusted wire data.

    Unknown keys are rejected (a version-stamped protocol should not
    silently drop peer intent) and every value is type-checked; any
    violation raises :class:`ProtocolError` for the server to answer
    with a structured ``bad-request`` error frame.
    """
    if not isinstance(wire, dict):
        raise ProtocolError(
            f"request must be an object, got {type(wire).__name__}"
        )
    unknown = set(wire) - set(_WIRE_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {sorted(unknown)}"
        )
    if "source" not in wire:
        raise ProtocolError("request is missing 'source'")
    kwargs: dict = {}
    for name, value in wire.items():
        expected = _WIRE_FIELDS[name]
        if not isinstance(value, expected) or (
            # bool is an int subclass; don't let true/false sneak into
            # integer fields or vice versa
            isinstance(value, bool)
            and bool not in expected
        ):
            raise ProtocolError(
                f"request field {name!r} has type "
                f"{type(value).__name__}, expected "
                + "/".join(t.__name__ for t in expected)
            )
        if name == "defines":
            if not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in value.items()
            ):
                raise ProtocolError(
                    "request field 'defines' must map str -> str"
                )
            value = dict(value)
        elif name == "inject_faults":
            if not all(isinstance(s, str) for s in value):
                raise ProtocolError(
                    "request field 'inject_faults' must be a list of "
                    "strings"
                )
            value = tuple(value)
        kwargs[name] = value
    request = CompileRequest(**kwargs)
    if request.action not in ("compile", "run"):
        raise ProtocolError(
            f"request action {request.action!r} is not compile/run"
        )
    if request.mode not in ("shadow", "irbuilder"):
        raise ProtocolError(
            f"request mode {request.mode!r} is not shadow/irbuilder"
        )
    return request


def iter_frames(data: bytes, **kwargs) -> Iterable[Event]:
    """One-shot decode of a complete byte string (test helper)."""
    return FrameDecoder(**kwargs).feed(data)
