"""Network front door for the compile service.

The paper's ecosystem treats the compiler as a long-lived server
(clangd's model); this package puts a real socket boundary in front of
:class:`repro.service.CompileService` so the robustness machinery —
breakers, shedding, drain, durable state — is exercised across a
network, not just in-process:

* :mod:`repro.service.net.protocol` — length-prefixed JSON frames with
  a protocol-version stamp, a hard max-frame-size, and a resyncing
  decoder that turns arbitrary byte noise into structured errors, never
  exceptions;
* :mod:`repro.service.net.router` — shards requests across N
  independent :class:`~repro.service.CompileService` worker pools
  (least-queue-depth routing, per-shard breaker boards and gauges);
* :mod:`repro.service.net.server` — the asyncio TCP acceptor:
  per-connection read/write timeouts, slow-loris eviction, a
  connection-level concurrency cap, malformed frames answered with
  structured error frames, and a SIGTERM drain that closes every
  connection with a ``draining`` frame;
* :mod:`repro.service.net.client` — a retrying client with *deadline
  propagation* (the remaining budget, not the full budget, crosses the
  wire on every attempt) and exponential backoff reusing
  :mod:`repro.service.retry`.
"""

from __future__ import annotations

from repro.service.net.client import NetClient, parse_address
from repro.service.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    FrameTooLarge,
    ProtocolError,
    encode_frame,
    request_from_wire,
    request_to_wire,
)
from repro.service.net.router import ShardRouter
from repro.service.net.server import (
    NetServer,
    NetServerConfig,
    NetServerThread,
)

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameDecoder",
    "FrameError",
    "FrameTooLarge",
    "NetClient",
    "NetServer",
    "NetServerConfig",
    "NetServerThread",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ShardRouter",
    "encode_frame",
    "parse_address",
    "request_from_wire",
    "request_to_wire",
]
