"""Unit tests for the wire protocol: framing, the resyncing decoder,
message constructors, and untrusted request deserialization."""

from __future__ import annotations

import json
import struct

import pytest

from repro.service.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER_SIZE,
    MAGIC,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    FrameTooLarge,
    ProtocolError,
    encode_frame,
    error_message,
    iter_frames,
    ping_message,
    request_from_wire,
    request_message,
    request_to_wire,
    response_message,
)
from repro.service.request import CompileRequest


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestEncodeFrame:
    def test_round_trip(self):
        payload = {"type": "ping", "id": "x", "v": PROTOCOL_VERSION}
        events = list(iter_frames(encode_frame(payload)))
        assert events == [payload]

    def test_header_layout(self):
        frame = encode_frame({"a": 1})
        magic, version, reserved, length = struct.unpack_from(
            ">2sBBI", frame
        )
        assert magic == MAGIC
        assert version == PROTOCOL_VERSION
        assert reserved == 0
        assert length == len(frame) - HEADER_SIZE
        assert json.loads(frame[HEADER_SIZE:]) == {"a": 1}

    def test_refuses_oversized_payload(self):
        with pytest.raises(FrameTooLarge):
            encode_frame({"blob": "x" * 128}, max_frame_bytes=64)

    def test_many_frames_one_buffer(self):
        payloads = [{"n": i} for i in range(10)]
        data = b"".join(encode_frame(p) for p in payloads)
        assert list(iter_frames(data)) == payloads


class TestFrameDecoder:
    def test_byte_at_a_time(self):
        payload = {"type": "request", "id": "r1", "n": 42}
        data = encode_frame(payload)
        decoder = FrameDecoder()
        events = []
        for i in range(len(data)):
            events.extend(decoder.feed(data[i : i + 1]))
        assert events == [payload]
        assert decoder.frames_decoded == 1
        assert decoder.errors == 0
        assert not decoder.mid_frame

    def test_mid_frame_flag(self):
        data = encode_frame({"k": "v"})
        decoder = FrameDecoder()
        decoder.feed(data[:5])
        assert decoder.mid_frame
        decoder.feed(data[5:])
        assert not decoder.mid_frame

    def test_garbage_then_frame_resyncs(self):
        junk = bytes([0x00, 0xFE, 0x7F]) * 7  # no MAGIC inside
        payload = ping_message("after")
        events = list(iter_frames(junk + encode_frame(payload)))
        assert len(events) == 2
        error, frame = events
        assert isinstance(error, FrameError)
        assert error.code == "bad-magic"
        assert error.skipped == len(junk)
        assert not error.fatal
        assert frame == payload

    def test_garbage_coalesced_into_one_error(self):
        junk = b"\x00" * 100
        decoder = FrameDecoder()
        for i in range(0, len(junk), 7):
            decoder.feed(junk[i : i + 7])
        events = decoder.feed(encode_frame({"ok": True}))
        errors = [e for e in events if isinstance(e, FrameError)]
        assert len(errors) == 1
        assert errors[0].skipped == len(junk)

    def test_magic_straddling_chunk_boundary(self):
        payload = {"x": 1}
        data = b"\x01\x02\x03" + encode_frame(payload)
        # split right between the two magic bytes
        split = 3 + 1
        decoder = FrameDecoder()
        events = decoder.feed(data[:split])
        events += decoder.feed(data[split:])
        assert payload in events

    def test_bad_version_skips_exactly_one_frame(self):
        bad = encode_frame({"old": True}, version=99)
        good = ping_message("still-here")
        events = list(iter_frames(bad + encode_frame(good)))
        assert isinstance(events[0], FrameError)
        assert events[0].code == "bad-version"
        assert not events[0].fatal
        assert events[1] == good

    def test_bad_payload_not_json(self):
        body = b"not json at all"
        frame = struct.pack(
            ">2sBBI", MAGIC, PROTOCOL_VERSION, 0, len(body)
        ) + body
        events = list(iter_frames(frame + encode_frame({"n": 1})))
        assert events[0].code == "bad-payload"
        assert events[1] == {"n": 1}

    def test_bad_payload_not_object(self):
        frame = encode_frame({})  # re-pack a list body manually
        body = b"[1,2,3]"
        frame = struct.pack(
            ">2sBBI", MAGIC, PROTOCOL_VERSION, 0, len(body)
        ) + body
        (event,) = iter_frames(frame)
        assert isinstance(event, FrameError)
        assert event.code == "bad-payload"

    def test_bad_payload_not_utf8(self):
        body = b"\xff\xfe{}"
        frame = struct.pack(
            ">2sBBI", MAGIC, PROTOCOL_VERSION, 0, len(body)
        ) + body
        (event,) = iter_frames(frame)
        assert event.code == "bad-payload"

    def test_oversized_declared_length_is_fatal_error(self):
        header = struct.pack(
            ">2sBBI", MAGIC, PROTOCOL_VERSION, 0, 1 << 30
        )
        decoder = FrameDecoder(max_frame_bytes=1024)
        events = decoder.feed(header)
        errors = [e for e in events if isinstance(e, FrameError)]
        assert errors and errors[0].code == "oversized-frame"
        assert errors[0].fatal

    def test_decoder_recovers_after_oversized(self):
        header = struct.pack(
            ">2sBBI", MAGIC, PROTOCOL_VERSION, 0, 1 << 30
        )
        decoder = FrameDecoder(max_frame_bytes=1024)
        decoder.feed(header)
        events = decoder.feed(encode_frame({"back": 1}))
        assert {"back": 1} in events

    def test_chunking_invariance(self):
        junk = b"\x00\x01\x02"
        data = (
            encode_frame({"a": 1})
            + junk
            + encode_frame({"b": 2}, version=55)
            + encode_frame({"c": 3})
        )
        whole = list(iter_frames(data))
        for chunk in (1, 2, 3, 5, 11):
            decoder = FrameDecoder()
            events = []
            for i in range(0, len(data), chunk):
                events.extend(decoder.feed(data[i : i + chunk]))
            assert events == whole


# ----------------------------------------------------------------------
# Message constructors
# ----------------------------------------------------------------------
class TestMessages:
    def test_request_message_carries_remaining_deadline(self):
        request = CompileRequest(source="int main(){return 0;}")
        msg = request_message("m1", request, deadline_s=1.23456789)
        assert msg["type"] == "request"
        assert msg["id"] == "m1"
        assert msg["deadline_s"] == pytest.approx(1.234568)

    def test_response_and_error_messages(self):
        msg = response_message("m1", {"status": "ok"}, shard=3)
        assert msg["shard"] == 3
        err = error_message("draining", "bye", msg_id="m1", retryable=True)
        assert err["retryable"] is True
        assert err["id"] == "m1"
        bare = error_message("bad-magic")
        assert "id" not in bare and "retryable" not in bare


# ----------------------------------------------------------------------
# CompileRequest <-> wire
# ----------------------------------------------------------------------
class TestRequestWire:
    def test_round_trip_preserves_fields(self):
        request = CompileRequest(
            source="int main(){return 7;}",
            filename="t.c",
            action="run",
            mode="irbuilder",
            optimize=True,
            defines={"N": "4"},
            inject_faults=("service-worker-exit",),
            fault_attempts=2,
            deadline_s=2.5,
        )
        wire = request_to_wire(request)
        json.dumps(wire)  # must be JSON-safe
        rebuilt = request_from_wire(json.loads(json.dumps(wire)))
        assert rebuilt.source == request.source
        assert rebuilt.filename == request.filename
        assert rebuilt.action == "run"
        assert rebuilt.mode == "irbuilder"
        assert rebuilt.optimize is True
        assert rebuilt.defines == {"N": "4"}
        assert rebuilt.inject_faults == ("service-worker-exit",)
        assert rebuilt.fault_attempts == 2
        assert rebuilt.deadline_s == 2.5
        assert rebuilt.fingerprint() == request.fingerprint()

    def test_request_id_does_not_cross_the_wire(self):
        request = CompileRequest(source="int main(){return 0;}")
        request.request_id = "local-007"
        assert "request_id" not in request_to_wire(request)

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            request_from_wire(["not", "a", "dict"])

    def test_rejects_unknown_fields(self):
        with pytest.raises(ProtocolError, match="unknown"):
            request_from_wire({"source": "x", "evil": 1})

    def test_rejects_missing_source(self):
        with pytest.raises(ProtocolError, match="source"):
            request_from_wire({"filename": "a.c"})

    def test_rejects_wrong_types(self):
        with pytest.raises(ProtocolError):
            request_from_wire({"source": 42})
        with pytest.raises(ProtocolError):
            request_from_wire({"source": "x", "fuel": "lots"})

    def test_bool_cannot_pose_as_int(self):
        with pytest.raises(ProtocolError):
            request_from_wire({"source": "x", "fault_attempts": True})

    def test_rejects_bad_action_and_mode(self):
        with pytest.raises(ProtocolError, match="action"):
            request_from_wire({"source": "x", "action": "delete"})
        with pytest.raises(ProtocolError, match="mode"):
            request_from_wire({"source": "x", "mode": "quantum"})

    def test_rejects_non_str_defines_and_faults(self):
        with pytest.raises(ProtocolError, match="defines"):
            request_from_wire({"source": "x", "defines": {"N": 4}})
        with pytest.raises(ProtocolError, match="inject_faults"):
            request_from_wire({"source": "x", "inject_faults": [1]})

    def test_default_max_frame_fits_real_requests(self):
        request = CompileRequest(source="int x;\n" * 1000)
        frame = encode_frame(request_message("m", request))
        assert len(frame) < DEFAULT_MAX_FRAME_BYTES
