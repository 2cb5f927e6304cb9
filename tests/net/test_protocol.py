"""Tests for the wire protocol: framing, CRC, marshalling."""

import socket

import pytest

from repro.errors import ProtocolError
from repro.net import protocol as P
from repro.ode.codec import encode_object
from repro.ode.objectmanager import ObjectBuffer
from repro.ode.oid import Oid


def _decode(data: bytes) -> P.Frame:
    """Read one frame off a socket that carries exactly *data*, then EOF
    — the client's blocking read path."""
    sender, receiver = socket.socketpair()
    try:
        sender.sendall(data)
        sender.close()
        receiver.settimeout(1.0)
        return P.recv_frame(receiver, P.FrameReassembler())
    finally:
        receiver.close()


class TestFrames:
    def test_roundtrip(self):
        data = P.encode_frame(7, P.OP_GET_OBJECT, {"oid": "lab:employee:3"})
        frame = _decode(data)
        assert frame.wire_size == len(data)
        assert frame.request_id == 7
        assert frame.opcode == P.OP_GET_OBJECT
        assert frame.payload == {"oid": "lab:employee:3"}

    def test_empty_payload_defaults_to_dict(self):
        frame = _decode(P.encode_frame(1, P.OP_PING))
        assert frame.payload == {}

    def test_payload_carries_codec_types(self):
        import datetime

        payload = {
            "oid": Oid("db", "c", 4),
            "raw": b"\x00\xff\x01",
            "when": datetime.date(1990, 5, 23),
            "nested": {"list": [1, 2.5, None, True]},
        }
        frame = _decode(P.encode_frame(2, P.OP_REPLY, payload))
        assert frame.payload == payload

    def test_crc_corruption_detected(self):
        data = bytearray(P.encode_frame(3, P.OP_PING, {"x": 1}))
        data[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="CRC"):
            _decode(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="mid-frame"):
            _decode(b"\x00\x01")

    def test_truncated_payload(self):
        data = P.encode_frame(4, P.OP_PING, {"x": 1})
        with pytest.raises(ProtocolError, match="mid-frame"):
            _decode(data[:-2])

    def test_oversized_frame_rejected(self):
        header = P._HEADER.pack(P.MAX_PAYLOAD + 1, 1, P.OP_PING, 0)
        with pytest.raises(ProtocolError, match="claims"):
            _decode(header + b"\x00" * 16)

    def test_non_dict_payload_rejected(self):
        from repro.ode.codec import encode_value
        import zlib

        body = encode_value([1, 2, 3])
        header = P._HEADER.pack(len(body), 1, P.OP_PING, zlib.crc32(body))
        with pytest.raises(ProtocolError, match="dict"):
            _decode(header + body)

    def test_opcode_names(self):
        assert P.OPCODES[P.OP_SCAN_CLUSTER].name == "scan_cluster"
        assert P.opcode_name(P.OP_SCAN_CLUSTER) == "scan_cluster"
        assert P.opcode_name(0x99) == "op_0x99"
        assert P.opcode_info(0x99).rule is P.Rule.RESERVED

    def test_read_and_write_opcodes_disjoint(self):
        writes = (P.Rule.WRITE, P.Rule.AUTOCOMMIT)
        assert not [row for row in P.OPCODES.values()
                    if row.retry and row.rule in writes]


class TestBufferMarshalling:
    def _buffer(self):
        return ObjectBuffer(
            oid=Oid("lab", "employee", 9),
            class_name="employee",
            values={"name": "kk", "salary": 1.5, "dept": Oid("lab", "department", 0)},
            public_names=("name", "salary"),
            computed={"years_service": 4},
        )

    def _reply(self, original):
        record = encode_object(original.oid, original.class_name,
                               original.values)
        return P.records_reply([(record, original.class_name,
                                 original.public_names,
                                 dict(original.computed))])

    def test_roundtrip(self):
        original = self._buffer()
        value = P.decode_records(P.OP_GET_OBJECT, self._reply(original))
        restored = P.buffer_from_object(value["buffer"])
        assert restored.oid == original.oid
        assert restored.class_name == original.class_name
        assert dict(restored.values) == dict(original.values)
        assert restored.public_names == original.public_names
        assert dict(restored.computed) == dict(original.computed)

    def test_roundtrip_over_the_wire(self):
        original = self._buffer()
        frame = _decode(
            P.encode_frame(5, P.OP_REPLY, self._reply(original)))
        reply = P.decode_records(P.OP_GET_OBJECTS, frame.payload)
        restored = P.buffer_from_object(reply["buffers"][0], original.oid)
        assert restored.value("name") == "kk"
        assert restored.value("years_service") == 4


class TestStreamTimeouts:
    """A timeout is a NetworkError wherever it falls; bytes that did
    arrive stay buffered, so no read resumes mid-frame as a header."""

    @staticmethod
    def _pair(timeout=0.05):
        a, b = socket.socketpair()
        b.settimeout(timeout)
        return a, b

    def test_timeout_without_idle_ok_is_plain_network_error(self):
        from repro.errors import NetworkError

        sender, receiver = self._pair()
        try:
            with pytest.raises(NetworkError, match="timed out"):
                P.recv_frame(receiver, P.FrameReassembler())
        finally:
            sender.close()
            receiver.close()

    def test_partial_header_timeout_is_not_idle(self):
        """Bytes were consumed: they stay buffered, not re-read."""
        from repro.errors import NetworkError

        sender, receiver = self._pair()
        frames = P.FrameReassembler()
        try:
            frame = P.encode_frame(1, P.OP_PING)
            sender.sendall(frame[:5])  # header is 13 bytes; stall mid-header
            with pytest.raises(NetworkError, match="timed out"):
                P.recv_frame(receiver, frames)
            assert frames.pending_bytes == 5
            sender.sendall(frame[5:])
            assert P.recv_frame(receiver, frames).request_id == 1
        finally:
            sender.close()
            receiver.close()

    def test_slow_body_after_header_is_not_idle(self):
        """A complete header with a stalled body times out once."""
        from repro.errors import NetworkError

        sender, receiver = self._pair()
        frames = P.FrameReassembler()
        try:
            frame = P.encode_frame(2, P.OP_GET_OBJECT, {"oid": "a:b:1"})
            sender.sendall(frame[:15])  # full header + 2 body bytes
            with pytest.raises(NetworkError, match="timed out"):
                P.recv_frame(receiver, frames)
            assert frames.pending_bytes == 15
        finally:
            sender.close()
            receiver.close()

    def test_trickled_frame_is_read_completely(self):
        """A slow-but-live peer is tolerated as long as bytes flow."""
        import threading
        import time

        sender, receiver = self._pair(timeout=0.05)
        try:
            frame = P.encode_frame(3, P.OP_PING, {"n": 42})

            def trickle():
                for i in range(0, len(frame), 4):
                    sender.sendall(frame[i:i + 4])
                    time.sleep(0.03)  # slower than one poll, never stalled

            thread = threading.Thread(target=trickle)
            thread.start()
            decoded = P.recv_frame(receiver, P.FrameReassembler())
            thread.join(5)
            assert decoded.request_id == 3
            assert decoded.payload == {"n": 42}
        finally:
            sender.close()
            receiver.close()

    def test_frames_behind_the_first_stay_buffered(self):
        """One write carrying two frames: the second is returned by the
        next call without a read."""
        sender, receiver = self._pair()
        frames = P.FrameReassembler()
        try:
            sender.sendall(P.encode_frame(1, P.OP_REPLY, {"a": 1})
                           + P.encode_frame(0, P.OP_CDC_EVENT, {"b": 2}))
            assert P.recv_frame(receiver, frames).payload == {"a": 1}
            sender.close()  # a read now would see EOF, not the frame
            assert P.recv_frame(receiver, frames).payload == {"b": 2}
        finally:
            receiver.close()
