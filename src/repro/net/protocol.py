"""The Ode wire protocol: length-prefixed binary frames over a stream.

Every message — request or reply — is one frame::

    length   u32   size of the payload that follows the header
    reqid    u32   request id; a reply echoes its request's id
    opcode   u8    what is being asked (or OP_REPLY / OP_ERROR)
    crc32    u32   CRC-32 of the payload bytes

and the payload is one self-describing :mod:`repro.ode.codec` value
(always a dict at the top level).  Reusing the object codec means the
wire carries exactly the types the database itself stores — ints,
strings, dates, OIDs, lists, structs, and (since the codec grew a native
bytes tag) raw byte strings — with no second serialization format to
maintain.

The CRC is per-frame, like the WAL's per-record CRC: a torn or corrupt
frame is detected at the boundary and surfaces as
:class:`~repro.errors.ProtocolError` rather than as garbage decoded
into a request.

Replies use ``OP_REPLY`` with the result dict, or ``OP_ERROR`` with
``{"kind": <exception class name>, "message": str}``; the client
re-raises the matching :mod:`repro.errors` class so remote failures are
indistinguishable from local ones to calling code.
"""

from __future__ import annotations

import socket
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import NetworkError, ProtocolError
from repro.ode.codec import decode_fields, decode_value, encode_value, parse_oid
from repro.ode.objectmanager import ObjectBuffer, check_identity
from repro.ode.oid import Oid

#: Protocol version exchanged in HELLO; bumped on incompatible changes.
PROTOCOL_VERSION = 2

#: Upper bound on a single frame's payload; a header asking for more is
#: treated as corruption, not an allocation request.
MAX_PAYLOAD = 64 * 1024 * 1024

_HEADER = struct.Struct(">IIBI")

#: Bytes in a frame header — exposed so tools that slice raw wire
#: traffic (the faultsim proxy's frame-aware splitting, tests) need not
#: reach into the private struct.
HEADER_SIZE = _HEADER.size

# -- opcodes -------------------------------------------------------------------

OP_HELLO = 0x01
OP_LIST_DATABASES = 0x02
OP_OPEN_DATABASE = 0x03
OP_GET_DISPLAY_MODULES = 0x04
OP_PING = 0x05

OP_GET_OBJECT = 0x10
OP_GET_OBJECTS = 0x11
OP_SCAN_CLUSTER = 0x12
OP_CLUSTER_NUMBERS = 0x13
OP_COUNT = 0x14
OP_EXISTS = 0x15
OP_VERSION_HISTORY = 0x16
OP_SELECT = 0x17
OP_EXPLAIN = 0x18

OP_NEW_OBJECT = 0x20
OP_UPDATE = 0x21
OP_DELETE = 0x22
OP_CREATE_INDEX = 0x23
OP_DROP_INDEX = 0x24

OP_BEGIN = 0x30
OP_COMMIT = 0x31
OP_ABORT = 0x32

OP_CURSOR_OPEN = 0x40
#: ``{"cursor", "from": number | None, "limit"?}`` -> ``{"numbers",
#: "epoch"}``: one window of member numbers past ``from``, nearest
#: first, from the cursor's pinned snapshot; the client holds the
#: position and steps through the window.
OP_CURSOR_NEXT = 0x41
OP_CURSOR_PREVIOUS = 0x42
OP_CURSOR_RESET = 0x43
#: Reserved: the one-step cursor's ``current`` and ``seek``, now local
#: to the client.  No server handles them; the numbers stay taken.
OP_CURSOR_CURRENT = 0x44
OP_CURSOR_SEEK = 0x45
OP_CURSOR_CLOSE = 0x46

OP_STATS = 0x50
OP_VACUUM = 0x51

OP_REPL_FETCH = 0x60
OP_REPL_SNAPSHOT = 0x61
#: Admin: promote this (replica) server to primary — stop its appliers
#: and durably mint the next fenced primary term in every database's
#: WAL.  Deliberately in neither READ_OPCODES (not idempotent: each call
#: mints a term) nor WRITE_OPCODES (no database write lock; it must cut
#: in even while writers are blocked on a dead upstream).
OP_REPL_PROMOTE = 0x62

OP_CDC_SUBSCRIBE = 0x70
OP_CDC_UNSUBSCRIBE = 0x71
#: Unsolicited server push: a change-data-capture event.  Always sent
#: with request id 0 (no request to echo); interleaves freely with
#: replies on the same connection, and the client demultiplexes by
#: opcode before matching request ids.
OP_CDC_EVENT = 0x72

OP_REPLY = 0x7E
OP_ERROR = 0x7F

OPCODE_NAMES: Dict[int, str] = {
    OP_HELLO: "hello",
    OP_LIST_DATABASES: "list_databases",
    OP_OPEN_DATABASE: "open_database",
    OP_GET_DISPLAY_MODULES: "get_display_modules",
    OP_PING: "ping",
    OP_GET_OBJECT: "get_object",
    OP_GET_OBJECTS: "get_objects",
    OP_SCAN_CLUSTER: "scan_cluster",
    OP_CLUSTER_NUMBERS: "cluster_numbers",
    OP_COUNT: "count",
    OP_EXISTS: "exists",
    OP_VERSION_HISTORY: "version_history",
    OP_SELECT: "select",
    OP_EXPLAIN: "explain",
    OP_NEW_OBJECT: "new_object",
    OP_UPDATE: "update",
    OP_DELETE: "delete",
    OP_CREATE_INDEX: "create_index",
    OP_DROP_INDEX: "drop_index",
    OP_BEGIN: "begin",
    OP_COMMIT: "commit",
    OP_ABORT: "abort",
    OP_CURSOR_OPEN: "cursor_open",
    OP_CURSOR_NEXT: "cursor_next",
    OP_CURSOR_PREVIOUS: "cursor_previous",
    OP_CURSOR_RESET: "cursor_reset",
    OP_CURSOR_CURRENT: "cursor_current",
    OP_CURSOR_SEEK: "cursor_seek",
    OP_CURSOR_CLOSE: "cursor_close",
    OP_STATS: "stats",
    OP_VACUUM: "vacuum",
    OP_REPL_FETCH: "repl_fetch",
    OP_REPL_SNAPSHOT: "repl_snapshot",
    OP_REPL_PROMOTE: "repl_promote",
    OP_CDC_SUBSCRIBE: "cdc_subscribe",
    OP_CDC_UNSUBSCRIBE: "cdc_unsubscribe",
    OP_CDC_EVENT: "cdc_event",
    OP_REPLY: "reply",
    OP_ERROR: "error",
}

#: Opcodes that never change server state: safe to retry after a
#: connection failure (at-most-once semantics are preserved).
READ_OPCODES = frozenset({
    OP_HELLO, OP_LIST_DATABASES, OP_OPEN_DATABASE, OP_GET_DISPLAY_MODULES,
    OP_PING, OP_GET_OBJECT, OP_GET_OBJECTS, OP_SCAN_CLUSTER,
    OP_CLUSTER_NUMBERS, OP_COUNT, OP_EXISTS, OP_VERSION_HISTORY, OP_SELECT,
    OP_EXPLAIN, OP_STATS, OP_REPL_FETCH, OP_REPL_SNAPSHOT,
})

#: Opcodes that mutate a database: the server takes the database's write
#: lock for these (and holds it across an open transaction).
WRITE_OPCODES = frozenset({
    OP_NEW_OBJECT, OP_UPDATE, OP_DELETE, OP_CREATE_INDEX, OP_DROP_INDEX,
    OP_BEGIN, OP_COMMIT, OP_ABORT, OP_VACUUM,
})

#: Unsolicited server-push opcodes: never a reply to anything, so the
#: client's reply readers dispatch these out of band and keep reading.
#: (CDC subscribe/unsubscribe are deliberately NOT read opcodes — a
#: subscription is session-affine state, and transparently retrying it
#: on a fresh session would fake a continuity the delta stream lost.)
PUSH_OPCODES = frozenset({OP_CDC_EVENT})


def opcode_name(opcode: int) -> str:
    return OPCODE_NAMES.get(opcode, f"op_{opcode:#04x}")


@dataclass(frozen=True)
class Frame:
    """One decoded wire message."""

    request_id: int
    opcode: int
    payload: Dict[str, Any]
    #: Bytes the frame occupied on the wire (header + payload); 0 when
    #: the frame was built locally rather than read from a socket.
    wire_size: int = 0


def encode_frame(request_id: int, opcode: int,
                 payload: Optional[Dict[str, Any]] = None) -> bytes:
    """Pack one frame: header + codec-encoded payload dict."""
    body = encode_value(payload or {})
    if len(body) > MAX_PAYLOAD:
        raise ProtocolError(
            f"frame payload of {len(body)} bytes exceeds {MAX_PAYLOAD}")
    header = _HEADER.pack(len(body), request_id & 0xFFFFFFFF, opcode,
                          zlib.crc32(body))
    return header + body


class FrameReassembler:
    """Incremental frame decoder: the one frame parser on both ends.

    A reader — the event-loop server, the client's :func:`recv_frame`,
    its push pump — feeds whatever the socket has; ``next_frame`` yields
    complete frames as they form, holding partial bytes across feeds.
    There is no blocking and no timeout policy — pacing belongs to the
    reader.

    An oversized length prefix is rejected the moment the header is
    visible (a 2 GiB claim is treated as corruption, never as an
    allocation request), and a CRC mismatch raises
    :class:`~repro.errors.ProtocolError`.  After any error the stream is
    desynced and the connection must be dropped; the reassembler makes
    no attempt to resynchronize.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)

    def _check_header(self) -> Optional[int]:
        """Claimed payload length once the header is complete, else None."""
        if len(self._buffer) < HEADER_SIZE:
            return None
        length = _HEADER.unpack_from(self._buffer)[0]
        if length > MAX_PAYLOAD:
            raise ProtocolError(f"frame claims {length} payload bytes")
        return length

    def feed(self, data: bytes) -> None:
        """Buffer raw stream bytes; validates the length prefix eagerly."""
        self._buffer.extend(data)
        self._check_header()

    def next_frame(self) -> Optional[Frame]:
        """Pop one complete frame, or None if more bytes are needed."""
        length = self._check_header()
        if length is None:
            return None
        end = HEADER_SIZE + length
        if len(self._buffer) < end:
            return None
        _length, request_id, opcode, crc = _HEADER.unpack_from(self._buffer)
        body = bytes(self._buffer[HEADER_SIZE:end])
        del self._buffer[:end]
        if zlib.crc32(body) != crc:
            raise ProtocolError("frame CRC mismatch")
        payload, consumed = decode_value(body, 0) if length else ({}, 0)
        if consumed != length or not isinstance(payload, dict):
            raise ProtocolError("frame payload is not a single codec dict")
        return Frame(request_id, opcode, payload, wire_size=end)


# -- object records --------------------------------------------------------------

def records_reply(rows: Iterable[Tuple[bytes, str, Sequence[str],
                                       Optional[Dict[str, Any]]]],
                  missing: Sequence[str] = ()) -> Dict[str, Any]:
    """The reply of an object read: each record's stored bytes
    (:func:`~repro.ode.codec.encode_object`), once per class its public
    names, and — only when some record has them — its computed values.

    *rows* are ``(record, class name, public names, computed)``, with
    ``computed`` ``None`` for a class without computed methods.
    Computed attributes travel pre-evaluated: behaviours run on the
    server, next to the data, as the paper's object manager evaluates
    them for OdeView (§5.1).  Public names come from the server's
    schema, so a client's stale schema cannot widen encapsulation.
    """
    records: List[bytes] = []
    public: Dict[str, List[str]] = {}
    computed: List[Optional[Dict[str, Any]]] = []
    for record, class_name, names, values in rows:
        records.append(record)
        if class_name not in public:
            public[class_name] = list(names)
        computed.append(values)
    reply: Dict[str, Any] = {"records": records, "public": public,
                             "missing": list(missing)}
    if any(values is not None for values in computed):
        reply["computed"] = computed
    return reply


#: Object reads whose reply is one object: ``"buffer"``, not ``"buffers"``.
_ONE_OBJECT_OPCODES = frozenset({OP_GET_OBJECT, OP_UPDATE})


def decode_records(opcode: int, reply: Dict[str, Any]) -> Dict[str, Any]:
    """A :func:`records_reply` as the client receives it, each record
    decoded once.

    Decoding checks each record as a local read does (magic, version,
    framing, no trailing bytes).  ``records``, ``public`` and
    ``computed`` give way to the objects a caller of ``OdeClient.call``
    reads — ``"buffer"`` for get_object and update, else ``"buffers"``
    — each ``{"oid", "class", "values", "public",
    "computed"}`` with the OID as its stored text.  A reply without
    records comes back as it is.
    """
    records = reply.pop("records", None)
    if records is None:
        return reply
    public = {name: tuple(names)
              for name, names in reply.pop("public").items()}
    computed = reply.pop("computed", None)
    if computed is not None and len(computed) != len(records):
        raise ProtocolError("computed values do not align with records")
    objects = []
    for index, record in enumerate(records):
        oid_text, class_name, values = decode_fields(record, None)
        names = public.get(class_name)
        if names is None:
            raise ProtocolError(f"reply names no public attributes of "
                                f"class {class_name!r}")
        extra = computed[index] if computed is not None else None
        objects.append({"oid": oid_text, "class": class_name,
                        "values": values, "public": names,
                        "computed": extra or {}})
    if opcode not in _ONE_OBJECT_OPCODES:
        reply["buffers"] = objects
    elif len(objects) == 1:
        reply["buffer"] = objects[0]
    else:
        raise ProtocolError(f"{len(objects)} records in a one-object reply")
    return reply


def buffer_from_object(value: Dict[str, Any],
                       oid: Optional[Oid] = None) -> ObjectBuffer:
    """The buffer of one object of a :func:`decode_records` reply.

    With *oid* — what the request asked for — the stored OID must name
    it; otherwise the stored OID text is parsed.
    """
    if oid is None:
        oid = parse_oid(value["oid"])
    else:
        check_identity(oid, value["oid"])
    return ObjectBuffer(oid, value["class"], value["values"],
                        tuple(value["public"]), value["computed"])


# -- stream I/O ----------------------------------------------------------------

#: Bytes asked of a socket per read, on both ends of the wire.  Large
#: enough that a bulk reply arrives in few syscalls, small enough not to
#: hoard buffers per connection.
READ_CHUNK = 64 * 1024


class ConnectionClosed(NetworkError):
    """The peer closed the connection cleanly between frames."""


def recv_frame(sock: socket.socket, frames: FrameReassembler) -> Frame:
    """The next frame off a blocking socket, parsed by *frames*.

    A frame already buffered in *frames* comes back without a read.
    Otherwise each ``recv`` waits at most the socket's timeout: a
    trickling peer is read whole, because every ``recv`` that returns
    bytes restarts the wait, and a peer that stalls fails the read after
    one timeout.  Bytes past the frame stay in *frames* for the next
    reader.
    """
    while True:
        frame = frames.next_frame()
        if frame is not None:
            return frame
        try:
            data = sock.recv(READ_CHUNK)
        except socket.timeout as exc:
            raise NetworkError("timed out waiting for a frame") from exc
        except OSError as exc:
            raise NetworkError(f"connection lost: {exc}") from exc
        if not data:
            if frames.pending_bytes:
                raise ProtocolError("connection closed mid-frame")
            raise ConnectionClosed("peer closed the connection")
        frames.feed(data)


def write_frame(sock: socket.socket, request_id: int, opcode: int,
                payload: Optional[Dict[str, Any]] = None) -> int:
    """Send one frame; returns the number of bytes written."""
    data = encode_frame(request_id, opcode, payload)
    try:
        sock.sendall(data)
    except OSError as exc:
        raise NetworkError(f"connection lost while sending: {exc}") from exc
    return len(data)
