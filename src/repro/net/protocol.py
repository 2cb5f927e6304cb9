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
re-raises the matching :mod:`repro.errors` (or builtin) class so remote
failures are indistinguishable from local ones to calling code.
"""

from __future__ import annotations

import enum
import socket
import struct
import zlib
from dataclasses import dataclass
from typing import (Any, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

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

class Rule(enum.Enum):
    """How the server serves an opcode — the one decision the session,
    the event loop and the client read from :data:`OPCODES`."""

    #: Session work that names no database: no pin, no lock.
    NO_DATABASE = "no database"
    #: A read from a store snapshot pinned for the request (or through
    #: the session's own transaction overlay), inline on the loop.
    PINNED_READ = "pinned read"
    #: A sequencing-cursor request, lock-free on the cursor's own pinned
    #: snapshot; opening one must not run inside an ambient pin.
    CURSOR = "cursor"
    #: Runs on the executor under the database's writer lock (held
    #: across an explicit transaction from ``begin`` to its end).
    WRITE = "write"
    #: A write in its own transaction: begin, the op and commit staging
    #: under the writer lock, the fsync wait after it is released.
    AUTOCOMMIT = "autocommit write"
    #: Session work too heavy for the loop (a full-state copy, an
    #: fsync), on the executor with no lock and no ambient pin.
    EXECUTOR = "executor"
    #: A change-log reader the connection layer serves on the loop
    #: itself; it may park until the next commit.
    ON_LOOP = "on-loop stream"
    #: An unsolicited server push, sent with request id 0: never a
    #: request and never a reply.
    PUSH = "push"
    #: A reply frame.
    REPLY = "reply"
    #: A number kept taken that no server serves.
    RESERVED = "reserved"


class Opcode(NamedTuple):
    """One row of the opcode table."""

    code: int
    #: The metric suffix (``net.server.requests.<name>``) and, for a
    #: session-served row, the handler ``ServerSession.op_<name>``.
    name: str
    rule: Rule
    #: Never changes server state, so the client retries it after a
    #: connection failure (at-most-once semantics are preserved).
    retry: bool = False
    #: A per-object or per-cluster data read the client may serve from
    #: a replica: which epoch answered is well defined and in the reply.
    routed: bool = False
    #: An object read whose reply is one object: ``"buffer"``, not
    #: ``"buffers"``.
    one_object: bool = False


#: The opcode table: every opcode the wire knows, by number.
OPCODES: Dict[int, Opcode] = {}


def _opcode(code: int, name: str, rule: Rule, **facts: bool) -> int:
    """Declare one opcode's row; returns its number."""
    if code in OPCODES:
        raise ValueError(f"opcode {code:#04x} declared twice")
    OPCODES[code] = Opcode(code, name, rule, **facts)
    return code


OP_HELLO = _opcode(0x01, "hello", Rule.NO_DATABASE, retry=True)
OP_LIST_DATABASES = _opcode(0x02, "list_databases", Rule.NO_DATABASE,
                            retry=True)
OP_OPEN_DATABASE = _opcode(0x03, "open_database", Rule.PINNED_READ,
                           retry=True)
OP_GET_DISPLAY_MODULES = _opcode(0x04, "get_display_modules",
                                 Rule.PINNED_READ, retry=True)
OP_PING = _opcode(0x05, "ping", Rule.NO_DATABASE, retry=True)

OP_GET_OBJECT = _opcode(0x10, "get_object", Rule.PINNED_READ, retry=True,
                        routed=True, one_object=True)
OP_GET_OBJECTS = _opcode(0x11, "get_objects", Rule.PINNED_READ, retry=True,
                         routed=True)
OP_SCAN_CLUSTER = _opcode(0x12, "scan_cluster", Rule.PINNED_READ, retry=True,
                          routed=True)
OP_CLUSTER_NUMBERS = _opcode(0x13, "cluster_numbers", Rule.PINNED_READ,
                             retry=True, routed=True)
OP_COUNT = _opcode(0x14, "count", Rule.PINNED_READ, retry=True, routed=True)
OP_EXISTS = _opcode(0x15, "exists", Rule.PINNED_READ, retry=True, routed=True)
OP_VERSION_HISTORY = _opcode(0x16, "version_history", Rule.PINNED_READ,
                             retry=True, routed=True)
OP_SELECT = _opcode(0x17, "select", Rule.PINNED_READ, retry=True)
OP_EXPLAIN = _opcode(0x18, "explain", Rule.PINNED_READ, retry=True)

OP_NEW_OBJECT = _opcode(0x20, "new_object", Rule.AUTOCOMMIT)
OP_UPDATE = _opcode(0x21, "update", Rule.AUTOCOMMIT, one_object=True)
OP_DELETE = _opcode(0x22, "delete", Rule.AUTOCOMMIT)
OP_CREATE_INDEX = _opcode(0x23, "create_index", Rule.WRITE)
OP_DROP_INDEX = _opcode(0x24, "drop_index", Rule.WRITE)

OP_BEGIN = _opcode(0x30, "begin", Rule.WRITE)
OP_COMMIT = _opcode(0x31, "commit", Rule.WRITE)
OP_ABORT = _opcode(0x32, "abort", Rule.WRITE)

OP_CURSOR_OPEN = _opcode(0x40, "cursor_open", Rule.CURSOR)
#: ``{"cursor", "from": number | None, "limit"?}`` -> ``{"numbers",
#: "epoch"}``: one window of member numbers past ``from``, nearest
#: first, from the cursor's pinned snapshot; the client holds the
#: position and steps through the window.
OP_CURSOR_NEXT = _opcode(0x41, "cursor_next", Rule.CURSOR)
OP_CURSOR_PREVIOUS = _opcode(0x42, "cursor_previous", Rule.CURSOR)
OP_CURSOR_RESET = _opcode(0x43, "cursor_reset", Rule.CURSOR)
#: Reserved: the one-step cursor's ``current`` and ``seek``, now local
#: to the client.  No server handles them; the numbers stay taken.
OP_CURSOR_CURRENT = _opcode(0x44, "cursor_current", Rule.RESERVED)
OP_CURSOR_SEEK = _opcode(0x45, "cursor_seek", Rule.RESERVED)
#: Only pops a session-local entry, so it names no database.
OP_CURSOR_CLOSE = _opcode(0x46, "cursor_close", Rule.NO_DATABASE)

OP_STATS = _opcode(0x50, "stats", Rule.PINNED_READ, retry=True)
OP_VACUUM = _opcode(0x51, "vacuum", Rule.WRITE)

OP_REPL_FETCH = _opcode(0x60, "repl_fetch", Rule.ON_LOOP, retry=True)
OP_REPL_SNAPSHOT = _opcode(0x61, "repl_snapshot", Rule.EXECUTOR,
                           retry=True)
#: Admin: promote this (replica) server to primary — stop its appliers
#: and durably mint the next fenced primary term in every database's
#: WAL.  Not retried (each call mints a term) and not a write (no
#: database writer lock: it must cut in even while writers are blocked
#: on a dead upstream).
OP_REPL_PROMOTE = _opcode(0x62, "repl_promote", Rule.EXECUTOR)

#: Not retried: a subscription is session-affine state, and
#: transparently retrying it on a fresh session would fake a continuity
#: the delta stream lost.
OP_CDC_SUBSCRIBE = _opcode(0x70, "cdc_subscribe", Rule.ON_LOOP)
OP_CDC_UNSUBSCRIBE = _opcode(0x71, "cdc_unsubscribe", Rule.ON_LOOP)
#: A change-data-capture event.  Interleaves freely with replies on the
#: same connection; the client demultiplexes by rule before matching
#: request ids.
OP_CDC_EVENT = _opcode(0x72, "cdc_event", Rule.PUSH)

OP_REPLY = _opcode(0x7E, "reply", Rule.REPLY)
OP_ERROR = _opcode(0x7F, "error", Rule.REPLY)


def opcode_info(opcode: int) -> Opcode:
    """*opcode*'s row; a number outside the table reads as reserved."""
    row = OPCODES.get(opcode)
    if row is None:
        return Opcode(opcode, f"op_{opcode:#04x}", Rule.RESERVED)
    return row


def opcode_name(opcode: int) -> str:
    return opcode_info(opcode).name


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
    if not opcode_info(opcode).one_object:
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
