"""The opcode table: one row per opcode, read by every end of the wire.

Each opcode's name, serving rule and client facts (retry, route, one
object) are declared once in :data:`repro.net.protocol.OPCODES`.  These
tests hold the table to the constants, the handlers and the behaviour
the separate opcode sets had before it: the same opcodes retried and
routed, the same metric names and the same ``OP_STATS`` keys.
"""

from __future__ import annotations

import socket

import repro.errors as errors
from repro.net import protocol as P
from repro.net.aserver import _STREAMS, _AsyncConnection
from repro.net.client import OdeClient
from repro.net.session import _HANDLERS, ServerSession
from repro.obs import get_registry

#: The names every opcode had before the table: the suffix of the
#: ``net.server.requests.*`` and ``net.client.requests.*`` counters.
NAMES = {
    0x01: "hello", 0x02: "list_databases", 0x03: "open_database",
    0x04: "get_display_modules", 0x05: "ping",
    0x10: "get_object", 0x11: "get_objects", 0x12: "scan_cluster",
    0x13: "cluster_numbers", 0x14: "count", 0x15: "exists",
    0x16: "version_history", 0x17: "select", 0x18: "explain",
    0x20: "new_object", 0x21: "update", 0x22: "delete",
    0x23: "create_index", 0x24: "drop_index",
    0x30: "begin", 0x31: "commit", 0x32: "abort",
    0x40: "cursor_open", 0x41: "cursor_next", 0x42: "cursor_previous",
    0x43: "cursor_reset", 0x44: "cursor_current", 0x45: "cursor_seek",
    0x46: "cursor_close",
    0x50: "stats", 0x51: "vacuum",
    0x60: "repl_fetch", 0x61: "repl_snapshot", 0x62: "repl_promote",
    0x70: "cdc_subscribe", 0x71: "cdc_unsubscribe", 0x72: "cdc_event",
    0x7E: "reply", 0x7F: "error",
}

#: The opcodes the client retried after a connection failure.
RETRIED = {
    P.OP_HELLO, P.OP_LIST_DATABASES, P.OP_OPEN_DATABASE,
    P.OP_GET_DISPLAY_MODULES, P.OP_PING, P.OP_GET_OBJECT, P.OP_GET_OBJECTS,
    P.OP_SCAN_CLUSTER, P.OP_CLUSTER_NUMBERS, P.OP_COUNT, P.OP_EXISTS,
    P.OP_VERSION_HISTORY, P.OP_SELECT, P.OP_EXPLAIN, P.OP_STATS,
    P.OP_REPL_FETCH, P.OP_REPL_SNAPSHOT,
}

#: The opcodes the client served from a replica.
ROUTED = {
    P.OP_GET_OBJECT, P.OP_GET_OBJECTS, P.OP_SCAN_CLUSTER,
    P.OP_CLUSTER_NUMBERS, P.OP_COUNT, P.OP_EXISTS, P.OP_VERSION_HISTORY,
}

#: ``OP_STATS``'s reply keys, and those of its nested dicts.
STATS_KEYS = {
    "role", "term", "applied_epoch", "replication", "schema_version",
    "clusters", "indexes", "statistics", "fragmentation", "pool", "epoch",
    "group_commit", "mvcc", "read_lockfree", "cdc",
}
STATS_NESTED = {
    "pool": {"hits", "misses", "evictions", "prefetches", "writebacks",
             "writeback_batches"},
    "mvcc": {"versions_live", "snapshots_open", "pruned", "full_sweeps",
             "snapshot_reads", "read_fallbacks", "snapshot_age_p95"},
    "cdc": {"subscribers", "events", "coalesced"},
}

#: Rules whose opcodes a client may send as requests.
REQUEST_RULES = set(P.Rule) - {P.Rule.PUSH, P.Rule.REPLY}


class TestRows:
    def test_every_constant_has_exactly_one_row(self):
        constants = {name: value for name, value in vars(P).items()
                     if name.startswith("OP_")}
        assert len(set(constants.values())) == len(constants)
        assert set(constants.values()) == set(P.OPCODES)
        for constant, code in constants.items():
            row = P.OPCODES[code]
            assert row.code == code
            assert row.name == constant[len("OP_"):].lower()

    def test_every_request_rows_handler_exists(self):
        served = {row.code for row in P.OPCODES.values()
                  if row.rule in REQUEST_RULES - {P.Rule.ON_LOOP,
                                                  P.Rule.RESERVED}}
        # The transaction ends are served by write_prepare itself.
        assert set(_HANDLERS) == served - {P.OP_COMMIT, P.OP_ABORT}
        for code, handler in _HANDLERS.items():
            assert handler is getattr(ServerSession,
                                      f"op_{P.opcode_name(code)}")
        streams = {row.code for row in P.OPCODES.values()
                   if row.rule is P.Rule.ON_LOOP}
        assert set(_STREAMS) == streams
        for code, stream in _STREAMS.items():
            assert stream is getattr(_AsyncConnection,
                                     f"_{P.opcode_name(code)}")

    def test_facts_hold_only_where_they_make_sense(self):
        for row in P.OPCODES.values():
            if row.routed:
                assert row.retry and row.rule is P.Rule.PINNED_READ
            if row.one_object:
                assert row.rule in (P.Rule.PINNED_READ, P.Rule.AUTOCOMMIT)


class TestSameAsBefore:
    def test_names(self):
        assert {code: P.opcode_name(code) for code in P.OPCODES} == NAMES

    def test_retried_routed_and_one_object_opcodes(self):
        rows = P.OPCODES.values()
        assert {row.code for row in rows if row.retry} == RETRIED
        assert {row.code for row in rows if row.routed} == ROUTED
        assert {row.code for row in rows if row.one_object} \
            == {P.OP_GET_OBJECT, P.OP_UPDATE}

    def test_metric_names(self, served_lab):
        client = OdeClient("127.0.0.1", served_lab.port)
        try:
            for code, name in NAMES.items():
                assert served_lab._request_counter(code).name \
                    == f"net.server.requests.{name}"
                client._count_request(code)
                assert client._m_requests[code].name \
                    == f"net.client.requests.{name}"
            before = get_registry().counter("net.server.requests.ping").value
            client.call(P.OP_PING)
            assert get_registry().counter(
                "net.server.requests.ping").value == before + 1
        finally:
            client.close()

    def test_stats_keys(self, remote_lab):
        stats = remote_lab.server_stats()
        assert set(stats) == STATS_KEYS
        for key, nested in STATS_NESTED.items():
            assert set(stats[key]) == nested


class TestEveryRequestAnswers:
    def test_an_empty_payload_gets_a_reply_or_a_typed_error(self,
                                                            served_lab):
        """Every request opcode, reserved ones too, sent with ``{}``: the
        server replies, or refuses with an error class of
        :mod:`repro.errors`, and the connection still answers a ping."""
        sock = socket.create_connection(("127.0.0.1", served_lab.port),
                                        timeout=10)
        frames = P.FrameReassembler()
        try:
            codes = [row.code for row in P.OPCODES.values()
                     if row.rule in REQUEST_RULES] + [0x99]
            for request_id, code in enumerate(codes, start=1):
                P.write_frame(sock, request_id, code, {})
                frame = P.recv_frame(sock, frames)
                assert frame.request_id == request_id, P.opcode_name(code)
                if frame.opcode == P.OP_ERROR:
                    kind = getattr(errors, frame.payload["kind"], None)
                    assert isinstance(kind, type) \
                        and issubclass(kind, errors.OdeError), \
                        (P.opcode_name(code), frame.payload)
                else:
                    assert frame.opcode == P.OP_REPLY, P.opcode_name(code)
                P.write_frame(sock, 0, P.OP_PING, {})
                pong = P.recv_frame(sock, frames)
                assert (pong.opcode, pong.request_id) == (P.OP_REPLY, 0), \
                    P.opcode_name(code)
        finally:
            sock.close()

