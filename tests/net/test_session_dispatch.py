"""The synchronous ``ServerSession.dispatch`` entry point, write path.

The connection layer splits writes itself (``write_prepare`` under its
asyncio lock, ``commit_wait`` after), so over the wire nothing calls
``dispatch`` for a write — but the executor hop for snapshot/promote
and odebench's traced ladder both drive a bare
``ServerSession(server, id).dispatch(opcode, payload)``, the ladder with
recorded UPDATE / NEW_OBJECT / BEGIN…COMMIT frames.
"""

from __future__ import annotations

import pytest

from repro.errors import NetworkError, TransactionError
from repro.net import protocol as P
from repro.net.session import ServerSession


@pytest.fixture
def session(served_lab):
    session = ServerSession(served_lab, 1)
    yield session
    session.close()


def _employees(session, count):
    numbers = session.dispatch(
        P.OP_CLUSTER_NUMBERS, {"db": "lab", "class": "employee"})["numbers"]
    return [f"lab:employee:{number}" for number in numbers[:count]]


def _name(session, oid):
    reply = P.decode_records(P.OP_GET_OBJECT, session.dispatch(
        P.OP_GET_OBJECT, {"db": "lab", "oid": oid}))
    return P.buffer_from_object(reply["buffer"]).value("name"), reply["epoch"]


def _update(session, oid, name):
    return P.decode_records(P.OP_UPDATE, session.dispatch(P.OP_UPDATE, {
        "db": "lab", "oid": oid, "updates": {"name": name}}))


def test_autocommit_update_advances_the_reply_epoch(session):
    (oid,) = _employees(session, 1)
    _old, before = _name(session, oid)
    reply = _update(session, oid, "auto")
    assert reply["epoch"] == before + 1
    assert P.buffer_from_object(reply["buffer"]).value("name") == "auto"
    assert _name(session, oid) == ("auto", before + 1)


def test_transaction_commits_as_one_epoch(session):
    first, second = _employees(session, 2)
    _old, before = _name(session, first)
    session.dispatch(P.OP_BEGIN, {"db": "lab"})
    _update(session, first, "tx-1")
    _update(session, second, "tx-2")
    assert _name(session, first)[0] == "tx-1"  # read-your-writes
    assert session.dispatch(P.OP_COMMIT, {"db": "lab"})["epoch"] == before + 1
    assert session.tx_database is None
    assert _name(session, first) == ("tx-1", before + 1)
    assert _name(session, second) == ("tx-2", before + 1)
    with pytest.raises(TransactionError):
        session.dispatch(P.OP_COMMIT, {"db": "lab"})


def test_abort_leaves_no_trace(session):
    (oid,) = _employees(session, 1)
    original, before = _name(session, oid)
    session.dispatch(P.OP_BEGIN, {"db": "lab"})
    _update(session, oid, "doomed")
    session.dispatch(P.OP_ABORT, {"db": "lab"})
    assert session.tx_database is None
    assert _name(session, oid) == (original, before)


def test_cursor_steps_in_sequencing_order(session):
    """A cursor step replies with a window of member numbers past
    ``from``, nearest first, in sequencing order either way."""
    numbers = session.dispatch(
        P.OP_CLUSTER_NUMBERS, {"db": "lab", "class": "employee"})["numbers"]
    opened = session.dispatch(
        P.OP_CURSOR_OPEN, {"db": "lab", "class": "employee"})
    cursor = opened["cursor"]

    def window(opcode, start, **extra):
        reply = session.dispatch(
            opcode, {"cursor": cursor, "from": start, **extra})
        assert reply["epoch"] == opened["epoch"]
        return reply["numbers"]

    assert window(P.OP_CURSOR_NEXT, None) == numbers   # 55 < one window
    assert window(P.OP_CURSOR_NEXT, numbers[1], limit=2) == numbers[2:4]
    assert window(P.OP_CURSOR_NEXT, numbers[-1]) == []
    assert window(P.OP_CURSOR_PREVIOUS, numbers[3]) == numbers[2::-1]
    assert window(P.OP_CURSOR_PREVIOUS, None, limit=2) == numbers[:-3:-1]
    assert window(P.OP_CURSOR_PREVIOUS, numbers[0]) == []
    # the server clamps the count, and refuses a position of another type
    assert window(P.OP_CURSOR_NEXT, None, limit=0) == numbers[:1]
    with pytest.raises(NetworkError, match="not an int"):
        window(P.OP_CURSOR_NEXT, "lab:employee:1")
    # current and seek are the client's; their opcodes have no handler
    for opcode in (P.OP_CURSOR_CURRENT, P.OP_CURSOR_SEEK):
        with pytest.raises(NetworkError, match="unknown opcode"):
            session.dispatch(opcode, {"cursor": cursor})


def test_close_aborts_an_open_transaction(served_lab):
    session = ServerSession(served_lab, 1)
    (oid,) = _employees(session, 1)
    original, before = _name(session, oid)
    session.dispatch(P.OP_BEGIN, {"db": "lab"})
    _update(session, oid, "orphaned")
    session.close()
    assert session.tx_database is None
    store = served_lab.hosted("lab").database.store
    assert not store.in_transaction
    other = ServerSession(served_lab, 2)
    try:
        assert _name(other, oid) == (original, before)
        # the database is not wedged: the next writer gets through
        assert _update(other, oid, "next")["epoch"] == before + 1
    finally:
        other.close()
