"""The replication long poll on the server's loop: no missed wakeup.

An ``OP_REPL_FETCH`` with nothing to stream parks on its database's
``changed`` event, taken *before* it reads the change log; a commit
appends to the log and posts one wakeup to the loop, which sets that
event.  These tests hold the commit until the poller is provably parked
on the event — the exact interleaving a missed-wakeup bug would need.
The commit landing between the empty read and the park is pinned in
``tests/net/test_async_server.py::TestReplicationLongPoll``.
"""

from __future__ import annotations

import threading
import time

from repro.net import protocol as P
from repro.net.client import OdeClient
from repro.repl.feed import MAX_WAIT_SECONDS, units_from_wire


def _parked(server) -> int:
    return len(server.hosted("lab").changed._waiters or ())


def _wait_parked(server, count: int) -> None:
    deadline = time.monotonic() + 5.0
    while _parked(server) < count:
        assert time.monotonic() < deadline, "pollers never parked"
        time.sleep(0.01)


def _commit(server) -> int:
    """One commit straight on the hosted store; returns its epoch."""
    objects = server.hosted("lab").database.objects
    oid = objects.cluster("employee").first()
    objects.update(oid, {"name": "woken"})
    return server.hosted("lab").database.store.epoch


def _poll(client, after: int):
    started = time.monotonic()
    reply = client.call(P.OP_REPL_FETCH,
                        {"db": "lab", "after": after, "wait_ms": 3000})
    epochs = [epoch for epoch, _f in units_from_wire(reply["units"])]
    return epochs, time.monotonic() - started


def test_commit_wakes_a_parked_long_poll(served_lab):
    client = OdeClient("127.0.0.1", served_lab.port)
    result = {}
    try:
        tail = served_lab.hosted("lab").database.store.epoch
        fetcher = threading.Thread(
            target=lambda: result.update(reply=_poll(client, tail)),
            daemon=True)
        fetcher.start()
        # Only commit once the fetcher is provably parked: the window a
        # missed-wakeup bug would need is now wide open.
        _wait_parked(served_lab, 1)
        epoch = _commit(served_lab)
        fetcher.join(timeout=5.0)
        assert not fetcher.is_alive()
        epochs, elapsed = result["reply"]
        assert epochs == [epoch] == [tail + 1]
        assert elapsed < MAX_WAIT_SECONDS  # woken, not timed out
    finally:
        client.close()


def test_commit_before_the_check_returns_without_parking(served_lab):
    client = OdeClient("127.0.0.1", served_lab.port)
    try:
        tail = served_lab.hosted("lab").database.store.epoch
        _commit(served_lab)  # lands before the poll even reads
        epochs, elapsed = _poll(client, tail)
        assert epochs == [tail + 1]
        assert elapsed < 1.0  # the other arm: no wait at all
        assert _parked(served_lab) == 0
    finally:
        client.close()


def test_every_parked_waiter_wakes_on_one_commit(served_lab):
    """N concurrent long-pollers all see the same commit."""
    clients = [OdeClient("127.0.0.1", served_lab.port) for _ in range(4)]
    replies = []
    replies_lock = threading.Lock()
    try:
        tail = served_lab.hosted("lab").database.store.epoch

        def fetch(client):
            reply = _poll(client, tail)
            with replies_lock:
                replies.append(reply)

        fetchers = [threading.Thread(target=fetch, args=(client,),
                                     daemon=True) for client in clients]
        for fetcher in fetchers:
            fetcher.start()
        _wait_parked(served_lab, len(clients))
        _commit(served_lab)
        for fetcher in fetchers:
            fetcher.join(timeout=5.0)
            assert not fetcher.is_alive()
        assert len(replies) == len(clients)
        for epochs, elapsed in replies:
            assert epochs == [tail + 1]
            assert elapsed < MAX_WAIT_SECONDS  # woken, not timed out
    finally:
        for client in clients:
            client.close()
