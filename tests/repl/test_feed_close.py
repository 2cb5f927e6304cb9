"""Change-log readers at shutdown and under a broken wake hook.

Parked long-polls must come back with a clean
:class:`~repro.errors.NetworkError` the moment the server drains, and
the log's wake hook can never fail a commit.
"""

from __future__ import annotations

import asyncio
import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import NetworkError
from repro.net import protocol as P
from repro.net.aserver import _AsyncConnection
from repro.net.client import OdeClient
from repro.net.session import HostedDatabase
from repro.obs import get_registry
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore


def _put(store: ObjectStore, index: int) -> Oid:
    oid = Oid("db", "emp", index)
    store.put(oid, encode_object(oid, "Rec", {"n": index}))
    return oid


def _wait_parked(server, count: int) -> None:
    deadline = time.monotonic() + 5.0
    while len(server.hosted("lab").changed._waiters or ()) < count:
        assert time.monotonic() < deadline, "readers never parked"
        time.sleep(0.01)


def test_close_unparks_a_long_poll_with_a_clean_error(served_lab):
    client = OdeClient("127.0.0.1", served_lab.port)
    outcomes = []
    epoch = served_lab.hosted("lab").database.store.epoch

    def poller():
        started = time.monotonic()
        try:
            client.call(P.OP_REPL_FETCH,
                        {"db": "lab", "after": epoch, "wait_ms": 2000})
            outcomes.append(("reply", time.monotonic() - started))
        except NetworkError:
            outcomes.append(("NetworkError", time.monotonic() - started))

    thread = threading.Thread(target=poller, daemon=True)
    thread.start()
    try:
        _wait_parked(served_lab, 1)
        served_lab.shutdown()
        thread.join(timeout=5.0)
        assert [kind for kind, _elapsed in outcomes] == ["NetworkError"]
        assert outcomes[0][1] < 1.5  # released by shutdown, not timeout
    finally:
        client.close()


def test_fetch_after_close_raises_immediately(tmp_path):
    """A fetch reaching a stopping server never parks."""
    store = ObjectStore(tmp_path)
    hosted = HostedDatabase(SimpleNamespace(name="db", store=store))
    server = SimpleNamespace(_stopping=threading.Event(),
                             hosted=lambda _name: hosted)
    server._stopping.set()

    async def main():
        connection = _AsyncConnection(server, None, None, 1)
        with pytest.raises(NetworkError, match="shutting down"):
            await asyncio.wait_for(connection._repl_fetch(
                {"db": "db", "after": store.epoch, "wait_ms": 2000}), 1.0)

    try:
        asyncio.run(main())
    finally:
        store.close()


def test_waiters_fire_on_commit_and_on_close(served_lab):
    """Readers parked on a database wake on a commit (a push event
    arrives) and again at shutdown (the pump and the poll end)."""
    subscriber = OdeClient("127.0.0.1", served_lab.port).connect()
    poller = OdeClient("127.0.0.1", served_lab.port)
    outcomes = []
    try:
        subscription = subscriber.subscribe("lab")
        _wait_parked(served_lab, 1)
        objects = served_lab.hosted("lab").database.objects
        objects.update(objects.cluster("employee").first(), {"name": "x"})
        event = subscription.get(timeout=5.0)
        assert event is not None and not event.resync
        epoch = served_lab.hosted("lab").database.store.epoch

        def poll():
            try:
                poller.call(P.OP_REPL_FETCH,
                            {"db": "lab", "after": epoch, "wait_ms": 2000})
                outcomes.append("reply")
            except NetworkError:
                outcomes.append("NetworkError")

        thread = threading.Thread(target=poll, daemon=True)
        thread.start()
        _wait_parked(served_lab, 2)  # the pump and the poll
        started = time.monotonic()
        served_lab.shutdown()
        thread.join(timeout=5.0)
        assert outcomes == ["NetworkError"]
        assert time.monotonic() - started < 3.0
    finally:
        poller.close()
        subscriber.close()


def test_broken_waiter_never_stalls_a_commit(tmp_path):
    store = ObjectStore(tmp_path)
    errors = get_registry().counter("store.change_log.wake_errors")
    before = errors.value
    try:
        def explode():
            raise RuntimeError("bad wake hook")

        store.change_log.on_change = explode
        _put(store, 0)  # must not raise through the commit path
        assert store.epoch == 1 and len(store.change_log) == 1
        assert errors.value == before + 1
    finally:
        store.close()
