"""Regression: the applier's reconnect backoff doubles, caps, resets.

A replica outliving a primary restart must not hammer the dead address
(the backoff doubles to a ceiling) and must not stay sluggish once the
primary is back (one successful fetch resets the delay to the floor).
Exercised with the loop run inline — ``step`` stubbed, ``_stop.wait``
recorded — so the exact delay sequence is asserted, not just "it
slept".  A malformed unit from upstream is not a network blip: the
loop records it in ``last_error`` and stops, as it does on divergence.
``stop`` ends a peer probe in flight instead of waiting it out.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.errors import NetworkError
from repro.net import protocol as P
from repro.ode.database import Database
from repro.repl.replica import (
    MAX_RECONNECT_BACKOFF_SECONDS,
    RECONNECT_BACKOFF_SECONDS,
    ReplicaApplier,
)


@pytest.fixture
def applier(tmp_path):
    database = Database(tmp_path / "solo.odb", create=True)
    # No peers: a lost connection cannot retarget, so every disconnect
    # takes the backoff path.
    built = ReplicaApplier(database, "127.0.0.1", 1)
    yield built
    built._client.close()
    database.close()


class _Script:
    """Drives _run() inline: a scripted step(), a recording wait()."""

    def __init__(self, applier, outcomes):
        self.outcomes = list(outcomes)
        self.delays = []
        self.applier = applier
        applier.step = self._step
        applier._stop.wait = self._wait

    def _step(self):
        if not self.outcomes:
            self.applier._stop.set()
            raise NetworkError("script exhausted")
        outcome = self.outcomes.pop(0)
        if outcome is not None:
            raise outcome

    def _wait(self, timeout=None):
        self.delays.append(timeout)
        if not self.outcomes:
            self.applier._stop.set()
        return self.applier._stop.is_set()


def test_backoff_doubles_and_caps(applier):
    script = _Script(applier, [NetworkError("down")] * 7)
    applier._run()
    assert script.delays == [0.25, 0.5, 1.0, 2.0, 4.0, 5.0, 5.0]
    assert script.delays[0] == RECONNECT_BACKOFF_SECONDS
    assert max(script.delays) == MAX_RECONNECT_BACKOFF_SECONDS


def test_success_resets_the_backoff(applier):
    down = NetworkError("down")
    # Three failures climb the curve; one good fetch resets it; the
    # next outage starts from the floor again.
    script = _Script(applier, [down, down, down, None, down, down])
    applier._run()
    assert script.delays == [0.25, 0.5, 1.0, 0.25, 0.5]


def test_disconnects_are_counted(applier):
    before = applier.stats()["disconnects"]
    _Script(applier, [NetworkError("down")] * 3)
    applier._run()
    assert applier.stats()["disconnects"] == before + 3


class _MalformedUpstream:
    """An upstream whose fetch replies carry a two-field frame."""

    def __init__(self):
        self.calls = []

    def call(self, opcode, payload):
        self.calls.append(opcode)
        return {"epoch": 1, "term": 1, "resync": False,
                "units": [[1, [["put", 9]]]]}

    def close(self):
        pass


def test_malformed_unit_stops_the_applier_with_last_error(applier):
    applier._client.close()
    applier._client = upstream = _MalformedUpstream()
    applier.start()
    applier._thread.join(timeout=5.0)
    assert not applier._thread.is_alive()
    assert upstream.calls == [P.OP_REPL_FETCH]  # stopped, did not retry
    error = applier.stats()["last_error"]
    assert error.startswith("ReplicationError: malformed replication unit")
    assert applier.applied_epoch == 0


def test_stop_ends_a_probe_blocked_on_a_silent_peer(tmp_path):
    """The upstream is dead and the one peer accepts but never sends
    its HELLO: the applier's probe blocks reading it, and ``stop`` must
    not wait out the probe's client timeout."""
    closed = socket.create_server(("127.0.0.1", 0))
    dead_port = closed.getsockname()[1]
    closed.close()
    silent = socket.create_server(("127.0.0.1", 0))
    silent.settimeout(5.0)
    database = Database(tmp_path / "solo.odb", create=True)
    built = ReplicaApplier(database, "127.0.0.1", dead_port,
                           peers=[silent.getsockname()])
    connection = None
    try:
        built.start()
        connection, _address = silent.accept()   # the probe connected
        started = time.monotonic()
        built.stop()
        assert time.monotonic() - started < 1.0
    finally:
        built.stop()
        if connection is not None:
            connection.close()
        silent.close()
        database.close()
