"""Fixtures: a running OdeServer over a lab database."""

from __future__ import annotations

import pytest

from repro.data.labdb import make_lab_database
from repro.net.remote import RemoteDatabase
from repro.net.server import OdeServer


@pytest.fixture
def served_lab(tmp_path):
    """A lab database hosted by a running server; yields the server."""
    make_lab_database(tmp_path).close()
    server = OdeServer(tmp_path)
    server.start()
    yield server
    server.shutdown()


@pytest.fixture
def remote_lab(served_lab):
    """A RemoteDatabase connected to the served lab database."""
    database = RemoteDatabase.connect(
        "127.0.0.1", served_lab.port, "lab")
    yield database
    database.close()


@pytest.fixture
def remote_staff(tmp_path):
    """A served lab database whose ``employee`` cluster has 700 members
    (0–699), connected."""
    database = make_lab_database(tmp_path)
    objects = database.objects
    objects.begin()
    for number in range(55, 700):
        objects.new_object("employee", {"id": number, "name": f"e{number}"})
    objects.commit()
    database.close()
    server = OdeServer(tmp_path)
    server.start()
    remote = RemoteDatabase.connect("127.0.0.1", server.port, "lab")
    yield remote
    remote.close()
    server.shutdown()


@pytest.fixture
def count_calls():
    """``count_calls(database)`` counts that database's client calls
    from here on: returns a list that each call appends its
    ``(opcode, payload)`` to."""

    def install(database):
        calls = []
        inner = database.client.call

        def counting(opcode, payload=None):
            calls.append((opcode, payload))
            return inner(opcode, payload)

        database.client.call = counting
        return calls

    return install
