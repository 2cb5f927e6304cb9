"""Replica-local secondary indexes over WAL shipping.

The primary's index *definitions* ride the bootstrap snapshot
(``OP_REPL_SNAPSHOT`` carries them, :func:`bootstrap_replica` writes
them before the open), and the *entries* are maintained by the same
commit-driven hook the primary uses — the applier's
``apply_replicated`` notifies the index manager per unit.  So an
indexed select served by a replica probes a replica-local index at the
replica's applied epoch: no scan shipped to the primary, no entry
newer than what the replica has durably applied.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ReadOnlyReplicaError
from repro.data.labdb import make_lab_database
from repro.net import protocol as P
from repro.net.client import OdeClient
from repro.net.remote import RemoteDatabase
from repro.net.server import OdeServer


def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition never became true")


@pytest.fixture
def indexed_primary(tmp_path):
    """A served lab whose employee.id index existed before bootstrap."""
    database = make_lab_database(tmp_path)
    database.create_index("employee", "id")
    database.close()
    server = OdeServer(tmp_path)
    server.start()
    yield server
    server.shutdown()


@pytest.fixture
def replica_server(indexed_primary, tmp_path):
    server = OdeServer(tmp_path / "replica-root",
                       replica_of=("127.0.0.1", indexed_primary.port))
    server.start()
    yield server
    server.shutdown()


def _caught_up(indexed_primary, replica_server) -> None:
    target = indexed_primary.hosted("lab").database.store.epoch
    applier = replica_server.applier("lab")
    _wait_until(lambda: applier.applied_epoch >= target)


class TestBootstrapShipsDefinitions:
    def test_replica_builds_the_primary_indexes(self, indexed_primary,
                                                replica_server):
        objects = replica_server.hosted("lab").database.objects
        assert objects.indexes.has_index("employee", "id")
        members = [(b.oid.number, b.values["id"])
                   for b in objects.select("employee", lambda _b: True)]
        assert objects.indexes.verify_against("employee", "id",
                                              members) == []

    def test_replica_select_probes_its_local_index(self, indexed_primary,
                                                   replica_server):
        with OdeClient("127.0.0.1", replica_server.port) as client:
            reply = client.call(P.OP_SELECT, {
                "db": "lab", "class": "employee",
                "condition": "id == 7", "force": "index"})
            assert len(reply["buffers"]) == 1
            assert reply["access"] == "index-eq"
            assert "index-eq probe on employee.id" in reply["explain"]
            # Served at the replica's own applied epoch, not head-of-
            # primary: the read dispatcher pins the replica's snapshot.
            applied = replica_server.applier("lab").applied_epoch
            assert reply["epoch"] <= applied


class TestApplierMaintainsEntries:
    def test_streamed_commits_reach_the_replica_index(self, indexed_primary,
                                                      replica_server):
        primary = RemoteDatabase.connect(
            "127.0.0.1", indexed_primary.port, "lab")
        try:
            oid = primary.objects.new_object(
                "employee", {"name": "ramesh", "id": 990, "salary": 1.0})
        finally:
            primary.close()
        _caught_up(indexed_primary, replica_server)
        index = replica_server.hosted("lab").database.objects.indexes.get(
            "employee", "id")
        assert oid.number in set(index.equal(990))
        with OdeClient("127.0.0.1", replica_server.port) as client:
            reply = client.call(P.OP_SELECT, {
                "db": "lab", "class": "employee",
                "condition": "id == 990", "force": "index"})
        assert [P.buffer_from_object(v).oid
                for v in reply["buffers"]] == [oid]

    def test_paused_replica_probes_at_its_held_epoch(self, indexed_primary,
                                                     replica_server):
        _caught_up(indexed_primary, replica_server)
        applier = replica_server.applier("lab")
        applier.pause()
        try:
            held = applier.applied_epoch
            primary = RemoteDatabase.connect(
                "127.0.0.1", indexed_primary.port, "lab")
            try:
                primary.objects.new_object(
                    "employee", {"name": "late", "id": 991, "salary": 1.0})
            finally:
                primary.close()
            with OdeClient("127.0.0.1", replica_server.port) as client:
                reply = client.call(P.OP_SELECT, {
                    "db": "lab", "class": "employee",
                    "condition": "id == 991", "force": "index"})
            # The probe answers at the held epoch: the primary's commit
            # must not leak through the replica's index.
            assert reply["buffers"] == []
            assert reply["epoch"] <= held
        finally:
            applier.resume()
        _caught_up(indexed_primary, replica_server)
        with OdeClient("127.0.0.1", replica_server.port) as client:
            reply = client.call(P.OP_SELECT, {
                "db": "lab", "class": "employee",
                "condition": "id == 991", "force": "index"})
        assert len(reply["buffers"]) == 1

    def test_index_agrees_with_cluster_after_catchup(self, indexed_primary,
                                                     replica_server):
        primary = RemoteDatabase.connect(
            "127.0.0.1", indexed_primary.port, "lab")
        try:
            created = primary.objects.new_object(
                "employee", {"name": "churn", "id": 995, "salary": 1.0})
            primary.objects.update(created, {"id": 996})
            primary.objects.delete(created)
        finally:
            primary.close()
        _caught_up(indexed_primary, replica_server)
        objects = replica_server.hosted("lab").database.objects
        members = [(b.oid.number, b.values["id"])
                   for b in objects.select("employee", lambda _b: True)]
        assert objects.indexes.verify_against("employee", "id",
                                              members) == []


class TestReplicaRejectsIndexDDL:
    def test_create_index_names_the_primary(self, indexed_primary,
                                            replica_server):
        with OdeClient("127.0.0.1", replica_server.port) as client:
            with pytest.raises(ReadOnlyReplicaError,
                               match=f"127.0.0.1:{indexed_primary.port}"):
                client.call(P.OP_CREATE_INDEX, {
                    "db": "lab", "class": "employee",
                    "attribute": "salary"})
            with pytest.raises(ReadOnlyReplicaError):
                client.call(P.OP_DROP_INDEX, {
                    "db": "lab", "class": "employee", "attribute": "id"})
