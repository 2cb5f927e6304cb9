"""End-to-end replication: a replica server cloned from a served lab.

Covers bootstrap, the applier loop, write rejection, replica-aware
client routing with the monotonic-read / read-your-writes floor, and
the server hygiene fixes that rode along (session-id exhaustion,
teardown error accounting).
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro.errors import ReadOnlyReplicaError, StorageError
from repro.net import protocol as P
from repro.net.client import OdeClient
from repro.net.remote import RemoteDatabase
from repro.net.server import OdeServer
from repro.net.session import HostedDatabase
from repro.obs.metrics import get_registry
from repro.ode import changelog
from repro.ode.database import BEHAVIOURS_FILE
from repro.ode.oid import Oid


def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition never became true")


def _counter(name: str) -> int:
    return get_registry().counter(name).value


@pytest.fixture
def replica_server(served_lab, tmp_path):
    server = OdeServer(tmp_path / "replica-root",
                       replica_of=("127.0.0.1", served_lab.port))
    server.start()
    yield server
    server.shutdown()


@pytest.fixture
def routed_lab(served_lab, replica_server):
    """A RemoteDatabase on the primary that routes reads via the replica."""
    database = RemoteDatabase.connect(
        "127.0.0.1", served_lab.port, "lab",
        replicas=[("127.0.0.1", replica_server.port)])
    yield database
    database.close()


class TestBootstrap:
    def test_replica_clones_and_serves_the_database(self, served_lab,
                                                    replica_server):
        assert replica_server.role == "replica"
        assert replica_server.database_names() == ["lab"]
        remote = RemoteDatabase.connect(
            "127.0.0.1", replica_server.port, "lab")
        try:
            assert remote.objects.count("employee") == 55
            assert remote.schema.class_names() == [
                "employee", "department", "manager"]
        finally:
            remote.close()

    def test_hello_and_stats_report_the_role(self, served_lab,
                                             replica_server):
        with OdeClient("127.0.0.1", replica_server.port) as client:
            assert client.server_info["role"] == "replica"
            stats = client.call(P.OP_STATS, {"db": "lab"})
            assert stats["role"] == "replica"
            assert stats["replication"]["primary"].endswith(
                str(served_lab.port))
            assert stats["applied_epoch"] == stats["replication"][
                "applied_epoch"]
        with OdeClient("127.0.0.1", served_lab.port) as client:
            assert client.server_info["role"] == "primary"


class TestApplier:
    def test_applier_streams_new_commits(self, served_lab, replica_server):
        primary = RemoteDatabase.connect(
            "127.0.0.1", served_lab.port, "lab")
        try:
            oid = primary.objects.new_object(
                "employee", {"name": "ramesh", "id": 990, "salary": 1.0})
        finally:
            primary.close()
        target = served_lab.hosted("lab").database.store.epoch
        applier = replica_server.applier("lab")
        _wait_until(lambda: applier.applied_epoch >= target)
        assert applier.lag == 0
        remote = RemoteDatabase.connect(
            "127.0.0.1", replica_server.port, "lab")
        try:
            assert remote.objects.get_buffer(oid).value("name") == "ramesh"
            assert remote.objects.count("employee") == 56
        finally:
            remote.close()

    def test_pause_holds_the_applied_epoch(self, served_lab, replica_server):
        applier = replica_server.applier("lab")
        applier.pause()
        held = applier.applied_epoch
        primary = RemoteDatabase.connect(
            "127.0.0.1", served_lab.port, "lab")
        try:
            primary.objects.new_object(
                "employee", {"name": "lagged", "id": 991, "salary": 1.0})
        finally:
            primary.close()
        time.sleep(0.1)
        assert applier.applied_epoch == held
        applier.resume()
        target = served_lab.hosted("lab").database.store.epoch
        _wait_until(lambda: applier.applied_epoch >= target)


class TestWriteRejection:
    def test_writes_name_the_primary(self, served_lab, replica_server):
        remote = RemoteDatabase.connect(
            "127.0.0.1", replica_server.port, "lab")
        try:
            with pytest.raises(ReadOnlyReplicaError,
                               match=f"127.0.0.1:{served_lab.port}"):
                remote.objects.new_object(
                    "employee", {"name": "nope", "id": 992, "salary": 1.0})
        finally:
            remote.close()


class TestRouting:
    def test_reads_route_to_the_replica(self, replica_server, routed_lab):
        before = _counter("net.route.replica")
        routed_lab.objects.cache.purge()
        assert routed_lab.objects.count("employee") == 55
        assert _counter("net.route.replica") > before

    def test_read_your_writes_past_a_lagging_replica(self, served_lab,
                                                     replica_server,
                                                     routed_lab):
        replica_server.applier("lab").pause()
        oid = routed_lab.objects.new_object(
            "employee", {"name": "fresh", "id": 993, "salary": 1.0})
        assert routed_lab.client.epoch_floor \
            == served_lab.hosted("lab").database.store.epoch
        # The replica has not applied the commit; the routed read must
        # not return its stale answer.  Count: the replica *answers*
        # (at its old epoch) and the reply is discarded as below the
        # session floor.  Get: the replica reports the object missing
        # and the primary overrules it.  Either way the session sees
        # its own write.
        stale_before = _counter("net.route.stale")
        primary_before = _counter("net.route.primary")
        routed_lab.objects.cache.purge()
        assert routed_lab.objects.count("employee") == 56
        assert routed_lab.objects.get_buffer(oid).value("name") == "fresh"
        assert _counter("net.route.stale") > stale_before
        assert _counter("net.route.primary") > primary_before
        replica_server.applier("lab").resume()

    def test_monotonic_reads_resume_after_catch_up(self, served_lab,
                                                   replica_server,
                                                   routed_lab):
        applier = replica_server.applier("lab")
        applier.pause()
        routed_lab.objects.new_object(
            "employee", {"name": "later", "id": 994, "salary": 1.0})
        floor = routed_lab.client.epoch_floor
        applier.resume()
        _wait_until(lambda: applier.applied_epoch >= floor)
        replica_before = _counter("net.route.replica")
        routed_lab.objects.cache.purge()
        assert routed_lab.objects.count("employee") == 56
        assert _counter("net.route.replica") > replica_before
        assert routed_lab.client.epoch_floor >= floor

    def test_a_replica_error_falls_back_to_the_primary(self, replica_server,
                                                       routed_lab):
        """A replica whose computed method raises ``KeyError`` (its copy
        of employee 7 corrupted: byte 36 XOR 38 swallows ``hired``)
        gives no verdict; the primary's good copy answers."""
        oid = Oid("lab", "employee", 7)
        store = replica_server.hosted("lab").database.store
        corrupt = bytearray(store.get(oid))
        corrupt[36] ^= 38
        store.put(oid, bytes(corrupt))
        primary_before = _counter("net.route.primary")
        routed_lab.objects.cache.purge()
        assert routed_lab.objects.get_buffer(oid).value("name") == "carol"
        assert _counter("net.route.primary") > primary_before

    def test_a_replica_serves_computed_attributes(self, served_lab,
                                                  replica_server, routed_lab):
        """The replica clones the primary's behaviours, so a routed read
        carries the same computed values as the primary's."""
        oid = Oid("lab", "employee", 6)
        primary = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
        try:
            expected = primary.objects.get_buffer(oid)
        finally:
            primary.close()
        routed_lab.objects.cache.purge()
        replica_before = _counter("net.route.replica")
        routed = routed_lab.objects.get_buffer(oid)
        assert _counter("net.route.replica") > replica_before
        assert expected.computed == {"years_service": 2}
        assert routed.computed == expected.computed
        assert routed.values == expected.values

    def test_a_resync_carries_the_primarys_behaviours(
            self, served_lab, replica_server, routed_lab, monkeypatch):
        """A snapshot resync brings the primary's current ``behaviours.py``:
        a changed method body is bound on the replica, and a removed file
        is removed there and its bodies unbound."""
        oid = Oid("lab", "employee", 6)
        applier = replica_server.applier("lab")
        primary_file = (served_lab.hosted("lab").database.directory
                        / BEHAVIOURS_FILE)
        replica_file = applier.database.directory / BEHAVIOURS_FILE

        def resync():
            # Pause the replica, then commit with a one-byte change log:
            # every commit trims it past the replica's epoch, so the
            # next fetch orders a resync.
            applier.pause()
            resyncs = applier.stats()["resyncs"]
            monkeypatch.setattr(changelog, "WAL_CHECKPOINT_BYTES", 1)
            primary = RemoteDatabase.connect(
                "127.0.0.1", served_lab.port, "lab")
            try:
                primary.objects.new_object(
                    "employee", {"name": "resync", "id": 992, "salary": 1.0})
            finally:
                primary.close()
            monkeypatch.undo()
            applier.resume()
            target = served_lab.hosted("lab").database.store.epoch
            _wait_until(lambda: applier.stats()["resyncs"] > resyncs
                        and applier.applied_epoch >= target)
            routed_lab.objects.cache.purge()
            return routed_lab.objects.get_buffer(oid).computed

        primary_file.write_text(
            "def bind(database):\n"
            "    database.behaviours.bind_method(\n"
            "        'employee', 'years_service', lambda values: 99)\n")
        assert resync() == {"years_service": 99}
        assert replica_file.read_text() == primary_file.read_text()
        primary_file.unlink()
        assert resync() == {}
        assert not replica_file.exists()

    def test_failover_to_primary_when_replica_dies(self, replica_server,
                                                   routed_lab):
        routed_lab.objects.cache.purge()
        assert routed_lab.objects.count("employee") == 55
        replica_server.shutdown()
        failover_before = _counter("net.route.failover")
        routed_lab.objects.cache.purge()
        assert routed_lab.objects.count("employee") == 55
        assert _counter("net.route.failover") > failover_before


class TestServerHygiene:
    def test_session_ids_outlive_a_finite_range(self, served_lab):
        """Regression: session ids came from iter(range(1, 2**31)); a
        long-lived server eventually exhausted it and the accept loop
        died with StopIteration.  Park the counter at the old range's
        edge and keep connecting straight through it."""
        served_lab._session_ids = itertools.count(2**31 - 2)
        for _ in range(4):
            with OdeClient("127.0.0.1", served_lab.port) as client:
                reply = client.call(P.OP_LIST_DATABASES, {})
                assert reply["databases"] == ["lab"]

    def test_shutdown_counts_teardown_errors(self, tmp_path, lab_root):
        class _Torn:
            def close(self):
                raise StorageError("already torn down")

        server = OdeServer(lab_root)
        server.start()
        server._hosted["torn"] = HostedDatabase(_Torn())
        before = _counter("net.teardown_error")
        server.shutdown()
        assert _counter("net.teardown_error") == before + 1
