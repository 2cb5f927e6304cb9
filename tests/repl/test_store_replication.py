"""ObjectStore replication hooks: the change log / apply / install.

These tests exercise the storage half of WAL shipping in-process, with
no server in the way: a writer store plays primary, a second store
plays replica, and units travel between them by direct method call.
"""

from __future__ import annotations

import pytest

from repro.errors import ReplicaDivergedError, TransactionError
from repro.obs import get_registry
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore


def _payload(oid: Oid, n: int) -> bytes:
    return encode_object(oid, "Rec", {"n": n})


def _state(store: ObjectStore):
    return {str(oid): store.get(oid) for oid in store.oids()}


def _commit(store: ObjectStore, ops) -> None:
    """One transaction: ops is [(oid, payload-or-None-for-delete), ...]."""
    store.begin()
    for oid, payload in ops:
        if payload is None:
            store.delete(oid)
        else:
            store.put(oid, payload)
    store.commit()


@pytest.fixture
def primary(tmp_path):
    store = ObjectStore(tmp_path / "primary")
    yield store
    store.close()


@pytest.fixture
def replica(tmp_path):
    store = ObjectStore(tmp_path / "replica")
    yield store
    store.close()


def _units(store: ObjectStore, after_epoch: int = 0):
    """The units in *store*'s change log past *after_epoch*."""
    return [(entry.epoch, entry.frames)
            for entry in store.change_log.read(after_epoch)]


def _fill(primary: ObjectStore, transactions: int = 3) -> None:
    for index in range(transactions):
        oid = Oid("db", "emp", index)
        _commit(primary, [(oid, _payload(oid, index))])


class TestApply:
    def test_units_stream_and_apply(self, primary, replica):
        _fill(primary)
        assert primary.change_log.floor == 0
        units = _units(primary, replica.epoch)
        assert [epoch for epoch, _frames in units] == [1, 2, 3]
        applied = replica.apply_replicated(units)
        assert applied == primary.epoch
        assert _state(replica) == _state(primary)

    def test_apply_is_idempotent(self, primary, replica):
        _fill(primary)
        units = _units(primary)
        replica.apply_replicated(units)
        before = _state(replica)
        # Redelivery of an already-applied window is a no-op, not an
        # error: at-least-once shipping must be safe.
        assert replica.apply_replicated(units) == primary.epoch
        assert _state(replica) == before

    def test_apply_rejects_epoch_gap(self, primary, replica):
        _fill(primary)
        units = _units(primary)
        with pytest.raises(ReplicaDivergedError):
            replica.apply_replicated(units[1:])

    def test_apply_rejects_open_transaction(self, primary, replica):
        _fill(primary)
        units = _units(primary)
        replica.begin()
        try:
            with pytest.raises(TransactionError):
                replica.apply_replicated(units)
        finally:
            replica.abort()

    def test_deletes_replicate(self, primary, replica):
        _fill(primary)
        _commit(primary, [(Oid("db", "emp", 1), None)])
        units = _units(primary)
        replica.apply_replicated(units)
        assert not replica.exists(Oid("db", "emp", 1))
        assert _state(replica) == _state(primary)

    def test_applied_state_survives_reopen(self, primary, tmp_path):
        _fill(primary)
        replica = ObjectStore(tmp_path / "replica")
        units = _units(primary)
        replica.apply_replicated(units)
        epoch = replica.epoch
        replica.close()
        reopened = ObjectStore(tmp_path / "replica")
        try:
            # Units went through the replica's own WAL before its pages,
            # so a reopen replays them: same state, same epoch.
            assert reopened.epoch == epoch
            assert _state(reopened) == _state(primary)
        finally:
            reopened.close()

    def test_subscribers_fire_on_replicated_applies(self, primary, replica):
        """A replica is a valid upstream: replicated units enter its
        change log and wake its readers, which is what chained
        replication and CDC from a replica ride."""
        _fill(primary)
        wakes = []
        replica.change_log.on_change = lambda: wakes.append(replica.epoch)
        units = _units(primary)
        replica.apply_replicated(units)
        assert _units(replica) == units
        assert wakes == [1, 2, 3]  # one per unit, each after its publish


class TestInstall:
    def test_install_replaces_state(self, primary, replica):
        _fill(primary)
        stale = Oid("db", "old", 7)
        _commit(replica, [(stale, _payload(stale, 7))])
        with primary.snapshot() as snapshot:
            records = [(str(oid), snapshot.get(oid))
                       for oid in snapshot.oids()]
            replica.install_replicated(snapshot.epoch, records)
        assert not replica.exists(stale)
        assert _state(replica) == _state(primary)
        assert replica.epoch == primary.epoch

    def test_install_rejects_epoch_regression(self, primary, replica):
        _fill(primary)
        units = _units(primary)
        replica.apply_replicated(units)
        with pytest.raises(ReplicaDivergedError):
            replica.install_replicated(replica.epoch - 1, [])

    def test_installed_state_survives_reopen(self, primary, tmp_path):
        _fill(primary)
        replica = ObjectStore(tmp_path / "replica")
        with primary.snapshot() as snapshot:
            records = [(str(oid), snapshot.get(oid))
                       for oid in snapshot.oids()]
            replica.install_replicated(snapshot.epoch, records)
        replica.close()
        reopened = ObjectStore(tmp_path / "replica")
        try:
            # install checkpoints the WAL at the installed epoch, so the
            # counter survives even though no COMMIT records exist.
            assert reopened.epoch == primary.epoch
            assert _state(reopened) == _state(primary)
        finally:
            reopened.close()


def test_transient_fault_mid_apply_recovers_the_replica(tmp_path, primary,
                                                        transient_fault):
    """A page-write fault halfway through a replicated unit (an eviction
    write-back while the grown object is re-placed) must not leave the
    replica half-applied: recovery redoes the durable units from its log
    and the replica lands on the primary's epoch, as a primary would."""
    gate = transient_fault("pagefile.journal.write")
    replica = ObjectStore(tmp_path / "gated", pool_capacity=8,
                          fault_gate=gate)
    try:
        oids = [Oid("db", "emp", n) for n in range(24)]
        _commit(primary, [(oid, encode_object(oid, "Rec", {"b": "x" * 1500}))
                          for oid in oids])
        assert replica.apply_replicated(_units(primary)) == 1
        # Two records a page: the pool holds pages 5-12, and the filling
        # of page 9 wrote 5-8 back.  Reading their objects leaves dirty
        # page 9 least recently used, the victim of the page the grown
        # object needs.
        for oid in oids[8:16]:
            replica.get(oid)
        pool = replica.pool
        assert pool._frames[pool._victim()].page.dirty
        grown = encode_object(oids[23], "Rec", {"b": "y" * 3000})
        _commit(primary, [(oids[23], grown)])
        recoveries = get_registry().counter("store.apply_recoveries")
        before = recoveries.value
        gate.armed = True
        assert replica.apply_replicated(_units(primary, 1)) == 2
        assert not gate.armed, "the fault never fired"
        assert recoveries.value == before + 1
        assert replica.epoch == 2
        assert replica.get(oids[23]) == grown
        assert _state(replica) == _state(primary)
        # Redelivery is the idempotent no-op it always is.
        assert replica.apply_replicated(_units(primary, 1)) == 2
    finally:
        replica.close()
