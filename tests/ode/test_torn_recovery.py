"""Store-level crash recovery with a torn or corrupt WAL tail.

The WAL-level tests (test_wal.py) show the log itself skips a torn final
frame; these tests show the *store* does the right thing end to end — a
committed transaction whose pages never hit disk is recovered, while a
torn or bit-flipped tail from the crash is ignored rather than replayed
as garbage.

Two generations of the same cases live here on purpose.  The originals
hand-roll the damage (append garbage bytes, flip a bit) and stay as
regression pins for those exact byte patterns; the ``TestSchedule*``
versions express the *same* crashes as :mod:`repro.faultsim` schedules
— a :class:`~repro.faultsim.SiteCrash` aimed at the transaction's
COMMIT append — so the damage is made by the real write path tearing
mid-call, at every cut point, not by post-hoc file surgery.
"""

from pathlib import Path

import pytest

from repro.faultsim import CountingGate, SimulatedCrash, SiteCrash, crash_store
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore
from repro.ode.wal import OP_BEGIN, OP_COMMIT, WalRecord


def record(oid: Oid, **values) -> bytes:
    return encode_object(oid, oid.cluster, values)


def _land_buffered_commit(store: ObjectStore) -> None:
    """Write the open transaction's buffered frames as the batch leader
    would (one blob, one sync) — the moment right before page apply."""
    store._wal.append_batch(
        [WalRecord(op=OP_BEGIN, txid=store._txid),
         *store._tx_writes,
         WalRecord(op=OP_COMMIT, txid=store._txid)])
    store._wal.sync()


def _crash_after_commit(directory: Path, oid: Oid, payload: bytes) -> None:
    """Write one committed transaction to the WAL, then 'crash'."""
    store = ObjectStore(directory)
    store.begin()
    store.put(oid, payload)
    _land_buffered_commit(store)
    store._wal.close()
    store._placement.pagefile.close()


def test_torn_tail_does_not_block_recovery(tmp_path):
    directory = tmp_path / "db"
    oid = Oid("db", "employee", 0)
    _crash_after_commit(directory, oid, record(oid, name="durable"))
    # the crash tore a partially-written frame onto the end of the log
    wal_path = directory / ObjectStore.WAL_FILE
    wal_path.write_bytes(wal_path.read_bytes() + b"\x00\x00\x01\x00torn!")
    with ObjectStore(directory) as recovered:
        assert recovered.get(oid) == record(oid, name="durable")


def test_corrupt_final_frame_ignored(tmp_path):
    directory = tmp_path / "db"
    good = Oid("db", "employee", 0)
    _crash_after_commit(directory, good, record(good, name="durable"))
    # a second committed transaction whose final bytes were corrupted
    store = ObjectStore(directory)
    bad = Oid("db", "employee", 1)
    store.begin()
    store.put(bad, record(bad, name="mangled"))
    _land_buffered_commit(store)
    store._wal.close()
    store._placement.pagefile.close()
    wal_path = directory / ObjectStore.WAL_FILE
    data = bytearray(wal_path.read_bytes())
    data[-2] ^= 0xFF  # flip a bit inside the last frame
    wal_path.write_bytes(bytes(data))

    with ObjectStore(directory) as recovered:
        # the first transaction survives; replay stops at the corruption
        assert recovered.get(good) == record(good, name="durable")


def test_binary_payloads_survive_recovery(tmp_path):
    """Non-UTF-8 payload bytes round-trip through WAL replay intact.

    This is the native-bytes codec tag at work: before it, payloads were
    smuggled through the codec as latin-1 text.
    """
    directory = tmp_path / "db"
    oid = Oid("db", "blob", 0)
    payload = bytes(range(256)) * 4
    _crash_after_commit(directory, oid, payload)
    with ObjectStore(directory) as recovered:
        assert recovered.get(oid) == payload


def test_recovery_is_idempotent(tmp_path):
    """Recovering twice (crash during recovery) leaves the same state."""
    directory = tmp_path / "db"
    oid = Oid("db", "employee", 0)
    _crash_after_commit(directory, oid, record(oid, name="durable"))
    with ObjectStore(directory) as first:
        assert first.exists(oid)
    with ObjectStore(directory) as second:
        assert second.get(oid) == record(oid, name="durable")


# -- the same crashes, as fault-plan schedules ---------------------------------

DURABLE = Oid("db", "employee", 0)
VICTIM = Oid("db", "employee", 1)


def _two_transactions(directory: Path, fault_gate=None) -> ObjectStore:
    """Commit DURABLE, then commit VICTIM; return the open store."""
    store = ObjectStore(directory, fault_gate=fault_gate)
    store.put(DURABLE, record(DURABLE, name="durable"))
    store.begin()
    store.put(VICTIM, record(VICTIM, name="victim"))
    store.commit()
    return store


def _victim_commit_occurrence(directory: Path, site: str) -> int:
    """Which crossing of *site* belongs to VICTIM's commit.

    Counted from a silent pass rather than hardcoded, so the schedule
    keeps aiming at the COMMIT frame (``wal.append`` — the group-commit
    batch blob) or the batch fsync (``wal.group.sync``) if open/commit
    grow extra crossings.
    """
    gate = CountingGate()
    store = ObjectStore(directory, fault_gate=gate)
    store.put(DURABLE, record(DURABLE, name="durable"))
    store.begin()
    store.put(VICTIM, record(VICTIM, name="victim"))
    before = gate.calls.count(site)
    store.commit()
    store.close()
    return before  # the next crossing after `before` belongs to the commit


class TestScheduledTornCommit:
    """The hand-rolled torn-tail cases, re-expressed as schedules."""

    @pytest.mark.parametrize("flavor,cut", [
        ("torn", 1),    # mid length/CRC header
        ("torn", 7),    # header intact, payload torn
        ("torn", 30),   # almost-whole frame
        ("lost", None),  # append dropped whole
        ("crash", None),  # died before the write started
    ])
    def test_crash_writing_commit_record(self, tmp_path, flavor, cut):
        occurrence = _victim_commit_occurrence(tmp_path / "count",
                                               "wal.append")
        gate = SiteCrash("wal.append", occurrence=occurrence,
                         flavor=flavor, cut=cut)
        with pytest.raises(SimulatedCrash) as info:
            _two_transactions(tmp_path / "db", fault_gate=gate)
        crash_store(None, info.value)
        assert gate.fired is not None, "schedule never reached the COMMIT"
        with ObjectStore(tmp_path / "db") as recovered:
            # No COMMIT on disk: the first transaction survives, the
            # second leaves no trace.
            assert recovered.get(DURABLE) == record(DURABLE, name="durable")
            assert not recovered.exists(VICTIM)

    def test_crash_after_commit_record_recovers_the_victim(self, tmp_path):
        """Crash at the batch fsync (``wal.group.sync``): the COMMIT
        frame is already flushed — which the simulated-crash model
        preserves — so recovery must redo the victim, the schedule twin
        of _crash_after_commit above."""
        occurrence = _victim_commit_occurrence(tmp_path / "count",
                                               "wal.group.sync")
        gate = SiteCrash("wal.group.sync", occurrence=occurrence,
                         flavor="crash")
        with pytest.raises(SimulatedCrash) as info:
            _two_transactions(tmp_path / "db", fault_gate=gate)
        crash_store(None, info.value)
        with ObjectStore(tmp_path / "db") as recovered:
            assert recovered.get(DURABLE) == record(DURABLE, name="durable")
            assert recovered.get(VICTIM) == record(VICTIM, name="victim")

    def test_scheduled_recovery_is_idempotent(self, tmp_path):
        occurrence = _victim_commit_occurrence(tmp_path / "count",
                                               "wal.append")
        gate = SiteCrash("wal.append", occurrence=occurrence,
                         flavor="torn", cut=5)
        with pytest.raises(SimulatedCrash) as info:
            _two_transactions(tmp_path / "db", fault_gate=gate)
        crash_store(None, info.value)
        with ObjectStore(tmp_path / "db") as first:
            state_one = {str(oid): first.get(oid) for oid in first.oids()}
        with ObjectStore(tmp_path / "db") as second:
            state_two = {str(oid): second.get(oid) for oid in second.oids()}
        assert state_one == state_two
        assert str(DURABLE) in state_one
