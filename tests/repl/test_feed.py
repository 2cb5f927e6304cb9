"""Replica fetches from the change log: streaming, resync orders, wakeups."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ReplicationError
from repro.ode import changelog as changelog_module
from repro.ode.codec import encode_object
from repro.ode.oid import Oid
from repro.ode.store import ObjectStore
from repro.ode.wal import OP_BEGIN, OP_COMMIT, OP_PUT, WalRecord
from repro.repl.feed import (
    MAX_WAIT_SECONDS, fetch, units_from_wire, units_to_wire)


def _put(store: ObjectStore, index: int) -> Oid:
    oid = Oid("db", "emp", index)
    store.put(oid, encode_object(oid, "Rec", {"n": index}))
    return oid


def test_wire_round_trip():
    units = [
        (3, [WalRecord(op=OP_BEGIN, txid=9, epoch=0),
             WalRecord(op=OP_PUT, txid=9, oid="db:emp:1",
                       payload=b"\x00\xffbytes", epoch=0),
             WalRecord(op=OP_COMMIT, txid=9, epoch=3)]),
    ]
    assert units_from_wire(units_to_wire(units)) == units


@pytest.mark.parametrize("wire", [
    [[3, [["put", 9, "db:emp:1", b"x", 0]]]],   # pre-term 5-element frame
    [[3, [["put", 9]]]],                          # short frame
    [[3, [None]]],                                # frame of no shape at all
    [[3]],                                        # unit without frames
    [["3", []]],                                  # epoch that is not a number
])
def test_malformed_unit_is_a_replication_error(wire):
    with pytest.raises(ReplicationError, match="malformed replication unit #0"):
        units_from_wire(wire)


def _epochs(reply):
    return [epoch for epoch, _frames in units_from_wire(reply["units"])]


def _snapshot(store: ObjectStore):
    with store.snapshot() as snapshot:
        records = [(str(oid), snapshot.get(oid)) for oid in snapshot.oids()]
        return snapshot.epoch, records


def test_ring_serves_incremental_fetches(tmp_path):
    store = ObjectStore(tmp_path)
    for index in range(3):
        _put(store, index)
    try:
        reply = fetch(store, 0)
        assert not reply["resync"]
        assert reply["epoch"] == store.epoch == 3
        assert _epochs(reply) == [1, 2, 3]

        assert _epochs(fetch(store, 2)) == [3]

        caught_up = fetch(store, 3)
        assert caught_up["units"] == [] and not caught_up["resync"]
    finally:
        store.close()


def test_max_units_bounds_a_batch(tmp_path):
    store = ObjectStore(tmp_path)
    for index in range(5):
        _put(store, index)
    try:
        assert _epochs(fetch(store, 0, max_units=2)) == [1, 2]
    finally:
        store.close()


def test_long_poll_wakes_on_commit(tmp_path):
    """The long poll's protocol on a thread: arm the wakeup, read, park,
    read again.  The log's change hook is what wakes it."""
    store = ObjectStore(tmp_path)
    wake = threading.Event()
    store.change_log.on_change = wake.set
    replies = []
    try:
        def poll():
            if not fetch(store, 0)["units"]:
                wake.wait(MAX_WAIT_SECONDS)
            replies.append(fetch(store, 0))

        poller = threading.Thread(target=poll)
        poller.start()
        _put(store, 0)
        poller.join(timeout=5.0)
        assert not poller.is_alive(), "long poll never woke"
        assert wake.is_set(), "the commit fired no wakeup"
        assert _epochs(replies[0]) == [1]
    finally:
        store.close()


def test_trimmed_log_orders_a_resync(tmp_path, monkeypatch):
    """The log keeps at most a checkpoint's worth of WAL bytes; a
    fetcher the trimmed floor passed must resync, never skip."""
    store = ObjectStore(tmp_path)
    try:
        _put(store, 0)
        unit_bytes = store.change_log.nbytes
        monkeypatch.setattr(changelog_module, "WAL_CHECKPOINT_BYTES",
                            2 * unit_bytes)
        for index in range(1, 4):
            _put(store, index)
        log = store.change_log
        assert log.floor == 2 and len(log) == 2
        assert log.nbytes <= 2 * unit_bytes
        reply = fetch(store, 1)
        assert reply["resync"] and reply["units"] == []
        assert _epochs(fetch(store, 2)) == [3, 4]
    finally:
        store.close()


def test_checkpoint_does_not_trim_the_log(tmp_path):
    """A WAL checkpoint (here vacuum's) leaves the in-memory log alone:
    a fetcher one commit behind still streams across it."""
    store = ObjectStore(tmp_path)
    try:
        for index in range(3):
            _put(store, index)
        store.vacuum()
        assert _epochs(fetch(store, 2)) == [3]
        assert _epochs(fetch(store, 0)) == [1, 2, 3]
    finally:
        store.close()


def test_checkpoint_gap_orders_a_resync(tmp_path):
    store = ObjectStore(tmp_path)
    for index in range(3):
        _put(store, index)
    store.close()
    # Reopening starts an empty log at epoch 3: it cannot bridge a
    # fetcher sitting at 0, and the fetch must say so rather than
    # silently skip epochs.
    store = ObjectStore(tmp_path)
    try:
        reply = fetch(store, 0)
        assert reply["resync"] and reply["units"] == []
        assert reply["epoch"] == 3
        # A fetcher already at the reopened epoch streams normally.
        current = fetch(store, 3)
        assert not current["resync"] and current["units"] == []
    finally:
        store.close()


class TestChainedInstall:
    """A chained replica that installs a snapshot must not serve its
    downstreams units from the history the snapshot replaced."""

    def test_mid_chain_install_orders_a_resync_not_a_gap(self, tmp_path):
        primary = ObjectStore(tmp_path / "primary")
        middle = ObjectStore(tmp_path / "middle")
        downstream = ObjectStore(tmp_path / "downstream")
        try:
            for index in range(3):
                _put(primary, index)
            middle.apply_replicated(units_from_wire(fetch(primary, 0)["units"]))
            downstream.apply_replicated(
                units_from_wire(fetch(middle, 0, max_units=1)["units"]))
            assert (middle.epoch, downstream.epoch) == (3, 1)
            # The middle node falls behind and resyncs at epoch 10, then
            # streams epoch 11.
            for index in range(3, 10):
                _put(primary, index)
            middle.install_replicated(*_snapshot(primary))
            _put(primary, 10)
            middle.apply_replicated(
                units_from_wire(fetch(primary, 10)["units"]))
            assert middle.epoch == 11
            # The downstream at epoch 1 must be told to resync: a gapped
            # list such as [2, 3, 11] fails apply_replicated as a skipped
            # epoch, which stops a replica applier for good.
            reply = fetch(middle, 1)
            assert reply["resync"] and reply["units"] == []
            downstream.install_replicated(*_snapshot(middle))
            assert _epochs(fetch(middle, downstream.epoch)) == []
            _put(primary, 11)
            middle.apply_replicated(
                units_from_wire(fetch(primary, 11)["units"]))
            downstream.apply_replicated(
                units_from_wire(fetch(middle, downstream.epoch)["units"]))
            assert downstream.epoch == primary.epoch == 12
            assert {str(oid): downstream.get(oid) for oid in downstream.oids()} \
                == {str(oid): primary.get(oid) for oid in primary.oids()}
        finally:
            for store in (primary, middle, downstream):
                store.close()

    def test_term_raise_rewind_serves_no_old_term_unit(self, tmp_path):
        """An install at a lower epoch under a higher term (a fenced
        node rejoining) must not leave old-term units to stream."""
        old_reign = ObjectStore(tmp_path / "old")
        new_primary = ObjectStore(tmp_path / "new")
        node = ObjectStore(tmp_path / "node")
        downstream = ObjectStore(tmp_path / "downstream")
        try:
            for index in range(5):
                _put(old_reign, index)
            node.apply_replicated(units_from_wire(fetch(old_reign, 0)["units"]))
            downstream.apply_replicated(
                units_from_wire(fetch(node, 0, max_units=2)["units"]))
            for index in range(3):
                _put(new_primary, 100 + index)
            new_primary.promote_term()
            epoch, records = _snapshot(new_primary)
            node.install_replicated(epoch, records, term=new_primary.term)
            assert (node.epoch, node.term) == (3, 2)
            _put(new_primary, 103)
            node.apply_replicated(
                units_from_wire(fetch(new_primary, 3)["units"]))
            # Wherever the old reign left a downstream (epochs 0-5), the
            # node orders a resync or serves new-term units only.
            assert fetch(node, downstream.epoch)["resync"]
            for after in range(6):
                reply = fetch(node, after)
                terms = {record.term
                         for _epoch, frames in units_from_wire(reply["units"])
                         for record in frames if record.op == OP_COMMIT}
                assert reply["resync"] or terms <= {2}, (after, terms)
            assert _epochs(fetch(node, 3)) == [4]
        finally:
            for store in (old_reign, new_primary, node, downstream):
                store.close()
