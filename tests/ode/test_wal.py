"""Tests for the write-ahead log."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WalError
from repro.ode.wal import (
    OP_ABORT,
    OP_BEGIN,
    OP_COMMIT,
    OP_DELETE,
    OP_PUT,
    WalRecord,
    WriteAheadLog,
)


@pytest.fixture
def wal(tmp_path):
    with WriteAheadLog(tmp_path / "wal.log") as log:
        yield log


def _tx(wal, txid, *ops, outcome=OP_COMMIT):
    wal.append(WalRecord(op=OP_BEGIN, txid=txid))
    for op, oid, payload in ops:
        wal.append(WalRecord(op=op, txid=txid, oid=oid, payload=payload))
    wal.append(WalRecord(op=outcome, txid=txid), sync=True)


def test_append_and_replay(wal):
    _tx(wal, 1, (OP_PUT, "db:c:0", b"hello"))
    records = list(wal.records())
    assert [r.op for r in records] == [OP_BEGIN, OP_PUT, OP_COMMIT]
    assert records[1].payload == b"hello"


def test_binary_payload_roundtrip(wal):
    payload = bytes(range(256))
    _tx(wal, 1, (OP_PUT, "db:c:0", payload))
    assert list(wal.records())[1].payload == payload


def test_committed_operations_includes_committed(wal):
    _tx(wal, 1, (OP_PUT, "db:c:0", b"a"), (OP_DELETE, "db:c:1", b""))
    ops = wal.replay().operations
    assert [(r.op, r.oid) for r in ops] == [
        (OP_PUT, "db:c:0"), (OP_DELETE, "db:c:1")]


def test_aborted_transaction_excluded(wal):
    _tx(wal, 1, (OP_PUT, "db:c:0", b"a"), outcome=OP_ABORT)
    assert wal.replay().operations == []


def test_uncommitted_transaction_excluded(wal):
    wal.append(WalRecord(op=OP_BEGIN, txid=1))
    wal.append(WalRecord(op=OP_PUT, txid=1, oid="db:c:0", payload=b"a"))
    wal.sync()
    assert wal.replay().operations == []


def test_interleaved_transactions(wal):
    wal.append(WalRecord(op=OP_BEGIN, txid=1))
    wal.append(WalRecord(op=OP_BEGIN, txid=2))
    wal.append(WalRecord(op=OP_PUT, txid=1, oid="db:c:0", payload=b"one"))
    wal.append(WalRecord(op=OP_PUT, txid=2, oid="db:c:1", payload=b"two"))
    wal.append(WalRecord(op=OP_COMMIT, txid=2))
    wal.append(WalRecord(op=OP_ABORT, txid=1), sync=True)
    ops = wal.replay().operations
    assert [(r.txid, r.oid) for r in ops] == [(2, "db:c:1")]


def test_checkpoint_truncates(wal):
    _tx(wal, 1, (OP_PUT, "db:c:0", b"a"))
    wal.checkpoint()
    assert wal.replay().operations == []
    records = list(wal.records())
    assert [r.op for r in records] == ["checkpoint"]


def test_replay_reads_the_highest_epoch_and_term(wal):
    """Epochs come from COMMIT and CHECKPOINT records, terms also from
    TERM records; a checkpoint that empties the log keeps both."""
    wal.append(WalRecord(op=OP_BEGIN, txid=1))
    wal.append(WalRecord(op=OP_COMMIT, txid=1, epoch=4, term=2))
    wal.mint_term(3)
    replay = wal.replay()
    assert (replay.epoch, replay.term) == (4, 3)
    wal.checkpoint(epoch=6, term=3)
    replay = wal.replay()
    assert (replay.operations, replay.epoch, replay.term) == ([], 6, 3)


def test_opening_a_store_reads_the_log_once(tmp_path, monkeypatch):
    from repro.ode.store import ObjectStore

    ObjectStore(tmp_path / "store").close()
    reads = []
    records = WriteAheadLog.records

    def counting(log):
        reads.append(log.path)
        return records(log)

    monkeypatch.setattr(WriteAheadLog, "records", counting)
    ObjectStore(tmp_path / "store").close()
    assert len(reads) == 1


def test_torn_tail_ignored(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as log:
        _tx(log, 1, (OP_PUT, "db:c:0", b"good"))
    data = path.read_bytes()
    path.write_bytes(data + b"\x00\x00\x00\x50garbage")  # torn frame
    with WriteAheadLog(path) as log:
        ops = log.replay().operations
        assert [(r.op, r.payload) for r in ops] == [(OP_PUT, b"good")]


def test_corrupt_crc_stops_replay(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as log:
        _tx(log, 1, (OP_PUT, "db:c:0", b"good"))
        _tx(log, 2, (OP_PUT, "db:c:1", b"evil"))
    data = bytearray(path.read_bytes())
    data[-3] ^= 0xFF  # flip a bit in the final frame
    path.write_bytes(bytes(data))
    with WriteAheadLog(path) as log:
        oids = [r.oid for r in log.replay().operations]
        assert "db:c:0" in oids
        assert "db:c:1" not in oids


def test_unknown_op_rejected():
    with pytest.raises(WalError):
        WalRecord.from_value({"op": "explode", "txid": 1})


def test_survives_reopen(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as log:
        _tx(log, 1, (OP_PUT, "db:c:0", b"persisted"))
    with WriteAheadLog(path) as log:
        assert len(log.replay().operations) == 1


_records = st.lists(
    st.builds(
        WalRecord,
        op=st.sampled_from([OP_BEGIN, OP_PUT, OP_DELETE, OP_COMMIT,
                            OP_ABORT]),
        txid=st.integers(min_value=0, max_value=2 ** 31),
        oid=st.text(max_size=40),
        payload=st.binary(max_size=256),
        epoch=st.integers(min_value=0, max_value=2 ** 31),
    ),
    min_size=1, max_size=12,
)


class TestBatchAppend:
    """``append_batch`` — the group-commit blob write."""

    @settings(max_examples=50, deadline=None)
    @given(batch=_records)
    def test_batch_roundtrips_byte_identically(self, batch, tmp_path_factory):
        """A batch of arbitrary records lands on disk as exactly the
        concatenation of its frames, and replays field-for-field."""
        path = tmp_path_factory.mktemp("wal") / "wal.log"
        with WriteAheadLog(path) as log:
            log.append_batch(batch)
        expected = b"".join(WriteAheadLog.encode_frame(r) for r in batch)
        assert path.read_bytes() == expected
        with WriteAheadLog(path) as log:
            replayed = list(log.records())
        assert [(r.op, r.txid, r.oid, r.payload, r.epoch)
                for r in replayed] == \
               [(r.op, r.txid, r.oid, r.payload, r.epoch) for r in batch]

    def test_batch_spanning_the_buffer_boundary(self, tmp_path):
        """Frames deliberately straddling the stdio buffer size (8 KiB):
        the blob write must not split or reorder them."""
        payloads = [bytes([n]) * 5000 for n in range(5)]  # ~25 KiB blob
        batch = [WalRecord(op=OP_PUT, txid=1, oid=f"db:c:{n}",
                           payload=payload)
                 for n, payload in enumerate(payloads)]
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append_batch(batch)
        with WriteAheadLog(path) as log:
            replayed = list(log.records())
        assert [r.payload for r in replayed] == payloads

    def test_empty_batch_writes_nothing(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append_batch([])
        assert path.read_bytes() == b""

    def test_batch_interleaves_with_single_appends_in_order(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append(WalRecord(op=OP_BEGIN, txid=1))
            log.append_batch([WalRecord(op=OP_COMMIT, txid=1, epoch=1),
                              WalRecord(op=OP_COMMIT, txid=2, epoch=2)])
            log.append(WalRecord(op=OP_BEGIN, txid=3))
        with WriteAheadLog(path) as log:
            assert [(r.op, r.txid) for r in log.records()] == [
                (OP_BEGIN, 1), (OP_COMMIT, 1), (OP_COMMIT, 2), (OP_BEGIN, 3)]


class TestFlushContract:
    """``append(sync=False)`` returns with the frame flushed to the OS —
    ordered and visible, just not yet durable (see the module docstring).
    Callers relying on implicit flush ordering get exactly that, no
    more: a reader sees every appended record before any fsync."""

    def test_unsynced_append_is_immediately_visible(self, tmp_path):
        path = tmp_path / "wal.log"
        log = WriteAheadLog(path)
        try:
            log.append(WalRecord(op=OP_BEGIN, txid=1))  # sync=False
            # a second handle on the same file — the OS view, no fsync
            with WriteAheadLog(path) as reader:
                assert [r.op for r in reader.records()] == [OP_BEGIN]
        finally:
            log.close()

    def test_unsynced_appends_keep_order_across_a_later_sync(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as log:
            log.append(WalRecord(op=OP_BEGIN, txid=1))
            log.append(WalRecord(op=OP_PUT, txid=1, oid="db:c:0",
                                 payload=b"x"))
            log.append(WalRecord(op=OP_COMMIT, txid=1), sync=True)
            assert [r.op for r in log.records()] == [
                OP_BEGIN, OP_PUT, OP_COMMIT]


class TestNativeBytesPayloads:
    """WAL records carry payloads as codec-native bytes, not latin-1 text."""

    def test_to_value_keeps_bytes(self):
        record = WalRecord(op=OP_PUT, txid=1, oid="db:c:0",
                           payload=b"\x00\xff\x80")
        assert record.to_value()["payload"] == b"\x00\xff\x80"
        assert isinstance(record.to_value()["payload"], bytes)

    def test_text_payload_refused(self):
        """A record read from disk whose payload is text, not bytes, is
        refused with a typed error (no log writes text payloads)."""
        text = {"op": OP_PUT, "txid": 1, "oid": "db:c:0",
                "payload": b"\x00\xff\x80".decode("latin-1")}
        with pytest.raises(WalError, match="bytes"):
            WalRecord.from_value(text)

    def test_non_utf8_payload_on_disk(self, tmp_path):
        """A payload that is invalid UTF-8 survives the disk round trip."""
        path = tmp_path / "wal.log"
        payload = b"\xc3\x28\x00\xff"  # invalid UTF-8 sequence
        with WriteAheadLog(path) as log:
            _tx(log, 1, (OP_PUT, "db:c:0", payload))
        with WriteAheadLog(path) as log:
            records = log.replay().operations
            assert records[0].payload == payload
