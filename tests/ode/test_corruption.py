"""Failure injection: corruption must surface as clean errors, never as
silent wrong answers or uncontrolled crashes."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import CodecError, OdeError, StorageError
from repro.ode.codec import (
    decode_fields,
    decode_object,
    decode_value,
    encode_object,
    encode_value,
    parse_oid,
    skip_value,
)
from repro.ode.oid import Oid
from repro.ode.page import PAGE_SIZE, Page
from repro.ode.pagefile import PageFile
from repro.ode.store import ObjectStore
from repro.ode.wal import WriteAheadLog


class TestCodecFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    @example(b"\x08\x00")  # OID tag, empty text: not an OID
    def test_decode_value_never_crashes_uncontrolled(self, noise):
        """Random bytes either decode to *something* or raise CodecError."""
        try:
            decode_value(noise, 0)
        except CodecError:
            pass
        except (OverflowError, ValueError) as exc:  # would be a bug
            pytest.fail(f"uncontrolled {type(exc).__name__}: {exc}")

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_decode_object_never_crashes_uncontrolled(self, noise):
        try:
            decode_object(noise)
        except CodecError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_skip_value_never_crashes_uncontrolled(self, noise):
        """Skipping checks framing only, and agrees with decoding on
        where a well-formed value ends."""
        try:
            end = skip_value(noise, 0)
        except CodecError:
            return
        try:
            assert decode_value(noise, 0)[1] == end
        except CodecError:
            pass  # content the skip does not read (UTF-8, dates, OIDs)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=1, max_size=64),
           st.sampled_from([None, (), ("a",), ("name", "n", "tags")]))
    @example(b"\xb0\x01\x04\x00\x04\x00\x07\x01\x00\x08\x01\xff", ())
    def test_decode_fields_never_crashes_uncontrolled(self, noise, names):
        _assert_fields_consistent(noise, names)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(0, 255))
    def test_bitflipped_object_record(self, position, new_byte):
        oid = Oid("db", "c", 1)
        data = bytearray(encode_object(oid, "c", {
            "name": "victim", "n": 42, "tags": [1, 2, 3]}))
        position %= len(data)
        if data[position] == new_byte:
            new_byte = (new_byte + 1) % 256
        data[position] = new_byte
        for names in (None, (), ("name",), ("tags", "n")):
            _assert_fields_consistent(bytes(data), names)
        try:
            decoded_oid, class_name, values = decode_object(bytes(data))
        except (CodecError, OdeError):
            return  # clean rejection
        # if it still decodes, it must decode to *consistent* types
        assert isinstance(class_name, str)
        assert isinstance(values, dict)


def _assert_fields_consistent(data, names):
    """``decode_fields`` raises nothing but :class:`CodecError`, rejects
    nothing ``decode_object`` accepts, and projects what it decodes."""
    try:
        whole = decode_object(data)
    except CodecError:
        whole = None
    try:
        text, class_name, values = decode_fields(data, names)
    except CodecError:
        assert whole is None, "decode_fields rejected a valid record"
        return
    assert isinstance(text, str) and isinstance(class_name, str)
    assert isinstance(values, dict)
    if whole is not None:
        oid, whole_class, whole_values = whole
        assert (parse_oid(text), class_name) == (oid, whole_class)
        # bytes, not values: a flip can make a nan, and nan != nan
        assert encode_value(values) == encode_value(
            {key: value for key, value in whole_values.items()
             if names is None or key in names})


# Generated attribute values spanning every codec tag, nested a few
# levels deep — the domain over which the corruption properties below
# must hold, not just the handful of literals the example tests use.
_OID_PART = st.text(
    alphabet=st.characters(blacklist_characters=":",
                           blacklist_categories=("Cs",)),
    min_size=1, max_size=8)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=16),
    st.binary(max_size=16),
    st.dates(),
    st.builds(Oid, _OID_PART, _OID_PART,
              st.integers(min_value=0, max_value=2 ** 31)),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


class TestCodecProperties:
    """Round-trip and single-byte-corruption properties (faultsim
    satellite): for *any* encodable value, flipping one byte of its
    record must either raise a typed error or leave a record that is
    still internally consistent — never an untyped crash, never a
    value that cannot survive its own re-encoding."""

    @settings(max_examples=150, deadline=None)
    @given(_VALUES)
    def test_value_roundtrip(self, value):
        blob = encode_value(value)
        decoded, offset = decode_value(blob, 0)
        assert offset == len(blob)
        assert decoded == value

    @settings(max_examples=150, deadline=None)
    @given(_VALUES)
    def test_object_roundtrip(self, value):
        oid = Oid("db", "c", 7)
        blob = encode_object(oid, "c", {"v": value})
        decoded_oid, class_name, values = decode_object(blob)
        assert (decoded_oid, class_name, values) == (oid, "c", {"v": value})

    @settings(max_examples=200, deadline=None)
    @given(_VALUES, st.integers(min_value=0, max_value=100_000),
           st.integers(min_value=1, max_value=255))
    @example(float("inf"), 25, 1)  # the float's last byte: inf becomes nan
    def test_single_byte_corruption_is_typed_or_consistent(
            self, value, position, flip):
        oid = Oid("db", "c", 7)
        blob = bytearray(encode_object(oid, "c", {"v": value}))
        position %= len(blob)
        blob[position] ^= flip  # flip != 0, so the byte really changes
        try:
            decoded = decode_object(bytes(blob))
        except OdeError:
            return  # typed rejection — the contract
        # The flip slipped past the format checks (it landed in a string
        # payload, say).  Then the decoded record must still be a fixed
        # point: it re-encodes, and the re-encoding decodes back to the
        # same bytes (bytes, not values: a flip can make a nan, and
        # nan != nan).
        again = encode_object(*decoded)
        assert encode_object(*decode_object(again)) == again

    @settings(max_examples=150, deadline=None)
    @given(_VALUES, st.integers(min_value=0, max_value=100_000))
    def test_truncated_object_record_is_rejected(self, value, cut):
        oid = Oid("db", "c", 7)
        blob = encode_object(oid, "c", {"v": value, "w": value})
        cut %= len(blob)  # every strict prefix, including the empty one
        with pytest.raises(OdeError):
            decode_object(blob[:cut])
        for names in ((), ("v",), ("w",)):
            with pytest.raises(CodecError):
                decode_fields(blob[:cut], names)

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), _VALUES, max_size=6),
           st.data())
    def test_decode_fields_is_the_projection(self, record, data):
        """For any record and any subset of its keys (plus keys it does
        not have), decode_fields is decode_object projected."""
        oid = Oid("db", "c", 7)
        blob = encode_object(oid, "c", record)
        names = data.draw(st.sets(st.sampled_from(sorted(record) + ["?"])))
        text, class_name, values = decode_fields(blob, names)
        assert (parse_oid(text), class_name) == (oid, "c")
        assert values == {key: value for key, value in record.items()
                          if key in names}
        assert decode_fields(blob, None)[2] == decode_object(blob)[2]

    @settings(max_examples=200, deadline=None)
    @given(_VALUES, st.integers(min_value=0, max_value=100_000),
           st.integers(min_value=1, max_value=255))
    def test_single_byte_corruption_of_fields_is_typed_or_consistent(
            self, value, position, flip):
        blob = bytearray(encode_object(Oid("db", "c", 7), "c",
                                       {"v": value, "w": 1}))
        position %= len(blob)
        blob[position] ^= flip
        for names in (None, (), ("v",), ("w",)):
            _assert_fields_consistent(bytes(blob), names)


class TestPageCorruption:
    def test_random_page_bytes_fail_cleanly(self):
        rng = random.Random(7)
        for _attempt in range(20):
            noise = bytes(rng.randrange(256) for _ in range(PAGE_SIZE))
            try:
                page = Page(noise)
                for slot in page.live_slots():
                    page.read(slot)
            except (OdeError, IndexError):
                # header/slot bounds errors are acceptable clean failures
                pass

    def test_truncated_pagefile_detected(self, tmp_path):
        path = tmp_path / "data.pages"
        with PageFile(path) as pagefile:
            pagefile.allocate_page()
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StorageError):
            PageFile(path)


class TestWalCorruption:
    def test_arbitrary_garbage_wal_yields_no_operations(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(bytes(range(256)) * 4)
        with WriteAheadLog(path) as wal:
            assert wal.replay().operations == []

    def test_bitflip_anywhere_never_crashes(self, tmp_path):
        oid = Oid("db", "c", 0)
        base = tmp_path / "wal.log"
        with WriteAheadLog(base) as wal:
            wal.begin_marker = None
            from repro.ode.wal import OP_BEGIN, OP_COMMIT, OP_PUT, WalRecord

            wal.append(WalRecord(op=OP_BEGIN, txid=1))
            wal.append(WalRecord(op=OP_PUT, txid=1, oid=str(oid),
                                 payload=b"payload"))
            wal.append(WalRecord(op=OP_COMMIT, txid=1), sync=True)
        pristine = base.read_bytes()
        rng = random.Random(11)
        for _attempt in range(40):
            corrupted = bytearray(pristine)
            position = rng.randrange(len(corrupted))
            corrupted[position] ^= 1 << rng.randrange(8)
            base.write_bytes(bytes(corrupted))
            with WriteAheadLog(base) as wal:
                operations = wal.replay().operations
                # either the record survived (flip was after commit frame)
                # or it was dropped; never a wrong payload
                for record in operations:
                    assert record.payload in (b"payload",)


class TestStoreCorruption:
    def test_corrupt_record_detected_at_open(self, tmp_path):
        directory = tmp_path / "db"
        oid = Oid("db", "c", 0)
        with ObjectStore(directory) as store:
            store.put(oid, encode_object(oid, "c", {"n": 1}))
        # flip a byte inside the stored record body
        path = directory / ObjectStore.DATA_FILE
        raw = bytearray(path.read_bytes())
        marker = raw.find(0xB0, PAGE_SIZE)  # object magic in a data page
        assert marker != -1
        raw[marker] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(OdeError):
            store = ObjectStore(directory)
            store.get(oid)

    def test_missing_wal_is_fine(self, tmp_path):
        directory = tmp_path / "db"
        oid = Oid("db", "c", 0)
        with ObjectStore(directory) as store:
            store.put(oid, encode_object(oid, "c", {"n": 1}))
        (directory / ObjectStore.WAL_FILE).unlink()
        with ObjectStore(directory) as store:
            assert store.exists(oid)
