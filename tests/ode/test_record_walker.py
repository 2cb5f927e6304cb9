"""The record walker's slow paths decode as the plain walker does.

``codec.decode_fields`` reads the common cases inline — one-byte keys
and lengths, ints, short strings and OIDs — and hands every other case
to ``_read_text``, ``decode_value``, ``skip_value`` or ``read_varint``.
These examples reach each of those hand-offs: long keys, long skipped
strings and OIDs, skipped lists, structs, dates, floats, bytes, booleans
and nulls, a long header, more than 127 attributes and a multi-byte
format version.  On each record, its every truncation and a sweep of
one-byte flips, the walker must give what the plain walker below gives:
the same values, or a :class:`CodecError` with the same message.
"""

import datetime

import pytest

from repro.errors import CodecError
from repro.ode import codec
from repro.ode.codec import decode_fields, decode_value, encode_object
from repro.ode.oid import Oid


def _plain_fields(data, names):
    """The walker without its inline cases: every key, value and skip
    through the general routines."""
    if not data or data[0] != codec.OBJECT_MAGIC:
        raise CodecError("not an object record (bad magic)")
    version, offset = codec.read_varint(data, 1)
    if version != codec.FORMAT_VERSION:
        raise CodecError(f"unsupported object format version {version}")
    texts = []
    for _ in range(2):
        if offset >= len(data):
            raise CodecError("truncated value")
        if data[offset] != codec._TAG_STRING:
            raise CodecError("malformed object header")
        text, offset = codec._read_text(data, offset + 1, "string payload")
        texts.append(text)
    if offset >= len(data):
        raise CodecError("truncated value")
    if data[offset] != codec._TAG_STRUCT:
        raise CodecError("object values must decode to a dict")
    count, offset = codec.read_varint(data, offset + 1)
    values = {}
    for _ in range(count):
        key, offset = codec._read_text(data, offset, "struct key")
        if names is None or key in names:
            values[key], offset = decode_value(data, offset)
        else:
            offset = codec.skip_value(data, offset)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after object record")
    return texts[0], texts[1], values


LONG_DB = "d" * 150   # an OID text of more than 127 bytes

RECORDS = {
    "long key": (Oid("lab", "employee", 3), "employee",
                 {"k" * 200: 1, "id": 7, "x" * 130: "short"}),
    "long skipped string and oid": (
        Oid("lab", "employee", 3), "employee",
        {"id": 7, "bio": "é" * 150, "ref": Oid(LONG_DB, "department", 1),
         "tag": "t3"}),
    "every other kind skipped": (
        Oid("lab", "employee", 3), "employee",
        {"id": 7, "grades": [1, "two", [3.0]], "addr": {"zip": 7974, "c": "s"},
         "hired": datetime.date(1983, 5, 1), "pay": 1.5, "photo": b"\x00\xff",
         "boss": True, "none": None, "tag": "t3"}),
    "long header": (Oid(LONG_DB, "employee", 3), "c" * 140, {"id": 7}),
    "more than 127 attributes": (
        Oid("lab", "employee", 3), "employee",
        {f"a{number}": None for number in range(129)} | {"id": 7}),
}


def _version_bytes(data, version_varint):
    """*data* with its format-version varint replaced."""
    return data[:1] + version_varint + data[2:]


def _records():
    for label, (oid, class_name, values) in RECORDS.items():
        yield label, encode_object(oid, class_name, values)
    data = encode_object(*RECORDS["every other kind skipped"])
    # 1 as a two-byte varint (0x81 0x00), then 2 and a huge version
    yield "multi-byte version", _version_bytes(data, b"\x81\x00")
    yield "multi-byte unsupported version", _version_bytes(data, b"\x82\x00")
    yield "unterminated version", _version_bytes(data, b"\xff" * 10)


def _outcome(data, names):
    try:
        return "read", decode_fields(data, names)
    except CodecError as exc:
        return "raised", str(exc)


def _plain_outcome(data, names):
    try:
        return "read", _plain_fields(data, names)
    except CodecError as exc:
        return "raised", str(exc)


def _name_sets(data):
    try:
        keys = sorted(_plain_fields(data, None)[2])
    except CodecError:
        keys = []
    return [None, frozenset(), frozenset({"id"}), frozenset({"tag"}),
            frozenset(keys[:1]), frozenset(keys[-1:]), frozenset(keys)]


@pytest.mark.parametrize("label, data", list(_records()),
                         ids=[label for label, _data in _records()])
class TestSlowPaths:
    def test_decodes_as_decode_value(self, label, data):
        for names in _name_sets(data):
            assert _outcome(data, names) == _plain_outcome(data, names)
        if label.endswith(("unsupported version", "unterminated version")):
            with pytest.raises(CodecError, match="version|varint"):
                decode_fields(data, None)
            return
        _text, _class, offset = codec.decode_header(data)
        everything = decode_value(data, offset)[0]
        for names in _name_sets(data):
            _text, _class, values = decode_fields(data, names)
            assert values == {key: value for key, value in everything.items()
                              if names is None or key in names}

    def test_every_truncation_raises_the_same_error(self, label, data):
        for names in _name_sets(data):
            for cut in range(len(data)):
                outcome = _outcome(data[:cut], names)
                assert outcome[0] == "raised"
                assert outcome == _plain_outcome(data[:cut], names)

    def test_every_flip_reads_or_fails_as_the_plain_walker(self, label, data):
        for names in (None, ("id",), ("tag",)):
            for position in range(len(data)):
                for flip in (0x01, 0x80, 0xFF):
                    corrupt = bytearray(data)
                    corrupt[position] ^= flip
                    assert _outcome(bytes(corrupt), names) == \
                        _plain_outcome(bytes(corrupt), names)
