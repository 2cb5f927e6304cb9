"""Tests for the binary object codec."""

import collections
import datetime
import enum

import pytest
from hypothesis import given, strategies as st

from repro.errors import CodecError
from repro.ode.codec import (
    decode_fields,
    decode_object,
    decode_value,
    encode_object,
    encode_value,
    parse_oid,
    read_varint,
    skip_value,
    write_varint,
)
from repro.ode.oid import Oid


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63 - 1])
    def test_roundtrip(self, value):
        data = write_varint(value)
        decoded, offset = read_varint(data, 0)
        assert decoded == value
        assert offset == len(data)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            write_varint(-1)

    def test_truncated(self):
        with pytest.raises(CodecError):
            read_varint(b"\x80", 0)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_roundtrip_property(self, value):
        decoded, _offset = read_varint(write_varint(value), 0)
        assert decoded == value


_SAMPLE_VALUES = [
    None,
    True,
    False,
    0,
    -1,
    2**62,
    -(2**62),
    0.0,
    3.14159,
    -1e300,
    "",
    "hello",
    "unicodé ☃",
    datetime.date(1990, 5, 23),
    Oid("lab", "employee", 7),
    [],
    [1, 2, 3],
    ["a", None, True],
    {},
    {"name": "rakesh", "id": 7},
    {"nested": {"deep": [1, {"x": None}]}},
    [[1], [2, 3]],
]


class TestValues:
    @pytest.mark.parametrize("value", _SAMPLE_VALUES,
                             ids=[repr(v)[:30] for v in _SAMPLE_VALUES])
    def test_roundtrip(self, value):
        data = encode_value(value)
        decoded, offset = decode_value(data)
        assert decoded == value
        assert offset == len(data)

    def test_bool_stays_bool(self):
        decoded, _ = decode_value(encode_value(True))
        assert decoded is True

    def test_int_stays_int(self):
        decoded, _ = decode_value(encode_value(1))
        assert isinstance(decoded, int) and not isinstance(decoded, bool)

    def test_oid_decodes_as_oid(self):
        decoded, _ = decode_value(encode_value(Oid("a", "b", 1)))
        assert isinstance(decoded, Oid)

    def test_datetime_rejected(self):
        with pytest.raises(CodecError):
            encode_value(datetime.datetime(1990, 1, 1))

    def test_unencodable_rejected(self):
        with pytest.raises(CodecError):
            encode_value(object())

    def test_non_string_struct_key_rejected(self):
        with pytest.raises(CodecError):
            encode_value({1: "x"})

    def test_truncated_payloads_rejected(self):
        data = encode_value({"key": [1, 2, 3]})
        for cut in range(1, len(data)):
            with pytest.raises(CodecError):
                decode_value(data[:cut])

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            decode_value(bytes([250]))


# Recursive strategy mirroring the codec's value domain.
_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.dates(min_value=datetime.date(1, 1, 1)),
    st.builds(Oid, st.just("db"), st.just("cls"),
              st.integers(min_value=0, max_value=10**6)),
)
_values = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


class TestValueProperty:
    @given(_values)
    def test_any_value_roundtrips(self, value):
        decoded, offset = decode_value(encode_value(value))
        data = encode_value(value)
        assert offset == len(data)
        assert decoded == value


class TestObjects:
    def test_roundtrip(self):
        oid = Oid("lab", "employee", 3)
        values = {"name": "rakesh", "dept": Oid("lab", "department", 0)}
        oid2, class_name, values2 = decode_object(
            encode_object(oid, "employee", values)
        )
        assert (oid2, class_name, values2) == (oid, "employee", values)

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError):
            decode_object(b"\x00\x01\x02")

    def test_empty_rejected(self):
        with pytest.raises(CodecError):
            decode_object(b"")

    def test_trailing_bytes_rejected(self):
        data = encode_object(Oid("a", "b", 0), "b", {}) + b"x"
        with pytest.raises(CodecError):
            decode_object(data)

    def test_record_is_self_describing(self):
        """The store rebuilds its index from records alone (DESIGN §5.3)."""
        data = encode_object(Oid("lab", "employee", 9), "employee", {"id": 9})
        oid, class_name, values = decode_object(data)
        assert oid.number == 9
        assert class_name == "employee"
        assert values == {"id": 9}


class TestDecodeFields:
    """The one record walker, asked for some attributes."""

    OID = Oid("lab", "employee", 3)
    VALUES = {"name": "rakesh", "dept": Oid("lab", "department", 0),
              "grades": [1, {"x": None}], "since": datetime.date(1990, 5, 23),
              "photo": b"\x00\xff", "pay": 1.5, "boss": True}

    def record(self, values=None):
        return encode_object(self.OID, "employee",
                             self.VALUES if values is None else values)

    def test_every_name_is_decode_object(self):
        text, class_name, values = decode_fields(self.record(), None)
        assert (parse_oid(text), class_name, values) == decode_object(
            self.record())
        assert text == str(self.OID)

    @pytest.mark.parametrize("names", [(), ("name",), ("grades", "boss"),
                                       ("ghost", "pay")])
    def test_named_values_only(self, names):
        _text, class_name, values = decode_fields(self.record(), names)
        assert class_name == "employee"
        assert values == {n: self.VALUES[n] for n in names
                          if n in self.VALUES}

    def test_duplicate_key_keeps_the_last(self):
        data = bytearray(self.record({"a": 1}))
        # a hand-made struct with "a" twice: count 2, then both entries
        head = data[:data.index(bytes([7, 1]))]
        body = bytes([7, 2]) + b"\x01a" + encode_value(1) + b"\x01a" \
            + encode_value(2)
        assert decode_fields(bytes(head) + body, ("a",))[2] == {"a": 2}
        assert decode_object(bytes(head) + body)[2] == {"a": 2}

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError):
            decode_fields(self.record() + b"x", ())

    def test_non_string_header_rejected(self):
        data = bytearray(self.record())
        data[2] = 8   # the OID header's string tag becomes the OID tag
        with pytest.raises(CodecError, match="header"):
            decode_fields(bytes(data), ())

    def test_values_must_be_a_struct(self):
        data = encode_object(self.OID, "employee", {})
        with pytest.raises(CodecError, match="dict"):
            decode_fields(data[:-2] + encode_value([]), ())

    def test_every_truncation_rejected(self):
        data = self.record()
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode_fields(data[:cut], ())

    @pytest.mark.parametrize("value", _SAMPLE_VALUES + [b"", b"\x01\x02"],
                             ids=[repr(v)[:30] for v in _SAMPLE_VALUES]
                             + ["b''", "bytes"])
    def test_skip_value_lands_where_decode_does(self, value):
        data = encode_value(value) + b"tail"
        assert skip_value(data, 0) == decode_value(data, 0)[1]

    def test_skip_value_checks_framing(self):
        for data in (b"", b"\xff", encode_value("hello")[:-1],
                     encode_value([1, 2])[:-3], encode_value({"k": 1})[:3]):
            with pytest.raises(CodecError):
                skip_value(data, 0)

    def test_malformed_oid_text_is_a_codec_error(self):
        with pytest.raises(CodecError):
            parse_oid("not-an-oid")


class TestBytes:
    """The native bytes tag (tag 9): raw byte strings, no text smuggling."""

    @pytest.mark.parametrize("value", [
        b"", b"\x00", b"hello", bytes(range(256)), b"\xff" * 1000,
    ])
    def test_roundtrip(self, value):
        decoded, offset = decode_value(encode_value(value), 0)
        assert decoded == value
        assert isinstance(decoded, bytes)

    def test_bytearray_encodes_as_bytes(self):
        decoded, _ = decode_value(encode_value(bytearray(b"abc")), 0)
        assert decoded == b"abc"
        assert isinstance(decoded, bytes)

    def test_bytes_distinct_from_str(self):
        """b'x' and 'x' decode back to their own types."""
        raw, _ = decode_value(encode_value(b"x"), 0)
        text, _ = decode_value(encode_value("x"), 0)
        assert raw == b"x" and isinstance(raw, bytes)
        assert text == "x" and isinstance(text, str)

    def test_truncated_bytes_rejected(self):
        data = encode_value(b"hello world")
        with pytest.raises(CodecError):
            decode_value(data[:-3], 0)

    def test_bytes_inside_structures(self):
        value = {"payload": b"\x00\xff", "items": [b"a", b"b"]}
        decoded, _ = decode_value(encode_value(value), 0)
        assert decoded == value

    @given(st.binary(max_size=4096))
    def test_roundtrip_property(self, value):
        decoded, _offset = decode_value(encode_value(value), 0)
        assert decoded == value


class _Level(enum.IntEnum):
    HIGH = 300


class _Name(str):
    pass


#: (id, value, hex of ``encode_value``): the format pinned byte for byte,
#: so the writer can change without pages, the WAL or frames changing.
_GOLDEN = [
    ("null", None, "00"),
    ("true", True, "0301"),
    ("false", False, "0300"),
    ("zero", 0, "010000000000000000"),
    ("minus_one", -1, "01ffffffffffffffff"),
    ("int_max", 2**63 - 1, "017fffffffffffffff"),
    ("int_min", -(2**63), "018000000000000000"),
    ("int_enum", _Level.HIGH, "01000000000000012c"),
    ("float", 1.5, "023ff8000000000000"),
    ("neg_zero", -0.0, "028000000000000000"),
    ("empty_str", "", "0400"),
    ("ascii", "rakesh", "040672616b657368"),
    ("utf8", "é☃", "0405c3a9e29883"),
    ("str_subclass", _Name("ode"), "04036f6465"),
    ("bytes", b"\x00\xff", "090200ff"),
    ("bytearray", bytearray(b"ab"), "09026162"),
    ("date", datetime.date(1990, 5, 23), "05000b1652"),
    ("oid", Oid("lab", "employee", 7), "080e6c61623a656d706c6f7965653a37"),
    ("empty_list", [], "0600"),
    ("list", [1, "a", None], "060301000000000000000104016100"),
    ("tuple", (1, "a", None), "060301000000000000000104016100"),
    ("nested_list", [[True], [2.0, [b""]]],
     "060206010301060202400000000000000006010900"),
    ("empty_struct", {}, "0700"),
    ("struct", {"name": "rakesh", "id": 7},
     "0702046e616d65040672616b657368026964010000000000000007"),
    ("ordered_dict", collections.OrderedDict([("b", 1), ("a", False)]),
     "0702016201000000000000000101610300"),
    ("nested_struct",
     {"dept": {"staff": [Oid("lab", "employee", 1), {"x": None}]}},
     "0701046465707407010573746166660602080e6c61623a656d706c6f7965653a31"
     "0701017800"),
    # 1-, 2- and 3-byte varint lengths, counts and key lengths
    ("str_127", "x" * 127, "047f" + "78" * 127),
    ("str_128", "x" * 128, "048001" + "78" * 128),
    ("str_16383", "x" * 16383, "04ff7f" + "78" * 16383),
    ("str_16384", "x" * 16384, "04808001" + "78" * 16384),
    ("list_128", [None] * 128, "068001" + "00" * 128),
    ("key_128", {"k" * 128: None}, "0701" + "8001" + "6b" * 128 + "00"),
]


class TestGoldenVectors:
    @pytest.mark.parametrize("value, expected",
                             [(value, hex_) for _id, value, hex_ in _GOLDEN],
                             ids=[id_ for id_, _v, _h in _GOLDEN])
    def test_encode_value(self, value, expected):
        assert encode_value(value).hex() == expected
        decoded, offset = decode_value(bytes.fromhex(expected))
        assert offset == len(expected) // 2
        assert decoded == (list(value) if isinstance(value, tuple)
                           else value)

    def test_encode_object(self):
        data = encode_object(
            Oid("lab", "employee", 3), "employee",
            {"name": "rakesh", "id": 3, "dept": Oid("lab", "department", 0)})
        assert data.hex() == (
            "b001040e6c61623a656d706c6f7965653a330408656d706c6f7965650703"
            "046e616d65040672616b657368026964010000000000000003046465707408"
            "106c61623a6465706172746d656e743a30")


class TestEveryCodecError:
    """Each refusal of the codec, on both sides, stays a CodecError."""

    @pytest.mark.parametrize("value", [
        {1: "x"},                                   # non-str key
        {"ok": {2: "x"}},                           # nested
        collections.OrderedDict([(b"k", 1)]),       # subclass, bytes key
        datetime.datetime(1990, 1, 1),
        [datetime.datetime(1990, 1, 1)],
        object(),
        {1, 2},
        ["fine", object()],
    ], ids=["key", "nested_key", "ordered_key", "datetime", "list_datetime",
            "object", "set", "list_object"])
    def test_encode_refuses(self, value):
        with pytest.raises(CodecError):
            encode_value(value)

    def test_negative_varint(self):
        with pytest.raises(CodecError, match="non-negative"):
            write_varint(-1)

    @pytest.mark.parametrize("data, message", [
        (b"", "truncated value"),
        (b"\xfa", "unknown value tag 250"),
        (b"\x01\x00\x00", "truncated int"),
        (b"\x02\x00", "truncated float"),
        (b"\x03", "truncated bool"),
        (b"\x05\x00", "truncated date"),
        (b"\x05\xff\xff\xff\xff", "bad date ordinal"),
        (b"\x04\x05ab", "truncated string payload"),
        (b"\x04\x80", "truncated varint"),
        (b"\x04" + b"\xff" * 10, "varint too long"),
        (b"\x04\x02\xc3\x28", "invalid UTF-8 in string payload"),
        (b"\x09\x03ab", "truncated bytes"),
        (b"\x06\x02\x00", "truncated value"),
        (b"\x06\x81", "truncated varint"),
        (b"\x07\x01\x05ab", "truncated struct key"),
        (b"\x07\x01\x02\xc3\x28\x00", "invalid UTF-8 in struct key"),
        (b"\x07\x01\x01k", "truncated value"),
        (b"\x07\x01\x01k\x01\x00", "truncated int"),
        (b"\x08\x03a:b", "malformed OID payload"),
    ])
    def test_decode_refuses(self, data, message):
        with pytest.raises(CodecError, match=message):
            decode_value(data)
