"""Binary object codec.

"To display an object, OdeView calls the Ode object manager to get the
stored representation of the object into an object buffer" (paper §4.2).
This module defines that stored representation: a compact, self-describing
binary encoding of an object's OID, class name, and attribute values.

Self-describing matters: the store can rebuild its object table and cluster
indexes by scanning pages without consulting the schema, and OdeView can
hand a decoded buffer to a display function without knowing the class's
internals — the "principle of separation".

Wire format (all integers big-endian):

* varint  — unsigned LEB128.
* value   — 1 tag byte, then a tag-specific payload.
* object  — magic ``0xOB``, format version varint, OID (string value),
  class name (string value), values (struct value).
"""

from __future__ import annotations

import datetime
import struct
from typing import Any, Container, Dict, Optional, Tuple

from repro.errors import CodecError, OdeError
from repro.ode.oid import Oid

OBJECT_MAGIC = 0xB0
FORMAT_VERSION = 1

_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_BOOL = 3
_TAG_STRING = 4
_TAG_DATE = 5
_TAG_LIST = 6
_TAG_STRUCT = 7
_TAG_OID = 8
_TAG_BYTES = 9

_INT = struct.Struct(">q")
_FLOAT = struct.Struct(">d")
_DATE = struct.Struct(">I")
#: A tag byte and its payload, packed in one call.
_TAGGED_BYTE = struct.Struct(">BB")
_TAGGED_INT = struct.Struct(">Bq")
_TAGGED_FLOAT = struct.Struct(">Bd")
_TAGGED_DATE = struct.Struct(">BI")

#: Payload width of each fixed-size tag.
_FIXED_WIDTH = {_TAG_NULL: 0, _TAG_BOOL: 1, _TAG_INT: 8, _TAG_FLOAT: 8,
                _TAG_DATE: 4}
#: The tags whose payload is a length-prefixed run of bytes.
_SIZED_TAGS = (_TAG_STRING, _TAG_OID, _TAG_BYTES)


def write_varint(value: int) -> bytes:
    """Encode a non-negative integer as unsigned LEB128."""
    out = bytearray()
    _write_varint(out, value)
    return bytes(out)


def _write_varint(out: bytearray, value: int) -> None:
    if 0 <= value < 0x80:
        out.append(value)
        return
    if value < 0:
        raise CodecError(f"varint must be non-negative, got {value}")
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode a varint at *offset*; return (value, new offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


def _read_length(data: bytes, offset: int) -> Tuple[int, int]:
    """A varint length or count, with the one-byte case inline."""
    if offset < len(data) and data[offset] < 0x80:
        return data[offset], offset + 1
    return read_varint(data, offset)


def encode_value(value: Any) -> bytes:
    """Encode one attribute value."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _encode_into(out: bytearray, value: Any) -> None:
    """Append *value*'s encoding to *out*: the one writer.

    Dispatches on the exact type first, most frequent first; subclasses
    and rare types take :func:`_encode_other`, which keeps the
    ``isinstance`` order the format was defined by (``bool`` before
    ``int``, ``datetime`` refused before ``date``).
    """
    kind = type(value)
    if kind is str:
        payload = value.encode("utf-8")
        size = len(payload)
        if size < 0x80:
            out += _TAGGED_BYTE.pack(_TAG_STRING, size)
        else:
            out.append(_TAG_STRING)
            _write_varint(out, size)
        out += payload
    elif kind is int:
        out += _TAGGED_INT.pack(_TAG_INT, value)
    elif kind is dict:
        _encode_struct(out, value)
    elif kind is list or kind is tuple:
        _encode_list(out, value)
    elif value is None:
        out.append(_TAG_NULL)
    elif kind is bool:
        out += _TAGGED_BYTE.pack(_TAG_BOOL, 1 if value else 0)
    elif kind is float:
        out += _TAGGED_FLOAT.pack(_TAG_FLOAT, value)
    elif kind is Oid:
        _encode_sized(out, _TAG_OID, str(value).encode("utf-8"))
    elif kind is bytes:
        _encode_sized(out, _TAG_BYTES, value)
    else:
        _encode_other(out, value)


def _encode_sized(out: bytearray, tag: int, payload: bytes) -> None:
    out.append(tag)
    _write_varint(out, len(payload))
    out += payload


def _encode_list(out: bytearray, items) -> None:
    out.append(_TAG_LIST)
    _write_varint(out, len(items))
    for item in items:
        _encode_into(out, item)


def _encode_struct(out: bytearray, record: Dict[str, Any]) -> None:
    out.append(_TAG_STRUCT)
    _write_varint(out, len(record))
    for key, item in record.items():
        if type(key) is not str and not isinstance(key, str):
            raise CodecError(f"struct keys must be str, got {key!r}")
        key_bytes = key.encode("utf-8")
        _write_varint(out, len(key_bytes))
        out += key_bytes
        _encode_into(out, item)


def _encode_other(out: bytearray, value: Any) -> None:
    """Subclasses and rare types, in the format's defining order."""
    if isinstance(value, bool):
        out += _TAGGED_BYTE.pack(_TAG_BOOL, 1 if value else 0)
    elif isinstance(value, int):
        out += _TAGGED_INT.pack(_TAG_INT, value)
    elif isinstance(value, float):
        out += _TAGGED_FLOAT.pack(_TAG_FLOAT, value)
    elif isinstance(value, str):
        _encode_sized(out, _TAG_STRING, value.encode("utf-8"))
    elif isinstance(value, (bytes, bytearray)):
        _encode_sized(out, _TAG_BYTES, value)
    elif isinstance(value, datetime.datetime):
        raise CodecError("datetime values are not supported; use datetime.date")
    elif isinstance(value, datetime.date):
        out += _TAGGED_DATE.pack(_TAG_DATE, value.toordinal())
    elif isinstance(value, Oid):
        _encode_sized(out, _TAG_OID, str(value).encode("utf-8"))
    elif isinstance(value, (list, tuple)):
        _encode_list(out, value)
    elif isinstance(value, dict):
        # Read through the subclass's own iteration and lookup.
        _encode_struct(out, {key: value[key] for key in value})
    else:
        raise CodecError(
            f"cannot encode value of type {type(value).__name__}: {value!r}")


def decode_value(data: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Decode one value at *offset*; return (value, new offset)."""
    if offset >= len(data):
        raise CodecError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == _TAG_STRING:
        return _read_text(data, offset, "string payload")
    if tag == _TAG_INT:
        end = offset + 8
        if end > len(data):
            raise CodecError("truncated int")
        return _INT.unpack_from(data, offset)[0], end
    if tag == _TAG_STRUCT:
        return _decode_struct(data, offset)
    if tag == _TAG_LIST:
        count, offset = _read_length(data, offset)
        items = []
        for _ in range(count):
            item, offset = decode_value(data, offset)
            items.append(item)
        return items, offset
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_BOOL:
        if offset >= len(data):
            raise CodecError("truncated bool")
        return bool(data[offset]), offset + 1
    if tag == _TAG_FLOAT:
        end = offset + 8
        if end > len(data):
            raise CodecError("truncated float")
        return _FLOAT.unpack_from(data, offset)[0], end
    if tag == _TAG_OID:
        text, end = _read_text(data, offset, "string payload")
        return parse_oid(text), end
    if tag == _TAG_BYTES:
        length, offset = read_varint(data, offset)
        end = offset + length
        if end > len(data):
            raise CodecError("truncated bytes")
        return data[offset:end], end
    if tag == _TAG_DATE:
        end = offset + 4
        if end > len(data):
            raise CodecError("truncated date")
        ordinal = _DATE.unpack_from(data, offset)[0]
        try:
            return datetime.date.fromordinal(ordinal), end
        except (ValueError, OverflowError) as exc:
            raise CodecError(f"bad date ordinal {ordinal}") from exc
    raise CodecError(f"unknown value tag {tag}")


def _decode_struct(data: bytes, offset: int,
                   names: Optional[Container[str]] = None
                   ) -> Tuple[Dict[str, Any], int]:
    """The struct whose count is at *offset*: the attributes in *names*
    (every one when ``None``) decoded, the others skipped by tag.

    One pass, with the common cases inline: a key of a one-byte length,
    an int, a string or an OID read, an int or a short string or OID
    skipped.
    Every other case, and every case near the end of *data*, goes
    through :func:`_read_text`, :func:`decode_value` or
    :func:`skip_value`, which raise the errors.
    """
    count, offset = _read_length(data, offset)
    size = len(data)
    record: Dict[str, Any] = {}
    for _ in range(count):
        if offset < size and data[offset] < 0x80:
            end = offset + 1 + data[offset]
            if end > size:
                raise CodecError("truncated struct key")
            try:
                key = data[offset + 1:end].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CodecError(f"invalid UTF-8 in struct key: {exc}") from exc
            offset = end
        else:
            key, offset = _read_text(data, offset, "struct key")
        tag = data[offset] if offset < size else None
        if names is None or key in names:
            if tag == _TAG_INT and offset + 9 <= size:
                record[key] = _INT.unpack_from(data, offset + 1)[0]
                offset += 9
            elif tag == _TAG_STRING:
                record[key], offset = _read_text(data, offset + 1,
                                                 "string payload")
            elif tag == _TAG_OID:
                text, offset = _read_text(data, offset + 1, "string payload")
                record[key] = parse_oid(text)
            else:
                record[key], offset = decode_value(data, offset)
        elif tag == _TAG_INT and offset + 9 <= size:
            offset += 9
        elif ((tag == _TAG_STRING or tag == _TAG_OID)
              and offset + 1 < size and data[offset + 1] < 0x80
              and offset + 2 + data[offset + 1] <= size):
            offset += 2 + data[offset + 1]
        else:
            offset = skip_value(data, offset)
    return record, offset


def skip_value(data: bytes, offset: int = 0) -> int:
    """The offset just past the value at *offset*, without building it.

    Checks the framing :func:`decode_value` checks — known tags, lengths
    inside the data — but not the content of a payload (UTF-8, date
    range, OID syntax): a skipped value is never handed to anyone.
    """
    if offset >= len(data):
        raise CodecError("truncated value")
    tag = data[offset]
    offset += 1
    width = _FIXED_WIDTH.get(tag)
    if width is not None:
        end = offset + width
    elif tag in _SIZED_TAGS:
        length, offset = read_varint(data, offset)
        end = offset + length
    elif tag == _TAG_LIST:
        count, offset = read_varint(data, offset)
        for _ in range(count):
            offset = skip_value(data, offset)
        return offset
    elif tag == _TAG_STRUCT:
        count, offset = read_varint(data, offset)
        for _ in range(count):
            length, offset = read_varint(data, offset)
            offset = skip_value(data, offset + length)
        return offset
    else:
        raise CodecError(f"unknown value tag {tag}")
    if end > len(data):
        raise CodecError("truncated value")
    return end


def _read_text(data: bytes, offset: int, what: str) -> Tuple[str, int]:
    """A length-prefixed UTF-8 run at *offset*; return (text, new offset)."""
    if offset < len(data) and data[offset] < 0x80:   # a one-byte length
        length = data[offset]
        offset += 1
    else:
        length, offset = read_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise CodecError(f"truncated {what}")
    try:
        return data[offset:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in {what}: {exc}") from exc


def encode_object(oid: Oid, class_name: str, values: Dict[str, Any]) -> bytes:
    """Encode a whole object record (the page-resident form)."""
    out = bytearray((OBJECT_MAGIC,))
    _write_varint(out, FORMAT_VERSION)
    _encode_into(out, str(oid))
    _encode_into(out, class_name)
    _encode_into(out, values)
    return bytes(out)


def decode_object(data: bytes) -> Tuple[Oid, str, Dict[str, Any]]:
    """Decode a record produced by :func:`encode_object`."""
    oid_text, class_name, values = decode_fields(data, None)
    return parse_oid(oid_text), class_name, values


def decode_header(data: bytes) -> Tuple[str, str, int]:
    """Check a record's header and return ``(oid text, class name,
    offset of its values)`` without reading a value.

    Checks magic, format version, the header's types and that a struct
    of values follows; the values themselves are
    :func:`decode_fields`' to check.  A server shipping the stored
    bytes reads this much to check the record's identity.
    """
    try:
        # The header as it is almost always written: magic, a one-byte
        # version, two strings of one-byte lengths.  Any other form, and
        # every error, takes the checks below.
        if data[0] != OBJECT_MAGIC or data[1] != FORMAT_VERSION \
                or data[2] != _TAG_STRING or data[3] >= 0x80:
            raise ValueError
        end = 4 + data[3]
        oid_text = data[4:end].decode("utf-8")
        offset = end + 2 + data[end + 1]
        if data[end] != _TAG_STRING or data[end + 1] >= 0x80 \
                or data[offset] != _TAG_STRUCT:
            raise ValueError
        return oid_text, data[end + 2:offset].decode("utf-8"), offset
    except (IndexError, ValueError):   # UnicodeDecodeError too
        pass
    if not data or data[0] != OBJECT_MAGIC:
        raise CodecError("not an object record (bad magic)")
    version, offset = read_varint(data, 1)
    if version != FORMAT_VERSION:
        raise CodecError(f"unsupported object format version {version}")
    oid_text, offset = _header_text(data, offset)
    class_name, offset = _header_text(data, offset)
    if offset >= len(data):
        raise CodecError("truncated value")
    if data[offset] != _TAG_STRUCT:
        raise CodecError("object values must decode to a dict")
    return oid_text, class_name, offset


def decode_fields(data: bytes, names: Optional[Container[str]]
                  ) -> Tuple[str, str, Dict[str, Any]]:
    """Decode a record's header and the attributes in *names* (every
    attribute when ``None``): the one record walker.

    The other attributes are skipped by tag (:func:`_decode_struct`,
    the walker nested structs share); the record is checked as
    :func:`decode_object` checks it — magic, format version, header
    types, struct framing, no trailing bytes — and a skipped value's
    framing as :func:`skip_value` checks it.  The OID comes back as its
    stored text, for a caller to compare with the OID it asked for;
    :func:`parse_oid` makes it an :class:`Oid`.
    """
    oid_text, class_name, offset = decode_header(data)
    values, offset = _decode_struct(data, offset + 1, names)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after object record")
    return oid_text, class_name, values


def _header_text(data: bytes, offset: int) -> Tuple[str, int]:
    if offset >= len(data):
        raise CodecError("truncated value")
    if data[offset] != _TAG_STRING:
        raise CodecError("malformed object header")
    return _read_text(data, offset + 1, "string payload")


def parse_oid(text: str) -> Oid:
    """The :class:`Oid` of an OID's text; :class:`CodecError` if malformed."""
    try:
        return Oid.parse(text)
    except OdeError as exc:
        raise CodecError(f"malformed OID payload {text!r}") from exc
