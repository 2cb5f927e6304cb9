"""Tests for object identifiers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import OdeError
from repro.ode.oid import Oid


class TestConstruction:
    def test_fields(self):
        oid = Oid("lab", "employee", 3)
        assert oid.database == "lab"
        assert oid.cluster == "employee"
        assert oid.number == 3

    def test_empty_database_rejected(self):
        with pytest.raises(OdeError):
            Oid("", "employee", 0)

    def test_empty_cluster_rejected(self):
        with pytest.raises(OdeError):
            Oid("lab", "", 0)

    def test_negative_number_rejected(self):
        with pytest.raises(OdeError):
            Oid("lab", "employee", -1)

    def test_colon_in_database_rejected(self):
        with pytest.raises(OdeError):
            Oid("la:b", "employee", 0)

    def test_colon_in_cluster_rejected(self):
        with pytest.raises(OdeError):
            Oid("lab", "emp:loyee", 0)


class TestIdentity:
    def test_equality(self):
        assert Oid("lab", "employee", 1) == Oid("lab", "employee", 1)

    def test_inequality_by_number(self):
        assert Oid("lab", "employee", 1) != Oid("lab", "employee", 2)

    def test_hashable(self):
        oids = {Oid("lab", "employee", 1), Oid("lab", "employee", 1)}
        assert len(oids) == 1

    def test_ordering_by_number_within_cluster(self):
        assert Oid("lab", "employee", 1) < Oid("lab", "employee", 2)

    def test_ordering_by_cluster_first(self):
        assert Oid("lab", "department", 9) < Oid("lab", "employee", 0)


class TestStringForm:
    def test_str(self):
        assert str(Oid("lab", "employee", 7)) == "lab:employee:7"

    def test_parse(self):
        assert Oid.parse("lab:employee:7") == Oid("lab", "employee", 7)

    def test_parse_rejects_two_parts(self):
        with pytest.raises(OdeError):
            Oid.parse("lab:employee")

    def test_parse_rejects_non_numeric(self):
        with pytest.raises(OdeError):
            Oid.parse("lab:employee:x")

    @given(
        st.text(st.characters(codec="ascii", exclude_characters=":\n"),
                min_size=1, max_size=10),
        st.text(st.characters(codec="ascii", exclude_characters=":\n"),
                min_size=1, max_size=10),
        st.integers(min_value=0, max_value=10**9),
    )
    def test_roundtrip_property(self, database, cluster, number):
        oid = Oid(database, cluster, number)
        assert Oid.parse(str(oid)) == oid


def _checked_parse(text):
    """``Oid.parse`` through the checked constructor, every time."""
    parts = text.split(":")
    if len(parts) != 3:
        raise OdeError(f"malformed OID string {text!r}")
    try:
        return Oid(parts[0], parts[1], int(parts[2]))
    except ValueError as exc:
        raise OdeError(f"malformed OID string {text!r}") from exc


def _parsed(parse, text):
    try:
        oid = parse(text)
    except OdeError as exc:
        return "raised", str(exc)
    return "parsed", oid, hash(oid), repr(oid), str(oid)


class TestParseSkipsOnlyKnownChecks:
    """``parse`` builds an OID without ``__post_init__`` only when the
    text already passes its checks; every text parses, or fails, as
    through the checked constructor."""

    @given(st.lists(st.sampled_from(["lab", "", "e", "7", "-1", "007", "٣",
                                     "²", " 5", "1_0", "x"]),
                    min_size=1, max_size=4).map(":".join))
    def test_as_the_checked_constructor(self, text):
        assert _parsed(Oid.parse, text) == _parsed(_checked_parse, text)

    @given(st.text(max_size=12))
    def test_any_text(self, text):
        assert _parsed(Oid.parse, text) == _parsed(_checked_parse, text)
