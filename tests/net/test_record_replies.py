"""Object reads over the wire ship each record's stored bytes.

A remote ``get_buffer``, ``get_buffers``, ``scan`` or ``select_pushdown``
must hand back what the local object manager builds from the same
record: the server's public names, and computed attributes evaluated
next to the data.  A corrupt record must fail remotely with the error
the local read raises, never come back as a wrong buffer.  A batch
reads each page once, under one store-lock acquisition.

Tier-1 draws the corruption property's examples the same way every run;
CI's tier-2 job searches afresh with ``--hypothesis-profile=random``,
and ``--hypothesis-seed`` replays a run.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.queryplan import SelectionPlanner
from repro.data.labdb import make_lab_database
from repro.data.synthetic import make_synthetic_database
from repro.errors import AccessError, CodecError, ObjectNotFoundError
from repro.net import protocol as P
from repro.net.remote import RemoteDatabase
from repro.net.server import OdeServer
from repro.net.session import ServerSession
from repro.obs import get_registry
from repro.ode.codec import decode_fields, encode_object, encode_value
from repro.ode.oid import Oid
from repro.ode.opp.parser import parse_expression


def _serve(root, name):
    server = OdeServer(root)
    server.start()
    remote = RemoteDatabase.connect("127.0.0.1", server.port, name)
    return server, remote


@pytest.fixture
def served_readings(tmp_path):
    """300 synthetic readings (no computed attributes), served; yields
    ``(server, remote)``."""
    make_synthetic_database(tmp_path, 300).close()
    server, remote = _serve(tmp_path, "synthetic")
    yield server, remote
    remote.close()
    server.shutdown()


@pytest.fixture
def served_staff(tmp_path):
    """The lab with 700 employees, department 0 holding all of them —
    a record fragmented across pages — served; yields ``(server,
    remote)``."""
    database = make_lab_database(tmp_path)
    objects = database.objects
    objects.begin()
    for number in range(55, 700):
        objects.new_object("employee", {"id": number, "name": f"e{number}"})
    objects.update(Oid("lab", "department", 0), {
        "employees": [Oid("lab", "employee", n) for n in range(700)]})
    objects.commit()
    database.close()
    server, remote = _serve(tmp_path, "lab")
    yield server, remote
    remote.close()
    server.shutdown()


#: One condition per lab cluster the selections run, and the attribute
#: its index probe uses.
SELECTIONS = {"employee": ("id >= 0", "id"),
              "department": ('dname >= ""', "dname"),
              "manager": ("id >= 0", "id")}


@pytest.fixture
def served_indexed_lab(tmp_path):
    """The lab, with an index for each of :data:`SELECTIONS`, served;
    yields ``(server, remote)``."""
    database = make_lab_database(tmp_path)
    for cluster, (_condition, attribute) in SELECTIONS.items():
        database.create_index(cluster, attribute)
    database.close()
    server, remote = _serve(tmp_path, "lab")
    yield server, remote
    remote.close()
    server.shutdown()


def _local(server, name):
    return server.hosted(name).database.objects


def _reading(number):
    return Oid("synthetic", "reading", number)


def _pages(store, oids):
    return {page for oid in oids for page, _slot in store._placement._table[oid]}


class _CountingLock:
    """A lock that counts how often it is taken (the store takes its
    lock only through ``with``)."""

    def __init__(self, inner):
        self.inner = inner
        self.taken = 0

    def __enter__(self):
        self.taken += 1
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


class TestPageGroupedBatch:
    def test_64_records_on_3_pages_are_one_lock_hold_and_3_fetches(
            self, served_readings):
        server, remote = served_readings
        store = server.hosted("synthetic").database.store
        start = next(n for n in range(300 - 64) if len(_pages(
            store, [_reading(k) for k in range(n, n + 64)])) == 3)
        oids = [_reading(n) for n in range(start, start + 64)]
        registry = get_registry()
        reads = registry.counter("mvcc.snapshot_reads")
        fallbacks = registry.counter("mvcc.read_fallbacks")
        before = (store.pool.stats.hits + store.pool.stats.misses,
                  reads.value, fallbacks.value)
        store._lock = counting = _CountingLock(store._lock)
        try:
            buffers = remote.objects.get_buffers(oids)
        finally:
            store._lock = counting.inner
        assert [buffer.oid for buffer in buffers] == oids
        assert counting.taken == 1
        assert (store.pool.stats.hits + store.pool.stats.misses,
                reads.value, fallbacks.value) == (
            before[0] + 3, before[1] + 64, before[2] + 64)

    def test_a_batch_over_version_chains_reads_only_the_misses(
            self, served_readings):
        """An OID a pinned reader keeps a chain for is answered from
        the chain; the rest still go to the pages in one hold."""
        server, remote = served_readings
        local = _local(server, "synthetic")
        store = server.hosted("synthetic").database.store
        oids = [_reading(n) for n in range(10)]
        fallbacks = get_registry().counter("mvcc.read_fallbacks")
        with store.snapshot() as held:
            local.update(oids[3], {"value": 999})
            with local.pinned():
                fresh = local.find_records(oids)
            before = fallbacks.value
            old = held.find_many(oids)
            assert fallbacks.value == before + 9
            assert old == [held.find(oid) for oid in oids]
            assert old[3] != fresh[3]
            assert old[:3] + old[4:] == fresh[:3] + fresh[4:]
        assert [b.values["value"] for b in remote.objects.get_buffers(oids)
                ] == [local.get_buffer(oid).values["value"] for oid in oids]


class TestRemoteEqualsLocal:
    def test_raw_records(self, served_readings):
        server, remote = served_readings
        local = _local(server, "synthetic")
        oids = [_reading(n) for n in range(0, 300, 7)]
        for oid in oids[:5]:
            assert remote.objects.get_buffer(oid) == local.get_buffer(oid)
        remote.objects.cache.purge()
        assert remote.objects.get_buffers(oids) == [
            local.get_buffer(oid) for oid in oids]
        assert remote.objects.scan("reading") == list(local.select("reading"))
        assert remote.objects.scan("sensor") == list(local.select("sensor"))

    def test_computed_and_fragmented_records(self, served_staff):
        server, remote = served_staff
        local = _local(server, "lab")
        store = server.hosted("lab").database.store
        department = Oid("lab", "department", 0)
        assert len(store._placement._table[department]) > 1   # fragmented
        buffer = remote.objects.get_buffer(department)
        assert buffer == local.get_buffer(department)
        assert len(buffer.values["employees"]) == 700
        employee = remote.objects.get_buffer(Oid("lab", "employee", 3))
        assert employee == local.get_buffer(Oid("lab", "employee", 3))
        assert "years_service" in employee.computed
        remote.objects.cache.purge()
        batch = [Oid("lab", "employee", 1), department,
                 Oid("lab", "manager", 0), Oid("lab", "employee", 650)]
        assert remote.objects.get_buffers(batch) == [
            local.get_buffer(oid) for oid in batch]
        for cluster in ("employee", "department", "manager"):
            assert remote.objects.scan(cluster) == list(local.select(cluster))

    def test_an_oid_deleted_mid_batch(self, served_staff):
        server, remote = served_staff
        local = _local(server, "lab")
        first, gone, last = (Oid("lab", "employee", n) for n in (3, 4, 5))
        remote.objects.delete(gone)
        reply = remote.objects._call(
            P.OP_GET_OBJECTS, {"oids": [str(first), str(gone), str(last)]})
        assert reply["missing"] == [str(gone)]
        assert [P.buffer_from_object(value, oid) for value, oid in zip(
            reply["buffers"], [first, last])] == [
            local.get_buffer(first), local.get_buffer(last)]
        with pytest.raises(ObjectNotFoundError, match=str(gone)):
            remote.objects.get_buffers([first, gone, last])
        with pytest.raises(ObjectNotFoundError):
            local.get_buffer(gone)

    def test_reads_inside_the_sessions_own_transaction(self, served_staff):
        server, remote = served_staff
        local = _local(server, "lab")
        oids = [Oid("lab", "employee", n) for n in (3, 5)]
        remote.objects.begin()
        try:
            remote.objects.update(oids[0], {"name": "in-tx"})
            remote.objects.cache.purge()
            # The open transaction is the store's: an unpinned local read
            # sees its overlay, as the session's own reads must.
            assert remote.objects.get_buffer(oids[0]).values["name"] == "in-tx"
            remote.objects.cache.purge()
            assert remote.objects.get_buffers(oids) == [
                local.get_buffer(oid) for oid in oids]
            scanned = remote.objects.scan("employee")
            assert scanned == [local.get_buffer(b.oid) for b in scanned]
            assert len(scanned) == local.count("employee")
            assert scanned[3].values["name"] == "in-tx"
        finally:
            remote.objects.abort()
        assert remote.objects.get_buffer(oids[0]).values["name"] != "in-tx"


# -- corruption ----------------------------------------------------------------------

def _canonical(buffer):
    # bytes, not values: a flip can make a nan, and nan != nan
    return (buffer.oid, buffer.class_name, encode_value(dict(buffer.values)),
            buffer.public_names, encode_value(dict(buffer.computed)))


def _outcome(read):
    """What a read did: its buffers, or the class of error it raised."""
    try:
        return "read", [_canonical(buffer) for buffer in read()]
    except Exception as exc:  # noqa: BLE001 - the class is the point
        return "raised", type(exc)


@pytest.fixture
def served_lab_pair(tmp_path):
    make_lab_database(tmp_path).close()
    server, remote = _serve(tmp_path, "lab")
    yield server, remote
    remote.close()
    server.shutdown()


def _raw_put(store, oid, data):
    """Store *data* under *oid* as a raw mutation: index upkeep does not
    see it, so an index keeps the entry of the record it replaced."""
    derived, store.derived = store.derived, None
    try:
        store.put(oid, data)
    finally:
        store.derived = derived


def _flip(store, oid, position, flip):
    """XOR one byte of *oid*'s stored record (a raw mutation); returns
    the original."""
    original = store.get(oid)
    corrupt = bytearray(original)
    corrupt[position % len(corrupt)] ^= flip
    _raw_put(store, oid, bytes(corrupt))
    return original


def _selections(server, remote, cluster):
    """``(local read, remote read)`` of the cluster's selection, once
    per forced access path."""
    condition, _attribute = SELECTIONS[cluster]
    planner = SelectionPlanner(server.hosted("lab").database)
    return [
        (lambda force=force: planner.select(
            cluster, parse_expression(condition), force=force),
         lambda force=force: remote.objects.select_pushdown(
            cluster, condition, force=force))
        for force in ("scan", "index")]


class TestRemoteErrorClass:
    def test_a_computed_methods_key_error_stays_a_key_error(
            self, served_lab_pair):
        """Byte 36 of employee 7, XOR 38, swallows the key ``hired``
        into the name, so the computed ``years_service`` raises
        ``KeyError`` on the server: the remote reader gets that class,
        tagged remote, not a :class:`~repro.errors.RemoteError`."""
        server, remote = served_lab_pair
        oid = Oid("lab", "employee", 7)
        _flip(server.hosted("lab").database.store, oid, 36, 38)
        with pytest.raises(KeyError) as local:
            _local(server, "lab").get_buffer(oid)
        with pytest.raises(KeyError) as over_wire:
            remote.objects.get_buffer(oid)
        assert type(over_wire.value) is type(local.value)
        assert over_wire.value.remote
        # The connection stays up: the next read is served.
        assert remote.objects.get_buffer(Oid("lab", "employee", 6))


class TestCorruptRecord:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(victim=st.sampled_from([("employee", 7), ("department", 2),
                                   ("manager", 1)]),
           # the header (magic, version, OID, class) half the time
           position=st.one_of(st.integers(min_value=0, max_value=32),
                              st.integers(min_value=0, max_value=10_000)),
           flip=st.integers(min_value=1, max_value=255))
    # The class name's length grows over the values up to the 0x07 that
    # ends employee 7's id: the header still parses, with a class no
    # schema has, and the values do not.
    @example(victim=("employee", 7), position=19, flip=41)
    def test_fails_remotely_as_it_fails_locally(
            self, served_indexed_lab, victim, position, flip):
        """Through ``get_buffer``, ``get_buffers``, ``scan`` and
        ``select_pushdown`` on either access path alike."""
        server, remote = served_indexed_lab
        local = _local(server, "lab")
        store = server.hosted("lab").database.store
        cluster, number = victim
        oid = Oid("lab", cluster, number)
        batch = [Oid("lab", cluster, 0), oid]
        reads = [
            (lambda: [local.get_buffer(oid)],
             lambda: [remote.objects.get_buffer(oid)]),
            (lambda: [local.get_buffer(o) for o in batch],
             lambda: remote.objects.get_buffers(batch)),
            (lambda: list(local.select(cluster)),
             lambda: remote.objects.scan(cluster)),
        ] + _selections(server, remote, cluster)
        original = _flip(store, oid, position, flip)
        try:
            for read_local, read_remote in reads:
                remote.objects.cache.purge()
                assert _outcome(read_remote) == _outcome(read_local)
        finally:
            store.put(oid, original)


# -- selections ----------------------------------------------------------------------

LAB_CONDITIONS = ["id < 30", 'id >= 10 && name != "bell"', "years_service > 3",
                  'dept->dname == "unix" || id == 3']


class TestSelectionsShipStoredRecords:
    @pytest.mark.parametrize("force", ["scan", "index"])
    @pytest.mark.parametrize("condition", LAB_CONDITIONS)
    def test_remote_selection_equals_the_local_one(
            self, served_indexed_lab, force, condition):
        """Same OIDs, values, public names and computed values
        (``years_service``) as the planner's local ``select``."""
        server, remote = served_indexed_lab
        planner = SelectionPlanner(server.hosted("lab").database)
        local = planner.select("employee", parse_expression(condition),
                               force=force)
        remote.objects.cache.purge()
        assert local
        assert remote.objects.select_pushdown(
            "employee", condition, force=force) == local
        assert all("years_service" in buffer.computed for buffer in local)

    def test_a_private_condition_needs_privilege_on_both_sides(
            self, served_indexed_lab):
        server, remote = served_indexed_lab
        planner = SelectionPlanner(server.hosted("lab").database,
                                   privileged=True)
        local = planner.select("employee", parse_expression("salary > 1.0"))
        assert local == remote.objects.select_pushdown(
            "employee", "salary > 1.0", privileged=True)
        with pytest.raises(AccessError):
            remote.objects.select_pushdown("employee", "salary > 1.0")
        with pytest.raises(AccessError):
            SelectionPlanner(server.hosted("lab").database).select(
                "employee", parse_expression("salary > 1.0"))

    @pytest.mark.parametrize("force", ["scan", "index"])
    def test_select_records_are_the_get_objects_records(
            self, served_indexed_lab, force):
        server, _remote = served_indexed_lab
        session = ServerSession(server, 1)
        try:
            selected = session.dispatch(P.OP_SELECT, {
                "db": "lab", "class": "employee", "condition": "id < 20",
                "force": force})
            assert selected["access"] == (
                "scan" if force == "scan" else "index-range")
            oids = [decode_fields(record, ())[0]
                    for record in selected["records"]]
            assert len(oids) == 20
            read = session.dispatch(P.OP_GET_OBJECTS,
                                    {"db": "lab", "oids": oids})
        finally:
            session.close()
        for key in ("records", "public", "computed", "missing"):
            assert selected[key] == read[key]


def _with_bad_name(record, new_id):
    """*record* with its ``id`` set to *new_id* and its ``name``
    payload made invalid UTF-8, same framing."""
    stored, class_name, values = decode_fields(record, None)
    values.update(id=new_id, name="\x01" * len(values["name"]))
    data = encode_object(Oid.parse(stored), class_name, values)
    marker = b"\x01" * len(values["name"])
    assert data.count(marker) == 1
    return data.replace(marker, b"\xff" * len(marker))


class TestRejectedCandidates:
    """A row the predicate rejects is checked as a scan checks it: its
    framing, not the payload of fields the predicate does not read.  A
    match is decoded whole, here or on the client, and fails as the
    local read fails."""

    @pytest.mark.parametrize("force", ["scan", "index"])
    def test_a_rejected_row_with_a_bad_skipped_payload_is_not_an_error(
            self, served_indexed_lab, force):
        server, remote = served_indexed_lab
        store = server.hosted("lab").database.store
        planner = SelectionPlanner(server.hosted("lab").database)
        oid = Oid("lab", "employee", 7)
        # The index still says id 7 (a raw mutation), so the probe
        # returns the row as a candidate; the recheck reads id 8.
        _raw_put(store, oid, _with_bad_name(store.get(oid), 8))
        expr = parse_expression("id == 7")
        plan = planner.plan("employee", expr, force=force)
        if force == "index":
            assert plan.candidates == [7]
        assert planner.select("employee", expr, force=force) == []
        assert remote.objects.select_pushdown(
            "employee", "id == 7", force=force) == []

    @pytest.mark.parametrize("force", ["scan", "index"])
    def test_a_match_with_a_bad_payload_fails_as_the_local_read(
            self, served_indexed_lab, force):
        server, remote = served_indexed_lab
        store = server.hosted("lab").database.store
        planner = SelectionPlanner(server.hosted("lab").database)
        oid = Oid("lab", "employee", 7)
        _raw_put(store, oid, _with_bad_name(store.get(oid), 7))
        with pytest.raises(CodecError, match="invalid UTF-8"):
            _local(server, "lab").get_buffer(oid)
        with pytest.raises(CodecError, match="invalid UTF-8"):
            planner.select("employee", parse_expression("id == 7"),
                           force=force)
        with pytest.raises(CodecError, match="invalid UTF-8"):
            remote.objects.select_pushdown("employee", "id == 7",
                                           force=force)
