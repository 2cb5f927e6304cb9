"""The paper's §5 selection over the wire.

``select_pushdown`` ships the condition; the server plans it against
its indexes and statistics and replies with the matches.  Those must be
the buffers the local :class:`SelectionPlanner` returns — public names
and computed values included — whichever access path the plan takes,
and ``explain`` must report the plan the server would run.  A selection
set — the object-set window the selection window opens — takes its
members from the same planned selection, locally and over the wire.
"""

import datetime
import time

import pytest

from repro.core.app import OdeView
from repro.core.queryplan import SelectionPlanner
from repro.core.selection import SelectionBuilder, select_objects
from repro.core.sync import ReactiveBrowse
from repro.data.labdb import make_lab_database
from repro.errors import AccessError, SelectionError
from repro.net import protocol as P
from repro.net.remote import RemoteDatabase
from repro.net.server import OdeServer
from repro.ode.oid import Oid
from repro.ode.opp.parser import parse_expression
from repro.ode.opp.predicate import PredicateEvaluator

#: (condition, force, the access path the plan must take)
CONDITIONS = [
    ("id == 7", None, "index-eq"),
    ("id >= 10 && id < 20", "index", "index-range"),
    ('id < 30 && name != "rakesh"', "index", "index-range"),   # residual
    ('name == "rakesh"', None, "scan"),                        # unindexed
    ("id > 40", "scan", "scan"),
    ("years_service > 8", None, "scan"),                       # computed
]


@pytest.fixture
def indexed_lab(tmp_path):
    """The lab with an index on ``employee.id``, served; yields
    ``(local database, remote database)``."""
    database = make_lab_database(tmp_path)
    database.create_index("employee", "id")
    database.close()
    server = OdeServer(tmp_path)
    server.start()
    remote = RemoteDatabase.connect("127.0.0.1", server.port, "lab")
    yield server.hosted("lab").database, remote
    remote.close()
    server.shutdown()


@pytest.mark.parametrize("condition, force, access", CONDITIONS)
def test_pushdown_returns_the_local_selection(indexed_lab, condition,
                                              force, access):
    database, remote = indexed_lab
    with database.objects.pinned():
        planner = SelectionPlanner(database)
        plan = planner.plan("employee", parse_expression(condition),
                            force=force)
        local = list(planner.execute(plan))
    shipped = remote.objects.select_pushdown("employee", condition,
                                             force=force)
    assert plan.access == access
    assert local, condition   # every condition matches someone
    assert shipped == local
    assert all(buffer.computed for buffer in shipped)
    assert remote.objects.last_explain == plan.explain()


@pytest.mark.parametrize("condition, force, access", CONDITIONS)
def test_explain_reports_the_servers_plan(indexed_lab, condition, force,
                                          access):
    database, remote = indexed_lab
    reply = remote.objects.explain("employee", condition, force=force)
    with database.objects.pinned():
        plan = SelectionPlanner(database).plan(
            "employee", parse_expression(condition), force=force)
    assert plan.access == access
    assert {key: reply[key] for key in (
        "explain", "access", "index_attribute", "estimated_rows",
        "estimated_cost", "scan_cost", "cardinality")} == {
        "explain": plan.explain(), "access": plan.access,
        "index_attribute": plan.index_attribute,
        "estimated_rows": plan.estimated_rows,
        "estimated_cost": plan.estimated_cost,
        "scan_cost": plan.scan_cost, "cardinality": plan.cardinality}
    assert remote.objects.last_explain == plan.explain()


def test_a_private_attribute_needs_privileged_mode(indexed_lab):
    database, remote = indexed_lab
    condition = "salary > 90000.0"
    with pytest.raises(AccessError):
        remote.objects.select_pushdown("employee", condition)
    local = SelectionPlanner(database, privileged=True).select(
        "employee", parse_expression(condition))
    shipped = remote.objects.select_pushdown("employee", condition,
                                             privileged=True)
    assert shipped == local and local
    # privileged reads the private attribute; it does not publish it
    assert all("salary" not in buffer.public_names for buffer in shipped)


def test_a_remote_builder_refuses_to_plan_locally(indexed_lab):
    """The client has no statistics or indexes to plan with: ``plan``
    names ``explain``, which asks the server, and ``execute`` still
    ships the selection."""
    database, remote = indexed_lab
    builder = SelectionBuilder(remote, "employee")
    builder.set_condition("id == 7")
    with pytest.raises(SelectionError, match=r"explain\(\)"):
        builder.plan()
    with database.objects.pinned():
        plan = SelectionPlanner(database).plan(
            "employee", parse_expression("id == 7"))
    assert builder.explain() == plan.explain()
    assert [buffer.value("id") for buffer in builder.execute()] == [7]


def test_an_index_created_and_dropped_over_the_wire(remote_lab):
    """A served database gets an index only through the wire: once
    created, ``id == 7`` plans as a probe; once dropped, as a scan."""
    indexes = remote_lab.objects.indexes
    assert remote_lab.objects.explain("employee", "id == 7")["access"] \
        == "scan"
    indexes.create_index("employee", "id")
    plan = remote_lab.objects.explain("employee", "id == 7")
    assert (plan["access"], plan["index_attribute"]) == ("index-eq", "id")
    assert [buffer.value("id") for buffer in
            remote_lab.objects.select_pushdown("employee", "id == 7")] == [7]
    indexes.drop_index("employee", "id")
    assert remote_lab.objects.explain("employee", "id == 7")["access"] \
        == "scan"


# -- a selection set: the object-set window over a selection's matches ---------

#: 3 of the lab's 55 employees: numbers 0, 13 and 15.
SELECTION = "years_service > 12 && id < 20"


def _selection_set(session, condition):
    builder = SelectionBuilder(session.database, "employee",
                               session.registry)
    builder.set_condition(condition)
    return session.open_object_set("employee", selection=builder)


@pytest.fixture
def sessions(indexed_lab, tmp_path):
    """``(local session, remote session)`` over :func:`indexed_lab`; the
    local one browses the served database object itself."""
    database, remote = indexed_lab
    local_app = OdeView(tmp_path, screen_width=200)
    remote_app = OdeView(tmp_path, screen_width=200)
    yield (local_app.attach_database(database),
           remote_app.attach_database(remote))


@pytest.mark.parametrize("condition", [c for c, _f, _a in CONDITIONS])
def test_a_selection_set_holds_the_scans_matches_in_cluster_order(
        indexed_lab, sessions, condition):
    database, _remote = indexed_lab
    compiled = PredicateEvaluator(database.objects).compile(
        parse_expression(condition))
    reference = [b.oid for b in database.objects.select("employee",
                                                        compiled)]
    assert reference, condition
    for session in sessions:
        browser = _selection_set(session, condition)
        assert browser.node.members() == reference


def test_opening_a_selection_set_is_one_select(sessions, count_calls):
    _local, session = sessions
    objects = session.database.objects
    calls = count_calls(session.database)
    browser = _selection_set(session, SELECTION)
    assert [n.number for n in browser.node.members()] == [0, 13, 15]
    opcodes = [opcode for opcode, _payload in calls]
    assert opcodes.count(P.OP_SELECT) == 1
    assert P.OP_SCAN_CLUSTER not in opcodes
    assert len(objects.cache) == 3


def test_count_and_select_objects_are_one_select_each(sessions,
                                                      count_calls):
    _local, session = sessions
    builder = SelectionBuilder(session.database, "employee")
    builder.set_condition(SELECTION)
    for run in (builder.count_matches,
                lambda: select_objects(session.database, "employee",
                                       SELECTION)):
        calls = count_calls(session.database)
        result = run()
        assert [opcode for opcode, _payload in calls] == [P.OP_SELECT]
        assert (result if isinstance(result, int) else len(result)) == 3


def test_a_watched_selection_set_rereads_by_one_select(indexed_lab,
                                                       sessions,
                                                       count_calls):
    _database, remote = indexed_lab
    _local, session = sessions
    node = _selection_set(session, SELECTION).node
    writer = RemoteDatabase.connect("127.0.0.1", remote.client.port, "lab")
    try:
        with ReactiveBrowse(node, remote) as browse:
            calls = count_calls(remote)
            # employee 7 (id 7) starts matching: 16 years of service
            writer.objects.update(Oid("lab", "employee", 7),
                                  {"hired": datetime.date(1974, 1, 1)})
            _wait_until(lambda: browse.pending() >= 1)
            browse.apply_pending()
        assert [n.number for n in node.members()] == [0, 7, 13, 15]
        opcodes = [opcode for opcode, _payload in calls]
        assert opcodes.count(P.OP_SELECT) == 1
        assert P.OP_SCAN_CLUSTER not in opcodes
    finally:
        writer.close()


@pytest.mark.parametrize("condition, matches", [
    ("id >= 50", 5),
    ('id < 30 && name != "rakesh"', 29),
])
def test_a_local_selection_set_decodes_at_most_its_matches(
        sessions, monkeypatch, condition, matches):
    import repro.ode.objectmanager as objectmanager

    session, _remote = sessions
    full = []
    decode = objectmanager.decode_fields

    def counting(data, names):
        if names is None:
            full.append(data)
        return decode(data, names)

    monkeypatch.setattr(objectmanager, "decode_fields", counting)
    node = _selection_set(session, condition).node
    assert node.member_count() == matches
    assert len(full) <= matches
    assert node.fetches == 0


def _wait_until(predicate, timeout: float = 10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.02)
