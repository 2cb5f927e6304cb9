"""The paper's §5 selection over the wire.

``select_pushdown`` ships the condition; the server plans it against
its indexes and statistics and replies with the matches.  Those must be
the buffers the local :class:`SelectionPlanner` returns — public names
and computed values included — whichever access path the plan takes,
and ``explain`` must report the plan the server would run.
"""

import pytest

from repro.core.queryplan import SelectionPlanner
from repro.core.selection import SelectionBuilder
from repro.data.labdb import make_lab_database
from repro.errors import AccessError, SelectionError
from repro.net.remote import RemoteDatabase
from repro.net.server import OdeServer
from repro.ode.opp.parser import parse_expression

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
