"""Tests for the statistics window."""

import pytest

from repro.core.statistics import StatisticsWindow, gather_statistics


@pytest.fixture
def session(app):
    return app.open_database("lab")


def test_gather_covers_clusters_and_pool(session):
    rows = dict(gather_statistics(session))
    assert rows["cluster employee"] == "55 objects"
    assert rows["cluster manager"] == "7 objects"
    assert rows["indexes"] == "(none)"
    assert "pool hits / misses" in rows
    assert "mvcc versions pruned / full sweeps" in rows


def test_gather_lists_indexes(session):
    session.database.objects.indexes.create_index("employee", "id")
    rows = dict(gather_statistics(session))
    assert rows["index employee.id"] == "55 entries"
    assert "indexes" not in rows


def test_window_renders(app, session):
    StatisticsWindow(session)
    rendering = app.render()
    assert "lab: statistics" in rendering
    assert "cluster employee" in rendering
    assert "[refresh]" in rendering


def test_refresh_updates_counts(app, session):
    stats_window = StatisticsWindow(session)
    session.database.objects.new_object("employee", {"id": 900})
    app.click(f"{stats_window.window_name}.refresh")
    body = app.screen.get(f"{stats_window.window_name}.body").content
    assert "56 objects" in body


def test_display_loader_stats_shown(app, session):
    browser = session.open_object_set("employee")
    browser.next()
    browser.toggle_format("text")
    stats_window = StatisticsWindow(session)
    body = app.screen.get(f"{stats_window.window_name}.body").content
    assert "display modules loaded" in body


def test_destroy(app, session):
    stats_window = StatisticsWindow(session)
    stats_window.destroy()
    assert not app.screen.has(stats_window.window_name)


def test_cardinality_counts_a_clusters_first_commit_once(tmp_path):
    """A plan's cardinality is the cluster's membership: every insert of
    the commit that filled the cluster counts once, none twice, and a
    delete takes one away."""
    from repro.core.queryplan import SelectionPlanner
    from repro.data.synthetic import make_synthetic_database
    from repro.ode.oid import Oid
    from repro.ode.opp.parser import parse_expression

    database = make_synthetic_database(tmp_path, readings=30, sensors=3)
    try:
        planner = SelectionPlanner(database)

        def cardinality(class_name, source):
            return planner.plan(class_name,
                                parse_expression(source)).cardinality

        assert cardinality("reading", "value > 0") == 30
        assert cardinality("sensor", "zone > 0") == 3
        database.objects.delete(Oid("synthetic", "reading", 7))
        assert cardinality("reading", "value > 0") == 29
    finally:
        database.close()
