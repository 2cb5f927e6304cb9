"""Local and remote databases drive OdeView identically.

The acceptance test for the drop-in claim: the same browsing scenario —
object sets, sequencing, display formats, synchronized browsing through
references, selection — runs against a directory-opened
:class:`~repro.ode.database.Database` and a server-backed
:class:`~repro.net.remote.RemoteDatabase`, and the text backend renders
the same screens.
"""

from __future__ import annotations

import pytest

from repro.core.app import OdeView
from repro.data.labdb import make_lab_database
from repro.net import protocol as P
from repro.net.remote import RemoteDatabase
from repro.net.server import OdeServer
from repro.ode.oid import Oid


@pytest.fixture(params=["local", "remote"])
def lab_session(request, tmp_path):
    """(app, session) over the same lab data, opened locally or remotely.

    Both parametrizations build OdeView over the same root directory, so
    the database window renders identically; only how the ``lab``
    session's database is opened differs.
    """
    make_lab_database(tmp_path).close()
    if request.param == "local":
        app = OdeView(tmp_path, screen_width=200)
        session = app.open_database("lab")
        yield app, session
        app.shutdown()
    else:
        server = OdeServer(tmp_path)
        server.start()
        app = OdeView(tmp_path, screen_width=200)
        session = app.attach_database(
            RemoteDatabase.connect("127.0.0.1", server.port, "lab"))
        yield app, session
        app.shutdown()
        server.shutdown()


def _render_scenario(app, session) -> str:
    """Browse, sequence, display, follow a reference, and select."""
    screens = []
    browser = session.open_object_set("employee")
    browser.next()
    browser.next()
    browser.toggle_format("text")
    screens.append(app.render())
    # synchronized browsing: follow the dept reference; the child browser
    # tracks the parent's sequencing
    child = browser.open_reference("dept")
    child_first = child.node.current
    browser.next()
    screens.append(f"child tracked: {child.node.current != child_first}")
    screens.append(app.render())
    # version window text (empty histories render identically too)
    screens.append(browser.version_history_text())
    return "\n=====\n".join(screens)


# Rendered scenario output, captured per parametrization and compared in
# test_renderings_identical below.
_captured = {}


def test_scenario_renders(lab_session, request):
    app, session = lab_session
    text = _render_scenario(app, session)
    assert "employee" in text
    _captured[request.node.callspec.params["lab_session"]] = text


def test_renderings_identical(tmp_path):
    """Run both variants back-to-back and compare the full transcripts."""
    make_lab_database(tmp_path).close()

    app = OdeView(tmp_path, screen_width=200)
    session = app.open_database("lab")
    local_text = _render_scenario(app, session)
    app.shutdown()

    server = OdeServer(tmp_path)
    server.start()
    try:
        app = OdeView(tmp_path, screen_width=200)
        session = app.attach_database(
            RemoteDatabase.connect("127.0.0.1", server.port, "lab"))
        remote_text = _render_scenario(app, session)
        app.shutdown()
    finally:
        server.shutdown()

    assert local_text == remote_text


def test_selection_identical(tmp_path):
    """The selection builder (condition box) agrees local vs remote."""
    from repro.core.selection import SelectionBuilder

    make_lab_database(tmp_path).close()

    def selected_names(session):
        builder = SelectionBuilder(session.database, "employee",
                                   session.registry)
        builder.set_condition("id < 7")
        browser = session.open_object_set("employee", selection=builder)
        return [
            session.database.objects.get_buffer(oid).value("name")
            for oid in browser.node.members()
        ]

    app = OdeView(tmp_path, screen_width=200)
    local_names = selected_names(app.open_database("lab"))
    app.shutdown()

    server = OdeServer(tmp_path)
    server.start()
    try:
        app = OdeView(tmp_path, screen_width=200)
        remote_names = selected_names(app.attach_database(
            RemoteDatabase.connect("127.0.0.1", server.port, "lab")))
        app.shutdown()
    finally:
        server.shutdown()

    assert local_names == remote_names
    assert len(local_names) == 7


def test_statistics_window_renders_remotely(tmp_path):
    """The statistics window works over the wire (net.* rows included)."""
    from repro.core.statistics import StatisticsWindow, gather_statistics

    make_lab_database(tmp_path).close()
    server = OdeServer(tmp_path)
    server.start()
    try:
        app = OdeView(tmp_path, screen_width=200)
        session = app.attach_database(
            RemoteDatabase.connect("127.0.0.1", server.port, "lab"))
        session.open_object_set("employee").next()
        rows = dict(gather_statistics(session))
        assert rows["cluster employee"] == "55 objects"
        assert "object cache" in rows
        assert "net.client.bytes_out" in rows
        window = StatisticsWindow(session)
        assert "cluster employee" in app.render()
        window.refresh()
        app.shutdown()
    finally:
        server.shutdown()


def test_local_and_remote_windows_show_the_same_database_rows(tmp_path):
    """One renderer for both: over one lab database, a local statistics
    window and one served in-process show the same database rows, label
    by label.  Values agree too, but for the pool and MVCC counters,
    which move with each process's own reads."""
    from repro.core.statistics import gather_statistics

    database = make_lab_database(tmp_path)
    database.create_index("employee", "id")
    database.close()
    app = OdeView(tmp_path, screen_width=200)
    local = gather_statistics(app.open_database("lab"))
    app.shutdown()

    server = OdeServer(tmp_path)
    server.start()
    try:
        app = OdeView(tmp_path, screen_width=200)
        remote = gather_statistics(app.attach_database(
            RemoteDatabase.connect("127.0.0.1", server.port, "lab")))
        app.shutdown()
    finally:
        server.shutdown()

    database_rows = local[:-2]   # the display-loader rows close the list
    served = remote[:len(database_rows)]
    assert [label for label, _ in served] == \
        [label for label, _ in database_rows]
    moving = ("pool ", "mvcc ", "snapshot age")
    assert [row for row in served if not row[0].startswith(moving)] == \
        [row for row in database_rows if not row[0].startswith(moving)]
    assert ("index employee.id", "55 entries") in served
    assert ("stats employee.id", "55 rows, 55 distinct") in served


def _open_figure9_chain(session):
    """The paper's Fig 9 chain: the employee set, then ``dept``, then
    ``mgr``; returns the set's browser."""
    browser = session.open_object_set("employee")
    browser.next()
    browser.open_reference("dept").open_reference("mgr")
    return browser


class TestOpenBrowsersHoldNothingOnTheServer:
    """An object-interactor runs display code only; sequencing lives in
    the window tree's set node, so a browser opens no server cursor and
    holds no server snapshot."""

    def test_no_browser_opens_a_server_cursor(self, served_lab, tmp_path,
                                              count_calls):
        import os

        app = OdeView(tmp_path, screen_width=200)
        remote = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
        calls = count_calls(remote)
        try:
            session = app.attach_database(remote)
            browser = _open_figure9_chain(session)
            path = remote.display_dir / "employee.py"
            good_source = path.read_text()
            path.write_text(
                "FORMATS = ('text',)\n"
                "def display(buffer, request):\n"
                "    raise RuntimeError('bug')\n")
            browser.toggle_format("text")
            assert browser.crashed
            path.write_text(good_source)
            stat = path.stat()
            os.utime(path, (stat.st_atime, stat.st_mtime + 10))
            browser.restart()
            assert not browser.crashed
        finally:
            app.shutdown()
        opcodes = [opcode for opcode, _payload in calls]
        assert P.OP_GET_OBJECT in opcodes or P.OP_GET_OBJECTS in opcodes
        assert P.OP_CURSOR_OPEN not in opcodes

    def test_the_served_store_keeps_no_old_version(self, served_lab,
                                                   tmp_path):
        store = served_lab.hosted("lab").database.store
        app = OdeView(tmp_path, screen_width=200)
        writer = RemoteDatabase.connect("127.0.0.1", served_lab.port, "lab")
        try:
            session = app.attach_database(RemoteDatabase.connect(
                "127.0.0.1", served_lab.port, "lab"))
            browser = _open_figure9_chain(session)
            oid = Oid.parse("lab:employee:7")
            for number in range(200):
                writer.objects.update(oid, {"name": f"e7.{number}"})
            assert store.epoch >= 200
            assert store.watermark == store.epoch
            browser.destroy()
            assert store.watermark == store.epoch
        finally:
            app.shutdown()
            writer.close()
