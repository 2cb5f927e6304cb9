"""Tests for the OdeView application (database window, sessions)."""

import pytest

from repro.errors import OdeViewError
from repro.core.app import OdeView
from repro.data.documents import make_documents_database
from repro.data.universitydb import make_university_database


class TestDatabaseWindow:
    def test_lists_databases_with_icons(self, app):
        rendering = app.render()
        assert "Ode databases" in rendering
        assert "[ATT] lab" in rendering

    def test_empty_root(self, tmp_path):
        app = OdeView(tmp_path)
        assert "(no Ode databases found)" in app.render()
        app.shutdown()

    def test_multiple_databases_listed(self, lab_root):
        make_documents_database(lab_root).close()
        make_university_database(lab_root).close()
        app = OdeView(lab_root)
        rendering = app.render()
        assert "[ATT] lab" in rendering
        assert "[DOC] papers" in rendering
        assert "[UNI] university" in rendering
        app.shutdown()

    def test_refresh_after_new_database(self, app, lab_root):
        make_documents_database(lab_root).close()
        app.refresh_database_window()
        assert app.screen.has("databases.icon.papers")


class TestSessions:
    def test_click_icon_opens_database(self, app):
        app.click("databases.icon.lab")
        assert "lab" in app.sessions
        assert app.screen.has("lab.schema")

    def test_open_twice_returns_same_session(self, app):
        first = app.open_database("lab")
        second = app.open_database("lab")
        assert first is second

    def test_open_unknown_rejected(self, app):
        with pytest.raises(OdeViewError):
            app.open_database("ghost")

    def test_session_lookup(self, app):
        session = app.open_database("lab")
        assert app.session("lab") is session
        with pytest.raises(OdeViewError):
            app.session("ghost")

    def test_close_database_removes_windows_and_processes(self, app):
        session = app.open_database("lab")
        session.open_object_set("employee")
        app.close_database("lab")
        assert "lab" not in app.sessions
        assert not app.screen.has("lab.schema")
        assert not app.processes.has("dbi.lab")

    def test_close_unopened_rejected(self, app):
        with pytest.raises(OdeViewError):
            app.close_database("lab")

    def test_simultaneous_databases(self, lab_root):
        """Paper §3.4: several databases and schemas at once."""
        make_documents_database(lab_root).close()
        app = OdeView(lab_root, screen_width=200)
        app.open_database("lab")
        app.open_database("papers")
        rendering = app.render()
        assert "lab: class relationships" in rendering
        assert "papers: class relationships" in rendering
        lab_browser = app.session("lab").open_object_set("employee")
        papers_browser = app.session("papers").open_object_set("document")
        lab_browser.next()
        papers_browser.next()
        assert lab_browser.node.current.database == "lab"
        assert papers_browser.node.current.database == "papers"
        app.shutdown()

    def test_shutdown_closes_everything(self, app):
        app.open_database("lab")
        app.shutdown()
        assert app.sessions == {}
