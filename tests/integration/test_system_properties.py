"""Integration tests for the paper's system-level claims."""

import os

import pytest

from repro.core.app import OdeView
from repro.core.session import UserSession
from repro.data.documents import make_documents_database
from repro.data.labdb import make_lab_database, open_lab_database
from repro.data.universitydb import make_university_database
from repro.ode.classdef import Attribute, OdeClass
from repro.ode.types import IntType, StringType
from repro.windowing.nullbackend import NullBackend


class TestMultiDatabase:
    def test_three_databases_browsed_simultaneously(self, tmp_path):
        make_lab_database(tmp_path).close()
        make_documents_database(tmp_path).close()
        make_university_database(tmp_path).close()
        app = OdeView(tmp_path, screen_width=250)
        for name in ("lab", "papers", "university"):
            app.open_database(name)
        lab = app.session("lab").open_object_set("employee")
        papers = app.session("papers").open_object_set("document")
        uni = app.session("university").open_object_set("course")
        for browser in (lab, papers, uni):
            browser.next()
            browser.toggle_format(browser.formats[0])
        rendering = app.render()
        assert "rakesh" in rendering
        assert "Ode: The Language and the Data Model" in rendering
        assert "cs101" in rendering
        # one db-interactor each, one object-interactor per browsed class
        names = [p.name for p in app.processes.alive_processes()]
        assert {"dbi.lab", "dbi.papers", "dbi.university"} <= set(names)
        assert len([n for n in names if n.startswith("oi.")]) == 3
        app.shutdown()


class TestSchemaEvolutionWithoutRecompilation:
    def test_new_class_browsable_in_running_odeview(self, lab_root):
        """Paper §4.5: schema changes never require recompiling OdeView."""
        app = OdeView(lab_root, screen_width=200)
        session = app.open_database("lab")
        # a class added while OdeView is running...
        session.database.define_class(OdeClass("project", attributes=(
            Attribute("title", StringType(30)),
            Attribute("budget", IntType()),
        )))
        session.database.objects.new_object(
            "project", {"title": "odeview", "budget": 100})
        session.schema.rebuild()
        assert app.screen.has("lab.schema.node.project")
        # ... is immediately browsable, display synthesized
        browser = session.open_object_set("project")
        browser.next()
        browser.toggle_format("text")
        rendering = app.render()
        assert "odeview" in rendering and "budget : 100" in rendering
        app.shutdown()

    def test_display_module_added_at_runtime(self, lab_root):
        app = OdeView(lab_root, screen_width=200)
        session = app.open_database("lab")
        browser = session.open_object_set("manager")
        browser.next()
        browser.toggle_format("text")  # synthesized display
        # the class designer now supplies a real display module
        (session.database.display_dir / "manager.py").write_text(
            "from repro.dynlink.protocol import DisplayResources, "
            "text_window\n"
            "FORMATS = ('text',)\n"
            "def display(buffer, request):\n"
            "    return DisplayResources('text', (text_window(\n"
            "        request.window_name('text'),\n"
            "        'MGR ' + buffer.value('name')),))\n")
        path = session.database.display_dir / "manager.py"
        stat = path.stat()
        os.utime(path, (stat.st_atime, stat.st_mtime + 10))
        browser.next()  # triggers a refresh -> dynamic reload
        assert "MGR kernighan" in app.render()
        app.shutdown()


class TestCrashIsolationEndToEnd:
    def test_buggy_display_function_keeps_odeview_alive(self, lab_root):
        app = OdeView(lab_root, screen_width=200)
        session = app.open_database("lab")
        (session.database.display_dir / "employee.py").write_text(
            "FORMATS = ('text',)\n"
            "def display(buffer, request):\n"
            "    raise MemoryError('designer bug')\n")
        employee_browser = session.open_object_set("employee")
        employee_browser.next()
        employee_browser.toggle_format("text")
        assert employee_browser.crashed
        # everything else still works: schema browsing...
        session.schema.open_class_info("department")
        assert "objects in cluster : 7" in app.render()
        # ... and browsing other classes
        dept_browser = session.open_object_set("department")
        dept_browser.next()
        dept_browser.toggle_format("text")
        assert "db research" in app.render()
        assert not dept_browser.crashed
        app.shutdown()


class TestBackendIndependence:
    def test_same_session_under_null_backend(self, lab_root):
        """Display functions run unchanged under a different 'windowing
        system' — the paper's separation claim (§1, §4.2)."""
        with UserSession(lab_root, backend=NullBackend(),
                         screen_width=200) as s:
            s.click_database_icon("lab")
            browser = s.app.session("lab").open_object_set("employee")
            s.click_control(browser, "next")
            s.click_format_button(browser, "text")
            s.click_format_button(browser, "picture")
            rendering = s.snapshot("structural")
        assert "kind=raster_image" in rendering
        assert "kind=static_text" in rendering
        assert "state=open" in rendering


class TestPersistenceRoundtrip:
    def test_browse_after_reopen(self, tmp_path):
        database = make_lab_database(tmp_path)
        first = database.objects.cluster("employee").first()
        database.objects.update(first, {"name": "rakesh-ibm"})
        database.close()
        app = OdeView(tmp_path, screen_width=200)
        browser = app.open_database("lab").open_object_set("employee")
        browser.next()
        browser.toggle_format("text")
        assert "rakesh-ibm" in app.render()
        app.shutdown()

    def test_wal_recovery_preserves_browsable_state(self, tmp_path):
        database = make_lab_database(tmp_path)
        oid = database.objects.new_object("employee",
                                          {"name": "latecomer", "id": 200})
        # crash without page write-back: append commit by hand
        store = database.store
        store.begin()
        store.put(oid, store.get(oid))
        from repro.ode.wal import OP_COMMIT, WalRecord

        store._wal.append(WalRecord(op=OP_COMMIT, txid=store._txid), sync=True)
        store._wal.close()
        store._placement.pagefile.close()
        database._release_lock()  # the "crashed" process is gone

        reopened = open_lab_database(tmp_path / "lab.odb")
        assert reopened.objects.get_buffer(oid).value("name") == "latecomer"
        reopened.close()
