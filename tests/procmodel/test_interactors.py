"""Tests for db-interactors and object-interactors."""

import pytest

from repro.errors import ProcessCrashedError
from repro.dynlink.protocol import DisplayRequest
from repro.procmodel.interactors import DbInteractor, ObjectInteractor
from repro.procmodel.manager import ProcessManager


@pytest.fixture
def manager(lab_db):
    pm = ProcessManager()
    pm.spawn(DbInteractor("dbi", lab_db))
    pm.spawn(ObjectInteractor("oi", lab_db, "employee"))
    return pm


class TestDbInteractor:
    def test_schema_graph(self, manager):
        graph = manager.call("dbi", "schema_graph")
        assert "employee" in graph["nodes"]
        assert ("employee", "manager") in graph["edges"]

    def test_class_info_matches_figure3(self, manager):
        info = manager.call("dbi", "class_info", class_name="employee")
        assert info["superclasses"] == []
        assert info["subclasses"] == ["manager"]
        assert info["count"] == 55

    def test_class_info_matches_figure5(self, manager):
        info = manager.call("dbi", "class_info", class_name="manager")
        assert info["superclasses"] == ["employee", "department"]
        assert info["subclasses"] == []
        assert info["count"] == 7

    def test_class_definition(self, manager):
        source = manager.call("dbi", "class_definition",
                              class_name="employee")
        assert source.startswith("persistent class employee {")

    def test_unknown_request_crashes_interactor_only(self, manager):
        with pytest.raises(ProcessCrashedError):
            manager.call("dbi", "make_coffee")
        assert manager.get("oi").alive


class TestObjectInteractor:
    def test_display_runs_class_designer_code(self, manager):
        oid = "lab:employee:0"
        resources = manager.call(
            "oi", "display", oid=oid,
            request=DisplayRequest(window_prefix="t"))
        assert "rakesh" in resources.windows[0].content

    def test_display_crash_is_isolated(self, manager, lab_db):
        manager.spawn(ObjectInteractor("oi.department", lab_db, "department"))
        (lab_db.display_dir / "employee.py").write_text(
            "def display(buffer, request):\n    raise RuntimeError('bug')\n"
            "FORMATS = ('text',)\n")
        oid = "lab:employee:0"
        with pytest.raises(ProcessCrashedError):
            manager.call("oi", "display", oid=oid,
                         request=DisplayRequest(window_prefix="t"))
        # the db-interactor (and hence schema browsing) is unaffected
        assert manager.get("dbi").alive
        info = manager.call("dbi", "class_info", class_name="employee")
        assert info["count"] == 55
        # ...and so is every other object-interactor (§4.6)
        assert [p.name for p in manager.crashed_processes()] == ["oi"]
        dept = "lab:department:0"
        resources = manager.call("oi.department", "display", oid=dept,
                                 request=DisplayRequest(window_prefix="d"))
        assert "db research" in resources.windows[0].content
