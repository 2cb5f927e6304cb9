"""Tests for the lab (ATT) database against the paper's stated facts."""

import pytest

from repro.data.labdb import (
    LAB_DEPARTMENT_COUNT,
    LAB_EMPLOYEE_COUNT,
    LAB_MANAGER_COUNT,
    SALARY_CAP,
    open_lab_database,
)
from repro.errors import ConstraintViolationError


class TestPaperFacts:
    def test_figure3_employee_counts(self, lab_db):
        """55 objects in the employee cluster; one subclass; no superclass."""
        assert lab_db.objects.count("employee") == LAB_EMPLOYEE_COUNT == 55
        assert lab_db.schema.superclasses("employee") == []
        assert lab_db.schema.subclasses("employee") == ["manager"]

    def test_figure5_manager_counts(self, lab_db):
        """7 managers; manager inherits employee AND department."""
        assert lab_db.objects.count("manager") == LAB_MANAGER_COUNT == 7
        assert lab_db.schema.superclasses("manager") == \
            ["employee", "department"]
        assert lab_db.schema.subclasses("manager") == []

    def test_employee_display_formats(self, lab_db):
        """Figure 6: employee displays textually and pictorially."""
        from repro.dynlink.registry import DisplayRegistry

        registry = DisplayRegistry(lab_db)
        assert registry.formats("employee") == ("text", "picture")

    def test_icon_is_att(self, lab_db):
        assert lab_db.icon == "[ATT]"

    def test_first_employee_is_rakesh(self, lab_db):
        first = lab_db.objects.cluster("employee").first()
        assert lab_db.objects.get_buffer(first).value("name") == "rakesh"


class TestReferentialStructure:
    def test_every_employee_has_a_department(self, lab_db):
        for buffer in lab_db.objects.select("employee"):
            dept = buffer.value("dept")
            assert dept is not None
            assert dept.cluster == "department"

    def test_department_membership_consistent(self, lab_db):
        for dept in lab_db.objects.select("department"):
            for member in dept.value("employees"):
                employee = lab_db.objects.get_buffer(member)
                assert employee.value("dept") == dept.oid

    def test_every_department_has_a_manager(self, lab_db):
        for dept in lab_db.objects.select("department"):
            assert dept.value("mgr").cluster == "manager"

    def test_department_count(self, lab_db):
        assert lab_db.objects.count("department") == LAB_DEPARTMENT_COUNT


class TestBehaviours:
    def test_years_service_computed(self, lab_db):
        first = lab_db.objects.cluster("employee").first()
        buffer = lab_db.objects.get_buffer(first)
        assert buffer.value("years_service") == 15  # hired 1975-01-01

    def test_id_constraint(self, lab_db):
        with pytest.raises(ConstraintViolationError):
            lab_db.objects.new_object("employee", {"id": -1})

    def test_salary_trigger_caps(self, lab_db):
        oid = lab_db.objects.new_object("employee", {"id": 77})
        lab_db.objects.update(oid, {"salary": 1_000_000.0})
        buffer = lab_db.objects.get_buffer(oid)
        assert buffer.value("salary", privileged=True) == SALARY_CAP

    def test_behaviours_rebind_on_reopen(self, lab_root):
        with open_lab_database(lab_root / "lab.odb") as database:
            first = database.objects.cluster("employee").first()
            buffer = database.objects.get_buffer(first)
            assert buffer.value("years_service") == 15
            with pytest.raises(ConstraintViolationError):
                database.objects.new_object("employee", {"id": -1})


class TestBuild:
    def test_built_in_one_commit(self, tmp_path):
        """All 69 objects and the 7 back-patches land as one transaction:
        one epoch, one fsync."""
        from repro.data.labdb import make_lab_database
        from repro.obs import get_registry

        syncs = get_registry().counter("wal.group.syncs")
        before = syncs.value
        database = make_lab_database(tmp_path)
        try:
            assert database.objects.store.epoch == 1
            assert syncs.value - before == 1
            departments = database.objects.select("department")
            assert all(buffer.value("mgr") for buffer in departments)
        finally:
            database.close()


class TestDeterminism:
    def test_two_builds_identical(self, tmp_path):
        from repro.data.labdb import make_lab_database

        a = make_lab_database(tmp_path / "a")
        b = make_lab_database(tmp_path / "b")
        names_a = [buf.value("name") for buf in a.objects.select("employee")]
        names_b = [buf.value("name") for buf in b.objects.select("employee")]
        assert names_a == names_b
        a.close()
        b.close()
