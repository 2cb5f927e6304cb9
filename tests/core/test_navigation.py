"""Tests for the navigation tree (lazy reference children)."""

import pytest

from repro.errors import OdeViewError
from repro.core.navigation import (
    RefNode,
    SetNode,
    reference_attributes,
    reference_kind,
)
from repro.core.selection import SelectionBuilder


@pytest.fixture
def root(lab_db):
    return SetNode(lab_db.objects, "employee", "lab.employee.set0")


class TestReferenceIntrospection:
    def test_reference_kind(self, lab_db):
        assert reference_kind(lab_db.objects, "employee", "dept") == "ref"
        assert reference_kind(lab_db.objects, "department",
                              "employees") == "set"
        assert reference_kind(lab_db.objects, "employee", "name") == "none"

    def test_reference_attributes_public_refs_only(self, lab_db):
        assert reference_attributes(lab_db.objects, "employee") == ["dept"]
        assert reference_attributes(lab_db.objects, "department") == \
            ["employees", "mgr"]


class TestRootSetNode:
    def test_members_are_whole_cluster(self, root):
        assert root.member_count() == 55

    def test_sequencing(self, root):
        assert root.current is None
        assert root.next().number == 0
        assert root.next().number == 1
        assert root.previous().number == 0
        assert root.previous() is None

    def test_next_past_end(self, lab_db):
        node = SetNode(lab_db.objects, "manager", "m")
        for _ in range(7):
            assert node.next() is not None
        assert node.next() is None
        assert node.current.number == 6

    def test_reset(self, root):
        root.next()
        root.reset()
        assert root.current is None

    def test_seek(self, root):
        target = root.members()[10]
        root.seek(target)
        assert root.current == target
        assert root.next().number == target.number + 1

    def test_seek_non_member_rejected(self, root, lab_db):
        stranger = lab_db.objects.cluster("manager").first()
        with pytest.raises(OdeViewError):
            root.seek(stranger)

    def test_buffer(self, root):
        assert root.buffer() is None
        root.next()
        assert root.buffer().value("name") == "rakesh"

    def test_predicate_filters_members(self, lab_db):
        """A selection set's members come from its source: here, one
        planned selection of ``id < 3``."""
        builder = SelectionBuilder(lab_db, "employee")
        builder.set_condition("id < 3")
        node = SetNode(lab_db.objects, "employee", "f",
                       source=lambda: [b.oid for b in builder.execute()])
        assert node.member_count() == 3
        assert node.members() == lab_db.objects.cluster("employee").oids()[:3]
        assert node.fetches == 0


class TestLazyChildren:
    def test_child_created_on_demand(self, root):
        root.next()
        assert not root.has_child("dept")
        child = root.child("dept")
        assert isinstance(child, RefNode)
        assert root.has_child("dept")
        assert root.child("dept") is child  # memoised

    def test_ref_child_follows_reference(self, root):
        root.next()
        dept = root.child("dept")
        assert dept.class_name == "department"
        assert dept.current.cluster == "department"

    def test_set_child_members_from_attribute(self, root):
        root.next()
        colleagues = root.child("dept").child("employees")
        assert isinstance(colleagues, SetNode)
        parent_dept = root.buffer().value("dept")
        expected = root.manager.get_buffer(parent_dept).value("employees")
        assert colleagues.members() == expected

    def test_non_reference_attribute_rejected(self, root):
        root.next()
        with pytest.raises(OdeViewError):
            root.child("name")

    def test_paths_are_dotted(self, root):
        root.next()
        mgr = root.child("dept").child("mgr")
        assert mgr.path == "lab.employee.set0.dept.mgr"

    def test_walk_covers_tree(self, root):
        root.next()
        root.child("dept").child("mgr")
        paths = [node.path for node in root.walk()]
        assert paths == ["lab.employee.set0", "lab.employee.set0.dept",
                         "lab.employee.set0.dept.mgr"]

    def test_null_reference_child_has_no_current(self, lab_db):
        oid = lab_db.objects.new_object("employee", {"name": "lost",
                                                     "id": 99})
        node = SetNode(lab_db.objects, "employee", "n")
        node.seek(oid)
        child = node.child("dept")
        assert child.current is None
        assert child.buffer() is None

    def test_fetch_counting_for_lazy_ablation(self, root):
        root.next()
        fetches_before = root.fetches
        root.child("dept")  # one parent fetch to read the attribute
        assert root.fetches == fetches_before + 1
