"""Tests for the object manager: the gateway OdeView talks to."""

import datetime

import pytest

from repro.data.labdb import SALARY_CAP
from repro.errors import (
    AccessError,
    ConstraintViolationError,
    ObjectNotFoundError,
    SchemaError,
    TypeError_,
)
from repro.ode.classdef import Access, Attribute, MemberFunction, OdeClass
from repro.ode.constraints import BehaviourRegistry, Constraint, Trigger
from repro.ode.objectmanager import ObjectManager
from repro.ode.oid import Oid
from repro.ode.schema import Schema
from repro.ode.store import ObjectStore
from repro.ode.types import IntType, RefType, SetType, StringType


@pytest.fixture
def manager(tmp_path):
    schema = Schema()
    schema.add_class(OdeClass("employee", attributes=(
        Attribute("name", StringType(20)),
        Attribute("id", IntType()),
        Attribute("dept", RefType("department")),
        Attribute("salary", IntType(), Access.PRIVATE),
    ), methods=(
        MemberFunction("double_id", fn=lambda values: values["id"] * 2,
                       side_effects=False),
        MemberFunction("fire_everyone", fn=lambda values: None,
                       side_effects=True),
    )))
    schema.add_class(OdeClass("department", attributes=(
        Attribute("dname", StringType(20)),
        Attribute("employees", SetType(RefType("employee"))),
    )))
    store = ObjectStore(tmp_path / "db")
    yield ObjectManager(store, schema, "db")
    store.close()


class TestCreate:
    def test_new_object_returns_oid_in_cluster(self, manager):
        oid = manager.new_object("employee", {"name": "rakesh", "id": 1})
        assert oid.cluster == "employee"
        assert manager.exists(oid)

    def test_defaults_filled(self, manager):
        oid = manager.new_object("employee")
        buffer = manager.get_buffer(oid)
        assert buffer.value("name") == ""
        assert buffer.value("id") == 0
        assert buffer.value("dept") is None

    def test_unknown_attribute_rejected(self, manager):
        with pytest.raises(SchemaError):
            manager.new_object("employee", {"ghost": 1})

    def test_type_checked(self, manager):
        with pytest.raises(TypeError_):
            manager.new_object("employee", {"id": "not an int"})

    def test_unknown_class_rejected(self, manager):
        with pytest.raises(SchemaError):
            manager.new_object("ghost")

    def test_reference_target_class_checked(self, manager):
        wrong = manager.new_object("employee")
        with pytest.raises(TypeError_):
            manager.new_object("employee", {"dept": wrong})

    def test_explicit_oid_cluster_must_match(self, manager):
        with pytest.raises(SchemaError):
            manager.new_object("employee", oid=Oid("db", "department", 0))

    def test_non_persistent_class_rejected(self, manager):
        manager.schema.add_class(OdeClass("scratch", persistent=False))
        with pytest.raises(SchemaError):
            manager.new_object("scratch")


class TestBuffer:
    def test_public_view_hides_private(self, manager):
        oid = manager.new_object("employee", {"name": "x", "salary": 9})
        view = manager.get_buffer(oid).public_view()
        assert "salary" not in view
        assert view["name"] == "x"

    def test_private_access_requires_privilege(self, manager):
        oid = manager.new_object("employee", {"salary": 9})
        buffer = manager.get_buffer(oid)
        with pytest.raises(AccessError):
            buffer.value("salary")
        assert buffer.value("salary", privileged=True) == 9

    def test_computed_attribute_evaluated(self, manager):
        oid = manager.new_object("employee", {"id": 21})
        buffer = manager.get_buffer(oid)
        assert buffer.value("double_id") == 42
        assert buffer.public_view()["double_id"] == 42

    def test_side_effecting_method_not_evaluated(self, manager):
        oid = manager.new_object("employee")
        buffer = manager.get_buffer(oid)
        assert "fire_everyone" not in buffer.computed

    def test_unknown_attribute_rejected(self, manager):
        oid = manager.new_object("employee")
        with pytest.raises(ObjectNotFoundError):
            manager.get_buffer(oid).value("ghost")

    def test_attribute_names(self, manager):
        oid = manager.new_object("employee")
        buffer = manager.get_buffer(oid)
        public = buffer.attribute_names()
        assert "salary" not in public
        assert "double_id" in public
        assert "salary" in buffer.attribute_names(privileged=True)


class TestUpdateDelete:
    def test_update(self, manager):
        oid = manager.new_object("employee", {"name": "old"})
        buffer = manager.update(oid, {"name": "new"})
        assert buffer.value("name") == "new"

    def test_update_type_checked(self, manager):
        oid = manager.new_object("employee")
        with pytest.raises(TypeError_):
            manager.update(oid, {"id": "oops"})

    def test_update_unknown_attribute_rejected(self, manager):
        oid = manager.new_object("employee")
        with pytest.raises(SchemaError):
            manager.update(oid, {"ghost": 1})

    def test_delete(self, manager):
        oid = manager.new_object("employee")
        manager.delete(oid)
        assert not manager.exists(oid)
        with pytest.raises(ObjectNotFoundError):
            manager.delete(oid)


class TestUpdateReturnsWhatItWrote:
    """``update`` returns the record it wrote — after the salary_cap
    trigger, with the computed years_service — wherever it is called."""

    @pytest.mark.parametrize("context", ["plain", "pinned", "transaction"])
    def test_returned_buffer_equals_a_fresh_read(self, lab_db, context):
        objects = lab_db.objects
        oid = Oid("lab", "employee", 7)
        objects.update(oid, {"name": "outside"})
        updates = {"name": "inside", "salary": SALARY_CAP * 2,
                   "hired": datetime.date(1980, 6, 1)}
        if context == "pinned":
            with objects.pinned():
                returned = objects.update(oid, updates)
        elif context == "transaction":
            objects.begin()
            returned = objects.update(oid, updates)
            assert returned == objects.get_buffer(oid)
            objects.commit()
        else:
            returned = objects.update(oid, updates)
        assert returned == objects.get_buffer(oid)
        assert returned.value("name") == "inside"
        assert returned.value("salary", privileged=True) == SALARY_CAP
        assert returned.value("years_service") == 9


class TestUpdatesInsideOnePin:
    """A read-modify-write starts from the latest write, not from the
    ambient pin: two updates of one object inside one ``pinned()`` both
    survive (the second used to start from the pinned values and drop
    the first)."""

    @pytest.mark.parametrize("context", ["plain", "pinned", "transaction"])
    def test_both_updates_survive(self, lab_db, context):
        objects = lab_db.objects
        oid = Oid("lab", "employee", 6)
        assert objects.get_buffer(oid).value("name") == "bell"

        def both():
            objects.update(oid, {"name": "first"})
            return objects.update(oid, {"id": 99})

        if context == "pinned":
            with objects.pinned():
                returned = both()
        elif context == "transaction":
            objects.begin()
            returned = both()
            objects.commit()
        else:
            returned = both()
        fresh = objects.get_buffer(oid)
        assert returned == fresh
        assert (fresh.value("name"), fresh.value("id")) == ("first", 99)

    def test_a_versioned_pre_image_is_the_latest_write(self, uni_db):
        objects = uni_db.objects
        oid = Oid("university", "course", 0)
        before = objects.get_buffer(oid).value("enrollment")
        with objects.pinned():
            objects.update(oid, {"enrollment": before + 1})
            objects.update(oid, {"enrollment": before + 2})
        states = [record.state["enrollment"]
                  for record in objects.versions.history(oid)]
        assert states[-2:] == [before, before + 1]
        assert objects.get_buffer(oid).value("enrollment") == before + 2


class TestConstraintsAndTriggers:
    def test_constraint_checked_on_create(self, manager):
        manager.behaviours.add_constraint(
            "employee",
            Constraint("nonneg", lambda values: values["id"] >= 0))
        with pytest.raises(ConstraintViolationError):
            manager.new_object("employee", {"id": -1})

    def test_constraint_checked_on_update(self, manager):
        manager.behaviours.add_constraint(
            "employee",
            Constraint("nonneg", lambda values: values["id"] >= 0))
        oid = manager.new_object("employee", {"id": 1})
        with pytest.raises(ConstraintViolationError):
            manager.update(oid, {"id": -5})
        # failed update leaves the object unchanged
        assert manager.get_buffer(oid).value("id") == 1

    def test_trigger_applies_updates(self, manager):
        manager.behaviours.add_trigger("employee", Trigger(
            "cap", lambda values: values["salary"] > 100,
            lambda values: {"salary": 100}, perpetual=True))
        oid = manager.new_object("employee", {"salary": 50})
        manager.update(oid, {"salary": 9000})
        assert manager.get_buffer(oid).value("salary", privileged=True) == 100

    def test_trigger_updates_are_type_checked(self, manager):
        manager.behaviours.add_trigger("employee", Trigger(
            "bad", lambda values: True,
            lambda values: {"id": "broken"}, perpetual=True))
        oid = manager.new_object("employee")
        with pytest.raises(TypeError_):
            manager.update(oid, {"name": "x"})


class TestCursorsAndSelect:
    def test_count(self, manager):
        for index in range(4):
            manager.new_object("employee", {"id": index})
        assert manager.count("employee") == 4

    def test_cursor_sequences_in_oid_order(self, manager):
        for index in range(3):
            manager.new_object("employee", {"id": index})
        cursor = manager.cursor("employee")
        assert cursor.next().number == 0
        assert cursor.next().number == 1

    def test_select(self, manager):
        for index in range(5):
            manager.new_object("employee", {"id": index})
        chosen = list(manager.select(
            "employee", lambda buffer: buffer.value("id") % 2 == 0))
        assert [b.value("id") for b in chosen] == [0, 2, 4]

    def test_select_without_predicate_yields_all(self, manager):
        manager.new_object("employee")
        manager.new_object("employee")
        assert len(list(manager.select("employee"))) == 2


class TestTransactions:
    def test_commit(self, manager):
        manager.begin()
        oid = manager.new_object("employee", {"name": "tx"})
        manager.commit()
        assert manager.get_buffer(oid).value("name") == "tx"

    def test_abort(self, manager):
        manager.begin()
        oid = manager.new_object("employee", {"name": "tx"})
        manager.abort()
        assert not manager.exists(oid)


def _compiled(manager, source, privileged=False):
    from repro.ode.opp.predicate import PredicateEvaluator

    return PredicateEvaluator(manager, privileged=privileged).compile_source(
        source)


def _outcome(rows):
    """The oids a selection yields, or the error type it stops with."""
    try:
        return [buffer.oid for buffer in rows]
    except (AccessError, ObjectNotFoundError) as exc:
        return type(exc)


def _full_buffer_outcome(manager, class_name, predicate):
    """The reference: build every buffer, then apply the predicate."""
    return _outcome(buffer for buffer in manager.select(class_name)
                    if predicate(buffer))


@pytest.fixture
def staff(manager):
    research = manager.new_object("department", {"dname": "research"})
    sales = manager.new_object("department", {"dname": "sales"})
    for index, dept in enumerate([research, sales, None, research, sales]):
        manager.new_object("employee", {
            "name": f"e{index}", "id": index, "dept": dept,
            "salary": 100 * index})
    return manager


class TestFilteredScan:
    """A scan decodes only what the predicate reads; what it yields and
    the errors it raises are those of evaluating full buffers."""

    @pytest.mark.parametrize("source, privileged, expected", [
        ("salary > 150", False, AccessError),
        ("salary > 150", True, [2, 3, 4]),
        ("double_id == 6", False, [3]),
        ('dept->dname == "research"', False, [0, 3]),
        ('name == "e1" || id > 3', False, [1, 4]),
    ])
    def test_matches_full_buffer_evaluation(self, staff, source, privileged,
                                            expected):
        predicate = _compiled(staff, source, privileged)
        got = _outcome(staff.select("employee", predicate))
        assert got == _full_buffer_outcome(staff, "employee", predicate)
        if isinstance(expected, list):
            got = [oid.number for oid in got]
        assert got == expected

    def test_foreign_identity_raises_mid_scan(self, staff):
        from repro.ode.codec import encode_object

        victim = Oid("db", "employee", 3)
        impostor = Oid("db", "employee", 99)
        staff.store.put(victim, encode_object(impostor, "employee", {
            "name": "e3", "id": 3, "dept": None, "salary": 0}))
        predicate = _compiled(staff, "id >= 0")
        rows = staff.select("employee", predicate)
        assert [next(rows).oid.number for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ObjectNotFoundError, match="claims identity"):
            next(rows)
        assert _full_buffer_outcome(staff, "employee",
                                    predicate) is ObjectNotFoundError

    def test_record_of_another_class_uses_its_own_layout(self, manager):
        from repro.ode.codec import encode_object

        oid = manager.new_object("employee")
        manager.store.put(oid, encode_object(oid, "department",
                                             {"dname": "x", "employees": []}))
        predicate = _compiled(manager, 'dname == "x"')
        assert _outcome(manager.select("employee", predicate)) == [oid]
        assert _full_buffer_outcome(manager, "employee", predicate) == [oid]

    def test_replace_class_privacy_reaches_scan_and_buffer(self, staff):
        predicate = _compiled(staff, 'name == "e2"')
        assert [b.oid.number for b in staff.select("employee",
                                                   predicate)] == [2]
        cls = staff.schema.get_class("employee")
        staff.schema.replace_class(OdeClass("employee", attributes=tuple(
            Attribute(a.name, a.type_spec,
                      Access.PRIVATE if a.name == "name" else a.access)
            for a in cls.attributes), methods=cls.methods))
        buffer = staff.get_buffer(Oid("db", "employee", 2))
        assert "name" not in buffer.public_names
        with pytest.raises(AccessError):
            buffer.value("name")
        assert _outcome(staff.select("employee", predicate)) is AccessError


class TestSavedWork:
    """Exact counts of the work a selection does."""

    @pytest.mark.parametrize("source, full_decodes", [
        ("id >= 3", 2),
        ('dept->dname == "sales" && id > 0', 2),
        ("double_id >= 6", 5),   # a computed method needs every buffer
    ])
    def test_filtered_scan_fully_decodes_only_the_matches(
            self, staff, monkeypatch, source, full_decodes):
        import repro.ode.objectmanager as objectmanager

        full = []
        decode = objectmanager.decode_fields

        def counting(data, names):
            if names is None:
                full.append(data)
            return decode(data, names)

        predicate = _compiled(staff, source)
        monkeypatch.setattr(objectmanager, "decode_fields", counting)
        rows = list(staff.select("employee", predicate))
        assert len(rows) == 2 and staff.count("employee") == 5
        # each "->" follows one reference: one more full decode per row
        # that reaches it
        follows = 4 if "->" in source else 0
        assert len(full) == full_decodes + follows

    def test_index_probe_reads_each_candidate_once(self, tmp_path):
        from repro.core.queryplan import SelectionPlanner
        from repro.data.synthetic import make_synthetic_database
        from repro.obs import get_registry
        from repro.ode.opp.parser import parse_expression

        database = make_synthetic_database(tmp_path, readings=160)
        try:
            database.create_index("reading", "tag")
            planner = SelectionPlanner(database)
            expr = parse_expression('tag == "t3"')
            reads = get_registry().counter("mvcc.snapshot_reads")
            with database.objects.pinned():
                plan = planner.plan("reading", expr, force="index")
                before = reads.value
                rows = list(planner.execute(plan))
                spent = reads.value - before
            assert plan.access == "index-eq"
            assert len(plan.candidates) == len(rows) == 10
            assert spent == len(plan.candidates)
        finally:
            database.close()

    def test_a_scan_reads_64_rows_per_store_lock_hold(self, tmp_path):
        from repro.data.synthetic import make_synthetic_database
        from repro.ode.database import Database

        make_synthetic_database(tmp_path, readings=300).close()
        database = Database.open(tmp_path / "synthetic.odb")
        store = database.store
        inner = store._lock
        taken = []

        class Counting:
            def __enter__(self):
                taken.append(1)
                return inner.__enter__()

            def __exit__(self, *exc):
                return inner.__exit__(*exc)

        store._lock = Counting()
        try:
            rows = list(database.objects.select("reading"))
            values = list(database.objects.scan_values("reading", {"seq"}))
        finally:
            store._lock = inner
            database.close()
        assert len(rows) == 300
        assert [buffer.values["seq"] for buffer in rows] == [
            value["seq"] for _oid, value in values]
        assert len(taken) == 2 * 5   # ceil(300 / 64) holds per scan

    def test_index_candidate_absent_is_skipped_foreign_raises(self, tmp_path):
        from dataclasses import replace

        from repro.core.queryplan import SelectionPlanner
        from repro.data.synthetic import make_synthetic_database
        from repro.ode.codec import encode_object
        from repro.ode.opp.parser import parse_expression

        database = make_synthetic_database(tmp_path, readings=40)
        try:
            database.create_index("reading", "tag")
            planner = SelectionPlanner(database)
            plan = planner.plan("reading", parse_expression('tag == "t3"'),
                                force="index")
            assert plan.candidates == [3, 19, 35]
            gone = replace(plan, candidates=[3, 999, 19])
            assert [b.oid.number for b in planner.execute(gone)] == [3, 19]
            objects = database.objects
            values = dict(objects.get_buffer(Oid("synthetic", "reading",
                                                 19)).values)
            objects.store.put(Oid("synthetic", "reading", 19), encode_object(
                Oid("synthetic", "reading", 20), "reading", values))
            with pytest.raises(ObjectNotFoundError, match="claims identity"):
                list(planner.execute(plan))
        finally:
            database.close()
