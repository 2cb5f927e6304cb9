"""Tests for index-aware selection planning."""

import pytest

from repro.core.queryplan import (
    SelectionPlanner,
    join_conjuncts,
    sargable,
    split_conjuncts,
)
from repro.core.selection import SelectionBuilder
from repro.ode.opp import ast
from repro.ode.opp.parser import parse_expression


class TestConjuncts:
    def test_split(self):
        expr = parse_expression("a == 1 && b == 2 && c == 3")
        assert len(split_conjuncts(expr)) == 3

    def test_split_respects_or(self):
        expr = parse_expression("a == 1 && (b == 2 || c == 3)")
        conjuncts = split_conjuncts(expr)
        assert len(conjuncts) == 2

    def test_join_roundtrip(self):
        expr = parse_expression("a == 1 && b == 2")
        assert join_conjuncts(split_conjuncts(expr)) == expr

    def test_join_empty(self):
        assert join_conjuncts([]) is None


class TestSargable:
    def test_name_op_literal(self):
        assert sargable(parse_expression("id == 7")) == ("id", "==", 7)
        assert sargable(parse_expression("id <= 7")) == ("id", "<=", 7)

    def test_literal_op_name_mirrored(self):
        assert sargable(parse_expression("7 < id")) == ("id", ">", 7)
        assert sargable(parse_expression("7 == id")) == ("id", "==", 7)

    def test_non_sargable_forms(self):
        assert sargable(parse_expression("id + 1 == 7")) is None
        assert sargable(parse_expression("id != 7")) is None
        assert sargable(parse_expression("id == other")) is None
        assert sargable(parse_expression("size(name) == 3")) is None
        assert sargable(parse_expression("dept == null")) is None


class TestPlanner:
    @pytest.fixture
    def planner(self, lab_db):
        lab_db.objects.indexes.create_index("employee", "id")
        return SelectionPlanner(lab_db)

    def test_scan_without_index(self, lab_db):
        planner = SelectionPlanner(lab_db)
        plan = planner.plan("employee", parse_expression("id == 7"))
        assert plan.access == "scan"

    def test_equality_probe(self, planner):
        plan = planner.plan("employee", parse_expression("id == 7"))
        assert plan.access == "index-eq"
        assert plan.candidates == [7]
        assert plan.residual is None

    def test_range_probe(self, planner):
        plan = planner.plan("employee", parse_expression("id >= 50"))
        assert plan.access == "index-range"
        assert plan.candidates == [50, 51, 52, 53, 54]

    def test_residual_kept(self, planner):
        plan = planner.plan("employee",
                            parse_expression('id < 5 && name != "jag"'))
        assert plan.access == "index-range"
        from repro.ode.opp.printer import expr_to_source

        assert expr_to_source(plan.residual) == 'name != "jag"'

    def test_equality_preferred_over_range(self, planner):
        plan = planner.plan("employee",
                            parse_expression("id < 50 && id == 7"))
        assert plan.access == "index-eq"
        assert plan.candidates == [7]

    def test_execute_matches_scan(self, lab_db, planner):
        expr = parse_expression('id < 10 && name != "rakesh"')
        indexed = [b.oid for b in planner.execute(planner.plan("employee",
                                                               expr))]
        scanner = SelectionPlanner(lab_db)
        scan_plan = scanner.plan("department", parse_expression("true"))
        # scan the employee cluster without the index for comparison
        from repro.ode.opp.predicate import PredicateEvaluator

        predicate = PredicateEvaluator(lab_db.objects).compile(expr)
        scanned = [b.oid for b in lab_db.objects.select("employee",
                                                        predicate)]
        assert indexed == scanned

    def test_execute_skips_stale_candidates(self, lab_db, planner):
        oid = lab_db.objects.new_object("employee", {"id": 500})
        plan = planner.plan("employee", parse_expression("id == 500"))
        # delete behind the plan's back (store-level, index not notified)
        lab_db.store.delete(oid)
        assert list(planner.execute(plan)) == []

    def test_explain(self, planner):
        plan = planner.plan("employee",
                            parse_expression('id == 7 && name != "x"'))
        text = plan.explain()
        assert "index-eq probe on employee.id" in text
        assert 'filter: name != "x"' in text

    def test_explain_scan(self, lab_db):
        planner = SelectionPlanner(lab_db)
        plan = planner.plan("department", parse_expression('dname == "x"'))
        assert "full cluster scan" in plan.explain()


class TestCandidateReads:
    def test_index_candidates_are_read_by_the_batch(self, tmp_path,
                                                    monkeypatch):
        """1 000 index candidates are read 64 per store lookup — 16
        page-grouped lookups, not one per candidate — and an absent
        candidate is still skipped."""
        from repro.data.synthetic import make_synthetic_database
        from repro.ode.store import ObjectStore

        database = make_synthetic_database(tmp_path, readings=1000,
                                           sensors=2)
        try:
            database.objects.indexes.create_index("reading", "seq")
            gone = database.objects.cluster("reading").first()
            lookups = []
            snapshot_lookup = ObjectStore._snapshot_lookup

            def counting(store, oids, epoch):
                lookups.append(len(oids))
                return snapshot_lookup(store, oids, epoch)

            monkeypatch.setattr(ObjectStore, "_snapshot_lookup", counting)
            planner = SelectionPlanner(database)
            expr = parse_expression("seq < 1000 && value >= 0")
            plan = planner.plan("reading", expr, force="index")
            assert plan.access == "index-range"
            assert len(plan.candidates) == 1000
            # delete behind the plan's back (store-level, index not notified)
            database.store.delete(gone)
            with database.objects.pinned():
                rows = list(planner.execute(plan))
            assert len(rows) == 999 and gone not in [b.oid for b in rows]
            assert lookups == [64] * 15 + [40]
        finally:
            database.close()


class TestBuilderIntegration:
    def test_builder_plan_and_execute(self, lab_db):
        lab_db.objects.indexes.create_index("employee", "id")
        builder = SelectionBuilder(lab_db, "employee")
        builder.set_condition("id >= 52")
        plan = builder.plan()
        assert plan.access == "index-range"
        buffers = builder.execute()
        assert [b.value("id") for b in buffers] == [52, 53, 54]

    def test_builder_execute_without_index_scans(self, lab_db):
        builder = SelectionBuilder(lab_db, "employee")
        builder.set_condition("id >= 52")
        assert builder.plan().access == "scan"
        assert len(builder.execute()) == 3

    def test_builder_still_validates_selectlist(self, lab_db):
        from repro.errors import SelectionError

        builder = SelectionBuilder(lab_db, "employee")
        with pytest.raises(SelectionError):
            builder.set_condition("salary > 0.0")
