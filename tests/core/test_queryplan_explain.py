"""Planner regression battery: pinned statistics drive the plan.

Each test pins the two reads the planner makes — the cluster's count
and the covering index's rows, distinct keys and bounds — and asserts
the exact access path the cost model must choose — probe-wins,
scan-wins, and the break-even tie — plus the EXPLAIN text those
decisions render.

Cost arithmetic under test (module constants in queryplan):

    cost(scan)  = cardinality * 1.0
    cost(probe) = 2.0 + estimated_rows * 2.0

with ``estimated_rows = rows / distinct`` for an equality and numeric
min/max interpolation for a range.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.queryplan import SelectionPlanner
from repro.ode.index import AttributeIndex
from repro.ode.opp.parser import parse_expression


@pytest.fixture
def planner(lab_db):
    lab_db.objects.indexes.create_index("employee", "id")
    return SelectionPlanner(lab_db)


@pytest.fixture
def pin(lab_db, monkeypatch):
    """``pin(cardinality, rows, distinct, bounds=None)`` fixes what the
    planner reads of ``employee``'s count and of the ``id`` index."""
    index = lab_db.objects.indexes.get("employee", "id")

    def pin(cardinality, rows, distinct, bounds=None):
        monkeypatch.setattr(lab_db.objects, "count",
                            lambda class_name: cardinality)
        monkeypatch.setattr(AttributeIndex, "__len__", lambda self: rows)
        monkeypatch.setattr(index, "distinct_count", lambda: distinct)
        monkeypatch.setattr(index, "live_bounds", lambda: bounds)

    return pin


def _plan(planner, source, force=None):
    return planner.plan("employee", parse_expression(source), force=force)


class TestCostDecisions:
    def test_probe_wins_on_selective_equality(self, lab_db, planner, pin):
        # 10 of 10000 rows expected: probe cost 22 obliterates scan 10000.
        pin(10000, 10000, 1000)
        plan = _plan(planner, "id == 7")
        assert plan.access == "index-eq"
        assert plan.index_attribute == "id"
        assert plan.estimated_rows == pytest.approx(10.0)
        assert plan.estimated_cost == pytest.approx(22.0)
        assert plan.scan_cost == pytest.approx(10000.0)
        assert "probe cost 22.0 < scan cost 10000.0" in plan.reason

    def test_scan_wins_on_unselective_equality(self, lab_db, planner, pin):
        # Every row shares one key: the probe would fetch the whole
        # cluster at double the per-row price.
        pin(10000, 10000, 1)
        plan = _plan(planner, "id == 7")
        assert plan.access == "scan"
        assert "scan is cheaper (probe cost 20002.0 >= scan cost 10000.0)" \
            in plan.reason

    def test_break_even_goes_to_scan(self, lab_db, planner, pin):
        # probe = 2 + 20*2 = 42 exactly equals scan = 42: ties go to the
        # sequential sweep (>=, never flapping on equal estimates).
        pin(42, 40, 2)
        plan = _plan(planner, "id == 7")
        assert plan.access == "scan"
        assert "probe cost 42.0 >= scan cost 42.0" in plan.reason

    def test_force_index_overrides_the_model(self, lab_db, planner, pin):
        pin(10000, 10000, 1)
        plan = _plan(planner, "id == 7", force="index")
        assert plan.access == "index-eq"
        assert plan.reason == "forced index probe"

    def test_force_scan_never_probes(self, lab_db, planner, pin):
        pin(10000, 10000, 1000)
        plan = _plan(planner, "id == 7", force="scan")
        assert plan.access == "scan"
        assert plan.reason == "forced scan"

    def test_range_interpolation_switches_probe_to_scan(self, lab_db,
                                                        planner, pin):
        # Observed domain id in [0, 99] over 1000 rows.  ``id < 5``
        # interpolates to ~5% (probe), ``id < 95`` to ~96% (scan): the
        # same query shape flips on the literal alone.
        pin(1000, 1000, 100, ((2, 0), (2, 99)))
        narrow = _plan(planner, "id < 5")
        assert narrow.access == "index-range"
        assert narrow.estimated_rows < 100
        assert narrow.estimated_cost < narrow.scan_cost
        wide = _plan(planner, "id < 95")
        assert wide.access == "scan"
        assert "scan is cheaper" in wide.reason

    def test_live_statistics_come_from_their_owners(self, lab_db, planner,
                                                    pin, monkeypatch):
        pin(10000, 10000, 1)
        assert _plan(planner, "id == 7").access == "scan"
        monkeypatch.undo()
        # Live lab data: 55 rows, all ids distinct — the probe wins.
        plan = _plan(planner, "id == 7")
        assert plan.access == "index-eq"
        assert plan.cardinality == 55

    def test_equality_beats_range_when_both_are_probeable(self, lab_db,
                                                          planner, pin):
        pin(1000, 1000, 100, ((2, 0), (2, 99)))
        plan = _plan(planner, "id >= 7 && id == 7")
        assert plan.access == "index-eq"
        # The range conjunct survives as the residual filter.
        assert plan.residual is not None


class TestExplainRendering:
    def test_probe_explain_names_index_rows_and_costs(self, lab_db,
                                                      planner, pin):
        pin(10000, 10000, 1000)
        text = _plan(planner, 'id == 7 && name != "x"').explain()
        assert "select from cluster 'employee'" in text
        assert "index-eq probe on employee.id" in text
        assert "estimated rows: 10.0 of 10000" in text
        assert "cost 22.0 vs scan 10000.0" in text
        assert 'filter: name != "x"' in text
        assert "epoch: head" in text

    def test_scan_explain_names_cost_and_reason(self, lab_db, planner, pin):
        pin(10000, 10000, 1)
        text = _plan(planner, "id == 7").explain()
        assert "access: full cluster scan" in text
        assert "estimated rows: 10000 of 10000 (cost 10000.0)" in text
        assert "reason: scan is cheaper" in text

    def test_last_explain_lands_on_the_objects(self, lab_db, planner):
        plan = _plan(planner, "id == 7")
        assert lab_db.objects.last_explain == plan.explain()
        _plan(planner, "id == 9", force="scan")
        assert "full cluster scan" in lab_db.objects.last_explain

    def test_describe_rows_show_the_index_numbers(self, lab_db, planner):
        lab_db.objects.new_object("employee", {"id": 7})
        plan = _plan(planner, "id == 7")
        rows = dict(lab_db.server_stats()["statistics"])
        assert rows["stats employee.id"] == "56 rows, 55 distinct"
        assert rows["last explain"] == plan.explain().splitlines()[0]

    def test_pinned_plan_reports_its_epoch(self, lab_db, planner):
        with lab_db.objects.pinned() as snapshot:
            text = _plan(planner, "id == 7").explain()
        assert f"epoch: pinned @ {snapshot.epoch}" in text

    def test_a_pinned_plan_counts_the_pins_members(self, lab_db, planner):
        """Cardinality answers at the plan's snapshot: another thread's
        commit after the pin does not reach it."""
        with lab_db.objects.pinned():
            writer = threading.Thread(
                target=lab_db.objects.new_object,
                args=("employee", {"id": 900}))
            writer.start()
            writer.join()
            pinned = _plan(planner, "id == 7")
        assert pinned.cardinality == 55
        assert "estimated rows: 1.0 of 55" in pinned.explain()
        assert _plan(planner, "id == 7").cardinality == 56
