"""Tests for selection (paper §5.2)."""

import pytest

from repro.errors import SelectionError
from repro.core.selection import SelectionBuilder, select_objects, used_attributes
from repro.ode.opp.parser import parse_expression


@pytest.fixture
def builder(lab_db):
    return SelectionBuilder(lab_db, "employee")


class TestUsedAttributes:
    def test_names_collected(self):
        expr = parse_expression('name == "x" && id > 3 || size(name) > 2')
        assert used_attributes(expr) == {"name", "id"}

    def test_chained_access_uses_root(self):
        expr = parse_expression('dept->dname == "db" && addr.zip == 1')
        assert used_attributes(expr) == {"dept", "addr"}

    def test_index_and_unary(self):
        expr = parse_expression("!(grades[i] > 2)")
        assert used_attributes(expr) == {"grades", "i"}


class TestSelectlist:
    def test_attributes_from_module(self, builder):
        assert builder.attributes() == ["name", "id", "hired",
                                        "years_service"]

    def test_operators(self, builder):
        assert "==" in builder.operators()
        assert ">=" in builder.operators()


class TestMenuScheme:
    def test_single_condition(self, lab_db, builder):
        builder.add_condition("id", "<", 5)
        matched = builder.execute()
        assert len(matched) == 5

    def test_conditions_and_together(self, lab_db, builder):
        builder.add_condition("id", ">=", 2)
        builder.add_condition("id", "<", 5)
        assert builder.count_matches() == 3

    def test_string_value(self, lab_db, builder):
        builder.add_condition("name", "==", "rakesh")
        assert builder.count_matches() == 1

    def test_attribute_outside_selectlist_rejected(self, builder):
        with pytest.raises(SelectionError):
            builder.add_condition("salary", ">", 0)  # private

    def test_unknown_operator_rejected(self, builder):
        with pytest.raises(SelectionError):
            builder.add_condition("id", "~=", 3)

    def test_non_scalar_value_rejected(self, builder):
        with pytest.raises(SelectionError):
            builder.add_condition("id", "==", [1, 2])

    def test_source_rendering(self, builder):
        builder.add_condition("id", ">=", 2)
        builder.add_condition("name", "!=", "bob")
        assert builder.source() == 'id >= 2 && name != "bob"'


class TestConditionBox:
    def test_condition_string(self, lab_db, builder):
        builder.set_condition("id % 2 == 0 && id < 10")
        assert builder.count_matches() == 5

    def test_computed_attribute_usable(self, lab_db, builder):
        builder.set_condition("years_service > 12")
        assert builder.count_matches() > 0

    def test_mixed_menu_and_box(self, lab_db, builder):
        builder.add_condition("id", "<", 10)
        builder.set_condition("id % 3 == 0")
        assert builder.count_matches() == 4  # 0,3,6,9

    def test_attribute_outside_selectlist_rejected(self, builder):
        # dept is a reference: not in the employee selectlist
        with pytest.raises(SelectionError):
            builder.set_condition('dept->dname == "db research"')

    def test_type_errors_rejected(self, builder):
        with pytest.raises(SelectionError):
            builder.set_condition('id == "three"')

    def test_non_boolean_rejected(self, builder):
        with pytest.raises(SelectionError):
            builder.set_condition("id + 1")

    def test_parse_errors_propagate(self, builder):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            builder.set_condition("id ==")

    def test_empty_builder_rejected(self, builder):
        with pytest.raises(SelectionError):
            builder.execute()


class TestEndToEnd:
    def test_select_objects_helper(self, lab_db):
        buffers = select_objects(lab_db, "employee", "id >= 50")
        assert [b.value("id") for b in buffers] == [50, 51, 52, 53, 54]

    def test_selection_browsed_like_a_cluster(self, user_session):
        user_session.click_database_icon("lab")
        browser = user_session.select_into_browser(
            "lab", "employee", "id >= 52")
        assert browser.node.member_count() == 3
        browser.next()
        assert browser.node.current.number == 52

    def test_selection_on_filtered_browser_sequences_correctly(
            self, user_session):
        user_session.click_database_icon("lab")
        browser = user_session.select_into_browser(
            "lab", "employee", 'id % 20 == 0')
        numbers = []
        while True:
            report = browser.next()
            if report.result is None:
                break
            numbers.append(report.result.number)
        assert numbers == [0, 20, 40]

    def test_an_open_selection_set_keeps_its_conditions(self, app):
        """Editing the builder after opening a set (the selection
        window's ``add`` after ``apply``) does not reach the open set
        when it reloads."""
        session = app.open_database("lab")
        builder = SelectionBuilder(session.database, "employee",
                                   session.registry)
        builder.add_condition("id", "<", 5)
        node = session.open_object_set("employee", selection=builder).node
        builder.add_condition("id", ">=", 3)
        node.reload_members()
        assert node.member_count() == 5
        assert builder.count_matches() == 2
