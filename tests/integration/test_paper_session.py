"""Integration test: the paper's §3 sample session, figure by figure.

Each test reproduces the state of one figure and asserts the load-bearing
facts the paper states for it.  test_golden_figures.py pins the same ten
renderings byte for byte against tests/golden/; EXPERIMENTS.md records
them.
"""

import pytest

from repro.core.session import UserSession


@pytest.fixture
def s(lab_root):
    with UserSession(lab_root, screen_width=200) as session:
        yield session


def test_figure1_initial_display(s):
    """Figure 1: the database window lists databases with icons."""
    rendering = s.snapshot("fig1")
    assert "Ode databases" in rendering
    assert "[ATT] lab" in rendering


def test_figure2_schema_window(s):
    """Figure 2: clicking the ATT icon opens the class-relationship DAG."""
    s.click_database_icon("lab")
    rendering = s.snapshot("fig2")
    assert "lab: class relationships" in rendering
    for node in ("[employee]", "[department]", "[manager]"):
        assert node in rendering
    # manager drawn below both bases (it is the only derived class)
    placement = s.app.session("lab").schema.placement
    assert placement.layer_of["manager"] == 1
    assert placement.crossings == 0


def test_figure3_class_info_employee(s):
    """Figure 3: employee — no superclass, subclass manager, 55 objects."""
    s.click_database_icon("lab")
    s.click_class_node("lab", "employee")
    rendering = s.snapshot("fig3")
    assert "class employee" in rendering
    assert "objects in cluster : 55" in rendering
    assert "(none)" in rendering          # no superclasses
    assert "[manager]" in rendering       # the one subclass


def test_figure4_class_definition(s):
    """Figure 4: the class definition window shows O++ source."""
    s.click_database_icon("lab")
    s.click_class_node("lab", "employee")
    s.click_definition_button("lab", "employee")
    rendering = s.snapshot("fig4")
    assert "persistent class employee {" in rendering
    assert "char name[20];" in rendering
    assert "department *dept;" in rendering
    assert "[objects]" in rendering


def test_figure5_class_info_manager(s):
    """Figure 5: manager — two superclasses, no subclass, 7 instances."""
    s.click_database_icon("lab")
    s.click_class_node("lab", "employee")
    # browsing freely mixed: reach manager through employee's subclass button
    s.app.click("lab.info.employee.subs.manager")
    rendering = s.snapshot("fig5")
    assert "class manager" in rendering
    assert "objects in cluster : 7" in rendering
    assert "[employee]" in rendering and "[department]" in rendering


def test_figure6_employee_text_and_picture(s):
    """Figure 6: an employee displayed in text AND picture form."""
    s.click_database_icon("lab")
    s.click_class_node("lab", "employee")
    s.click_definition_button("lab", "employee")
    browser = s.click_objects_button("lab", "employee")
    s.click_control(browser, "next")
    s.click_format_button(browser, "text")
    s.click_format_button(browser, "picture")
    rendering = s.snapshot("fig6")
    assert "name  : rakesh" in rendering
    assert "#" in rendering  # dark raster pixels: the portrait
    assert browser.open_formats == ["text", "picture"]
    # display state is remembered for the cluster (§3.2)
    assert s.app.ctx.display_state.formats_for("lab", "employee") == \
        ["text", "picture"]


def test_figure7_employees_department(s):
    """Figure 7: the dept button opens the department object window."""
    s.click_database_icon("lab")
    browser = s.app.session("lab").open_object_set("employee")
    s.click_control(browser, "next")
    dept = s.click_reference_button(browser, "dept")
    s.click_format_button(dept, "text")
    rendering = s.snapshot("fig7")
    assert "department : db research" in rendering
    assert not dept.is_set  # an object window, not an object-set window


def test_figure8_colleague_in_same_department(s):
    """Figure 8: the employees button shows a colleague of rakesh."""
    s.click_database_icon("lab")
    browser = s.app.session("lab").open_object_set("employee")
    s.click_control(browser, "next")       # rakesh
    dept = s.click_reference_button(browser, "dept")
    colleagues = s.click_reference_button(dept, "employees")
    assert colleagues.is_set                # nested object-set window
    s.click_control(colleagues, "next")     # rakesh again (first member)
    s.click_control(colleagues, "next")     # a colleague
    s.click_format_button(colleagues, "text")
    rendering = s.snapshot("fig8")
    colleague = colleagues.node.buffer()
    assert colleague.value("dept") == browser.node.buffer().value("dept")
    assert colleague.value("name") in rendering
    assert "[reset]" in rendering           # the set window's own panel
    # 55 employees round-robin over 7 departments: rakesh's has 8
    colleagues.node.reset()
    walked = 0
    while colleagues.node.next() is not None:
        walked += 1
    assert walked == 8


def test_figure9_employees_manager_chain(s):
    """Figure 9: employee -> department -> manager displayed together."""
    s.click_database_icon("lab")
    browser = s.app.session("lab").open_object_set("employee")
    s.click_control(browser, "next")
    browser.toggle_format("text")
    dept = s.click_reference_button(browser, "dept")
    dept.toggle_format("text")
    mgr = s.click_reference_button(dept, "mgr")
    mgr.toggle_format("text")
    rendering = s.snapshot("fig9")
    assert "rakesh" in rendering
    assert "db research" in rendering
    assert "stroustrup" in rendering  # manager displayed via synthesized fn


def test_figure10_synchronized_browsing(s):
    """Figure 10: next on the employee refreshes the whole chain."""
    s.click_database_icon("lab")
    browser = s.app.session("lab").open_object_set("employee")
    s.click_control(browser, "next")
    browser.toggle_format("text")
    dept = s.click_reference_button(browser, "dept")
    dept.toggle_format("text")
    mgr = s.click_reference_button(dept, "mgr")
    mgr.toggle_format("text")
    before = s.snapshot("fig9-before")
    s.click_control(browser, "next")  # THE synchronized click
    after = s.snapshot("fig10")
    assert "narain" in after                 # new employee
    assert "languages" in after              # their department
    assert "kernighan" in after              # that department's manager
    assert before != after
    # every node in the network refreshed exactly once more
    assert dept.node.current == browser.node.buffer().value("dept")


def test_closed_windows_refresh_during_sync(s):
    """§4.4: refreshing happens even for closed windows."""
    s.click_database_icon("lab")
    browser = s.app.session("lab").open_object_set("employee")
    s.click_control(browser, "next")
    dept = s.click_reference_button(browser, "dept")
    dept.toggle_format("text")
    dept.toggle_format("text")  # close the department display
    s.click_control(browser, "next")
    window = s.app.screen.get(f"{dept.path}.text.text")
    assert not window.is_open
    assert "languages" in window.content  # refreshed while closed
