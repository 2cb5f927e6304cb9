"""Golden-figure regression tests.

The figures of the paper are reproduced as deterministic ASCII renderings;
these tests pin them byte-for-byte against checked-in golden files, so any
change to layout, DAG placement, display functions, or the lab data set is
caught immediately.  Regenerate the golden files by running this module's
``regenerate()`` helper after an intentional change.
"""

from pathlib import Path

import pytest

from repro.core.session import UserSession

GOLDEN = Path(__file__).parent.parent / "golden"


def _run_session(lab_root):
    """Replay the session and return {figure: rendering}.

    Figures 5, 7 and 8 branch off the main path (manager's class
    information, and the department and colleague windows), so a
    second session renders them and the main path's files stay as
    they are.
    """
    renderings = {}
    with UserSession(lab_root, screen_width=200) as s:
        renderings["fig01"] = s.snapshot("fig1")
        s.click_database_icon("lab")
        renderings["fig02"] = s.snapshot("fig2")
        s.click_class_node("lab", "employee")
        renderings["fig03"] = s.snapshot("fig3")
        s.click_definition_button("lab", "employee")
        renderings["fig04"] = s.snapshot("fig4")
        browser = s.click_objects_button("lab", "employee")
        s.click_control(browser, "next")
        s.click_format_button(browser, "text")
        s.click_format_button(browser, "picture")
        renderings["fig06"] = s.snapshot("fig6")
        dept = s.click_reference_button(browser, "dept")
        s.click_format_button(dept, "text")
        mgr = s.click_reference_button(dept, "mgr")
        s.click_format_button(mgr, "text")
        renderings["fig09"] = s.snapshot("fig9")
        s.click_control(browser, "next")
        renderings["fig10"] = s.snapshot("fig10")
    with UserSession(lab_root, screen_width=200) as s:
        s.click_database_icon("lab")
        s.click_class_node("lab", "employee")
        s.app.click("lab.info.employee.subs.manager")
        renderings["fig05"] = s.snapshot("fig5")
        browser = s.app.session("lab").open_object_set("employee")
        s.click_control(browser, "next")
        dept = s.click_reference_button(browser, "dept")
        s.click_format_button(dept, "text")
        renderings["fig07"] = s.snapshot("fig7")
        colleagues = s.click_reference_button(dept, "employees")
        s.click_control(colleagues, "next")
        s.click_control(colleagues, "next")
        s.click_format_button(colleagues, "text")
        renderings["fig08"] = s.snapshot("fig8")
    return renderings


FIGURES = [f"fig{number:02d}" for number in range(1, 11)]


@pytest.fixture(scope="module")
def renderings(tmp_path_factory):
    from repro.data.labdb import make_lab_database

    root = tmp_path_factory.mktemp("golden")
    make_lab_database(root).close()
    return _run_session(root)


@pytest.mark.parametrize("figure", FIGURES)
def test_golden(figure, renderings):
    expected = (GOLDEN / f"{figure}.txt").read_text()
    assert renderings[figure] + "\n" == expected, (
        f"{figure} rendering drifted from tests/golden/{figure}.txt; "
        "if the change is intentional, regenerate the golden files")


def test_renderings_are_deterministic(tmp_path_factory):
    from repro.data.labdb import make_lab_database

    root = tmp_path_factory.mktemp("determinism")
    make_lab_database(root).close()
    assert _run_session(root) == _run_session(root)


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Rewrite the golden files from the current implementation."""
    import tempfile

    from repro.data.labdb import make_lab_database

    root = Path(tempfile.mkdtemp())
    make_lab_database(root).close()
    for figure, rendering in _run_session(root).items():
        (GOLDEN / f"{figure}.txt").write_text(rendering + "\n")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
    print("golden files regenerated")
