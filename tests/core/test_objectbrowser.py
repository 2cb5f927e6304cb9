"""Tests for object-set and object windows."""

import pytest

from repro.errors import OdeViewError
from repro.ode.oid import Oid


@pytest.fixture
def session(app):
    return app.open_database("lab")


@pytest.fixture
def browser(session):
    return session.open_object_set("employee")


class TestPanels:
    def test_set_browser_has_control_panel(self, app, browser):
        assert app.screen.has(browser.control_name())
        rendering = app.render()
        for label in ("[reset]", "[next]", "[previous]"):
            assert label in rendering

    def test_format_buttons_from_display_module(self, app, browser):
        assert browser.formats == ("text", "picture")
        assert app.screen.has(browser.format_button_name("text"))
        assert app.screen.has(browser.format_button_name("picture"))

    def test_reference_buttons(self, app, browser):
        assert browser.reference_attrs == ["dept"]
        assert app.screen.has(browser.reference_button_name("dept"))

    def test_status_before_first(self, app, browser):
        status = app.screen.get(browser.status_name()).content
        assert "(no current object)" in status
        assert "[55 in set]" in status


class TestSequencingThroughButtons:
    def test_next_button_advances(self, app, browser):
        app.click(f"{browser.path}.control.next.1")
        status = app.screen.get(browser.status_name()).content
        assert "lab:employee:0" in status
        assert "[1/55]" in status

    def test_reset_button(self, app, browser):
        browser.next()
        app.click(f"{browser.path}.control.reset.0")
        assert browser.node.current is None

    def test_object_window_has_no_control_panel(self, app, browser):
        browser.next()
        dept = browser.open_reference("dept")
        assert not dept.is_set
        assert not app.screen.has(dept.control_name())
        with pytest.raises(OdeViewError):
            dept.sequence("next")


class TestDisplayToggling:
    def test_toggle_opens_display_windows(self, app, browser):
        browser.next()
        browser.toggle_format("text")
        window = app.screen.get(f"{browser.path}.text.text")
        assert window.is_open
        assert "rakesh" in window.content

    def test_toggle_again_closes_but_keeps_window(self, app, browser):
        browser.next()
        browser.toggle_format("text")
        browser.toggle_format("text")
        window = app.screen.get(f"{browser.path}.text.text")
        assert not window.is_open

    def test_closed_display_still_refreshed(self, app, browser):
        """Paper §4.4: closed windows refresh too."""
        browser.next()
        browser.toggle_format("text")
        browser.toggle_format("text")  # close
        browser.next()
        window = app.screen.get(f"{browser.path}.text.text")
        assert "narain" in window.content
        assert not window.is_open

    def test_picture_format_creates_raster_window(self, app, browser):
        browser.next()
        browser.toggle_format("picture")
        window = app.screen.get(f"{browser.path}.picture.picture")
        assert window.kind.value == "raster_image"

    def test_unknown_format_rejected(self, browser):
        with pytest.raises(OdeViewError):
            browser.toggle_format("hologram")

    def test_display_state_remembered_per_cluster(self, app, session, browser):
        """Paper §3.2: the cluster's display state is remembered."""
        browser.next()
        browser.toggle_format("text")
        browser.toggle_format("picture")
        second = session.open_object_set("employee")
        assert second.open_formats == ["text", "picture"]

    def test_sequencing_refreshes_open_display(self, app, browser):
        browser.next()
        browser.toggle_format("text")
        browser.next()
        window = app.screen.get(f"{browser.path}.text.text")
        assert "narain" in window.content


class TestReferences:
    def test_open_reference_via_button_click(self, app, browser):
        browser.next()
        app.click(browser.reference_button_name("dept"))
        assert "dept" in browser.children
        child = browser.children["dept"]
        assert child.node.class_name == "department"

    def test_reference_before_sequencing_rejected(self, browser):
        with pytest.raises(OdeViewError):
            browser.open_reference("dept")

    def test_set_valued_reference_opens_set_browser(self, app, browser):
        browser.next()
        dept = browser.open_reference("dept")
        colleagues = dept.open_reference("employees")
        assert colleagues.is_set
        assert app.screen.has(colleagues.control_name())

    def test_reference_browsers_memoised(self, browser):
        browser.next()
        assert browser.open_reference("dept") is browser.open_reference("dept")

    def test_figure8_colleague(self, app, browser):
        """Figure 8: a colleague of rakesh working in the same department."""
        browser.next()  # rakesh
        colleagues = browser.open_reference("dept").open_reference("employees")
        colleagues.next()  # rakesh himself
        report = colleagues.next()
        colleagues.toggle_format("text")
        window = app.screen.get(f"{colleagues.path}.text.text")
        assert window.content  # some colleague displayed
        assert colleagues.node.current.cluster == "employee"
        assert colleagues.node.current.number != 0


class TestCrashIsolation:
    def test_display_crash_marks_browser_only(self, app, session, browser,
                                              monkeypatch):
        (session.database.display_dir / "employee.py").write_text(
            "FORMATS = ('text',)\n"
            "def display(buffer, request):\n    raise RuntimeError('bug')\n")
        browser.next()
        browser.toggle_format("text")
        assert browser.crashed
        status = app.screen.get(browser.status_name()).content
        assert "crashed" in status
        # other browsers remain fine
        other = session.open_object_set("department")
        other.next()
        assert not other.crashed

    def test_a_dangling_reference_crashes_only_its_browser(self, session,
                                                           browser):
        """The next employee's department is deleted: the dept window's
        interactor fails to read it and crashes alone (§4.6), and the
        click that reached it still completes."""
        browser.next()
        dept = browser.open_reference("dept")
        dept.toggle_format("text")
        objects = session.database.objects
        gone = objects.get_buffer(browser.node.members()[1]).value("dept")
        objects.delete(gone)
        browser.next()
        assert dept.node.current == gone
        assert dept.crashed and not browser.crashed

    def test_a_failing_computed_method_crashes_only_its_browser(
            self, app, session, browser):
        """A method body that raises (here ``KeyError``, as a record that
        lost ``hired`` makes ``years_service`` raise) fails the read of
        the next employee: the interactor crashes alone and the click on
        [next] completes."""
        browser.next()
        browser.toggle_format("text")

        def years_service(values):
            if values["name"] != "rakesh":
                raise KeyError("hired")
            return 0

        session.database.behaviours.bind_method(
            "employee", "years_service", years_service)
        app.click(f"{browser.path}.control.next.1")
        assert browser.node.current.number == 1
        assert browser.crashed
        assert "crashed" in app.screen.get(browser.status_name()).content

    def test_restart_after_fix(self, app, session, browser):
        import os

        path = session.database.display_dir / "employee.py"
        good_source = path.read_text()
        path.write_text(
            "FORMATS = ('text',)\n"
            "def display(buffer, request):\n    raise RuntimeError('bug')\n")
        browser.next()
        browser.toggle_format("text")
        assert browser.crashed
        path.write_text(good_source)
        stat = path.stat()
        os.utime(path, (stat.st_atime, stat.st_mtime + 10))
        browser.restart()
        assert not browser.crashed
        window = app.screen.get(f"{browser.path}.text.text")
        assert "rakesh" in window.content


class TestDestroy:
    def test_destroy_removes_windows_and_interactor(self, app, browser):
        browser.next()
        browser.toggle_format("text")
        dept = browser.open_reference("dept")
        panel_name = browser.panel_name()
        browser.destroy()
        assert not app.screen.has(panel_name)
        assert not app.screen.has(f"{browser.path}.text.text")
        assert not app.screen.has(dept.panel_name())
        assert not app.processes.has(f"oi.{browser.path}")


class TestOpenBrowsersPinNothing:
    def test_the_figure9_chain_holds_back_no_version(self, session,
                                                     browser):
        """Sequencing lives in the window tree's set node, not in a
        cursor per interactor: with the employee → dept → mgr chain open,
        200 updates of employee 7 leave the store's watermark at its
        epoch, so no old version is kept for the open windows."""
        browser.next()
        mgr = browser.open_reference("dept").open_reference("mgr")
        assert mgr.node.current is not None
        database = session.database
        oid = Oid.parse("lab:employee:7")
        for number in range(200):
            database.objects.update(oid, {"name": f"e7.{number}"})
        assert database.store.epoch >= 200
        assert database.store.watermark == database.store.epoch
