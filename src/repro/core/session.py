"""The scripted user session.

Section 3 of the paper is "a simulation of a user session with OdeView";
this module is the machinery that re-runs it: a driver that performs user
actions (clicking icons, nodes, and buttons; sequencing; projecting;
selecting) against a live :class:`~repro.core.app.OdeView` and records a
named rendering after each step.  The golden figure renderings
(``tests/golden``) and the EXPERIMENTS.md transcripts are produced
through it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import SessionError
from repro.core.app import DbSession, OdeView
from repro.core.objectbrowser import ObjectBrowser
from repro.core.projection import ProjectionPanel
from repro.core.selection import SelectionBuilder


class UserSession:
    """Drives OdeView the way the paper's user does, keeping a transcript."""

    def __init__(self, root: Union[str, Path], backend=None,
                 screen_width: int = 150, privileged: bool = False):
        self.app = OdeView(root, backend=backend, screen_width=screen_width,
                           privileged=privileged)
        self.snapshots: List[Tuple[str, str]] = []
        self._projection_panels: Dict[str, ProjectionPanel] = {}

    # -- transcript -----------------------------------------------------------

    def snapshot(self, label: str) -> str:
        """Render the screen and record it under *label*."""
        rendering = self.app.render()
        self.snapshots.append((label, rendering))
        return rendering

    def rendering(self, label: str) -> str:
        for recorded_label, rendering in self.snapshots:
            if recorded_label == label:
                return rendering
        raise SessionError(f"no snapshot labelled {label!r}")

    def transcript(self) -> str:
        parts = []
        for label, rendering in self.snapshots:
            parts.append(f"=== {label} ===")
            parts.append(rendering)
            parts.append("")
        return "\n".join(parts)

    # -- the user actions of paper §3 -------------------------------------------------

    def click_database_icon(self, name: str) -> DbSession:
        """§3.1: click a database icon in the database window."""
        self.app.click(f"{OdeView.DATABASE_WINDOW}.icon.{name}")
        return self.app.session(name)

    def click_class_node(self, db: str, class_name: str) -> None:
        """§3.1: click a node in the schema window -> class info window."""
        self.app.click(f"{db}.schema.node.{class_name}")

    def click_definition_button(self, db: str, class_name: str) -> None:
        """§3.1: the class information window's definition button."""
        self.app.click(f"{db}.info.{class_name}.showdef")

    def click_objects_button(self, db: str, class_name: str) -> ObjectBrowser:
        """§3.2: the class definition window's objects button."""
        session = self.app.session(db)
        before = len(session.object_sets)
        self.app.click(f"{db}.def.{class_name}.objects")
        if len(session.object_sets) <= before:
            raise SessionError("objects button did not open an object set")
        return session.object_sets[-1]

    def click_control(self, browser: ObjectBrowser, op: str) -> None:
        """§3.2: reset/next/previous on an object-set control panel."""
        index = {"reset": 0, "next": 1, "previous": 2}[op]
        self.app.click(f"{browser.path}.control.{op}.{index}")

    def click_format_button(self, browser: ObjectBrowser,
                            format_name: str) -> None:
        """§3.2: a display-format button on an object panel."""
        self.app.click(browser.format_button_name(format_name))

    def click_reference_button(self, browser: ObjectBrowser,
                               attr_name: str) -> ObjectBrowser:
        """§3.3: a reference button — opens the object / object-set window."""
        self.app.click(browser.reference_button_name(attr_name))
        child = browser.children.get(attr_name)
        if child is None:
            raise SessionError(
                f"reference button {attr_name!r} did not open a window"
            )
        return child

    # -- extensions (paper §5) -----------------------------------------------------------

    def open_projection(self, browser: ObjectBrowser) -> ProjectionPanel:
        """§5.1: click the project button."""
        panel = self._projection_panels.get(browser.path)
        if panel is None:
            panel = ProjectionPanel(browser)
            self._projection_panels[browser.path] = panel
        else:
            self.app.click(browser.project_button_name())
        return panel

    def select_into_browser(self, db: str, class_name: str,
                            condition: str) -> ObjectBrowser:
        """§5.2: condition-box selection, pushed down, browsed like a set."""
        session = self.app.session(db)
        builder = SelectionBuilder(
            session.database, class_name, session.registry,
            privileged=self.app.ctx.privileged,
        )
        builder.set_condition(condition)
        return session.open_object_set(class_name, selection=builder)

    # -- lifecycle -------------------------------------------------------------------------

    def shutdown(self) -> None:
        self.app.shutdown()

    def __enter__(self) -> "UserSession":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
