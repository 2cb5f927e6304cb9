"""Object browsing: the object-set window and the object window.

Paper §3.2/§3.3: the *object set* window has a control panel (``reset`` /
``next`` / ``previous``) and an object panel with "buttons to view the
object" — one per display format the class offers — plus buttons for every
embedded reference (§3.3, Figures 7 and 8).  A single referenced object
opens an *object* window: the same object panel without a control panel.

Display state memory (§3.2): "OdeView remembers the display state of a
cluster and will display other objects in the cluster in the same display
state" — remembered here per (database, class) and applied when a new
browser over that cluster is created.

Display functions run inside a dedicated object-interactor process, so "if
there are bugs in this code, then only the corresponding object-interactor
process will be affected but not the whole OdeView" (§4.6) — a crash marks
this browser crashed and leaves everything else alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import OdeViewError, ProcessCrashedError
from repro.core import navigation
from repro.core.navigation import Node, SetNode
from repro.core.sync import SyncReport, sequence
from repro.dynlink.protocol import BitVector, DisplayRequest
from repro.dynlink.registry import DisplayRegistry
from repro.ode.database import Database
from repro.procmodel.interactors import ObjectInteractor
from repro.procmodel.manager import ProcessManager
from repro.windowing.screen import Screen
from repro.windowing.wintypes import (
    WindowSpec,
    below,
    button,
    panel,
    right_of,
    text_window,
)


class DisplayStateMemory:
    """Remembered open display formats per (database, class) cluster."""

    def __init__(self) -> None:
        self._states: Dict[Tuple[str, str], List[str]] = {}

    def formats_for(self, database: str, class_name: str) -> List[str]:
        return list(self._states.get((database, class_name), ()))

    def remember(self, database: str, class_name: str,
                 formats: List[str]) -> None:
        self._states[(database, class_name)] = list(formats)


@dataclass
class UiContext:
    """Shared front-end context every browser needs."""

    screen: Screen
    processes: ProcessManager
    display_state: DisplayStateMemory = field(default_factory=DisplayStateMemory)
    privileged: bool = False


class ObjectBrowser:
    """Windows + behaviour for one navigation node."""

    def __init__(self, ctx: UiContext, database: Database, node: Node,
                 registry: Optional[DisplayRegistry] = None):
        self.ctx = ctx
        self.database = database
        self.node = node
        self.registry = registry or DisplayRegistry(database)
        self.crashed = False
        self.crash_reason = ""
        self.bitvec: Optional[BitVector] = None
        self.open_formats: List[str] = []
        self._format_windows: Dict[str, List[str]] = {}
        self.children: Dict[str, "ObjectBrowser"] = {}
        self._interactor_name = f"oi.{node.path}"
        self.ctx.processes.spawn(
            ObjectInteractor(
                self._interactor_name, database, node.class_name, self.registry
            )
        )
        self.formats = self._safe_formats()
        self.reference_attrs = navigation.reference_attributes(
            database.objects, node.class_name
        )
        self._build_windows()
        node.on_refresh.append(self._on_node_refresh)
        # Apply the cluster's remembered display state (paper §3.2).
        for format_name in ctx.display_state.formats_for(
                database.name, node.class_name):
            if format_name in self.formats:
                self.toggle_format(format_name)
        self._update_status()

    # -- names -------------------------------------------------------------------

    @property
    def path(self) -> str:
        return self.node.path

    @property
    def is_set(self) -> bool:
        return isinstance(self.node, SetNode)

    def panel_name(self) -> str:
        return f"{self.path}.panel"

    def control_name(self) -> str:
        return f"{self.path}.control"

    def status_name(self) -> str:
        return f"{self.path}.status"

    def format_button_name(self, format_name: str) -> str:
        return f"{self.path}.fmt.{format_name}"

    def reference_button_name(self, attr_name: str) -> str:
        return f"{self.path}.ref.{attr_name}"

    def project_button_name(self) -> str:
        return f"{self.path}.projectbtn"

    def versions_button_name(self) -> str:
        return f"{self.path}.versionsbtn"

    def versions_window_name(self) -> str:
        return f"{self.path}.versions"

    # -- window construction ----------------------------------------------------------

    def _build_windows(self) -> None:
        screen = self.ctx.screen
        children: List[WindowSpec] = [
            text_window(self.status_name(), "(no current object)", width=44)
        ]
        anchor = self.status_name()
        previous = None
        first_format = None
        for format_name in self.formats:
            name = self.format_button_name(format_name)
            place = below(anchor) if previous is None else right_of(previous)
            children.append(button(name, format_name, f"format:{format_name}",
                                   placement=place))
            if first_format is None:
                first_format = name
            previous = name
        previous = None
        for attr_name in self.reference_attrs:
            name = self.reference_button_name(attr_name)
            if previous is None:
                place = below(first_format) if first_format else below(anchor)
            else:
                place = right_of(previous)
            children.append(button(name, attr_name, f"ref:{attr_name}",
                                   placement=place))
            previous = name
        project_anchor = previous or first_format or anchor
        children.append(
            button(self.project_button_name(), "project", "project",
                   placement=below(project_anchor))
        )
        self.versioned = self.database.schema.get_class(
            self.node.class_name).versioned
        if self.versioned:
            children.append(
                button(self.versions_button_name(), "versions", "versions",
                       placement=right_of(self.project_button_name()))
            )
        title = f"{self.node.class_name}"
        if self.is_set:
            title += " objects" if self.node.parent is None else " set"
        screen.create(panel(self.panel_name(), tuple(children), title=title))
        for format_name in self.formats:
            screen.on_click(
                self.format_button_name(format_name),
                lambda _event, f=format_name: self.toggle_format(f),
            )
        for attr_name in self.reference_attrs:
            screen.on_click(
                self.reference_button_name(attr_name),
                lambda _event, a=attr_name: self.open_reference(a),
            )
        if self.versioned:
            screen.on_click(
                self.versions_button_name(),
                lambda _event: self.show_versions(),
            )
        if self.is_set:
            from repro.windowing.widgets import control_panel

            screen.create(control_panel(self.path))
            for op, index in (("reset", 0), ("next", 1), ("previous", 2)):
                screen.on_click(
                    f"{self.path}.control.{op}.{index}",
                    lambda _event, o=op: self.sequence(o),
                )

    # -- interactor plumbing -------------------------------------------------------------

    def _safe_formats(self) -> Tuple[str, ...]:
        try:
            return tuple(
                self.ctx.processes.call(self._interactor_name, "formats")
            )
        except ProcessCrashedError as exc:
            self._mark_crashed(str(exc))
            return ("text",)

    def _call_display(self, format_name: str):
        request = DisplayRequest(
            format_name=format_name,
            bitvec=self.bitvec,
            privileged=self.ctx.privileged,
            window_prefix=f"{self.path}.{format_name}",
        )
        try:
            buffer = self.node.buffer()
        except Exception:
            # The read runs the class's method bodies, which can raise
            # anything.  The interactor reads by OID again and crashes
            # alone (§4.6), as its own read would have.
            buffer = None
        return self.ctx.processes.call(
            self._interactor_name, "display",
            oid=str(self.node.current), buffer=buffer, request=request,
        )

    def _mark_crashed(self, reason: str) -> None:
        self.crashed = True
        self.crash_reason = reason
        if self.ctx.screen.has(self.status_name()):
            self.ctx.screen.set_content(
                self.status_name(), f"** object-interactor crashed **"
            )

    def restart(self) -> None:
        """Respawn the object-interactor after a display-function fix."""
        self.ctx.processes.restart(
            self._interactor_name,
            lambda: ObjectInteractor(
                self._interactor_name, self.database,
                self.node.class_name, self.registry,
            ),
        )
        self.crashed = False
        self.crash_reason = ""
        self.registry.loader.invalidate(self.node.class_name)
        self._update_status()
        self._refresh_displays()

    # -- display state -----------------------------------------------------------------

    def toggle_format(self, format_name: str) -> None:
        """Click a display-format button: open or close that display."""
        if format_name not in self.formats:
            raise OdeViewError(
                f"class {self.node.class_name!r} has no display format "
                f"{format_name!r}"
            )
        screen = self.ctx.screen
        if format_name in self.open_formats:
            self.open_formats.remove(format_name)
            for window_name in self._format_windows.get(format_name, ()):
                if screen.has(window_name):
                    screen.close(window_name)
        else:
            self.open_formats.append(format_name)
            self._refresh_format(format_name)
            for window_name in self._format_windows.get(format_name, ()):
                screen.open(window_name)
        self.ctx.display_state.remember(
            self.database.name, self.node.class_name, self.open_formats
        )

    # -- refresh ------------------------------------------------------------------------

    def _on_node_refresh(self, _node: Node) -> None:
        if self.crashed:
            return
        self._update_status()
        self._refresh_displays()
        if self.ctx.screen.has(self.versions_window_name()):
            self.ctx.screen.set_content(
                self.versions_window_name(), self.version_history_text())

    def _update_status(self) -> None:
        screen = self.ctx.screen
        if not screen.has(self.status_name()):
            return
        if self.crashed:
            return
        current = self.node.current
        if current is None:
            text = "(no current object)"
            if self.is_set:
                text += f"  [{self.node.member_count()} in set]"
        else:
            text = f"object: {current}"
            if self.is_set:
                index = self.node.position + 1
                text += f"  [{index}/{self.node.member_count()}]"
        screen.set_content(self.status_name(), text)

    def _refresh_displays(self) -> None:
        """Refresh every format that has windows — open *or closed* (§4.4)."""
        formats = list(self.open_formats)
        for format_name in self._format_windows:
            if format_name not in formats:
                formats.append(format_name)
        for format_name in formats:
            self._refresh_format(format_name)

    def _refresh_format(self, format_name: str) -> None:
        screen = self.ctx.screen
        if self.node.current is None:
            for window_name in self._format_windows.get(format_name, ()):
                if screen.has(window_name):
                    window = screen.get(window_name)
                    if isinstance(window.content, str):
                        window.set_content("(no current object)")
            return
        try:
            resources = self._call_display(format_name)
        except ProcessCrashedError as exc:
            self._mark_crashed(str(exc))
            return
        names: List[str] = []
        for spec in resources.windows:
            names.append(spec.name)
            if screen.has(spec.name):
                window = screen.get(spec.name)
                if window.spec.title != spec.title:
                    window.spec = replace(window.spec, title=spec.title)
                screen.set_content(spec.name, spec.content)
            else:
                window = screen.create(spec)
                if format_name not in self.open_formats:
                    window.is_open = False
        # windows the new resources no longer mention disappear
        for window_name in self._format_windows.get(format_name, ()):
            if window_name not in names and screen.has(window_name):
                screen.destroy(window_name)
        self._format_windows[format_name] = names

    # -- sequencing (control panel) --------------------------------------------------------

    def sequence(self, op: str) -> SyncReport:
        if not self.is_set:
            raise OdeViewError(
                f"object window {self.path!r} has no control panel"
            )
        return sequence(self.node, op)

    def reset(self) -> SyncReport:
        return self.sequence("reset")

    def next(self) -> SyncReport:
        return self.sequence("next")

    def previous(self) -> SyncReport:
        return self.sequence("previous")

    # -- version history (O++ versioned objects) ------------------------------------------

    def version_history_text(self) -> str:
        """The version window's content for the current object."""
        if self.node.current is None:
            return "(no current object)"
        history = self.database.objects.versions.history(self.node.current)
        if not history:
            return "(no previous versions)"
        lines = []
        for record in history:
            scalars = ", ".join(
                f"{name}={value!r}" for name, value in record.state.items()
                if isinstance(value, (int, float, str, bool))
            )
            lines.append(f"v{record.sequence}: {scalars}")
        return "\n".join(lines)

    def show_versions(self) -> None:
        """Click the versions button: open/refresh the history window."""
        if not self.versioned:
            raise OdeViewError(
                f"class {self.node.class_name!r} is not versioned")
        screen = self.ctx.screen
        name = self.versions_window_name()
        if screen.has(name):
            screen.set_content(name, self.version_history_text())
            screen.open(name)
        else:
            screen.create(text_window(
                name, self.version_history_text(),
                title=f"{self.node.class_name} versions",
                scrollable=True, height=6, width=60,
            ))

    # -- navigation (reference buttons, §3.3) ------------------------------------------------

    def open_reference(self, attr_name: str) -> "ObjectBrowser":
        """Click a reference button: open the object/object-set window."""
        if attr_name in self.children:
            return self.children[attr_name]
        if self.node.current is None:
            raise OdeViewError(
                f"no current object in {self.path!r}; sequence first"
            )
        child_node = self.node.child(attr_name)
        child = ObjectBrowser(self.ctx, self.database, child_node, self.registry)
        self.children[attr_name] = child
        return child

    # -- projection (paper §5.1) ----------------------------------------------------------------

    def displaylist(self) -> List[str]:
        return self.registry.displaylist(self.node.class_name)

    def project(self, selected: List[str]) -> None:
        """Project onto *selected* attributes (must be in the displaylist)."""
        displaylist = self.displaylist()
        self.bitvec = BitVector.from_selection(displaylist, selected)
        self._refresh_displays()

    def project_all(self) -> None:
        """The ALL button: project on every displaylist attribute."""
        self.bitvec = BitVector.all_set(len(self.displaylist()))
        self._refresh_displays()

    def clear_projection(self) -> None:
        self.bitvec = None
        self._refresh_displays()

    # -- teardown -------------------------------------------------------------------------------

    def destroy(self) -> None:
        """Close this browser, its windows, its children, its interactor."""
        for child in list(self.children.values()):
            child.destroy()
        self.children.clear()
        screen = self.ctx.screen
        for names in self._format_windows.values():
            for window_name in names:
                if screen.has(window_name):
                    screen.destroy(window_name)
        self._format_windows.clear()
        for window_name in (self.panel_name(), self.control_name(),
                            self.versions_window_name()):
            if screen.has(window_name):
                screen.destroy(window_name)
        if self.ctx.processes.has(self._interactor_name):
            self.ctx.processes.remove(self._interactor_name)
        if self._on_node_refresh in self.node.on_refresh:
            self.node.on_refresh.remove(self._on_node_refresh)
