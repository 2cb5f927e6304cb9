"""The interactive selection window (paper §5.2's two schemes, as UI).

"A predicate is formed by selecting from a menu of attribute names and
operators and typing in values ... Another alternative is to use a
condition box similar to QBE and type in the selection condition as a
string."

The panel offers both at once:

* two pop-up menus (attribute names from the class's selectlist, operators)
  plus a value field typed via keyboard input, combined by the ``add``
  button — the simple scheme;
* a condition box accepting a predicate string — the complex scheme.

``apply`` opens an object-set window over the matching objects.  Its
members come from one planned selection
(:meth:`~repro.core.selection.SelectionBuilder.execute`): the pushdown
happens in the object manager, as the paper says — locally through the
planner, over the wire on the server.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import SelectionError
from repro.core.selection import SelectionBuilder
from repro.windowing.events import KeyInput, MenuSelect
from repro.windowing.wintypes import at, below, button, menu, panel, right_of, text_window


def parse_value(text: str) -> Any:
    """Interpret a typed value: int, float, bool, or (possibly quoted) string."""
    stripped = text.strip()
    if not stripped:
        raise SelectionError("empty value typed into the selection panel")
    if stripped in ("true", "false"):
        return stripped == "true"
    if (len(stripped) >= 2 and stripped[0] == stripped[-1]
            and stripped[0] in "\"'"):
        return stripped[1:-1]
    try:
        return int(stripped)
    except ValueError:
        pass
    try:
        return float(stripped)
    except ValueError:
        pass
    return stripped


class SelectionPanel:
    """Windows + behaviour for building one selection interactively."""

    def __init__(self, db_session, class_name: str):
        self.session = db_session
        self.class_name = class_name
        self.builder = SelectionBuilder(
            db_session.database, class_name, db_session.registry,
            privileged=db_session.app.ctx.privileged,
        )
        self.picked_attribute: Optional[str] = None
        self.picked_operator: Optional[str] = None
        self.typed_value: Optional[str] = None
        self.result_browser = None
        self._window = f"{db_session.name}.select.{class_name}"
        self._build()

    # -- names ---------------------------------------------------------------

    @property
    def window_name(self) -> str:
        return self._window

    def part(self, suffix: str) -> str:
        return f"{self._window}.{suffix}"

    # -- construction -------------------------------------------------------------

    def _build(self) -> None:
        screen = self.session.app.ctx.screen
        attributes = tuple(self.builder.attributes())
        if not attributes:
            raise SelectionError(
                f"class {self.class_name!r} has an empty selectlist")
        children = (
            menu(self.part("attrs"), attributes, title="attribute",
                 placement=at(0, 0)),
            menu(self.part("ops"), tuple(self.builder.operators()),
                 title="operator", placement=right_of(self.part("attrs"))),
            text_window(self.part("value"), "(type a value)", title="value",
                        width=18, placement=right_of(self.part("ops"))),
            button(self.part("add"), "add", "add",
                   placement=below(self.part("attrs"))),
            text_window(self.part("condition"), "(condition box: empty)",
                        title="condition box", width=44, height=2,
                        scrollable=True,
                        placement=below(self.part("add"))),
            button(self.part("apply"), "apply", "apply",
                   placement=below(self.part("condition"))),
            button(self.part("clear"), "clear", "clear",
                   placement=right_of(self.part("apply"))),
        )
        screen.create(panel(self._window, children,
                            title=f"select {self.class_name}"))
        events = screen.events
        events.on(self.part("attrs"), self._on_event)
        events.on(self.part("ops"), self._on_event)
        events.on(self.part("value"), self._on_event)
        events.on(self.part("condition"), self._on_event)
        screen.on_click(self.part("add"), lambda _e: self.add_condition())
        screen.on_click(self.part("apply"), lambda _e: self.apply())
        screen.on_click(self.part("clear"), lambda _e: self.clear())

    # -- event handling --------------------------------------------------------------

    def _on_event(self, event) -> None:
        screen = self.session.app.ctx.screen
        if isinstance(event, MenuSelect):
            if event.window == self.part("attrs"):
                self.picked_attribute = event.item
            elif event.window == self.part("ops"):
                self.picked_operator = event.item
        elif isinstance(event, KeyInput):
            if event.window == self.part("value"):
                self.typed_value = event.text
                screen.set_content(self.part("value"), event.text)
            elif event.window == self.part("condition"):
                self.set_condition(event.text)

    # -- the two schemes ---------------------------------------------------------------

    def add_condition(self) -> None:
        """The menu scheme: combine the current attribute/operator/value."""
        if not (self.picked_attribute and self.picked_operator
                and self.typed_value is not None):
            raise SelectionError(
                "pick an attribute, an operator, and type a value first")
        self.builder.add_condition(
            self.picked_attribute, self.picked_operator,
            parse_value(self.typed_value))
        self._refresh_condition_box()

    def set_condition(self, source: str) -> None:
        """The condition box: a predicate string, validated immediately."""
        self.builder.set_condition(source)
        self._refresh_condition_box()

    def _refresh_condition_box(self) -> None:
        screen = self.session.app.ctx.screen
        try:
            text = self.builder.source()
        except SelectionError:
            text = "(condition box: empty)"
        screen.set_content(self.part("condition"), text)

    # -- actions -----------------------------------------------------------------------

    def apply(self):
        """Push the selection down; open an object set over the matches."""
        self.result_browser = self.session.open_object_set(
            self.class_name, selection=self.builder)
        return self.result_browser

    def clear(self) -> None:
        self.builder = SelectionBuilder(
            self.session.database, self.class_name, self.session.registry,
            privileged=self.session.app.ctx.privileged,
        )
        self.picked_attribute = None
        self.picked_operator = None
        self.typed_value = None
        self._refresh_condition_box()
        screen = self.session.app.ctx.screen
        screen.set_content(self.part("value"), "(type a value)")

    def destroy(self) -> None:
        screen = self.session.app.ctx.screen
        if screen.has(self._window):
            screen.destroy(self._window)
