"""Views involving more than one object (paper §5.3).

"We have decided to display all the objects involved in the join
simultaneously — each displayed using the corresponding display function."

An equi-join pairs objects of two classes whose join expressions evaluate
equal; the :class:`JoinView` then behaves like an object-set window over
the *pairs*: one control panel, and per pair one display per side, each
produced by that class's own display function.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import OdeViewError
from repro.core.objectbrowser import UiContext
from repro.dynlink.protocol import DisplayRequest
from repro.dynlink.registry import DisplayRegistry
from repro.ode.database import Database
from repro.ode.oid import Oid
from repro.ode.opp.parser import parse_expression
from repro.ode.opp.predicate import PredicateEvaluator
from repro.errors import PredicateError
from repro.windowing.wintypes import text_window
from repro.windowing.widgets import control_panel


def equi_join(database: Database, class_a: str, expr_a: str,
              class_b: str, expr_b: str,
              privileged: bool = False) -> List[Tuple[Oid, Oid]]:
    """All (a, b) pairs where expr_a(a) == expr_b(b), hash-join order.

    Pair order is deterministic: cluster order of *class_a*, then of
    *class_b* within equal keys.
    """
    evaluator = PredicateEvaluator(database.objects, privileged=privileged)
    key_a = evaluator.compile_value(parse_expression(expr_a))
    key_b = evaluator.compile_value(parse_expression(expr_b))

    buckets: Dict[Any, List[Oid]] = {}
    for buffer in database.objects.select(class_b):
        try:
            key = key_b(buffer)
        except PredicateError:
            continue
        buckets.setdefault(_hashable(key), []).append(buffer.oid)

    pairs: List[Tuple[Oid, Oid]] = []
    for buffer in database.objects.select(class_a):
        try:
            key = key_a(buffer)
        except PredicateError:
            continue
        for oid_b in buckets.get(_hashable(key), ()):
            pairs.append((buffer.oid, oid_b))
    return pairs


def _hashable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _hashable(val)) for key, val in value.items()))
    return value


class JoinView:
    """Windows over a sequence of joined object tuples."""

    _counter = 0

    def __init__(self, ctx: UiContext, database: Database,
                 pairs: List[Tuple[Oid, ...]],
                 registry: Optional[DisplayRegistry] = None):
        if not pairs:
            raise OdeViewError("join produced no pairs to display")
        widths = {len(pair) for pair in pairs}
        if len(widths) != 1:
            raise OdeViewError("join tuples must all have the same width")
        self.ctx = ctx
        self.database = database
        self.registry = registry or DisplayRegistry(database)
        self.pairs = list(pairs)
        self.index = -1
        JoinView._counter += 1
        self.path = f"{database.name}.join{JoinView._counter}"
        self._display_windows: List[str] = []
        self._build()

    def _build(self) -> None:
        screen = self.ctx.screen
        screen.create(control_panel(self.path))
        for op, button_index in (("reset", 0), ("next", 1), ("previous", 2)):
            screen.on_click(
                f"{self.path}.control.{op}.{button_index}",
                lambda _event, o=op: getattr(self, o)(),
            )
        screen.create(
            text_window(f"{self.path}.status",
                        f"(join: {len(self.pairs)} pairs)", width=44)
        )

    # -- sequencing over pairs -------------------------------------------------------

    def current(self) -> Optional[Tuple[Oid, ...]]:
        if self.index < 0:
            return None
        return self.pairs[self.index]

    def reset(self) -> None:
        self.index = -1
        self._refresh()

    def next(self) -> Optional[Tuple[Oid, ...]]:
        if self.index + 1 < len(self.pairs):
            self.index += 1
            self._refresh()
            return self.current()
        return None

    def previous(self) -> Optional[Tuple[Oid, ...]]:
        if self.index > 0:
            self.index -= 1
            self._refresh()
            return self.current()
        return None

    # -- display -------------------------------------------------------------------------

    def _refresh(self) -> None:
        """Display every object of the current tuple simultaneously, each
        with its own class's display function (paper §5.3)."""
        screen = self.ctx.screen
        for window_name in self._display_windows:
            if screen.has(window_name):
                screen.destroy(window_name)
        self._display_windows = []
        pair = self.current()
        if pair is None:
            screen.set_content(f"{self.path}.status",
                               f"(join: {len(self.pairs)} pairs)")
            return
        screen.set_content(
            f"{self.path}.status",
            f"pair {self.index + 1}/{len(self.pairs)}: "
            + " |><| ".join(str(oid) for oid in pair),
        )
        for side, oid in enumerate(pair):
            buffer = self.database.objects.get_buffer(oid)
            request = DisplayRequest(
                format_name=self.registry.formats(buffer.class_name)[0],
                privileged=self.ctx.privileged,
                window_prefix=f"{self.path}.side{side}",
            )
            resources = self.registry.display(buffer, request)
            for spec in resources.windows:
                screen.create(spec)
                self._display_windows.append(spec.name)

    def destroy(self) -> None:
        screen = self.ctx.screen
        for window_name in self._display_windows:
            if screen.has(window_name):
                screen.destroy(window_name)
        for window_name in (f"{self.path}.control", f"{self.path}.status"):
            if screen.has(window_name):
                screen.destroy(window_name)
