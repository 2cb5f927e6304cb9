"""Selection (paper §5.2).

Two predicate-construction schemes, exactly as the paper proposes:

* the **menu scheme** ("a predicate is formed by selecting from a menu of
  attribute names and operators and typing in values") — good for simple
  predicates;
* the **condition box** ("similar to QBE and type in the selection
  condition as a string") — good for complex ones.

Both validate that every attribute used comes from the class's
``selectlist`` (synthesized when the designer provided none) and
type-check the predicate.  :meth:`SelectionBuilder.execute` is the one
way a selection runs — the pushdown of §5.2: locally the
:class:`~repro.core.queryplan.SelectionPlanner` probes an index or scans
the cluster with the object manager's row check; over the wire the
server plans and filters, and ships back only the matches.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import SelectionError, TypeCheckError
from repro.dynlink.registry import DisplayRegistry
from repro.ode.database import Database
from repro.ode.opp import ast
from repro.ode.opp.ast import used_attributes
from repro.ode.opp.parser import parse_expression
from repro.ode.opp.printer import expr_to_source
from repro.ode.opp.typecheck import check_selection_predicate

#: Operators the menu scheme offers.
MENU_OPERATORS = ("==", "!=", "<", "<=", ">", ">=")


class SelectionBuilder:
    """Builds a validated selection predicate for one class and runs it."""

    def __init__(self, database: Database, class_name: str,
                 registry: Optional[DisplayRegistry] = None,
                 privileged: bool = False):
        database.schema.get_class(class_name)
        self.database = database
        self.class_name = class_name
        self.registry = registry or DisplayRegistry(database)
        self.privileged = privileged
        self._conjuncts: List[ast.Expr] = []
        self._condition: Optional[ast.Expr] = None

    # -- what the user may select on -----------------------------------------------

    def attributes(self) -> List[str]:
        """The selectlist: "the user must be informed as to what attributes
        can be used to construct the selection predicate" (§5.2)."""
        return self.registry.selectlist(self.class_name)

    def operators(self) -> tuple:
        return MENU_OPERATORS

    # -- scheme 1: menus ---------------------------------------------------------------

    def add_condition(self, attribute: str, operator: str, value: Any) -> None:
        """One menu-built comparison; conditions AND together."""
        if attribute not in self.attributes():
            raise SelectionError(
                f"attribute {attribute!r} is not in the selectlist of "
                f"{self.class_name!r}"
            )
        if operator not in MENU_OPERATORS:
            raise SelectionError(f"unknown operator {operator!r}")
        if isinstance(value, str):
            literal: ast.Expr = ast.Literal(value)
        elif isinstance(value, bool):
            literal = ast.Literal(value)
        elif isinstance(value, (int, float)):
            literal = ast.Literal(value)
        else:
            raise SelectionError(
                f"menu values must be scalars, got {type(value).__name__}"
            )
        # Not append: an open selection set's copy keeps its conditions.
        self._conjuncts = [
            *self._conjuncts, ast.Binary(operator, ast.Name(attribute), literal)
        ]

    # -- scheme 2: the condition box ------------------------------------------------------

    def set_condition(self, source: str) -> None:
        """Type a predicate string into the QBE-style condition box."""
        expr = parse_expression(source)
        self._validate(expr)
        self._condition = expr

    # -- build ------------------------------------------------------------------------------

    def expression(self) -> ast.Expr:
        parts: List[ast.Expr] = list(self._conjuncts)
        if self._condition is not None:
            parts.append(self._condition)
        if not parts:
            raise SelectionError("no selection condition given")
        expr = parts[0]
        for part in parts[1:]:
            expr = ast.Binary("&&", expr, part)
        return expr

    def source(self) -> str:
        return expr_to_source(self.expression())

    def _validate(self, expr: ast.Expr) -> None:
        allowed = set(self.attributes())
        used = used_attributes(expr)
        outside = used - allowed
        if outside:
            raise SelectionError(
                f"attributes not in the selectlist of {self.class_name!r}: "
                f"{sorted(outside)}"
            )
        try:
            check_selection_predicate(
                expr, self.class_name, self.database.schema,
                privileged=self.privileged,
            )
        except TypeCheckError as exc:
            raise SelectionError(f"bad selection predicate: {exc}") from exc

    def count_matches(self) -> int:
        return len(self.execute())

    # -- index-aware execution ---------------------------------------------------

    def plan(self, force: Optional[str] = None):
        """An index-aware :class:`~repro.core.queryplan.QueryPlan` of a
        local database.  A remote database's server plans its
        selections: ask it with :meth:`explain`."""
        from repro.core.queryplan import SelectionPlanner

        if getattr(self.database, "remote", False):
            raise SelectionError(
                "a remote database plans on its server; use explain()")
        expr = self.expression()
        self._validate(expr)
        planner = SelectionPlanner(self.database, privileged=self.privileged)
        return planner.plan(self.class_name, expr, force=force)

    def execute(self, force: Optional[str] = None):
        """Validate, plan, and run the selection (index probe when the
        cost model prefers it).

        Against a remote database the whole selection crosses the wire:
        the *server* plans against its statistics and indexes and
        returns only the matches — §5.2's pushdown with index
        acceleration, instead of the client scanning the cluster over
        the network.
        """
        from repro.core.queryplan import SelectionPlanner

        expr = self.expression()
        self._validate(expr)
        if getattr(self.database, "remote", False):
            return self.database.objects.select_pushdown(
                self.class_name, expr_to_source(expr),
                force=force, privileged=self.privileged)
        planner = SelectionPlanner(self.database, privileged=self.privileged)
        return planner.select(self.class_name, expr, force=force)

    def explain(self, force: Optional[str] = None) -> str:
        """The EXPLAIN text for this selection as currently built.

        Local databases plan locally; remote ones ask the server (one
        OP_EXPLAIN round trip), whose statistics drive the plan that
        :meth:`execute` would actually run.
        """
        expr = self.expression()
        self._validate(expr)
        if getattr(self.database, "remote", False):
            reply = self.database.objects.explain(
                self.class_name, expr_to_source(expr),
                force=force, privileged=self.privileged)
            return str(reply.get("explain", ""))
        return self.plan(force=force).explain()


def select_objects(database: Database, class_name: str, condition: str,
                   registry: Optional[DisplayRegistry] = None,
                   privileged: bool = False):
    """One-call pushdown selection: buffers matching a condition string."""
    builder = SelectionBuilder(database, class_name, registry, privileged)
    builder.set_condition(condition)
    return builder.execute()
