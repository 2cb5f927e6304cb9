"""Abstract syntax for the O++ subset.

Two families of nodes:

* *Declarations* — struct and class definitions, as shown in the
  class-definition window (Figure 4).
* *Expressions* — selection predicates typed into the condition box or
  assembled from menus (paper §5.2).

All nodes are frozen dataclasses so they can be hashed, compared in tests,
and safely shared between the parser, checker, evaluator, and printer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Set, Tuple


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expr):
    """An int, float, string, bool, or null literal."""

    value: Any

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


@dataclass(frozen=True)
class Name(Expr):
    """A bare identifier — an attribute of the object under test."""

    ident: str


@dataclass(frozen=True)
class FieldAccess(Expr):
    """``base.field`` (struct field) or ``base->field`` (follow reference)."""

    base: Expr
    field_name: str
    arrow: bool = False


@dataclass(frozen=True)
class Index(Expr):
    """``base[subscript]`` on an array."""

    base: Expr
    subscript: Expr


@dataclass(frozen=True)
class Call(Expr):
    """A builtin function call, e.g. ``size(members)``."""

    func: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Unary(Expr):
    """``!operand`` or ``-operand``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    """Arithmetic, comparison, or logical binary operation."""

    op: str
    left: Expr
    right: Expr


def used_attributes(expr: Expr) -> Set[str]:
    """Every bare attribute name a predicate mentions (its root names)."""
    names: Set[str] = set()

    def visit(node: Expr) -> None:
        if isinstance(node, Name):
            names.add(node.ident)
        elif isinstance(node, FieldAccess):
            visit(node.base)
        elif isinstance(node, Index):
            visit(node.base)
            visit(node.subscript)
        elif isinstance(node, Call):
            for arg in node.args:
                visit(arg)
        elif isinstance(node, Unary):
            visit(node.operand)
        elif isinstance(node, Binary):
            visit(node.left)
            visit(node.right)

    visit(expr)
    return names


COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
LOGICAL_OPS = ("&&", "||")
ARITHMETIC_OPS = ("+", "-", "*", "/", "%")


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeName:
    """A parsed type expression, before resolution against the schema.

    ``base`` is a builtin name (``int``, ``double``, ``char``, ``Date``,
    ``String``, ``bool``) or a struct/class identifier.  ``pointer`` marks a
    ``*`` declarator, ``set_of`` wraps the element type of a ``set<...>``,
    and ``array_lengths`` records ``[n]`` suffixes outermost-first.
    """

    base: str
    pointer: bool = False
    set_of: Optional["TypeName"] = None
    array_lengths: Tuple[int, ...] = ()


@dataclass(frozen=True)
class FieldDecl:
    """One data-member declaration."""

    name: str
    type_name: TypeName
    access: str  # "public" | "private"
    line: int = 0


@dataclass(frozen=True)
class MethodDecl:
    """One member-function declaration; ``const`` marks it side-effect free."""

    name: str
    result: TypeName
    access: str
    is_const: bool = False
    line: int = 0


@dataclass(frozen=True)
class ConstraintDecl:
    """One expression from a ``constraint:`` section."""

    expr: Expr
    source: str


@dataclass(frozen=True)
class TriggerDecl:
    """One declaration from a ``trigger:`` section.

    ``name : condition ==> attr = expr, attr = expr`` — when the condition
    holds after an update, the assignments are applied.  ``once`` triggers
    deactivate after their first firing (O++ offers both flavours).
    """

    name: str
    condition: Expr
    assignments: Tuple[Tuple[str, Expr], ...]
    once: bool = False
    source: str = ""


@dataclass(frozen=True)
class StructDef:
    name: str
    fields: Tuple[FieldDecl, ...]


@dataclass(frozen=True)
class ClassDef:
    name: str
    bases: Tuple[str, ...]
    fields: Tuple[FieldDecl, ...]
    methods: Tuple[MethodDecl, ...]
    constraints: Tuple[ConstraintDecl, ...]
    triggers: Tuple[TriggerDecl, ...] = ()
    persistent: bool = False
    versioned: bool = False


@dataclass(frozen=True)
class Program:
    """A parsed O++ source unit: structs and classes, declaration order."""

    structs: Tuple[StructDef, ...] = ()
    classes: Tuple[ClassDef, ...] = ()
