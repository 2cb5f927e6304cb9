"""Predicate evaluation against object buffers.

This is the pushdown half of §5.2: "Once OdeView has obtained the selection
predicate, it passes the selection predicate to the object manager which
uses it to filter objects retrieved from the databases."  A compiled
predicate is a callable over :class:`~repro.ode.objectmanager.ObjectBuffer`;
the object manager applies it during cluster scans and index rechecks.

Semantics notes:

* ``->`` dereferences a reference by fetching the target buffer through the
  object manager (so cross-object predicates like
  ``dept->dname == "research"`` work).
* Following a *null* reference makes the predicate **false** rather than an
  error — the natural filter semantics (an employee with no department does
  not match ``dept->dname == ...``).
* Integer division truncates toward zero (C semantics); division by zero
  raises :class:`PredicateError`.
* Attributes are read through ``buffer.value``, so encapsulation (private
  attributes need privileged mode) holds on every path.
"""

from __future__ import annotations

import datetime
import operator
from typing import Any, Callable, List

from repro.errors import PredicateError
from repro.ode.oid import Oid
from repro.ode.opp import ast
from repro.ode.opp.parser import parse_expression

Compiled = Callable[[Any], Any]

#: Each comparison operator as a two-argument function.
_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
#: The exact types compared without the family rules: two values compare
#: directly when their types map to the same number here.
_PLAIN = {int: 0, float: 0, str: 1}
#: Each of those families' exact types.
_KINDS = {0: (int, float), 1: (str,)}


class _NullReference(Exception):
    """Internal: a null reference was dereferenced; predicate is false."""


class PredicateEvaluator:
    """Compiles expression ASTs into callables over object buffers.

    :meth:`compile` walks the tree once and returns nested closures, so
    a row pays for the operations the expression makes and not for
    dispatching on its nodes.  :meth:`evaluate` and :meth:`matches` are
    compile-and-call, for one-off use; a caller that checks many rows
    compiles once.
    """

    def __init__(self, manager=None, privileged: bool = False):
        self._manager = manager
        self._privileged = privileged

    # -- public API -----------------------------------------------------------

    def evaluate(self, expr: ast.Expr, buffer) -> Any:
        """Raw evaluation; may raise on type errors or null dereference."""
        return self.compile_value(expr)(buffer)

    def matches(self, expr: ast.Expr, buffer) -> bool:
        """Filter semantics: boolean result; null-dereference means False."""
        return self.compile(expr)(buffer)

    def compile_value(self, expr: ast.Expr) -> Compiled:
        """A reusable buffer -> value callable: :meth:`evaluate`, compiled."""
        run = self._compile(expr)

        def value(buffer) -> Any:
            try:
                return run(buffer)
            except _NullReference:
                raise PredicateError("null reference dereferenced") from None
        return value

    def compile(self, expr: ast.Expr) -> Callable[[Any], bool]:
        """A reusable buffer -> bool callable: :meth:`matches`, compiled
        (what cursors and selections consume).

        Its ``reads`` attribute is the set of attribute names the
        expression reads; the object manager decodes only those before
        the predicate has passed (``->`` and the built-in functions read
        only what their arguments name).
        """
        run = self._compile(expr)

        def predicate(buffer) -> bool:
            try:
                result = run(buffer)
            except _NullReference:
                return False
            if type(result) is bool:
                return result
            raise PredicateError(
                f"predicate evaluated to {type(result).__name__}, not bool"
            )
        predicate.reads = frozenset(ast.used_attributes(expr))
        return predicate

    def compile_source(self, source: str) -> Callable[[Any], bool]:
        """Parse and compile a condition-box string."""
        return self.compile(parse_expression(source))

    # -- compilation ----------------------------------------------------------

    def _compile(self, node: ast.Expr) -> Compiled:
        if isinstance(node, ast.Literal):
            value = node.value
            return lambda buffer: value
        if isinstance(node, ast.Name):
            ident, privileged = node.ident, self._privileged
            return lambda buffer: buffer.value(ident, privileged)
        if isinstance(node, ast.FieldAccess):
            return self._compile_field(node)
        if isinstance(node, ast.Index):
            return self._compile_index(node)
        if isinstance(node, ast.Call):
            return self._compile_call(node)
        if isinstance(node, ast.Unary):
            return self._compile_unary(node)
        if isinstance(node, ast.Binary):
            return self._compile_binary(node)
        message = f"cannot evaluate node {type(node).__name__}"

        def unknown(buffer):
            raise PredicateError(message)
        return unknown

    def _compile_field(self, node: ast.FieldAccess) -> Compiled:
        base, field_name = self._compile(node.base), node.field_name
        if node.arrow:
            manager, privileged = self._manager, self._privileged

            def follow(buffer):
                ref = base(buffer)
                if ref is None:
                    raise _NullReference()
                if not isinstance(ref, Oid):
                    raise PredicateError(
                        f"'->' applied to non-reference value {ref!r}"
                    )
                if manager is None:
                    raise PredicateError(
                        "'->' requires an object manager to follow references"
                    )
                return manager.get_buffer(ref).value(field_name, privileged)
            return follow

        def member(buffer):
            record = base(buffer)
            if not isinstance(record, dict):
                raise PredicateError(f"'.' applied to non-struct value {record!r}")
            if field_name not in record:
                raise PredicateError(f"struct has no field {field_name!r}")
            return record[field_name]
        return member

    def _compile_index(self, node: ast.Index) -> Compiled:
        base, subscript = self._compile(node.base), self._compile(node.subscript)

        def element(buffer):
            items = base(buffer)
            position = subscript(buffer)
            if not isinstance(items, (list, tuple)):
                raise PredicateError(f"subscript applied to {type(items).__name__}")
            if not isinstance(position, int) or isinstance(position, bool):
                raise PredicateError("array subscript must be an integer")
            if not 0 <= position < len(items):
                raise PredicateError(
                    f"subscript {position} out of range 0..{len(items) - 1}"
                )
            return items[position]
        return element

    def _compile_call(self, node: ast.Call) -> Compiled:
        args = tuple(self._compile(arg) for arg in node.args)
        func = node.func
        return lambda buffer: _call(func, [arg(buffer) for arg in args])

    def _compile_unary(self, node: ast.Unary) -> Compiled:
        operand = self._compile(node.operand)
        if node.op == "!":
            def negate(buffer):
                value = operand(buffer)
                if type(value) is not bool:
                    raise PredicateError("'!' requires a boolean")
                return not value
            return negate

        def minus(buffer):
            value = operand(buffer)
            _require_number(value, "unary '-'")
            return -value
        return minus

    def _compile_binary(self, node: ast.Binary) -> Compiled:
        op = node.op
        left, right = self._compile(node.left), self._compile(node.right)
        if op in ast.LOGICAL_OPS:
            decides = op == "||"   # the left value that is the answer
            message = f"'{op}' requires booleans"

            def logical(buffer):
                first = left(buffer)
                if type(first) is not bool:
                    raise PredicateError(message)
                if first is decides:
                    return decides
                second = right(buffer)
                if type(second) is not bool:
                    raise PredicateError(message)
                return second
            return logical
        if op not in _COMPARE:
            def arithmetic(buffer):
                return _arithmetic(op, left(buffer), right(buffer))
            return arithmetic

        fast = _COMPARE[op]
        literal = node.right
        if isinstance(node.left, ast.Name) and isinstance(literal, ast.Literal) \
                and type(literal.value) in _PLAIN:
            # ``attribute op constant``, the sargable shape, in one call
            # per row: the constant's family is known now.
            ident, privileged = node.left.ident, self._privileged
            constant = literal.value
            kinds = _KINDS[_PLAIN[type(constant)]]

            def compare_attribute(buffer):
                value = buffer.value(ident, privileged)
                if type(value) in kinds:
                    return fast(value, constant)
                return _compare(op, value, constant)
            return compare_attribute

        def compare(buffer):
            first = left(buffer)
            second = right(buffer)
            family = _PLAIN.get(type(first))
            if family is not None and family == _PLAIN.get(type(second)):
                return fast(first, second)
            return _compare(op, first, second)
        return compare


# -- the operations a compiled expression calls ----------------------------------

def _require_number(value, context: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PredicateError(f"{context} requires a number, got {value!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _same_family(left, right) -> bool:
    if left is None or right is None:
        return True
    if _is_number(left) and _is_number(right):
        return True
    for family in (str, bool, datetime.date, Oid):
        if isinstance(left, family) and isinstance(right, family):
            return True
    return False


def _compare(op: str, left, right) -> bool:
    """A comparison under the family rules: numbers with numbers, and
    otherwise like with like; ``None``, booleans and OIDs only test for
    equality."""
    if not _same_family(left, right):
        raise PredicateError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )
    if left is None or right is None or isinstance(left, (bool, Oid)) \
            or isinstance(right, (bool, Oid)):
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        raise PredicateError(
            f"operator {op!r} not supported for this operand type"
        )
    compare = _COMPARE.get(op)
    if compare is None:
        raise PredicateError(f"unknown comparison {op!r}")
    return compare(left, right)


def _arithmetic(op: str, left, right) -> Any:
    if op == "+" and isinstance(left, str) and isinstance(right, str):
        return left + right
    _require_number(left, f"'{op}'")
    _require_number(right, f"'{op}'")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise PredicateError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            return int(left / right)  # C-style truncation toward zero
        return left / right
    if op == "%":
        if not isinstance(left, int) or not isinstance(right, int):
            raise PredicateError("'%' requires integers")
        if right == 0:
            raise PredicateError("modulo by zero")
        return left - int(left / right) * right  # C-style remainder
    raise PredicateError(f"unknown operator {op!r}")


def _call(func: str, args: List[Any]) -> Any:
    """A built-in function of the evaluated *args*."""
    if func == "size":
        (value,) = _arity(func, args, 1)
        if isinstance(value, (list, tuple, str)):
            return len(value)
        raise PredicateError("size() requires a set, array, or string")
    if func == "contains":
        collection, element = _arity(func, args, 2)
        if not isinstance(collection, (list, tuple)):
            raise PredicateError("contains() requires a set")
        return element in collection
    if func in ("lower", "upper"):
        (value,) = _arity(func, args, 1)
        if not isinstance(value, str):
            raise PredicateError(f"{func}() requires a string")
        return value.lower() if func == "lower" else value.upper()
    if func in ("year", "month", "day"):
        (value,) = _arity(func, args, 1)
        if not isinstance(value, datetime.date):
            raise PredicateError(f"{func}() requires a Date")
        return getattr(value, func)
    if func == "abs":
        (value,) = _arity(func, args, 1)
        _require_number(value, "abs()")
        return abs(value)
    if func in ("min", "max"):
        first, second = _arity(func, args, 2)
        _require_number(first, f"{func}()")
        _require_number(second, f"{func}()")
        return min(first, second) if func == "min" else max(first, second)
    raise PredicateError(f"unknown function {func!r}")


def _arity(func: str, args: List[Any], count: int) -> List[Any]:
    if len(args) != count:
        raise PredicateError(
            f"{func}() takes {count} argument(s), got {len(args)}"
        )
    return args
