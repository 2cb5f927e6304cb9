"""The reference for the compiled predicate evaluator: the tree walker.

This is the evaluator ``repro.ode.opp.predicate`` had before it compiled
expressions into closures, kept verbatim below this docstring.  It walks
the AST on every call; ``test_predicate_equivalence`` checks that the
compiled evaluator gives the same value, or raises the same exception
type with the same message, on every expression it draws.
"""

from __future__ import annotations

import datetime
from typing import Any, Callable, Optional

from repro.errors import PredicateError
from repro.ode.oid import Oid
from repro.ode.opp import ast
from repro.ode.opp.parser import parse_expression


class _NullReference(Exception):
    """Internal: a null reference was dereferenced; predicate is false."""


class PredicateEvaluator:
    """Evaluates expression ASTs against object buffers."""

    def __init__(self, manager=None, privileged: bool = False):
        self._manager = manager
        self._privileged = privileged

    # -- public API -----------------------------------------------------------

    def evaluate(self, expr: ast.Expr, buffer) -> Any:
        """Raw evaluation; may raise on type errors or null dereference."""
        try:
            return self._eval(expr, buffer)
        except _NullReference:
            raise PredicateError("null reference dereferenced") from None

    def matches(self, expr: ast.Expr, buffer) -> bool:
        """Filter semantics: boolean result; null-dereference means False."""
        try:
            result = self._eval(expr, buffer)
        except _NullReference:
            return False
        if not isinstance(result, bool):
            raise PredicateError(
                f"predicate evaluated to {type(result).__name__}, not bool"
            )
        return result

    def compile(self, expr: ast.Expr) -> Callable[[Any], bool]:
        """A reusable buffer -> bool callable (what cursors consume).

        Its ``reads`` attribute is the set of attribute names the
        expression reads; the object manager decodes only those before
        the predicate has passed (``->`` and the built-in functions read
        only what their arguments name).
        """
        def predicate(buffer) -> bool:
            return self.matches(expr, buffer)
        predicate.reads = frozenset(ast.used_attributes(expr))
        return predicate

    def compile_source(self, source: str) -> Callable[[Any], bool]:
        """Parse and compile a condition-box string."""
        return self.compile(parse_expression(source))

    # -- evaluation -----------------------------------------------------------

    def _eval(self, node: ast.Expr, buffer) -> Any:
        if isinstance(node, ast.Literal):
            return node.value
        if isinstance(node, ast.Name):
            return buffer.value(node.ident, privileged=self._privileged)
        if isinstance(node, ast.FieldAccess):
            base = self._eval(node.base, buffer)
            if node.arrow:
                if base is None:
                    raise _NullReference()
                if not isinstance(base, Oid):
                    raise PredicateError(
                        f"'->' applied to non-reference value {base!r}"
                    )
                if self._manager is None:
                    raise PredicateError(
                        "'->' requires an object manager to follow references"
                    )
                target = self._manager.get_buffer(base)
                return target.value(node.field_name, privileged=self._privileged)
            if not isinstance(base, dict):
                raise PredicateError(f"'.' applied to non-struct value {base!r}")
            if node.field_name not in base:
                raise PredicateError(f"struct has no field {node.field_name!r}")
            return base[node.field_name]
        if isinstance(node, ast.Index):
            base = self._eval(node.base, buffer)
            subscript = self._eval(node.subscript, buffer)
            if not isinstance(base, (list, tuple)):
                raise PredicateError(f"subscript applied to {type(base).__name__}")
            if not isinstance(subscript, int) or isinstance(subscript, bool):
                raise PredicateError("array subscript must be an integer")
            if not 0 <= subscript < len(base):
                raise PredicateError(
                    f"subscript {subscript} out of range 0..{len(base) - 1}"
                )
            return base[subscript]
        if isinstance(node, ast.Call):
            return self._eval_call(node, buffer)
        if isinstance(node, ast.Unary):
            if node.op == "!":
                operand = self._eval(node.operand, buffer)
                if not isinstance(operand, bool):
                    raise PredicateError("'!' requires a boolean")
                return not operand
            operand = self._eval(node.operand, buffer)
            self._require_number(operand, "unary '-'")
            return -operand
        if isinstance(node, ast.Binary):
            return self._eval_binary(node, buffer)
        raise PredicateError(f"cannot evaluate node {type(node).__name__}")

    def _eval_call(self, node: ast.Call, buffer) -> Any:
        args = [self._eval(arg, buffer) for arg in node.args]
        func = node.func
        if func == "size":
            (value,) = self._arity(func, args, 1)
            if isinstance(value, (list, tuple, str)):
                return len(value)
            raise PredicateError("size() requires a set, array, or string")
        if func == "contains":
            collection, element = self._arity(func, args, 2)
            if not isinstance(collection, (list, tuple)):
                raise PredicateError("contains() requires a set")
            return element in collection
        if func in ("lower", "upper"):
            (value,) = self._arity(func, args, 1)
            if not isinstance(value, str):
                raise PredicateError(f"{func}() requires a string")
            return value.lower() if func == "lower" else value.upper()
        if func in ("year", "month", "day"):
            (value,) = self._arity(func, args, 1)
            if not isinstance(value, datetime.date):
                raise PredicateError(f"{func}() requires a Date")
            return getattr(value, func)
        if func == "abs":
            (value,) = self._arity(func, args, 1)
            self._require_number(value, "abs()")
            return abs(value)
        if func in ("min", "max"):
            first, second = self._arity(func, args, 2)
            self._require_number(first, f"{func}()")
            self._require_number(second, f"{func}()")
            return min(first, second) if func == "min" else max(first, second)
        raise PredicateError(f"unknown function {func!r}")

    @staticmethod
    def _arity(func: str, args, count: int):
        if len(args) != count:
            raise PredicateError(
                f"{func}() takes {count} argument(s), got {len(args)}"
            )
        return args

    @staticmethod
    def _require_number(value, context: str) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise PredicateError(f"{context} requires a number, got {value!r}")

    def _eval_binary(self, node: ast.Binary, buffer) -> Any:
        op = node.op
        if op == "&&":
            left = self._eval(node.left, buffer)
            if not isinstance(left, bool):
                raise PredicateError("'&&' requires booleans")
            if not left:
                return False
            right = self._eval(node.right, buffer)
            if not isinstance(right, bool):
                raise PredicateError("'&&' requires booleans")
            return right
        if op == "||":
            left = self._eval(node.left, buffer)
            if not isinstance(left, bool):
                raise PredicateError("'||' requires booleans")
            if left:
                return True
            right = self._eval(node.right, buffer)
            if not isinstance(right, bool):
                raise PredicateError("'||' requires booleans")
            return right

        left = self._eval(node.left, buffer)
        right = self._eval(node.right, buffer)

        if op in ast.COMPARISON_OPS:
            return self._compare(op, left, right)

        # arithmetic
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        self._require_number(left, f"'{op}'")
        self._require_number(right, f"'{op}'")
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

    @staticmethod
    def _compare(op: str, left, right) -> bool:
        def same_family() -> bool:
            if left is None or right is None:
                return True
            numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
            if numeric(left) and numeric(right):
                return True
            for family in (str, bool, datetime.date, Oid):
                if isinstance(left, family) and isinstance(right, family):
                    return True
            return False

        if not same_family():
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
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise PredicateError(f"unknown comparison {op!r}")
