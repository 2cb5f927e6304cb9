"""Compiling O++ ``constraint:`` sections into enforced constraints.

A class definition may carry a constraint section (paper §1: O++ provides
"facilities for ... associating constraints and triggers with objects")::

    persistent class employee {
      public:
        int id;
      constraint:
        id >= 0;
    };

The parser stores the sources in :attr:`OdeClass.constraint_sources`; this
module compiles them into executable :class:`~repro.ode.constraints.
Constraint` objects that the object manager enforces on every create and
update — no manual behaviour binding required.

Constraints run *inside* the class, so they may read private attributes
(privileged evaluation) but they see stored attributes only, not computed
member functions (which could recurse into the object manager mid-write).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import ObjectNotFoundError, TypeCheckError
from repro.ode.constraints import Constraint, Trigger
from repro.ode.opp.parser import parse_expression, parse_trigger
from repro.ode.opp.predicate import PredicateEvaluator
from repro.ode.schema import Schema


class _RawValuesBuffer:
    """Adapter: lets the predicate evaluator read a plain values dict."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, Any]):
        self._values = values

    def value(self, name: str, privileged: bool = False) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise ObjectNotFoundError(
                f"constraint references unknown attribute {name!r}"
            ) from None


def compile_constraint(source: str, class_name: str,
                       schema: Schema) -> Constraint:
    """Compile one constraint source string for *class_name*."""
    expr = parse_expression(source)
    from repro.ode.opp.typecheck import check_selection_predicate

    # Constraints are class-internal: private members are fair game.
    check_selection_predicate(expr, class_name, schema, privileged=True)
    predicate = PredicateEvaluator(privileged=True).compile(expr)

    def check(values: Mapping[str, Any]) -> bool:
        return predicate(_RawValuesBuffer(values))

    return Constraint(name=f"opp:{source}", check=check, source=source)


def compile_trigger(source: str, class_name: str, schema: Schema) -> Trigger:
    """Compile one ``trigger:`` declaration for *class_name*.

    ``[once] name : condition ==> attr = expr, ...`` — the condition is a
    boolean predicate over the object's values; each assignment target must
    be a stored attribute of the class.  Assignment values are type-checked
    again at fire time by the object manager's update path.
    """
    decl = parse_trigger(source)
    from repro.ode.opp.typecheck import check_predicate, check_selection_predicate

    check_selection_predicate(decl.condition, class_name, schema,
                              privileged=True)
    for target, expr in decl.assignments:
        schema.find_attribute(class_name, target)  # SchemaError if unknown
        check_predicate(expr, class_name, schema, privileged=True)
    evaluator = PredicateEvaluator(privileged=True)
    predicate = evaluator.compile(decl.condition)
    assignments = [(target, evaluator.compile_value(expr))
                   for target, expr in decl.assignments]

    def condition(values: Mapping[str, Any]) -> bool:
        return predicate(_RawValuesBuffer(values))

    def action(values: Mapping[str, Any]) -> Dict[str, Any]:
        buffer = _RawValuesBuffer(values)
        return {target: value(buffer) for target, value in assignments}

    return Trigger(
        name=decl.name,
        condition=condition,
        action=action,
        perpetual=not decl.once,
        source=source,
    )


class CompiledConstraintCache:
    """Per-class compiled constraints, invalidated on schema evolution."""

    def __init__(self, schema: Schema):
        self._schema = schema
        self._cache: Dict[str, Tuple[int, List[Constraint]]] = {}

    def constraints_for(self, mro: List[str]) -> List[Constraint]:
        """Compiled constraints of a class and its ancestors."""
        compiled: List[Constraint] = []
        for class_name in mro:
            compiled.extend(self._class_constraints(class_name))
        return compiled

    def _class_constraints(self, class_name: str) -> List[Constraint]:
        cached = self._cache.get(class_name)
        if cached is not None and cached[0] == self._schema.version:
            return cached[1]
        cls = self._schema.get_class(class_name)
        compiled: List[Constraint] = []
        for source in cls.constraint_sources:
            try:
                compiled.append(
                    compile_constraint(source, class_name, self._schema))
            except TypeCheckError:
                # A constraint referencing a computed member can't be
                # compiled statically; Ode would enforce it in compiled
                # code.  Skip rather than block every write.
                continue
        self._cache[class_name] = (self._schema.version, compiled)
        return compiled


class CompiledTriggerCache:
    """Per-class compiled triggers.

    Trigger instances are kept stable across calls so ``once`` triggers
    stay deactivated after firing; schema evolution recompiles (and hence
    re-arms) them, as redefining the class would in Ode.
    """

    def __init__(self, schema: Schema):
        self._schema = schema
        self._cache: Dict[str, Tuple[int, List[Trigger]]] = {}

    def triggers_for(self, mro: List[str]) -> List[Trigger]:
        compiled: List[Trigger] = []
        for class_name in mro:
            compiled.extend(self._class_triggers(class_name))
        return compiled

    def _class_triggers(self, class_name: str) -> List[Trigger]:
        cached = self._cache.get(class_name)
        if cached is not None and cached[0] == self._schema.version:
            return cached[1]
        cls = self._schema.get_class(class_name)
        compiled: List[Trigger] = []
        for source in cls.trigger_sources:
            try:
                compiled.append(
                    compile_trigger(source, class_name, self._schema))
            except TypeCheckError:
                continue
        self._cache[class_name] = (self._schema.version, compiled)
        return compiled
