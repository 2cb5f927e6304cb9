"""The compiled predicate evaluator equals the tree walker it replaced.

Hypothesis draws expression trees over every literal family (``None``,
booleans, ints, floats, strings, dates, OIDs), attribute names (public,
private, computed, missing), ``.``, ``[]`` and ``->`` (null references
included), built-in calls of any arity, unary and binary operators.
Each is evaluated by ``tests/opp/reference_predicate.py`` (the walker,
verbatim) and by the compiled evaluator, through ``evaluate``,
``matches`` and a compiled predicate, in privileged and in public mode:
both must give the same value, or raise the same exception type with
the same message.

Tier-1 draws the same examples every run; CI's tier-2 job searches
afresh with ``--hypothesis-profile=random`` and ``PREDICATE_EXAMPLES``,
and ``--hypothesis-seed`` replays a run.
"""

import datetime
import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObjectNotFoundError
from repro.ode.objectmanager import ObjectBuffer
from repro.ode.oid import Oid
from repro.ode.opp import ast
from repro.ode.opp import predicate
from repro.ode.opp.parser import parse_expression

from tests.opp import reference_predicate

EXAMPLES = int(os.environ.get("PREDICATE_EXAMPLES", "400"))

DEPT = Oid("db", "department", 1)
GONE = Oid("db", "department", 9)   # a dangling reference

EMPLOYEE = ObjectBuffer(
    oid=Oid("db", "employee", 7),
    class_name="employee",
    values={
        "name": "rakesh", "id": 7, "ratio": 0.5, "big": 2 ** 70,
        "active": True, "hired": datetime.date(1983, 5, 1),
        "addr": {"zip": 7974, "city": "summit"},
        "dept": DEPT, "boss": None, "gone": GONE,
        "grades": [3, 1, 4], "tags": ["a", "b"], "salary": 90_000.0,
    },
    public_names=("name", "id", "ratio", "big", "active", "hired", "addr",
                  "dept", "boss", "gone", "grades", "tags"),
    computed={"double_id": 14},
)
DEPARTMENT = ObjectBuffer(
    oid=DEPT, class_name="department",
    values={"dname": "db research", "budget": 12, "secret": "x"},
    public_names=("dname", "budget"))

NAMES = sorted(EMPLOYEE.values) + ["double_id", "missing"]
FIELDS = ["zip", "city", "dname", "budget", "secret", "nope"]
FUNCTIONS = ["size", "contains", "lower", "upper", "year", "month", "day",
             "abs", "min", "max", "sqrt"]


class _Manager:
    """Follows ``->``: the one department, anything else is missing."""

    def get_buffer(self, oid):
        if oid == DEPT:
            return DEPARTMENT
        raise ObjectNotFoundError(f"no object {oid}")


literals = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 66), max_value=2 ** 66),
    st.sampled_from([0, 1, 2, 3, 7, 100]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.5, 7.0]),
    st.text(max_size=4),
    st.sampled_from(["rakesh", "a", "summit"]),
    st.dates(min_value=datetime.date(1900, 1, 1),
             max_value=datetime.date(2100, 1, 1)),
    st.sampled_from([DEPT, GONE, Oid("db", "employee", 7)]),
).map(ast.Literal)

leaves = st.one_of(literals, st.sampled_from(NAMES).map(ast.Name))


def _any_shape(children):
    return st.one_of(
        st.builds(ast.FieldAccess, children, st.sampled_from(FIELDS),
                  st.booleans()),
        st.builds(ast.Index, children, children),
        st.builds(ast.Call, st.sampled_from(FUNCTIONS),
                  st.lists(children, max_size=3).map(tuple)),
        st.builds(ast.Unary, st.sampled_from(["!", "-"]), children),
        st.builds(ast.Binary,
                  st.sampled_from(ast.COMPARISON_OPS + ast.LOGICAL_OPS
                                  + ast.ARITHMETIC_OPS),
                  children, children),
    )


#: Any tree at all: most raise, which tests the errors.
untyped = st.recursive(leaves, _any_shape, max_leaves=12)


def _name(ident):
    return ast.Name(ident)


def _call(func, *args):
    return ast.Call(func, tuple(args))


# Trees that mostly evaluate, one family at a time, so the values and
# the fast paths are reached as often as the errors.
numbers = st.recursive(
    st.one_of(
        st.integers(min_value=-(2 ** 66), max_value=2 ** 66).map(ast.Literal),
        st.sampled_from([0, 1, 2, 7, 0.5, -0.0, 1e300]).map(ast.Literal),
        st.floats(allow_nan=True, allow_infinity=True).map(ast.Literal),
        st.sampled_from(["id", "ratio", "big", "double_id"]).map(_name),
        st.just(ast.FieldAccess(_name("addr"), "zip")),
        st.just(ast.FieldAccess(_name("dept"), "budget", arrow=True)),
        st.just(ast.FieldAccess(_name("boss"), "budget", arrow=True)),
        st.integers(min_value=-1, max_value=3).map(
            lambda i: ast.Index(_name("grades"), ast.Literal(i))),
        st.sampled_from(["year", "month", "day"]).map(
            lambda f: _call(f, _name("hired"))),
        st.sampled_from(["grades", "tags", "name"]).map(
            lambda n: _call("size", _name(n))),
    ),
    lambda c: st.one_of(
        st.builds(ast.Binary, st.sampled_from(ast.ARITHMETIC_OPS), c, c),
        st.builds(ast.Unary, st.just("-"), c),
        st.builds(lambda a: _call("abs", a), c),
        st.builds(lambda f, a, b: _call(f, a, b),
                  st.sampled_from(["min", "max"]), c, c),
    ),
    max_leaves=6)

strings = st.recursive(
    st.one_of(
        st.text(max_size=4).map(ast.Literal),
        st.sampled_from(["rakesh", "summit", "db research"]).map(ast.Literal),
        st.just(_name("name")),
        st.just(ast.FieldAccess(_name("addr"), "city")),
        st.sampled_from(["dept", "boss", "gone"]).map(
            lambda n: ast.FieldAccess(_name(n), "dname", arrow=True)),
        st.integers(min_value=0, max_value=2).map(
            lambda i: ast.Index(_name("tags"), ast.Literal(i))),
    ),
    lambda c: st.one_of(
        st.builds(ast.Binary, st.just("+"), c, c),
        st.builds(lambda f, a: _call(f, a),
                  st.sampled_from(["lower", "upper"]), c),
    ),
    max_leaves=4)

others = st.one_of(
    st.just(_name("hired")),
    st.dates(min_value=datetime.date(1980, 1, 1),
             max_value=datetime.date(1990, 1, 1)).map(ast.Literal),
    st.sampled_from(["dept", "boss", "gone"]).map(_name),
    st.sampled_from([None, DEPT, GONE]).map(ast.Literal),
    st.just(_name("active")),
    st.booleans().map(ast.Literal),
)

comparisons = st.one_of(
    st.builds(ast.Binary, st.sampled_from(ast.COMPARISON_OPS), family, family)
    for family in (numbers, strings, others)
) | st.builds(lambda a, b: _call("contains", _name("grades"), b),
              st.none(), numbers) | st.builds(
    # ``attribute op constant``: the sargable shape, every pairing
    ast.Binary, st.sampled_from(ast.COMPARISON_OPS),
    st.sampled_from(NAMES).map(_name), literals)

conditions = st.recursive(
    comparisons,
    lambda c: st.one_of(
        st.builds(ast.Binary, st.sampled_from(ast.LOGICAL_OPS), c, c),
        st.builds(ast.Unary, st.just("!"), c),
    ),
    max_leaves=4)

expressions = st.one_of(conditions, conditions, numbers, strings, untyped)


def _outcome(run):
    """What one evaluation did: its value (nan-safe), or its error."""
    try:
        value = run()
    except Exception as exc:  # noqa: BLE001 - the class and text are the point
        return "raised", type(exc), str(exc)
    if isinstance(value, float) and math.isnan(value):
        return "value", float, "nan"
    return "value", type(value), repr(value)


def _outcomes(module, expr, privileged):
    evaluator = module.PredicateEvaluator(_Manager(), privileged=privileged)
    compiled = evaluator.compile(expr)
    return (_outcome(lambda: evaluator.evaluate(expr, EMPLOYEE)),
            _outcome(lambda: evaluator.matches(expr, EMPLOYEE)),
            _outcome(lambda: compiled(EMPLOYEE)),
            compiled.reads)


@settings(max_examples=EXAMPLES, deadline=None)
@given(expr=expressions, privileged=st.booleans())
def test_compiled_evaluator_equals_the_tree_walker(expr, privileged):
    assert (_outcomes(predicate, expr, privileged)
            == _outcomes(reference_predicate, expr, privileged))


def test_both_evaluators_agree_on_known_answers():
    """Shapes the strategy can draw, with their answers written out:
    values, a null reference read as false, C division."""
    evaluator = predicate.PredicateEvaluator(_Manager())
    cases = {
        'id == 7': True,
        'dept->dname == "db research"': True,
        'boss->dname == "x"': False,
        'addr.zip > 7000 && size(grades) == 3': True,
        'double_id / 4 == 3': True,
        '-7 / 2 == -3 && -7 % 2 == -1': True,
    }
    for source, expected in cases.items():
        expr = parse_expression(source)
        assert evaluator.matches(expr, EMPLOYEE) is expected
        assert reference_predicate.PredicateEvaluator(_Manager()).matches(
            expr, EMPLOYEE) is expected
