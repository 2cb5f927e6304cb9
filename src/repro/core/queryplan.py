"""Statistics-driven planning for pushed-down selections.

The object manager filters objects during cluster scans (paper §5.2); when
an :class:`~repro.ode.index.AttributeIndex` exists for an attribute used
in a sargable conjunct (``attr op literal``), the planner *may* probe the
index to fetch only candidate OIDs and evaluate the *residual* predicate
on those.  Whether it does is a cost decision, not a reflex: the
estimators below guess how many rows each candidate probe returns, and
the probe is chosen only when its estimated cost beats the full scan's.

Each number the estimates run on is read from its owner when the plan
is made: the cluster's cardinality from the object manager's membership
(``objects.count``, which answers at the reader's pinned snapshot), and
an indexed attribute's rows, distinct keys and bounds from its
:class:`~repro.ode.index.AttributeIndex` (``len``, ``distinct_count()``,
``live_bounds()``), which keeps them as commits apply.

The cost model is deliberately small:

* ``cost(scan)  = cardinality * SCAN_ROW_COST``
* ``cost(probe) = PROBE_BASE_COST + estimated_rows * PROBE_ROW_COST``

A probed row costs more than a scanned row (random OID lookups vs a
sequential cluster sweep) and the probe pays a fixed setup cost, so the
break-even lands near half the cluster — very selective predicates probe,
unselective ones scan.

Snapshot correctness: a probe answers *as of the reader's epoch*.  When
the calling thread holds a ``pinned()`` snapshot, the probe passes that
epoch to the index, whose epoch-versioned entries reconstruct the set of
matches visible at the pin — never entries a newer commit added.  Two
situations force a scan regardless of cost, because the index cannot
answer correctly: an open transaction (uncommitted writes are invisible
to the commit-driven index) and a pin older than the index's
``built_epoch`` (pre-build deletes left no entries to version).

Every plan renders an ``EXPLAIN`` text naming the chosen access path,
the estimated rows and costs it was chosen on, and the reader's epoch;
the most recent one is kept at ``ObjectManager.last_explain`` and
surfaced in the statistics window (and over the wire via OP_EXPLAIN).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Tuple

from repro.ode.database import Database
from repro.ode.index import AttributeIndex, _sort_key
from repro.ode.objectmanager import Match, ObjectBuffer
from repro.ode.oid import Oid
from repro.ode.opp import ast
from repro.ode.opp.predicate import PredicateEvaluator

_EQ = "=="
_RANGE_OPS = ("<", "<=", ">", ">=")

#: Relative row costs (see module docstring).  Tuned only to place the
#: break-even sensibly: probing is ~2x the per-row price of scanning.
SCAN_ROW_COST = 1.0
PROBE_ROW_COST = 2.0
PROBE_BASE_COST = 2.0

#: Fallback selectivities when the covering index holds no live rows.
DEFAULT_EQ_SELECTIVITY = 0.05
DEFAULT_RANGE_SELECTIVITY = 0.30

#: Bounds keyword sets for each range operator, as the index expects.
_RANGE_BOUNDS = {
    "<": dict(high=None, include_high=False),
    "<=": dict(high=None, include_high=True),
    ">": dict(low=None, include_low=False),
    ">=": dict(low=None, include_low=True),
}


def split_conjuncts(expr: ast.Expr) -> List[ast.Expr]:
    """Flatten a tree of ``&&`` into its conjuncts."""
    if isinstance(expr, ast.Binary) and expr.op == "&&":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def join_conjuncts(conjuncts: List[ast.Expr]) -> Optional[ast.Expr]:
    if not conjuncts:
        return None
    expr = conjuncts[0]
    for part in conjuncts[1:]:
        expr = ast.Binary("&&", expr, part)
    return expr


def sargable(conjunct: ast.Expr) -> Optional[Tuple[str, str, Any]]:
    """``(attribute, op, literal)`` if the conjunct is index-usable."""
    if not isinstance(conjunct, ast.Binary):
        return None
    op = conjunct.op
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ast.Name) and isinstance(right, ast.Literal):
        attribute, literal = left.ident, right.value
    elif isinstance(right, ast.Name) and isinstance(left, ast.Literal):
        attribute, literal = right.ident, left.value
        # mirror the comparison: 3 < x  ==  x > 3
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    else:
        return None
    if op not in (_EQ,) + _RANGE_OPS:
        return None
    if literal is None:
        return None
    return attribute, op, literal


def _probe_bounds(op: str, literal: Any) -> dict:
    bounds = dict(_RANGE_BOUNDS[op])
    for side in ("low", "high"):
        if side in bounds:
            bounds[side] = literal
    return bounds


def estimate_equal(cardinality: int, index: AttributeIndex) -> float:
    """Estimated rows matching ``attribute == value``: the index's live
    rows spread evenly over its distinct keys."""
    rows, distinct = len(index), index.distinct_count()
    if rows and distinct:
        return min(float(cardinality), rows / distinct)
    if not cardinality:
        return 0.0
    return max(1.0, cardinality * DEFAULT_EQ_SELECTIVITY)


def estimate_range(cardinality: int, index: AttributeIndex,
                   low: Any = None, high: Any = None) -> float:
    """Estimated rows in a (half-)bounded range over the indexed attribute.

    Interpolates within the index's live [min, max] when the bounds and
    the probe are on the same numeric rank (ints/floats and dates);
    otherwise falls back to a fixed selectivity.
    """
    if not cardinality:
        return 0.0
    fraction = _range_fraction(index.live_bounds(), low, high)
    if fraction is None:
        fraction = DEFAULT_RANGE_SELECTIVITY
        if low is None or high is None:
            fraction = min(1.0, fraction * 1.5)  # half-open: wider
    rows = len(index) or cardinality
    return max(1.0, min(float(cardinality), rows * fraction))


def _range_fraction(bounds: Optional[Tuple[Tuple, Tuple]],
                    low: Any, high: Any) -> Optional[float]:
    if bounds is None:
        return None
    min_key, max_key = bounds
    lo_key = min_key if low is None else _sort_key(low)
    hi_key = max_key if high is None else _sort_key(high)
    if len({min_key[0], max_key[0], lo_key[0], hi_key[0]}) != 1:
        return None
    span = max_key[1] - min_key[1]
    if not isinstance(span, (int, float)):
        return None
    if span <= 0:
        # Degenerate domain: everything matches or nothing does.
        return 1.0 if lo_key <= min_key <= hi_key else 0.0
    lo = max(lo_key[1], min_key[1])
    hi = min(hi_key[1], max_key[1])
    if lo > hi:
        return 0.0
    return max(0.0, min(1.0, (hi - lo) / span))


@dataclass
class QueryPlan:
    """How one selection will be executed, and why."""

    class_name: str
    access: str                         # "index-eq" | "index-range" | "scan"
    index_attribute: Optional[str]
    candidates: Optional[List[int]]     # OID numbers from the probe
    residual: Optional[ast.Expr]        # still checked per object
    #: The whole predicate.  The index probe answers as of the reader's
    #: epoch, but raw store mutations can still bypass the commit path —
    #: so every candidate is re-checked against the full predicate, not
    #: just the residual, and a candidate whose snapshot-visible value no
    #: longer satisfies the probed conjunct is filtered out.
    expr: Optional[ast.Expr] = None
    #: Cost-model inputs and outputs, for EXPLAIN and the regression
    #: battery.  ``estimated_rows`` is the estimate the decision was
    #: made on (not the actual probe size).
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0
    scan_cost: float = 0.0
    cardinality: int = 0
    #: The snapshot epoch the probe answered at (None = head).
    epoch: Optional[int] = None
    #: One phrase of why this access path won.
    reason: str = ""

    def explain(self) -> str:
        """Human-readable plan, in the EXPLAIN tradition."""
        from repro.ode.opp.printer import expr_to_source

        parts = [f"select from cluster {self.class_name!r}"]
        if self.access == "scan":
            parts.append("  access: full cluster scan")
            parts.append(
                f"  estimated rows: {self.cardinality} of "
                f"{self.cardinality} (cost {self.scan_cost:.1f})")
        else:
            parts.append(
                f"  access: {self.access} probe on "
                f"{self.class_name}.{self.index_attribute} "
                f"({len(self.candidates or [])} candidates)")
            parts.append(
                f"  estimated rows: {self.estimated_rows:.1f} of "
                f"{self.cardinality} (cost {self.estimated_cost:.1f} "
                f"vs scan {self.scan_cost:.1f})")
        if self.reason:
            parts.append(f"  reason: {self.reason}")
        if self.residual is not None:
            parts.append(f"  filter: {expr_to_source(self.residual)}")
        parts.append("  epoch: head" if self.epoch is None
                     else f"  epoch: pinned @ {self.epoch}")
        return "\n".join(parts)


class SelectionPlanner:
    """Plans and executes validated selection expressions."""

    def __init__(self, database: Database, privileged: bool = False):
        self.database = database
        self.privileged = privileged
        self._evaluator = PredicateEvaluator(database.objects,
                                             privileged=privileged)

    def plan(self, class_name: str, expr: ast.Expr,
             force: Optional[str] = None) -> QueryPlan:
        """Choose an access path for ``select class_name where expr``.

        ``force`` overrides the cost decision: ``"scan"`` never probes,
        ``"index"`` probes the best usable index even when the model
        says scan (still scans when no index can answer at all) — the
        equivalence battery uses both to pit every path against each
        other.
        """
        objects = self.database.objects
        snapshot = objects.ambient_snapshot()
        epoch = snapshot.epoch if snapshot is not None else None
        cardinality = objects.count(class_name)
        scan_cost = cardinality * SCAN_ROW_COST

        def scan(reason: str) -> QueryPlan:
            plan = QueryPlan(
                class_name=class_name, access="scan", index_attribute=None,
                candidates=None, residual=expr, expr=expr,
                estimated_rows=float(cardinality), estimated_cost=scan_cost,
                scan_cost=scan_cost, cardinality=cardinality, epoch=epoch,
                reason=reason)
            objects.last_explain = plan.explain()
            return plan

        if force == "scan":
            return scan("forced scan")
        if objects.store.in_transaction:
            # The commit-driven index cannot see this transaction's
            # uncommitted overlay; only the scan path reads through it.
            return scan("open transaction: uncommitted writes "
                        "are invisible to indexes")

        conjuncts = split_conjuncts(expr)
        # Every usable (indexed, sargable, epoch-answerable) conjunct,
        # costed: (estimated probe cost, rank, position, probe, index,
        # estimated rows).
        choices: List[Tuple[float, int, int, Tuple[str, str, Any],
                            AttributeIndex, float]] = []
        stale_index = False
        for position, conjunct in enumerate(conjuncts):
            probe = sargable(conjunct)
            if probe is None:
                continue
            attribute, op, literal = probe
            index = objects.indexes.get(class_name, attribute)
            if index is None:
                continue
            if epoch is not None and epoch < index.built_epoch:
                # The build only saw live state: this pin predates it,
                # so the index cannot reconstruct the pin's matches.
                stale_index = True
                continue
            if op == _EQ:
                est = estimate_equal(cardinality, index)
                rank = 0
            else:
                bounds = _probe_bounds(op, literal)
                est = estimate_range(cardinality, index,
                                     low=bounds.get("low"),
                                     high=bounds.get("high"))
                rank = 1
            cost = PROBE_BASE_COST + est * PROBE_ROW_COST
            choices.append((cost, rank, position, probe, index, est))

        if not choices:
            if stale_index:
                return scan("snapshot predates index build")
            return scan("no usable index")
        choices.sort(key=lambda c: (c[0], c[1], c[2]))
        cost, _rank, position, (attribute, op, literal), index, est = \
            choices[0]
        if force != "index" and cost >= scan_cost:
            return scan(f"scan is cheaper (probe cost {cost:.1f} "
                        f">= scan cost {scan_cost:.1f})")

        if op == _EQ:
            numbers = index.equal(literal, epoch=epoch)
            access = "index-eq"
        else:
            numbers = index.range(epoch=epoch, **_probe_bounds(op, literal))
            access = "index-range"
        residual = join_conjuncts(
            [c for i, c in enumerate(conjuncts) if i != position])
        plan = QueryPlan(
            class_name=class_name, access=access, index_attribute=attribute,
            candidates=numbers, residual=residual, expr=expr,
            estimated_rows=est, estimated_cost=cost, scan_cost=scan_cost,
            cardinality=cardinality, epoch=epoch,
            reason=("forced index probe" if force == "index"
                    else f"probe cost {cost:.1f} < scan cost "
                         f"{scan_cost:.1f}"))
        objects.last_explain = plan.explain()
        return plan

    def matches(self, plan: QueryPlan) -> Iterator[Match]:
        """The rows *plan* selects, as
        :meth:`~repro.ode.objectmanager.ObjectManager.matching` gives
        them: ``(oid, stored record, buffer or None)``.

        Both access paths check a row the same way, through the object
        manager's probe-first matcher, with the predicate compiled once:
        a scan checks the residual on every member, a probe the whole
        predicate on every candidate.  Full-predicate recheck, not
        residual-only: the candidates came from the index at the plan's
        epoch, but the records are read at the caller's current view,
        and raw store mutations can bypass the commit-driven maintenance
        entirely (a candidate no longer stored is skipped).
        """
        objects = self.database.objects
        candidates = None
        check = plan.residual
        if plan.access != "scan":
            candidates = [Oid(objects.database, plan.class_name, number)
                          for number in plan.candidates or []]
            if plan.expr is not None:
                check = plan.expr
        predicate = None if check is None else self._evaluator.compile(check)
        return objects.matching(plan.class_name, predicate, candidates)

    def execute(self, plan: QueryPlan) -> Iterator[ObjectBuffer]:
        """The buffers of the rows :meth:`matches` selects."""
        build = self.database.objects.build_buffer
        for oid, record, buffer in self.matches(plan):
            yield buffer or build(oid, record)

    def select(self, class_name: str, expr: ast.Expr,
               force: Optional[str] = None) -> List[ObjectBuffer]:
        """Plan and execute under ONE pinned snapshot.

        The pin makes the probe epoch and the buffer reads agree: a
        commit that lands between planning and execution changes
        neither the candidate set nor the rechecked values.  An ambient
        pin already in effect is reused (pinning afresh would jump
        forward to head — the opposite of what the caller pinned for).
        """
        objects = self.database.objects
        if objects.ambient_snapshot() is not None:
            return list(self.execute(self.plan(class_name, expr,
                                               force=force)))
        with objects.pinned():
            return list(self.execute(self.plan(class_name, expr,
                                               force=force)))
