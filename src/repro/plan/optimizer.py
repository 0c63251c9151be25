"""A cost-based optimizer for single-block queries (join graph -> plan).

The paper leans on this component existing: "the database community has
already solved the query optimization problem for interpreted engines, and
cost-based optimizers that produce good plans are available" (Section 7);
LB2 "delegates such decisions to the query optimizer".  This module is that
delegate for the SQL front-end:

* predicate pushdown -- single-relation conjuncts filter their scan;
* projection pruning -- scans keep only referenced columns;
* greedy cost-based join ordering over table statistics, with the smaller
  estimated input as the hash-join build side;
* probe order -- along a chain of inner hash joins that share one probe
  stream, the builds are probed in ascending estimated matches per probe
  row, so the most selective build drops rows first (a join never moves
  below the build its probe keys come from);
* the remaining cross-relation predicates, aggregation, HAVING, output
  projection, DISTINCT, ORDER BY and LIMIT layered on top.

Hand-written plans (the TPC-H suite) bypass this module, exactly as plans
are "supplied explicitly" to LB2 in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.plan import physical as phys
from repro.plan.expressions import (
    AggSpec,
    And,
    Cmp,
    Col,
    Const,
    Expr,
    InList,
    Like,
    col,
)
from repro.storage.database import Database


class OptimizeError(Exception):
    """Raised for unplannable query blocks (e.g. cross products)."""


@dataclass
class Relation:
    """One FROM item with its pushed-down filters."""

    alias: str
    table: str
    filters: list[Expr] = field(default_factory=list)


@dataclass
class QueryBlock:
    """A normalized single-block query, ready for join ordering.

    All column names are alias-qualified (``alias.column``); the physical
    scans rename accordingly, so self-joins are safe by construction.
    """

    relations: list[Relation]
    join_edges: list[tuple[str, str]]  # (left qualified col, right qualified col)
    cross_filters: list[Expr] = field(default_factory=list)
    keys: list[tuple[str, Expr]] = field(default_factory=list)
    aggs: list[tuple[str, AggSpec]] = field(default_factory=list)
    having: Optional[Expr] = None
    outputs: list[tuple[str, Expr]] = field(default_factory=list)
    order_by: list[tuple[str, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
    # Columns needed by operators grafted above the join tree (subquery
    # correlation keys); protects them from projection pruning.
    extra_columns: list[str] = field(default_factory=list)


def _alias_of(qualified: str) -> str:
    return qualified.split(".", 1)[0]


# ---------------------------------------------------------------------------
# Cardinality estimation
# ---------------------------------------------------------------------------


def _filter_selectivity(pred: Expr, db: Database, relation: Relation) -> float:
    stats = db.stats(relation.table)

    def column_stats(qualified: str):
        return stats.column(qualified.split(".", 1)[1])

    if isinstance(pred, And):
        out = 1.0
        for term in pred.terms:
            out *= _filter_selectivity(term, db, relation)
        return out
    if isinstance(pred, Cmp) and isinstance(pred.lhs, Col) and isinstance(pred.rhs, Const):
        cs = column_stats(pred.lhs.name)
        if cs is None:
            return 1.0 / 3.0
        if pred.op == "==":
            return cs.selectivity_eq()
        if pred.op in ("<", "<="):
            return cs.selectivity_range(hi=pred.rhs.value)
        if pred.op in (">", ">="):
            return cs.selectivity_range(lo=pred.rhs.value)
        return 1.0 - cs.selectivity_eq()  # !=
    if isinstance(pred, InList) and isinstance(pred.term, Col):
        cs = column_stats(pred.term.name)
        if cs is None:
            return 1.0 / 3.0
        return min(1.0, len(pred.values) * cs.selectivity_eq())
    if isinstance(pred, Like):
        return 0.1 if not pred.negate else 0.9
    return 1.0 / 3.0  # the classic default


def estimated_rows(relation: Relation, db: Database) -> float:
    """Post-filter cardinality estimate for one relation."""
    rows = float(db.stats(relation.table).row_count)
    for pred in relation.filters:
        rows *= _filter_selectivity(pred, db, relation)
    return max(rows, 1.0)


def _join_divisor(
    edges: Sequence[tuple[str, str]],
    db: Database,
    relations: dict[str, Relation],
) -> float:
    """What an equi-join divides its inputs' cross product by: the larger
    side's count of distinct keys.

    A side's count multiplies, per relation, the distinct counts of that
    relation's key columns -- capped at the relation's row count, since a
    composite key of independent-looking columns (``l_partkey``,
    ``l_suppkey``) takes at most one value per row.
    """
    divisors = []
    for side in (0, 1):
        per_relation: dict[str, float] = {}
        for pair in edges:
            relation = relations[_alias_of(pair[side])]
            cs = db.stats(relation.table).column(pair[side].split(".", 1)[1])
            if cs is not None:
                per_relation[relation.alias] = (
                    per_relation.get(relation.alias, 1.0) * max(cs.distinct, 1)
                )
        divisor = 1.0
        for alias, distinct in per_relation.items():
            rows = db.stats(relations[alias].table).row_count
            divisor *= min(distinct, max(rows, 1))
        divisors.append(divisor)
    return max(divisors)


def _join_result_estimate(
    left_rows: float,
    right_rows: float,
    edges: Sequence[tuple[str, str]],
    db: Database,
    relations: dict[str, Relation],
) -> float:
    result = left_rows * right_rows / _join_divisor(edges, db, relations)
    return max(result, 1.0)


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


def _scan_plan(
    relation: Relation, needed: set[str], catalog: Catalog
) -> phys.PhysicalPlan:
    schema = catalog.table(relation.table)
    rename = {c.name: f"{relation.alias}.{c.name}" for c in schema.columns}
    plan: phys.PhysicalPlan = phys.Scan(relation.table, rename=rename)
    if relation.filters:
        plan = phys.Select(plan, And(*relation.filters))
    keep = [q for q in (rename[c.name] for c in schema.columns) if q in needed]
    if keep and len(keep) < len(schema.columns):
        plan = phys.Project(plan, [(name, col(name)) for name in keep])
    return plan


def _needed_columns(block: QueryBlock) -> set[str]:
    needed: set[str] = set()
    for lcol, rcol in block.join_edges:
        needed.add(lcol)
        needed.add(rcol)
    for pred in block.cross_filters:
        needed |= pred.columns()
    for _, expr in block.keys:
        needed |= expr.columns()
    for _, spec in block.aggs:
        needed |= spec.columns()
    if not block.aggs and not block.keys:
        for _, expr in block.outputs:
            needed |= expr.columns()
    needed |= set(block.extra_columns)
    return needed


def order_joins(
    block: QueryBlock, db: Database, catalog: Catalog
) -> phys.PhysicalPlan:
    """Greedy cost-based join ordering; returns the joined subplan."""
    relations = {r.alias: r for r in block.relations}
    needed = _needed_columns(block)
    # All pushed-filter columns are needed *inside* the scan's Select, which
    # sits below the Project, so only cross-plan columns matter here.
    plans = {
        alias: _scan_plan(rel, needed, catalog) for alias, rel in relations.items()
    }
    sizes = {alias: estimated_rows(rel, db) for alias, rel in relations.items()}
    if len(plans) == 1:
        return next(iter(plans.values()))

    remaining_edges = list(block.join_edges)
    # per inner join built here: its estimated matches per probe row; per
    # plan node: the relations it joins
    matches: dict[int, float] = {}
    aliases = {id(plan): frozenset({alias}) for alias, plan in plans.items()}
    joined: set[str] = set()
    start = min(sizes, key=lambda a: sizes[a])
    joined.add(start)
    current = plans[start]
    current_rows = sizes[start]

    while len(joined) < len(relations):
        # Candidate relations connected to the joined set by at least one edge.
        candidates: dict[str, list[tuple[str, str]]] = {}
        for lcol, rcol in remaining_edges:
            la, ra = _alias_of(lcol), _alias_of(rcol)
            if la in joined and ra not in joined:
                candidates.setdefault(ra, []).append((lcol, rcol))
            elif ra in joined and la not in joined:
                candidates.setdefault(la, []).append((rcol, lcol))
        if not candidates:
            missing = sorted(set(relations) - joined)
            raise OptimizeError(
                f"query requires a cross product to reach {missing}; "
                "add a join predicate"
            )
        best_alias = None
        best_cost = float("inf")
        for alias, edges in candidates.items():
            cost = _join_result_estimate(
                current_rows, sizes[alias], edges, db, relations
            )
            if cost < best_cost:
                best_alias, best_cost = alias, cost
        assert best_alias is not None
        edges = candidates[best_alias]
        left_keys = tuple(e[0] for e in edges)   # in the joined set
        right_keys = tuple(e[1] for e in edges)  # in the new relation
        # Build on the smaller estimated side.
        if sizes[best_alias] <= current_rows:
            build_rows = sizes[best_alias]
            current = phys.HashJoin(plans[best_alias], current, right_keys, left_keys)
        else:
            build_rows = current_rows
            current = phys.HashJoin(current, plans[best_alias], left_keys, right_keys)
        matches[id(current)] = build_rows / _join_divisor(edges, db, relations)
        aliases[id(current)] = aliases[id(current.left)] | aliases[id(current.right)]
        joined.add(best_alias)
        current_rows = best_cost
        remaining_edges = [
            e for e in remaining_edges
            if not (_alias_of(e[0]) in joined and _alias_of(e[1]) in joined)
        ]
    return _probe_order(current, matches, aliases)


def _probe_order(
    plan: phys.PhysicalPlan,
    matches: dict[int, float],
    aliases: dict[int, frozenset[str]],
) -> phys.PhysicalPlan:
    """Reorder each probe spine of ``plan`` -- a chain of the inner joins
    in ``matches`` whose probe (right) input is the next one down -- so
    its builds are probed in ascending estimated matches per probe row.

    The sort is stable, and a join is placed only once its probe keys'
    relations (``aliases`` of each node) are the spine's base or builds
    already placed below it.  Each join keeps its build side and keys;
    builds are reordered inside too.
    """
    spine = []
    node = plan
    while isinstance(node, phys.HashJoin) and id(node) in matches:
        spine.append(node)
        node = node.right
    if not spine:
        return plan
    pending = [
        (_probe_order(join.left, matches, aliases), join) for join in reversed(spine)
    ]
    ordered = []
    available = set(aliases[id(node)])
    while pending:
        ready = [
            i for i, (_, join) in enumerate(pending)
            if all(_alias_of(key) in available for key in join.right_keys)
        ]
        pick = min(ready, key=lambda i: matches[id(pending[i][1])])
        ordered.append(pending.pop(pick))
        available |= aliases[id(ordered[-1][1].left)]
    if all(
        build is join.left and join is old
        for (build, join), old in zip(ordered, reversed(spine))
    ):
        return plan  # already in probe order
    for build, join in ordered:
        node = phys.HashJoin(build, node, join.left_keys, join.right_keys)
    return node


def plan_block(
    block: QueryBlock,
    db: Database,
    catalog: Catalog,
    base: Optional[phys.PhysicalPlan] = None,
) -> phys.PhysicalPlan:
    """Full pipeline: joins, residual filters, aggregation, output shaping.

    ``base`` overrides the join phase entirely -- the SQL planner uses this
    after grafting decorrelated subquery operators onto the join tree.
    """
    if base is not None:
        plan = base
    else:
        plan = order_joins(block, db, catalog)
        if block.cross_filters:
            plan = phys.Select(plan, And(*block.cross_filters))
    if block.aggs or block.keys:
        plan = phys.Agg(plan, block.keys, block.aggs)
    if block.having is not None:
        plan = phys.Select(plan, block.having)
    if block.outputs:
        plan = phys.Project(plan, block.outputs)
    if block.distinct:
        plan = phys.Distinct(plan)
    if block.order_by:
        plan = phys.Sort(plan, block.order_by)
    if block.limit is not None:
        plan = phys.Limit(plan, block.limit)
    return plan
