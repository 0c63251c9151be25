"""Plan-level optimization rewrites for the index levels of Section 4.3.

The paper argues these decisions belong at the query-plan level, not in
low-level code analysis ("LB2 does not attempt to infer indexes
automatically and instead delegates such decisions to the query
optimizer").  These rewriters are that delegation:

* :func:`rewrite_index_joins` -- replace a hash join whose build side is a
  (projected/filtered) base-table scan with an :class:`IndexJoin` through
  that table's primary/foreign-key hash index.
* :func:`rewrite_date_index_scans` -- route scans filtered by date-range
  predicates through the per-(year, month) date index, pruning partitions.

Both are semantics-preserving: filters stay in place (boundary partitions
re-check the predicate) and a Project restores the original field order, so
rewritten plans are drop-in replacements in every engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.catalog.catalog import Catalog
from repro.catalog.types import ColumnType
from repro.plan import physical as phys
from repro.plan.expressions import And, Cmp, Col, Const, Expr, col
from repro.storage.database import Database


@dataclass
class _ScanChain:
    """A decomposed Project*/Select*/Scan chain (the rewrite pattern)."""

    table: str
    scan_rename: dict[str, str]
    predicates: list[Expr]
    projected: Optional[list[str]]  # None = all columns


def _decompose(node: phys.PhysicalPlan) -> Optional[_ScanChain]:
    """Match ``Project(keep)* / Select* / Scan`` and pull it apart."""
    predicates: list[Expr] = []
    projected: Optional[list[str]] = None
    while True:
        if isinstance(node, phys.Project):
            names = []
            for name, expr in node.outputs:
                if not (isinstance(expr, Col) and expr.name == name):
                    return None  # computing/renaming projects are not rewritten
                names.append(name)
            if projected is None:
                projected = names
            else:
                projected = [n for n in names if n in projected] or names
            node = node.child
        elif isinstance(node, phys.Select):
            predicates.append(node.pred)
            node = node.child
        elif isinstance(node, phys.Scan):
            return _ScanChain(node.table, node.rename_map, predicates, projected)
        else:
            return None


def _base_column(chain: _ScanChain, name: str) -> Optional[str]:
    """Map an output field name back to the scanned table's column."""
    for original, renamed in chain.scan_rename.items():
        if renamed == name:
            return original
    return name if not chain.scan_rename or name not in chain.scan_rename.values() else None


def _try_index_join(
    node: phys.HashJoin, db: Database, catalog: Catalog
) -> Optional[phys.PhysicalPlan]:
    original_fields = node.field_names(catalog)

    for table_side, other_side, table_keys, other_keys in (
        (node.left, node.right, node.left_keys, node.right_keys),
        (node.right, node.left, node.right_keys, node.left_keys),
    ):
        if len(table_keys) != 1:
            continue
        chain = _decompose(table_side)
        if chain is None:
            continue
        base_key = _base_column(chain, table_keys[0])
        if base_key is None:
            continue
        if db.has_unique_index(chain.table, base_key):
            unique = True
        elif db.has_index(chain.table, base_key):
            unique = False
        else:
            continue
        residual = And(*chain.predicates) if chain.predicates else None
        candidate = phys.IndexJoin(
            child=other_side,
            table=chain.table,
            table_key=base_key,
            child_key=other_keys[0],
            unique=unique,
            residual=residual,
            rename=chain.scan_rename,
        )
        restored = phys.Project(candidate, [(n, col(n)) for n in original_fields])
        try:
            restored.validate(catalog)
        except phys.PlanError:
            continue  # field clash (self-join against the same table): skip
        return restored
    return None


def _try_index_semi_join(
    node, db: Database, catalog: Catalog
) -> Optional[phys.PhysicalPlan]:
    """Semi/anti joins whose right side scans an indexed key become
    existence probes (the paper's IndexSemiJoin / IndexAntiJoin)."""
    if len(node.right_keys) != 1:
        return None
    chain = _decompose(node.right)
    if chain is None:
        return None
    base_key = _base_column(chain, node.right_keys[0])
    if base_key is None:
        return None
    if db.has_unique_index(chain.table, base_key):
        unique = True
    elif db.has_index(chain.table, base_key):
        unique = False
    else:
        return None
    residual = And(*chain.predicates) if chain.predicates else None
    candidate = phys.IndexSemiJoin(
        child=node.left,
        table=chain.table,
        table_key=base_key,
        child_key=node.left_keys[0],
        anti=isinstance(node, phys.AntiJoin),
        unique=unique,
        residual=residual,
        rename=chain.scan_rename,
    )
    try:
        candidate.validate(catalog)
    except phys.PlanError:
        return None
    return candidate


def rewrite_index_joins(
    plan: phys.PhysicalPlan, db: Database, catalog: Catalog
) -> phys.PhysicalPlan:
    """Bottom-up: turn eligible hash/semi/anti joins into index joins."""
    rebuilt = phys.rebuild(plan, [
        rewrite_index_joins(c, db, catalog) for c in plan.children()
    ])
    if isinstance(rebuilt, phys.HashJoin):
        replacement = _try_index_join(rebuilt, db, catalog)
        if replacement is not None:
            return replacement
    if isinstance(rebuilt, (phys.SemiJoin, phys.AntiJoin)):
        replacement = _try_index_semi_join(rebuilt, db, catalog)
        if replacement is not None:
            return replacement
    return rebuilt


# -- date indexes ------------------------------------------------------------


@dataclass
class _DateRange:
    """The extracted range: bound values, strictness, and the conjuncts
    the scan absorbs (removed from the residual Select)."""

    column: str
    lo: Optional[int] = None
    hi: Optional[int] = None
    lo_strict: bool = False
    hi_strict: bool = False
    absorbed: tuple[Expr, ...] = ()


def _date_bounds(
    pred: Expr, chain: _ScanChain, schema, db: Database
) -> Optional[_DateRange]:
    """Extract the most constrained date range among indexed date columns."""
    conjuncts = list(pred.terms) if isinstance(pred, And) else [pred]
    per_column: dict[str, _DateRange] = {}
    for term in conjuncts:
        if not (
            isinstance(term, Cmp)
            and isinstance(term.lhs, Col)
            and isinstance(term.rhs, Const)
            and isinstance(term.rhs.value, int)
            and term.op in (">", ">=", "<", "<=")
        ):
            continue
        base = _base_column(chain, term.lhs.name)
        if base is None or not schema.has_column(base):
            continue
        if schema.column_type(base) is not ColumnType.DATE:
            continue
        if not db.has_date_index(chain.table, base):
            continue
        rng = per_column.setdefault(base, _DateRange(base))
        value = term.rhs.value
        strict = term.op in (">", "<")
        if term.op in (">", ">="):
            # keep the binding lower bound; strict wins ties
            if rng.lo is None or value > rng.lo or (value == rng.lo and strict):
                rng.lo, rng.lo_strict = value, strict
        else:
            if rng.hi is None or value < rng.hi or (value == rng.hi and strict):
                rng.hi, rng.hi_strict = value, strict
        rng.absorbed = rng.absorbed + (term,)
    best: Optional[_DateRange] = None
    best_score = 0
    for rng in per_column.values():
        score = (rng.lo is not None) + (rng.hi is not None)
        if score > best_score:
            best, best_score = rng, score
    if best is None:
        return None
    # Only absorb conjuncts that are implied by the chosen bounds; weaker
    # duplicates (e.g. two lower bounds) stay in the residual Select.
    implied = []
    for term in best.absorbed:
        value, strict = term.rhs.value, term.op in (">", "<")  # type: ignore[union-attr]
        if term.op in (">", ">="):  # type: ignore[union-attr]
            ok = best.lo is not None and (
                best.lo > value or (best.lo == value and (best.lo_strict or not strict))
            )
        else:
            ok = best.hi is not None and (
                best.hi < value or (best.hi == value and (best.hi_strict or not strict))
            )
        if ok:
            implied.append(term)
    best.absorbed = tuple(implied)
    return best


def rewrite_date_index_scans(
    plan: phys.PhysicalPlan, db: Database, catalog: Catalog
) -> phys.PhysicalPlan:
    """Bottom-up: route date-filtered scans through the date index.

    The scan *enforces* the extracted bounds itself, so the compiled form
    can skip the comparison entirely on interior partitions; the residual
    Select keeps only the remaining conjuncts.
    """
    rebuilt = phys.rebuild(plan, [
        rewrite_date_index_scans(c, db, catalog) for c in plan.children()
    ])
    if isinstance(rebuilt, phys.Select) and isinstance(rebuilt.child, phys.Scan):
        scan = rebuilt.child
        chain = _ScanChain(scan.table, scan.rename_map, [rebuilt.pred], None)
        schema = catalog.table(scan.table)
        rng = _date_bounds(rebuilt.pred, chain, schema, db)
        if rng is not None:
            pruned = phys.DateIndexScan(
                scan.table,
                rng.column,
                lo=rng.lo,
                hi=rng.hi,
                rename=scan.rename_map or None,
                enforce=True,
                lo_strict=rng.lo_strict,
                hi_strict=rng.hi_strict,
            )
            conjuncts = (
                list(rebuilt.pred.terms)
                if isinstance(rebuilt.pred, And)
                else [rebuilt.pred]
            )
            residual = [t for t in conjuncts if t not in rng.absorbed]
            if residual:
                return phys.Select(pruned, And(*residual))
            return pruned
    return rebuilt


def fuse_topk(plan: phys.PhysicalPlan) -> phys.PhysicalPlan:
    """Fuse ``Limit(Sort(x))`` into a bounded (Top-K) sort.

    Semantics-preserving for multisets (tie order within the cut is
    engine-defined, exactly as for Limit itself); engines then select the
    top ``n`` with a bounded heap instead of sorting everything.
    """
    rebuilt = phys.rebuild(plan, [fuse_topk(c) for c in plan.children()])
    if (
        isinstance(rebuilt, phys.Limit)
        and isinstance(rebuilt.child, phys.Sort)
        and rebuilt.child.limit is None
    ):
        sort = rebuilt.child
        return phys.Sort(sort.child, sort.keys, limit=rebuilt.n)
    return rebuilt


def optimize_for_level(
    plan: phys.PhysicalPlan, db: Database, catalog: Catalog
) -> phys.PhysicalPlan:
    """Apply every rewrite the database's optimization level supports."""
    plan = fuse_topk(plan)
    if db.level.builds_date_indexes:
        plan = rewrite_date_index_scans(plan, db, catalog)
    if db.level.builds_key_indexes:
        plan = rewrite_index_joins(plan, db, catalog)
    return plan
