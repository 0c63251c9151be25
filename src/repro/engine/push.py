"""The data-centric evaluator with callbacks (Figure 6 / Section 3.1).

Each operator exposes one method, ``exec(cb)``: *"operator, generate your
result and apply the function cb on each tuple."*  Inter-operator control
flow is fully static -- there is no null-record protocol -- which is exactly
why running this same evaluator on staged records yields tight residual
code (the LB2 compiler in :mod:`repro.compiler.lb2` mirrors this module
operator for operator).
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

from repro.errors import ReproError
from repro.catalog.catalog import Catalog
from repro.engine.aggregates import (
    eval_null_safe,
    finalize_state,
    init_state,
    update_state,
)
from repro.plan import physical as phys
from repro.storage.database import Database

Row = dict
Callback = Callable[[Row], None]


class PushError(ReproError):
    """Raised when a plan node has no push-engine implementation."""

    code = "E_PUSH"
    phase = "execute"


class Op:
    """The single-method operator interface of Section 3.1."""

    def exec(self, cb: Callback) -> None:
        raise NotImplementedError


class Scan(Op):
    def __init__(self, db: Database, node: phys.Scan) -> None:
        self.table = db.table(node.table)
        self.rename = node.rename_map

    def exec(self, cb: Callback) -> None:
        rename = self.rename
        if rename:
            for row in self.table.rows():
                cb({rename.get(k, k): v for k, v in row.items()})
        else:
            for row in self.table.rows():
                cb(row)


class DateIndexScan(Op):
    def __init__(self, db: Database, node: phys.DateIndexScan) -> None:
        self.node = node
        self.table = db.table(node.table)
        self.rename = node.rename_map
        self.rowids = db.date_index(node.table, node.column).candidate_list(
            node.lo, node.hi
        )
        self.dates = self.table.column(node.column)

    def exec(self, cb: Callback) -> None:
        node = self.node
        rename = self.rename
        dates = self.dates
        for rowid in self.rowids:
            if node.enforce and not node.bound_check(dates[rowid]):
                continue
            row = self.table.row(rowid)
            if rename:
                row = {rename.get(k, k): v for k, v in row.items()}
            cb(row)


class Select(Op):
    def __init__(self, child: Op, node: phys.Select) -> None:
        self.child = child
        self.pred = node.pred

    def exec(self, cb: Callback) -> None:
        pred = self.pred

        def on_row(row: Row) -> None:
            if pred.eval(row):
                cb(row)

        self.child.exec(on_row)


class Project(Op):
    def __init__(self, child: Op, node: phys.Project, catalog: Catalog) -> None:
        self.child = child
        self.outputs = node.outputs
        self.refs = node.null_refs(catalog)

    def exec(self, cb: Callback) -> None:
        outputs = self.outputs
        if any(self.refs):
            guarded = [(name, expr, r) for (name, expr), r in zip(outputs, self.refs)]

            def on_row(row: Row) -> None:
                cb({name: eval_null_safe(expr, refs, row) for name, expr, refs in guarded})
        else:
            def on_row(row: Row) -> None:
                cb({name: expr.eval(row) for name, expr in outputs})

        self.child.exec(on_row)


class HashJoin(Op):
    """Figure 5(b): two callbacks, build then probe -- no produce/consume
    state flags, no parent links.

    A build row whose key holds NULL is left out (SQL equality never holds
    for NULL), so a probe key holding one finds no match either; the check
    runs only where the plan says a build key can be NULL.
    """

    def __init__(self, left: Op, right: Op, node: phys.HashJoin, catalog: Catalog) -> None:
        self.left = left
        self.right = right
        self.lkeys = node.left_keys
        self.rkeys = node.right_keys
        self.skip_null = bool(phys.nullable_keys(node.left, node.left_keys, catalog))

    def exec(self, cb: Callback) -> None:
        table: dict[tuple, list[Row]] = {}
        lkeys, rkeys = self.lkeys, self.rkeys
        skip_null = self.skip_null

        def build(row: Row) -> None:
            key = tuple(row[k] for k in lkeys)
            if skip_null and None in key:
                return
            bucket = table.get(key)
            if bucket is None:
                table[key] = [row]
            else:
                bucket.append(row)

        self.left.exec(build)

        def probe(row: Row) -> None:
            key = tuple(row[k] for k in rkeys)
            for left_row in table.get(key, ()):
                merged = dict(left_row)
                merged.update(row)
                cb(merged)

        self.right.exec(probe)


class LeftOuterJoin(Op):
    """Probes a table built on the right, which leaves out NULL-bearing
    keys as :class:`HashJoin`'s does: a left row whose key holds NULL is
    null-extended."""

    def __init__(
        self, left: Op, right: Op, node: phys.LeftOuterJoin, catalog: Catalog
    ) -> None:
        self.left = left
        self.right = right
        self.lkeys = node.left_keys
        self.rkeys = node.right_keys
        self.right_fields = node.right.field_names(catalog)
        self.skip_null = bool(phys.nullable_keys(node.right, node.right_keys, catalog))

    def exec(self, cb: Callback) -> None:
        table: dict[tuple, list[Row]] = {}
        rkeys, lkeys = self.rkeys, self.lkeys
        null_fill = {name: None for name in self.right_fields}
        skip_null = self.skip_null

        def build(row: Row) -> None:
            key = tuple(row[k] for k in rkeys)
            if skip_null and None in key:
                return
            bucket = table.get(key)
            if bucket is None:
                table[key] = [row]
            else:
                bucket.append(row)

        self.right.exec(build)

        def probe(row: Row) -> None:
            key = tuple(row[k] for k in lkeys)
            matches = table.get(key)
            if matches:
                for right_row in matches:
                    merged = dict(row)
                    merged.update(right_row)
                    cb(merged)
            else:
                merged = dict(row)
                merged.update(null_fill)
                cb(merged)

        self.left.exec(probe)


class _KeySetJoin(Op):
    """Semi/anti join over a right key set that leaves out NULL-bearing
    keys: a left key holding NULL is in no set, so an anti join keeps its
    row (NOT EXISTS semantics)."""

    keep_matches: bool

    def __init__(self, left: Op, right: Op, node, catalog: Catalog) -> None:
        self.left = left
        self.right = right
        self.lkeys = node.left_keys
        self.rkeys = node.right_keys
        self.skip_null = bool(phys.nullable_keys(node.right, node.right_keys, catalog))

    def exec(self, cb: Callback) -> None:
        keys: set[tuple] = set()
        rkeys, lkeys = self.rkeys, self.lkeys
        skip_null = self.skip_null

        def build(row: Row) -> None:
            key = tuple(row[k] for k in rkeys)
            if not (skip_null and None in key):
                keys.add(key)

        self.right.exec(build)
        keep = self.keep_matches

        def probe(row: Row) -> None:
            if (tuple(row[k] for k in lkeys) in keys) == keep:
                cb(row)

        self.left.exec(probe)


class SemiJoin(_KeySetJoin):
    keep_matches = True


class AntiJoin(_KeySetJoin):
    keep_matches = False


class IndexJoin(Op):
    """Section 4.3: probe a base-table index instead of building a table."""

    def __init__(self, child: Op, db: Database, node: phys.IndexJoin) -> None:
        self.child = child
        self.node = node
        self.table = db.table(node.table)
        self.rename = node.rename_map
        if node.unique:
            self.index = db.unique_index(node.table, node.table_key)
        else:
            self.index = db.index(node.table, node.table_key)

    def exec(self, cb: Callback) -> None:
        node = self.node
        table = self.table
        rename = self.rename
        index = self.index

        def fetch(rowid: int) -> Row:
            row = table.row(rowid)
            if rename:
                row = {rename.get(k, k): v for k, v in row.items()}
            return row

        def probe(row: Row) -> None:
            key = row[node.child_key]
            if node.unique:
                rowid = index.get(key, -1)
                rowids = () if rowid < 0 else (rowid,)
            else:
                rowids = index.get(key, ())
            for rid in rowids:
                merged = dict(row)
                merged.update(fetch(rid))
                if node.residual is None or node.residual.eval(merged):
                    cb(merged)

        self.child.exec(probe)


class IndexSemiJoin(Op):
    """Semi/anti join probing a base-table index (Section 4.3 ``exists``)."""

    def __init__(self, child: Op, db: Database, node: phys.IndexSemiJoin) -> None:
        self.child = child
        self.node = node
        self.table = db.table(node.table)
        self.rename = node.rename_map
        if node.unique:
            self.index = db.unique_index(node.table, node.table_key)
        else:
            self.index = db.index(node.table, node.table_key)

    def exec(self, cb: Callback) -> None:
        node = self.node
        table = self.table
        rename = self.rename
        index = self.index

        def exists(row: Row) -> bool:
            key = row[node.child_key]
            if node.unique:
                rowid = index.get(key, -1)
                rowids = () if rowid < 0 else (rowid,)
            else:
                rowids = index.get(key, ())
            if node.residual is None:
                return bool(rowids)
            for rid in rowids:
                fetched = table.row(rid)
                if rename:
                    fetched = {rename.get(k, k): v for k, v in fetched.items()}
                merged = dict(row)
                merged.update(fetched)
                if node.residual.eval(merged):
                    return True
            return False

        def probe(row: Row) -> None:
            if exists(row) != node.anti:
                cb(row)

        self.child.exec(probe)


class Agg(Op):
    def __init__(self, child: Op, node: phys.Agg) -> None:
        self.child = child
        self.node = node

    def exec(self, cb: Callback) -> None:
        node = self.node
        groups: dict[tuple, list] = {}

        def accumulate(row: Row) -> None:
            key = tuple(expr.eval(row) for _, expr in node.keys)
            state = groups.get(key)
            if state is None:
                state = init_state(node.aggs)
                groups[key] = state
            update_state(state, node.aggs, row)

        self.child.exec(accumulate)
        if not groups and not node.keys:
            groups[()] = init_state(node.aggs)
        for key, state in groups.items():
            out: Row = {name: value for (name, _), value in zip(node.keys, key)}
            for (name, _), value in zip(node.aggs, finalize_state(state, node.aggs)):
                out[name] = value
            cb(out)


class GroupJoin(Op):
    """HyPer-style combined join + aggregation (one row per left tuple)."""

    def __init__(self, left: Op, right: Op, node: phys.GroupJoin) -> None:
        self.left = left
        self.right = right
        self.node = node

    def exec(self, cb: Callback) -> None:
        node = self.node
        groups: dict[tuple, list] = {}

        def build(row: Row) -> None:
            key = tuple(row[k] for k in node.right_keys)
            state = groups.get(key)
            if state is None:
                state = init_state(node.aggs)
                groups[key] = state
            update_state(state, node.aggs, row)

        self.right.exec(build)

        def probe(row: Row) -> None:
            key = tuple(row[k] for k in node.left_keys)
            state = groups.get(key)
            if state is None:
                state = init_state(node.aggs)  # empty group
            merged = dict(row)
            for (name, _), value in zip(
                node.aggs, finalize_state(state, node.aggs)
            ):
                merged[name] = value
            cb(merged)

        self.left.exec(probe)


class Sort(Op):
    """A pipeline breaker: materialize, order, replay downstream."""

    def __init__(self, child: Op, node: phys.Sort) -> None:
        self.child = child
        self.node = node
        self.keys = node.keys

    def exec(self, cb: Callback) -> None:
        rows: list[Row] = []
        self.child.exec(rows.append)
        keys = self.keys

        def compare(a: Row, b: Row) -> int:
            for name, asc in keys:
                av, bv = a[name], b[name]
                if av == bv:
                    continue
                if av < bv:
                    return -1 if asc else 1
                return 1 if asc else -1
            return 0

        rows.sort(key=functools.cmp_to_key(compare))
        if self.node.limit is not None:
            del rows[self.node.limit:]
        for row in rows:
            cb(row)


class Limit(Op):
    """Stops forwarding after ``n`` rows (upstream still runs to completion;
    push pipelines have no back-channel -- a known trade-off of the model)."""

    def __init__(self, child: Op, node: phys.Limit) -> None:
        self.child = child
        self.n = node.n

    def exec(self, cb: Callback) -> None:
        seen = 0
        limit = self.n

        def on_row(row: Row) -> None:
            nonlocal seen
            if seen < limit:
                seen += 1
                cb(row)

        self.child.exec(on_row)


class Distinct(Op):
    def __init__(self, child: Op, fields: list[str]) -> None:
        self.child = child
        self.fields = fields

    def exec(self, cb: Callback) -> None:
        seen: set[tuple] = set()
        fields = self.fields

        def on_row(row: Row) -> None:
            key = tuple(row[f] for f in fields)
            if key not in seen:
                seen.add(key)
                cb(row)

        self.child.exec(on_row)


# Observability seam: EXPLAIN ANALYZE wraps interpreter operators the same
# way the compiler wraps staged operators.  ``build_op`` applies the hook to
# every constructed operator post-order (children before parents, left
# before right -- the recursion order below), so counting wrappers line up
# with the compiled instrumentation's ``Op#n`` numbering exactly.

_WRAP_HOOK = None


def set_wrap_hook(hook):
    """Install ``hook(op, node) -> op`` around build_op; returns the previous."""
    global _WRAP_HOOK
    previous = _WRAP_HOOK
    _WRAP_HOOK = hook
    return previous


def build_op(node: phys.PhysicalPlan, db: Database, catalog: Catalog) -> Op:
    """Translate a physical plan into the callback operator tree."""
    op = _build_op_raw(node, db, catalog)
    if _WRAP_HOOK is not None:
        op = _WRAP_HOOK(op, node)
    return op


def _build_op_raw(node: phys.PhysicalPlan, db: Database, catalog: Catalog) -> Op:
    if isinstance(node, phys.Scan):
        return Scan(db, node)
    if isinstance(node, phys.DateIndexScan):
        return DateIndexScan(db, node)
    if isinstance(node, phys.Select):
        return Select(build_op(node.child, db, catalog), node)
    if isinstance(node, phys.Project):
        return Project(build_op(node.child, db, catalog), node, catalog)
    if isinstance(node, phys.HashJoin):
        return HashJoin(
            build_op(node.left, db, catalog), build_op(node.right, db, catalog),
            node, catalog,
        )
    if isinstance(node, phys.LeftOuterJoin):
        return LeftOuterJoin(
            build_op(node.left, db, catalog),
            build_op(node.right, db, catalog),
            node,
            catalog,
        )
    if isinstance(node, phys.SemiJoin):
        return SemiJoin(
            build_op(node.left, db, catalog),
            build_op(node.right, db, catalog),
            node,
            catalog,
        )
    if isinstance(node, phys.AntiJoin):
        return AntiJoin(
            build_op(node.left, db, catalog),
            build_op(node.right, db, catalog),
            node,
            catalog,
        )
    if isinstance(node, phys.IndexJoin):
        return IndexJoin(build_op(node.child, db, catalog), db, node)
    if isinstance(node, phys.IndexSemiJoin):
        return IndexSemiJoin(build_op(node.child, db, catalog), db, node)
    if isinstance(node, phys.GroupJoin):
        return GroupJoin(
            build_op(node.left, db, catalog), build_op(node.right, db, catalog), node
        )
    if isinstance(node, phys.Agg):
        return Agg(build_op(node.child, db, catalog), node)
    if isinstance(node, phys.Sort):
        return Sort(build_op(node.child, db, catalog), node)
    if isinstance(node, phys.Limit):
        return Limit(build_op(node.child, db, catalog), node)
    if isinstance(node, phys.Distinct):
        return Distinct(build_op(node.child, db, catalog), node.field_names(catalog))
    raise PushError(f"no push implementation for {type(node).__name__}")


def execute_push(plan: phys.PhysicalPlan, db: Database, catalog: Catalog) -> list[tuple]:
    """Run a plan on the callback engine; rows come back as ordered tuples."""
    names = plan.field_names(catalog)
    out: list[tuple] = []

    def collect(row: Row) -> None:
        out.append(tuple(row[n] for n in names))

    build_op(plan, db, catalog).exec(collect)
    return out
