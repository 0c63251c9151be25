"""The Volcano (iterator) engine: ``open() / next() / close()`` pull model.

This is the Figure 3(b,d) baseline.  Every operator repeatedly pulls from
its child and must check for the null record on every call -- exactly the
dynamic-data-dependent control flow that, as Section 3 explains, cannot be
specialized away and makes the model a poor basis for a compiler.  Here it
serves as the representative of traditional interpreted engines
("Postgres" in Figure 8).
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional

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

Row = dict  # runtime records are plain dicts: field name -> value


class VolcanoError(ReproError):
    """Raised when a plan node has no Volcano implementation."""

    code = "E_VOLCANO"
    phase = "execute"


class Operator:
    """The uniform Volcano interface."""

    def open(self) -> None:
        raise NotImplementedError

    def next(self) -> Optional[Row]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ScanOp(Operator):
    def __init__(self, db: Database, node: phys.Scan) -> None:
        self.table = db.table(node.table)
        self.rename = node.rename_map
        self.pos = 0

    def open(self) -> None:
        self.pos = 0

    def next(self) -> Optional[Row]:
        if self.pos >= len(self.table):
            return None
        row = self.table.row(self.pos)
        self.pos += 1
        if self.rename:
            row = {self.rename.get(k, k): v for k, v in row.items()}
        return row


class DateIndexScanOp(Operator):
    def __init__(self, db: Database, node: phys.DateIndexScan) -> None:
        self.node = node
        self.table = db.table(node.table)
        self.rename = node.rename_map
        index = db.date_index(node.table, node.column)
        self.rowids = index.candidate_list(node.lo, node.hi)
        self.dates = self.table.column(node.column)
        self.pos = 0

    def open(self) -> None:
        self.pos = 0

    def next(self) -> Optional[Row]:
        while self.pos < len(self.rowids):
            rowid = self.rowids[self.pos]
            self.pos += 1
            if self.node.enforce and not self.node.bound_check(self.dates[rowid]):
                continue
            row = self.table.row(rowid)
            if self.rename:
                row = {self.rename.get(k, k): v for k, v in row.items()}
            return row
        return None


class SelectOp(Operator):
    def __init__(self, child: Operator, node: phys.Select) -> None:
        self.child = child
        self.pred = node.pred

    def open(self) -> None:
        self.child.open()

    def next(self) -> Optional[Row]:
        # The tell-tale Volcano loop: re-check the null record each pull.
        while True:
            row = self.child.next()
            if row is None:
                return None
            if self.pred.eval(row):
                return row

    def close(self) -> None:
        self.child.close()


class ProjectOp(Operator):
    def __init__(self, child: Operator, node: phys.Project, catalog: Catalog) -> None:
        self.child = child
        self.outputs = node.outputs
        refs = node.null_refs(catalog)
        # with an output that reads a nullable field: every output's refs
        self.guarded = (
            [(name, expr, r) for (name, expr), r in zip(node.outputs, refs)]
            if any(refs) else None
        )

    def open(self) -> None:
        self.child.open()

    def next(self) -> Optional[Row]:
        row = self.child.next()
        if row is None:
            return None
        if self.guarded is not None:
            return {name: eval_null_safe(expr, refs, row) for name, expr, refs in self.guarded}
        return {name: expr.eval(row) for name, expr in self.outputs}

    def close(self) -> None:
        self.child.close()


class HashJoinOp(Operator):
    """Builds on the left child during ``open``; probes per ``next``.

    A build row whose key holds NULL is left out (SQL equality never holds
    for NULL), so a probe key holding one finds no match either; the check
    runs only where the plan says a build key can be NULL.
    """

    def __init__(self, left: Operator, right: Operator, node: phys.HashJoin,
                 catalog: Catalog) -> None:
        self.left = left
        self.right = right
        self.lkeys = node.left_keys
        self.rkeys = node.right_keys
        self.skip_null = bool(phys.nullable_keys(node.left, node.left_keys, catalog))
        self.table: dict[tuple, list[Row]] = {}
        self.pending: list[Row] = []
        self.pending_pos = 0
        self.current_right: Optional[Row] = None

    def open(self) -> None:
        self.left.open()
        self.right.open()
        self.table = {}
        while True:
            row = self.left.next()
            if row is None:
                break
            key = tuple(row[k] for k in self.lkeys)
            if self.skip_null and None in key:
                continue
            self.table.setdefault(key, []).append(row)
        self.pending = []
        self.pending_pos = 0

    def next(self) -> Optional[Row]:
        while True:
            if self.pending_pos < len(self.pending):
                left_row = self.pending[self.pending_pos]
                self.pending_pos += 1
                merged = dict(left_row)
                merged.update(self.current_right)  # type: ignore[arg-type]
                return merged
            right_row = self.right.next()
            if right_row is None:
                return None
            key = tuple(right_row[k] for k in self.rkeys)
            self.pending = self.table.get(key, [])
            self.pending_pos = 0
            self.current_right = right_row

    def close(self) -> None:
        self.left.close()
        self.right.close()


class LeftOuterJoinOp(Operator):
    """Streams the *left* child, probing a table built on the right (which
    leaves out NULL-bearing keys, as :class:`HashJoinOp` does: a left row
    whose key holds NULL is null-extended)."""

    def __init__(self, left: Operator, right: Operator, node: phys.LeftOuterJoin,
                 right_fields: list[str], catalog: Catalog) -> None:
        self.left = left
        self.right = right
        self.lkeys = node.left_keys
        self.rkeys = node.right_keys
        self.skip_null = bool(phys.nullable_keys(node.right, node.right_keys, catalog))
        self.right_fields = right_fields
        self.table: dict[tuple, list[Row]] = {}
        self.pending: list[Row] = []
        self.pending_pos = 0
        self.current_left: Optional[Row] = None

    def open(self) -> None:
        self.left.open()
        self.right.open()
        self.table = {}
        while True:
            row = self.right.next()
            if row is None:
                break
            key = tuple(row[k] for k in self.rkeys)
            if self.skip_null and None in key:
                continue
            self.table.setdefault(key, []).append(row)
        self.pending = []
        self.pending_pos = 0

    def next(self) -> Optional[Row]:
        while True:
            if self.pending_pos < len(self.pending):
                right_row = self.pending[self.pending_pos]
                self.pending_pos += 1
                merged = dict(self.current_left)  # type: ignore[arg-type]
                merged.update(right_row)
                return merged
            left_row = self.left.next()
            if left_row is None:
                return None
            key = tuple(left_row[k] for k in self.lkeys)
            matches = self.table.get(key)
            self.current_left = left_row
            if matches:
                self.pending = matches
                self.pending_pos = 0
            else:
                merged = dict(left_row)
                for name in self.right_fields:
                    merged[name] = None
                return merged

    def close(self) -> None:
        self.left.close()
        self.right.close()


class _KeySetJoinOp(Operator):
    """Shared semi/anti join: build a right key set, stream the left.

    The set leaves out NULL-bearing keys, as :class:`HashJoinOp`'s table
    does: a left key holding NULL is in no set, so an anti join keeps its
    row (NOT EXISTS semantics).
    """

    keep_matches: bool

    def __init__(self, left: Operator, right: Operator, node, catalog: Catalog) -> None:
        self.left = left
        self.right = right
        self.lkeys = node.left_keys
        self.rkeys = node.right_keys
        self.skip_null = bool(phys.nullable_keys(node.right, node.right_keys, catalog))
        self.keys: set[tuple] = set()

    def open(self) -> None:
        self.left.open()
        self.right.open()
        self.keys = set()
        while True:
            row = self.right.next()
            if row is None:
                break
            key = tuple(row[k] for k in self.rkeys)
            if not (self.skip_null and None in key):
                self.keys.add(key)

    def next(self) -> Optional[Row]:
        while True:
            row = self.left.next()
            if row is None:
                return None
            matched = tuple(row[k] for k in self.lkeys) in self.keys
            if matched == self.keep_matches:
                return row

    def close(self) -> None:
        self.left.close()
        self.right.close()


class SemiJoinOp(_KeySetJoinOp):
    keep_matches = True


class AntiJoinOp(_KeySetJoinOp):
    keep_matches = False


class IndexJoinOp(Operator):
    def __init__(self, child: Operator, db: Database, node: phys.IndexJoin) -> None:
        self.child = child
        self.node = node
        self.table = db.table(node.table)
        self.rename = node.rename_map
        if node.unique:
            self.index = db.unique_index(node.table, node.table_key)
        else:
            self.index = db.index(node.table, node.table_key)
        self.pending: list[int] = []
        self.pending_pos = 0
        self.current: Optional[Row] = None

    def open(self) -> None:
        self.child.open()
        self.pending = []
        self.pending_pos = 0

    def _fetch(self, rowid: int) -> Row:
        row = self.table.row(rowid)
        if self.rename:
            row = {self.rename.get(k, k): v for k, v in row.items()}
        return row

    def next(self) -> Optional[Row]:
        while True:
            while self.pending_pos < len(self.pending):
                rowid = self.pending[self.pending_pos]
                self.pending_pos += 1
                merged = dict(self.current)  # type: ignore[arg-type]
                merged.update(self._fetch(rowid))
                if self.node.residual is None or self.node.residual.eval(merged):
                    return merged
            row = self.child.next()
            if row is None:
                return None
            self.current = row
            key = row[self.node.child_key]
            if self.node.unique:
                rowid = self.index.get(key, -1)
                self.pending = [] if rowid < 0 else [rowid]
            else:
                self.pending = list(self.index.get(key, ()))
            self.pending_pos = 0

    def close(self) -> None:
        self.child.close()


class IndexSemiJoinOp(Operator):
    """Semi/anti join through a base-table index (IndexEntryView.exists)."""

    def __init__(self, child: Operator, db: Database, node: phys.IndexSemiJoin) -> None:
        self.child = child
        self.node = node
        self.table = db.table(node.table)
        self.rename = node.rename_map
        if node.unique:
            self.index = db.unique_index(node.table, node.table_key)
        else:
            self.index = db.index(node.table, node.table_key)

    def open(self) -> None:
        self.child.open()

    def _exists(self, row: Row) -> bool:
        node = self.node
        key = row[node.child_key]
        if node.unique:
            rowid = self.index.get(key, -1)
            rowids = () if rowid < 0 else (rowid,)
        else:
            rowids = self.index.get(key, ())
        if node.residual is None:
            return bool(rowids)
        for rid in rowids:
            fetched = self.table.row(rid)
            if self.rename:
                fetched = {self.rename.get(k, k): v for k, v in fetched.items()}
            merged = dict(row)
            merged.update(fetched)
            if node.residual.eval(merged):
                return True
        return False

    def next(self) -> Optional[Row]:
        while True:
            row = self.child.next()
            if row is None:
                return None
            if self._exists(row) != self.node.anti:
                return row

    def close(self) -> None:
        self.child.close()


class AggOp(Operator):
    def __init__(self, child: Operator, node: phys.Agg) -> None:
        self.child = child
        self.node = node
        self.results: list[Row] = []
        self.pos = 0

    def open(self) -> None:
        self.child.open()
        groups: dict[tuple, list] = {}
        while True:
            row = self.child.next()
            if row is None:
                break
            key = tuple(expr.eval(row) for _, expr in self.node.keys)
            state = groups.get(key)
            if state is None:
                state = init_state(self.node.aggs)
                groups[key] = state
            update_state(state, self.node.aggs, row)
        if not groups and not self.node.keys:
            groups[()] = init_state(self.node.aggs)  # global agg of empty input
        self.results = []
        for key, state in groups.items():
            out: Row = {name: value for (name, _), value in zip(self.node.keys, key)}
            for (name, _), value in zip(
                self.node.aggs, finalize_state(state, self.node.aggs)
            ):
                out[name] = value
            self.results.append(out)
        self.pos = 0

    def next(self) -> Optional[Row]:
        if self.pos >= len(self.results):
            return None
        row = self.results[self.pos]
        self.pos += 1
        return row

    def close(self) -> None:
        self.child.close()


class GroupJoinOp(Operator):
    """HyPer-style combined join + aggregation: aggregate right rows per
    key during open, then stream left rows with the finalized values."""

    def __init__(self, left: Operator, right: Operator, node: phys.GroupJoin) -> None:
        self.left = left
        self.right = right
        self.node = node
        self.groups: dict[tuple, list] = {}

    def open(self) -> None:
        self.left.open()
        self.right.open()
        self.groups = {}
        node = self.node
        while True:
            row = self.right.next()
            if row is None:
                break
            key = tuple(row[k] for k in node.right_keys)
            state = self.groups.get(key)
            if state is None:
                state = init_state(node.aggs)
                self.groups[key] = state
            update_state(state, node.aggs, row)

    def next(self) -> Optional[Row]:
        node = self.node
        row = self.left.next()
        if row is None:
            return None
        key = tuple(row[k] for k in node.left_keys)
        state = self.groups.get(key)
        if state is None:
            state = init_state(node.aggs)  # empty group: count 0, rest None
        merged = dict(row)
        for (name, _), value in zip(node.aggs, finalize_state(state, node.aggs)):
            merged[name] = value
        return merged

    def close(self) -> None:
        self.left.close()
        self.right.close()


class SortOp(Operator):
    def __init__(self, child: Operator, node: phys.Sort) -> None:
        self.child = child
        self.node = node
        self.keys = node.keys
        self.rows: list[Row] = []
        self.pos = 0

    def open(self) -> None:
        self.child.open()
        self.rows = []
        while True:
            row = self.child.next()
            if row is None:
                break
            self.rows.append(row)

        def compare(a: Row, b: Row) -> int:
            for name, asc in self.keys:
                av, bv = a[name], b[name]
                if av == bv:
                    continue
                if av < bv:
                    return -1 if asc else 1
                return 1 if asc else -1
            return 0

        self.rows.sort(key=functools.cmp_to_key(compare))
        if self.node.limit is not None:
            del self.rows[self.node.limit:]
        self.pos = 0

    def next(self) -> Optional[Row]:
        if self.pos >= len(self.rows):
            return None
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def close(self) -> None:
        self.child.close()


class LimitOp(Operator):
    def __init__(self, child: Operator, node: phys.Limit) -> None:
        self.child = child
        self.limit = node.n
        self.seen = 0

    def open(self) -> None:
        self.child.open()
        self.seen = 0

    def next(self) -> Optional[Row]:
        if self.seen >= self.limit:
            return None
        row = self.child.next()
        if row is None:
            return None
        self.seen += 1
        return row

    def close(self) -> None:
        self.child.close()


class DistinctOp(Operator):
    def __init__(self, child: Operator, fields: list[str]) -> None:
        self.child = child
        self.fields = fields
        self.seen: set[tuple] = set()

    def open(self) -> None:
        self.child.open()
        self.seen = set()

    def next(self) -> Optional[Row]:
        while True:
            row = self.child.next()
            if row is None:
                return None
            key = tuple(row[f] for f in self.fields)
            if key not in self.seen:
                self.seen.add(key)
                return row

    def close(self) -> None:
        self.child.close()


# Observability seam: mirrors ``repro.engine.push.set_wrap_hook``.  The
# recursion below constructs children before parents (left before right), so
# a counting hook sees operators in the compiled instrumentation's numbering
# order.

_WRAP_HOOK = None


def set_wrap_hook(hook):
    """Install ``hook(op, node) -> op`` around build_operator; returns the previous."""
    global _WRAP_HOOK
    previous = _WRAP_HOOK
    _WRAP_HOOK = hook
    return previous


def build_operator(node: phys.PhysicalPlan, db: Database, catalog: Catalog) -> Operator:
    """Recursively translate a physical plan into a Volcano operator tree."""
    op = _build_operator_raw(node, db, catalog)
    if _WRAP_HOOK is not None:
        op = _WRAP_HOOK(op, node)
    return op


def _build_operator_raw(
    node: phys.PhysicalPlan, db: Database, catalog: Catalog
) -> Operator:
    if isinstance(node, phys.Scan):
        return ScanOp(db, node)
    if isinstance(node, phys.DateIndexScan):
        return DateIndexScanOp(db, node)
    if isinstance(node, phys.Select):
        return SelectOp(build_operator(node.child, db, catalog), node)
    if isinstance(node, phys.Project):
        return ProjectOp(build_operator(node.child, db, catalog), node, catalog)
    if isinstance(node, phys.HashJoin):
        return HashJoinOp(
            build_operator(node.left, db, catalog),
            build_operator(node.right, db, catalog),
            node,
            catalog,
        )
    if isinstance(node, phys.LeftOuterJoin):
        right_fields = node.right.field_names(catalog)
        return LeftOuterJoinOp(
            build_operator(node.left, db, catalog),
            build_operator(node.right, db, catalog),
            node,
            right_fields,
            catalog,
        )
    if isinstance(node, phys.SemiJoin):
        return SemiJoinOp(
            build_operator(node.left, db, catalog),
            build_operator(node.right, db, catalog),
            node,
            catalog,
        )
    if isinstance(node, phys.AntiJoin):
        return AntiJoinOp(
            build_operator(node.left, db, catalog),
            build_operator(node.right, db, catalog),
            node,
            catalog,
        )
    if isinstance(node, phys.IndexJoin):
        return IndexJoinOp(build_operator(node.child, db, catalog), db, node)
    if isinstance(node, phys.IndexSemiJoin):
        return IndexSemiJoinOp(build_operator(node.child, db, catalog), db, node)
    if isinstance(node, phys.GroupJoin):
        return GroupJoinOp(
            build_operator(node.left, db, catalog),
            build_operator(node.right, db, catalog),
            node,
        )
    if isinstance(node, phys.Agg):
        return AggOp(build_operator(node.child, db, catalog), node)
    if isinstance(node, phys.Sort):
        return SortOp(build_operator(node.child, db, catalog), node)
    if isinstance(node, phys.Limit):
        return LimitOp(build_operator(node.child, db, catalog), node)
    if isinstance(node, phys.Distinct):
        return DistinctOp(
            build_operator(node.child, db, catalog), node.field_names(catalog)
        )
    raise VolcanoError(f"no Volcano implementation for {type(node).__name__}")


def iterate(plan: phys.PhysicalPlan, db: Database, catalog: Catalog) -> Iterator[Row]:
    """Yield result rows (dicts) for a plan."""
    root = build_operator(plan, db, catalog)
    root.open()
    try:
        while True:
            row = root.next()
            if row is None:
                break
            yield row
    finally:
        root.close()


def execute_volcano(
    plan: phys.PhysicalPlan, db: Database, catalog: Catalog
) -> list[tuple]:
    """Run a plan and return result rows as tuples in plan field order."""
    names = plan.field_names(catalog)
    return [tuple(row[n] for n in names) for row in iterate(plan, db, catalog)]
