"""Staged storage access: scan sources, index probes, and sort buffers.

These classes are the `StagedColumn` / `StagedBuffer` side of the backend
seam (Section 4.1): they own every residual loop and subscript that touches
stored data, so operator code in :mod:`repro.compiler.lb2` can be written
once against record callbacks and specialized many ways underneath.  The
scalar lowering here emits exactly the row-at-a-time loops the compiler
always produced; the batch lowering lives in :mod:`repro.compiler.vec`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.catalog.types import ColumnType
from repro.staging import ir
from repro.staging.builder import StagingContext
from repro.staging.rep import Rep, RepInt, rep_for_ctype
from repro.compiler.staged_record import (
    DicValue,
    FieldDesc,
    StagedRecord,
    StagedValue,
    materialize,
    rebuild_record,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.compiler.lb2 import StagedPlanBuilder


@dataclass
class _ScanState:
    size: Rep
    loaders_at: Callable[[Rep], dict[str, Callable[[], StagedValue]]]
    descs: list[FieldDesc]


def bind_table(
    comp: "StagedPlanBuilder", table: str, rename: dict[str, str]
) -> _ScanState:
    """Bind a table's size, column arrays and dictionary tables (cold path).

    Compressed columns bind the *encoded* integer array plus the decoded
    string table; record loads then produce :class:`DicValue`s.
    """
    ctx = comp.ctx
    ctx.comment(f"columns of table {table!r}")
    size = ctx.call("db_size", [table], result="long", prefix="n")
    schema = comp.catalog.table(table)
    col_syms: dict[str, Rep] = {}
    descs: list[FieldDesc] = []
    for column in schema.columns:
        name = rename.get(column.name, column.name)
        compressed = (
            comp.config.use_dictionaries
            and column.type is ColumnType.STRING
            and comp.db.has_dictionary(table, column.name)
        )
        if compressed:
            col_syms[name] = ctx.call(
                "db_encoded", [table, column.name], result="void*", prefix="enc"
            )
            strings = comp.strings_sym(table, column.name)
            descs.append(
                FieldDesc(
                    name,
                    column.type,
                    dictionary=comp.db.dictionary(table, column.name),
                    strings_sym=strings,
                )
            )
        else:
            col_syms[name] = ctx.call(
                "db_column", [table, column.name], result="void*", prefix="col"
            )
            descs.append(FieldDesc(name, column.type))

    def loaders_at(rowid: Rep) -> dict[str, Callable[[], StagedValue]]:
        loaders: dict[str, Callable[[], StagedValue]] = {}
        for desc in descs:
            loaders[desc.name] = _make_loader(ctx, col_syms[desc.name], rowid, desc)
        return loaders

    return _ScanState(size, loaders_at, descs)


def _make_loader(
    ctx: StagingContext, col: Rep, rowid: Rep, desc: FieldDesc
) -> Callable[[], StagedValue]:
    def load() -> StagedValue:
        sym = ctx.bind(ir.Index(col.expr, rowid.expr), ctype=desc.ctype)
        if desc.compressed:
            assert desc.dictionary is not None and desc.strings_sym is not None
            return DicValue(RepInt(sym, ctx), desc.dictionary, desc.strings_sym, ctx)
        return rep_for_ctype(desc.type.ctype)(sym, ctx)

    return load


def column_loader(
    ctx: StagingContext, column: Rep, pos: Rep, desc: FieldDesc
) -> Callable[[], StagedValue]:
    def load() -> StagedValue:
        sym = ctx.bind(ir.Index(column.expr, pos.expr), ctype=desc.ctype)
        if desc.compressed:
            assert desc.dictionary is not None and desc.strings_sym is not None
            return DicValue(RepInt(sym, ctx), desc.dictionary, desc.strings_sym, ctx)
        return rep_for_ctype(desc.type.ctype)(sym, ctx)

    return load


def emit_scan_tick(comp: "StagedPlanBuilder") -> None:
    """Emit a per-row budget/fault checkpoint (candidate-list loops, which
    have no counter to stride by).  Nothing is emitted unless
    ``Config.budget_checks`` is set, keeping default codegen byte-stable."""
    if comp.config.budget_checks:
        comp.ctx.call_stmt("scan_tick", [1])


@contextlib.contextmanager
def row_chunks(
    comp: "StagedPlanBuilder",
    start: Rep,
    stop: Rep,
    size: int,
    *,
    charge: bool = True,
    batch: bool = False,
) -> Iterator[tuple[RepInt, RepInt]]:
    """A strided loop over rows ``[start, stop)``, ``size`` rows at a time.

    Yields each chunk's first row and row count.  With ``Config.budget_checks``
    every chunk opens with ``rt.scan_tick(count)``, so a row quota trips
    before the chunk's rows are touched and a full scan of n rows charges
    exactly n; ``charge=False`` ticks 0 instead -- a clock check for rows
    some enclosing loop already charged.  ``batch`` marks the vector
    lowering's batch loop (the one loop whole-batch kernels may run in).
    """
    ctx = comp.ctx
    with ctx.for_range(start, stop, prefix="c", step=size, batch=batch) as lo:
        count = ctx.call("min2", [size, stop - lo], result="long", prefix="m")
        if comp.config.budget_checks:
            ctx.call_stmt("scan_tick", [count if charge else 0])
        yield lo, count


@contextlib.contextmanager
def row_loop(
    comp: "StagedPlanBuilder", start: Rep, stop: Rep, *, charge: bool = True
) -> Iterator[RepInt]:
    """A counted row loop over ``[start, stop)``; yields the row index.

    Without budget checks this is the plain ``for`` loop.  With them the
    rows run in chunks of ``budget_check_interval`` (:func:`row_chunks`):
    one checkpoint per chunk and no per-row test in the loop body.
    """
    ctx = comp.ctx
    if not comp.config.budget_checks:
        with ctx.for_range(start, stop, prefix="i") as i:
            yield i
        return
    interval = comp.config.budget_check_interval
    with row_chunks(comp, start, stop, interval, charge=charge) as (lo, count):
        with ctx.for_range(lo, lo + count, prefix="i") as i:
            yield i


def set_stat(ctx: StagingContext, stats: Rep, label: str, counter_name: str) -> None:
    """Store one instrumentation counter into the generated stats dict."""
    ctx.emit(ir.SetIndex(stats.expr, ir.Const(label), ir.Sym(counter_name)))


def set_time(ctx: StagingContext, stats: Rep, label: str, t0: Rep, t1: Rep) -> None:
    """Store one operator's wall-clock interval into the stats dict.

    Times share the dict with row counters under an ``@t:`` key prefix;
    ``CompiledQuery.run`` splits them back apart, so counter consumers
    (``last_stats``) never see timing keys.
    """
    ctx.emit(
        ir.SetIndex(
            stats.expr, ir.Const("@t:" + label), ir.Bin("-", t1.expr, t0.expr)
        )
    )


# ---------------------------------------------------------------------------
# Scan sources
# ---------------------------------------------------------------------------


class TableSource:
    """A bound base table: emits the driving row loop on demand."""

    def __init__(self, comp: "StagedPlanBuilder", table: str, rename: dict[str, str]):
        self.comp = comp
        self.ctx = comp.ctx
        self.state = bind_table(comp, table, rename)

    def record_at(self, rowid: Rep) -> StagedRecord:
        return StagedRecord(
            self.ctx, self.state.descs, self.state.loaders_at(rowid)
        )

    def scan(
        self,
        cb: Callable[[StagedRecord], None],
        bounds: Optional[tuple[Rep, Rep]] = None,
    ) -> None:
        # Section 4.5: with bounds this is the partitioned (driving) scan;
        # the generated partial covers rows [lo, hi).
        lo, hi = bounds if bounds is not None else (0, self.state.size)
        with row_loop(self.comp, lo, hi) as i:
            cb(self.record_at(i))


class DateIndexSource:
    """A date-partition-pruned table: candidate or interior/boundary loops."""

    def __init__(self, comp: "StagedPlanBuilder", node) -> None:
        self.comp = comp
        self.ctx = comp.ctx
        self.enforce = node.enforce
        ctx = self.ctx
        self.state = bind_table(comp, node.table, node.rename_map)
        ctx.comment(
            f"date-index scan of {node.table}.{node.column} "
            f"[{node.lo}, {node.hi}] enforce={node.enforce}"
        )
        if node.enforce:
            runs = ctx.call(
                "db_date_runs",
                [node.table, node.column, node.lo, node.hi],
                result="void*",
                prefix="runs",
            )
            interior = ctx.bind(
                ir.Index(runs.expr, ir.Const(0)), ctype="void*", prefix="inner"
            )
            boundary = ctx.bind(
                ir.Index(runs.expr, ir.Const(1)), ctype="void*", prefix="edge"
            )
            self.rows = Rep(interior, ctx, "void*")
            self.boundary: Optional[Rep] = Rep(boundary, ctx, "void*")
        else:
            self.rows = ctx.call(
                "db_date_candidates",
                [node.table, node.column, node.lo, node.hi],
                result="void*",
                prefix="cand",
            )
            self.boundary = None

    def record_at(self, rowid: Rep) -> StagedRecord:
        return StagedRecord(
            self.ctx, self.state.descs, self.state.loaders_at(rowid)
        )

    def scan(
        self,
        cb: Callable[[StagedRecord], None],
        bound_cond: Callable[[StagedRecord], object],
    ) -> None:
        ctx = self.ctx
        if self.boundary is None:
            with ctx.for_each(self.rows, prefix="r", ctype="long") as rowid:
                emit_scan_tick(self.comp)
                cb(self.record_at(rowid))
            return
        # Interior partitions: the range holds by construction.
        ctx.comment("interior partitions: no date check needed")
        with ctx.for_each(self.rows, prefix="r", ctype="long") as rowid:
            emit_scan_tick(self.comp)
            cb(self.record_at(rowid))
        # Boundary partitions: re-check the exact bounds per row.
        ctx.comment("boundary partitions: exact bound re-check")
        with ctx.for_each(self.boundary, prefix="b", ctype="long") as rowid:
            rec = self.record_at(rowid)
            cond = bound_cond(rec)
            if cond is None:
                cb(rec)
            else:
                rec.guard(cond, cb)


class IndexSource:
    """A bound secondary index (plus, optionally, its base table)."""

    def __init__(
        self,
        comp: "StagedPlanBuilder",
        table: str,
        table_key: str,
        unique: bool,
        rename: dict[str, str],
        comment: str,
        with_table: bool,
    ) -> None:
        self.comp = comp
        self.ctx = comp.ctx
        ctx = self.ctx
        ctx.comment(comment)
        fn = "db_unique_index" if unique else "db_index"
        self.index = ctx.call(fn, [table, table_key], result="void*", prefix="idx")
        self.state = bind_table(comp, table, rename) if with_table else None

    def record_at(self, rowid: Rep) -> StagedRecord:
        assert self.state is not None
        return StagedRecord(
            self.ctx, self.state.descs, self.state.loaders_at(rowid)
        )

    def lookup_unique(self, key: Rep, prefix: Optional[str] = None) -> RepInt:
        if prefix is None:
            return self.ctx.call(
                "index_lookup_unique", [self.index, key], result="long"
            )
        return self.ctx.call(
            "index_lookup_unique", [self.index, key], result="long", prefix=prefix
        )

    def lookup(self, key: Rep, prefix: Optional[str] = None) -> Rep:
        if prefix is None:
            return self.ctx.call("index_lookup", [self.index, key], result="void*")
        return self.ctx.call(
            "index_lookup", [self.index, key], result="void*", prefix=prefix
        )

    def count(self, rows: Rep) -> RepInt:
        return self.ctx.call("list_len", [rows], result="long")

    def each(
        self,
        rows: Rep,
        fn: Callable[[Rep], None],
        break_when: Optional[Callable[[], Rep]] = None,
    ) -> None:
        with self.ctx.for_each(rows, prefix="rid", ctype="long") as rowid:
            fn(rowid)
            if break_when is not None:
                self.ctx.break_if(break_when())


# ---------------------------------------------------------------------------
# Sort buffers (pipeline breakers, Section 4.1's format conversion point)
# ---------------------------------------------------------------------------


class RowSortBuffer:
    """A FlatBuffer of row tuples, sorted in place (or top-K selected)."""

    def __init__(self, ctx: StagingContext, field_names: list[str]) -> None:
        self.ctx = ctx
        self.field_names = field_names
        ctx.comment("sort buffer (row layout)")
        self.buf = ctx.call("list_new", [], result="void*", prefix="buf")
        self.descs: list[FieldDesc] = []

    def append(self, rec: StagedRecord) -> None:
        payloads, self.descs = materialize(rec, self.field_names)
        row = self.ctx.bind(
            ir.TupleExpr(tuple(v.expr for v in payloads)), ctype="void*"
        )
        self.ctx.call_stmt(
            "list_append", [self.buf, Rep(row, self.ctx, ctype="void*")]
        )

    def drain(
        self,
        spec: tuple[tuple[int, bool], ...],
        limit: Optional[int],
        cb: Callable[[StagedRecord], None],
    ) -> None:
        ctx = self.ctx
        buf = self.buf
        # Dictionary codes are order-preserving, so sorting payloads is
        # exactly sorting the decoded strings.
        if limit is not None:
            # Top-K fusion: bounded heap selection instead of a full sort.
            buf = ctx.call(
                "topk_rows",
                [buf, Rep(ir.Const(spec), ctx), limit],
                result="void*",
                prefix="top",
            )
        else:
            ctx.call_stmt("sort_rows", [buf, Rep(ir.Const(spec), ctx)])
        with ctx.for_each(buf, prefix="row", ctype="void*") as row:
            cb(rebuild_record(ctx, row, self.descs))


class ColumnSortBuffer:
    """One list per field, permuted through an argsort (SoA layout)."""

    def __init__(self, ctx: StagingContext, field_names: list[str]) -> None:
        self.ctx = ctx
        self.field_names = field_names
        ctx.comment("sort buffer (column layout: one list per field)")
        self.columns = [
            ctx.call("list_new", [], result="void*", prefix="sc")
            for _ in field_names
        ]
        self.descs: list[FieldDesc] = []

    def append(self, rec: StagedRecord) -> None:
        payloads, self.descs = materialize(rec, self.field_names)
        for column, value in zip(self.columns, payloads):
            self.ctx.call_stmt("list_append", [column, value])

    def drain(
        self,
        spec: tuple[tuple[int, bool], ...],
        limit: Optional[int],
        cb: Callable[[StagedRecord], None],
    ) -> None:
        ctx = self.ctx
        cols_tuple = ctx.bind(
            ir.TupleExpr(tuple(c.expr for c in self.columns)), ctype="void*"
        )
        order = ctx.call(
            "argsort_columns",
            [Rep(cols_tuple, ctx, "void*"), Rep(ir.Const(spec), ctx)],
            result="void*",
            prefix="ord",
        )
        if limit is not None:
            order = ctx.call(
                "list_head", [order, limit], result="void*", prefix="ord"
            )
        with ctx.for_each(order, prefix="p", ctype="long") as pos:
            loaders = {
                desc.name: column_loader(ctx, self.columns[i], pos, desc)
                for i, desc in enumerate(self.descs)
            }
            cb(StagedRecord(ctx, list(self.descs), loaders))
