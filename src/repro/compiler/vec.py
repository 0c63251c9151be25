"""The batch-vectorized code-generation backend (the second lowering).

Operator code in :mod:`repro.compiler.lb2` is written once against the
backend seam; this module re-lowers the supported shapes -- scans, filters
(``LIKE`` and ``SUBSTRING`` included), projections, integer- or
float-keyed hash/semi/anti/left outer joins and aggregations -- to
*batched columnar* residual programs.  Instead of one row loop per
pipeline, the generated code walks a table in batches of at most
:data:`BATCH_ROWS` rows (slices of ``db.column_vec`` arrays, for the
columns the query reads), evaluates predicates and expressions with
``rt.v_*`` batch kernels over NumPy arrays (this lowering requires
NumPy: :func:`~repro.compiler.backends.make_backend` refuses it without),
keeps join build sides as columns and probes them a batch at a time,
folds aggregate partials into running state, and only falls back to
row-at-a-time code at the seams:

* an operator whose shape the vector lowering does not support (sorts,
  group joins, string-keyed joins, joins pairing an integer key with a
  float one, CASE, compressed-string scans, any use but ``count`` of an
  outer join's null-extended fields, ...) receives plain scalar rows
  through a devectorizing adapter inserted on the operator edge, and
* everything it allocates comes from the scalar backend unchanged.

Eligibility is decided in one whole-plan pass (:meth:`VectorBackend.prepare`)
before any operator stages code, so each operator's lowering is fixed up
front -- the operator pass itself never branches on the backend.

Budget checkpoints are batch-granular: a batch scan charges its rows with
one ``rt.scan_tick`` before any kernel of the batch runs, and devectorized
row loops check the clock every ``budget_check_interval`` rows, so a
deadline overshoots by at most one batch's kernel chain -- which, past a
batch join, runs over that probe batch's matches (its fan-out).
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence

from repro.catalog.types import ColumnType
from repro.plan import physical as phys
from repro.plan.expressions import (
    And,
    Arith,
    Cmp,
    Col,
    Const,
    Expr,
    ExtractYear,
    InList,
    Like,
    Not,
    Or,
    Param,
    Substring,
)
from repro.staging import ir
from repro.staging.builder import StagingContext
from repro.staging.rep import Rep, RepInt, RepVecInt, rep_for_ctype, vec_ctype
from repro.compiler.backends import ScalarBackend
from repro.compiler.staged_agg import AggLayout, GlobalAggState, StagedAgg
from repro.compiler.staged_hashmap import Slots
from repro.compiler.staged_record import FieldDesc, StagedRecord, StagedValue
from repro.compiler.staged_source import column_loader, row_chunks, row_loop

#: Rows per batch of a batch scan.  Bounds every kernel temporary to one
#: batch and, under budget checks, how far a scan runs past a tripped
#: deadline: one batch's kernel chain.  An int64 batch column is 256 KiB,
#: so a kernel's few temporaries stay in a 2 MiB L2.  Swept on the served
#: mix at SF 0.01: 8 192 pays the per-batch steps (kernel wrappers, ticks,
#: group-table and join-index bookkeeping) four times as often; at 65 536
#: the temporaries outgrow L2, and q1, q18 and q21 lose 20-40 %.  See
#: docs/VECTORIZED.md, "Measured: batch size".
BATCH_ROWS = 32768


def _is_vec(value: object) -> bool:
    return getattr(value, "is_vector", False)


# ---------------------------------------------------------------------------
# Batch records
# ---------------------------------------------------------------------------


class _Rows:
    """Row ids into a batch's source, staged on first use: ``step`` alone,
    or -- below a ``parent`` level -- ``take(parent, step)``, the two
    levels' ids composed into one vector.  :meth:`then` hands out one
    composition per next step, so every field of a source that is read
    through the same levels shares one composed vector."""

    def __init__(
        self, ctx: StagingContext, step: Rep, parent: Optional["_Rows"] = None
    ) -> None:
        self.ctx = ctx
        self.step = step
        self.parent = parent
        self._rep: Optional[Rep] = None
        self._next: dict[int, "_Rows"] = {}

    def rep(self) -> Rep:
        if self._rep is None:
            if self.parent is None:
                self._rep = self.step
            else:
                self._rep = self.ctx.call(
                    "v_take", [self.parent.rep(), self.step],
                    result="void*", prefix="rid",
                )
        return self._rep

    def then(self, step: Rep) -> "_Rows":
        """These row ids, then the ones a later level keeps."""
        if id(step) not in self._next:
            self._next[id(step)] = _Rows(self.ctx, step, self)
        return self._next[id(step)]


class _FieldRef:
    """A batch field a projection passes through, not yet gathered."""

    def __init__(self, name: str, ctype: str) -> None:
        self.name = name
        self.ctype = ctype  # what the projection's field descriptor reads


class VecRecord:
    """A generation-time *batch* of records: name -> staged column.

    Implements the same seam as :class:`StagedRecord` -- ``guard`` /
    ``derive`` / ``rows`` / ``merged`` plus lazy memoized field access --
    but each field is a column of the batch (``RepVec``) rather than one
    value, so the same operator code lowers to mask kernels and column
    derivations.  Scalar staged values may appear as fields too (lifted
    constants); they broadcast, and selection leaves them untouched.

    Fields are gathered late.  A filter or a batch join does not gather
    its input's columns; its output record remembers the row ids it keeps
    (``sel``, or a join's ``probe_rows`` / ``build_rows``), and a field is
    gathered when something reads it -- once, from its base column (a
    batch slice, a build column, or a column an earlier level already
    materialized) through the row ids of every level since, composed once
    per batch and shared by all fields of that source
    (``take(take(c, i), j)`` is ``take(c, take(i, j))``; see
    :class:`_Rows`).

    ``nullable`` maps the null-extended fields of an outer join's output
    to the loader of their validity mask: the column holds a placeholder
    wherever the mask is false, and only ``count(field)`` (which counts
    the non-None values the mask keeps) and the devectorizing :meth:`rows`
    (which yields None there)
    read such a field -- the backend's ``prepare`` keeps every other
    consumer row-at-a-time.
    """

    #: Record callbacks receiving one of these see a whole batch; the
    #: instrument lowering advances its row counter by ``nrows()`` instead
    #: of one.
    is_batch = True

    def __init__(
        self,
        comp,
        descs: list[FieldDesc],
        loaders: dict[str, Callable[[], StagedValue]],
        nrows_loader: Callable[[], RepInt],
        nullable: Optional[dict[str, Callable[[], Rep]]] = None,
        gathers: Optional[
            dict[str, tuple[Callable[[], StagedValue], Optional["_Rows"]]]
        ] = None,
        parent: Optional[tuple["VecRecord", "_Rows"]] = None,
    ) -> None:
        self.comp = comp
        self.ctx = comp.ctx
        self.descs = descs
        self._by_name = {d.name: d for d in descs}
        self._loaders = loaders
        self._cache: dict[str, StagedValue] = {}
        self._nrows_loader = nrows_loader
        self._nrows: Optional[RepInt] = None
        self.nullable = nullable or {}
        # fields gathered from a base column through row ids (a join's
        # build fields, a projection's pass-throughs), and the record
        # every other field is gathered from, through the row ids this
        # level keeps
        self._gathers = gathers or {}
        self._parent = parent

    @property
    def field_names(self) -> list[str]:
        return [d.name for d in self.descs]

    def desc(self, name: str) -> FieldDesc:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"batch record has no field {name!r}; fields: {self.field_names}"
            ) from None

    def __getitem__(self, name: str) -> StagedValue:
        if name not in self._cache:
            self.desc(name)
            if name in self._loaders:
                value = self._loaders[name]()
            else:
                base, rows = self._gather_plan(name)
                value = base()
                # broadcast scalars pass through
                if rows is not None and _is_vec(value):
                    value = value._vcall("v_take", [value, rows.rep()], type(value))
            self._cache[name] = value
        return self._cache[name]

    def _gather_plan(self, name: str):
        """``(base, rows)``: the loader of the column ``name`` is gathered
        from and the row ids that gather reads, or None for the column
        itself (already materialized here, or a base field)."""
        if name in self._cache or name in self._loaders:
            return (lambda: self[name]), None
        if name in self._gathers:
            return self._gathers[name]
        assert self._parent is not None, f"batch field {name!r} has no source"
        parent, step = self._parent
        base, rows = parent._gather_plan(name)
        return base, (step if rows is None else rows.then(step.step))

    def nrows(self) -> RepInt:
        """The (staged) number of rows in this batch, bound once."""
        if self._nrows is None:
            self._nrows = self._nrows_loader()
        return self._nrows

    def validity(self, expr) -> Optional[Rep]:
        """The validity mask when ``expr`` is a null-extended field."""
        if isinstance(expr, Col) and expr.name in self.nullable:
            return self.nullable[expr.name]()
        return None

    # -- the backend seam --------------------------------------------------------

    def guard(self, cond, cb: Callable[["VecRecord"], None]) -> None:
        """Forward the rows where ``cond`` holds: one mask, lazy gathers."""
        if not _is_vec(cond):
            # A predicate that folded to a scalar (e.g. a constant): the
            # whole batch passes or fails together.
            with self.ctx.if_(cond):
                cb(self)
            return
        ctx = self.ctx
        sel = ctx.call("v_mask_index", [cond], result="void*", prefix="sel")

        def nrows_loader() -> RepInt:
            return ctx.call("v_len", [sel], result="long", prefix="v")

        cb(VecRecord(
            self.comp, list(self.descs), {}, nrows_loader,
            parent=(self, _Rows(ctx, sel)),
        ))

    def merged(self, other: "_MatchBatch") -> "VecRecord":
        """An outer join's output: this probe batch's fields, then the
        build fields ``other`` (the batch's matches) gathers."""
        return other.merged(self)

    def field_ref(self, name: str):
        """A field a projection passes through unchanged: the column when
        this batch holds it already, else a reference that :meth:`derive`
        gathers only where the projection's output is read."""
        if name in self._cache:
            return self._cache[name]
        return _FieldRef(name, vec_ctype(self.desc(name).type.ctype))

    def derive(
        self,
        descs: list[FieldDesc],
        values: dict[str, StagedValue],
    ) -> "VecRecord":
        """A new batch over already-staged columns (projection output) and
        pass-through fields of this batch, gathered late."""
        rec = VecRecord(self.comp, descs, {}, self.nrows)
        for name, value in values.items():
            if isinstance(value, _FieldRef):
                rec._gathers[name] = self._gather_plan(value.name)
            else:
                rec._cache[name] = value
        return rec

    def rows(self, cb: Callable[[StagedRecord], None]) -> None:
        """Devectorize: one list view per column, then a residual row loop.

        Views are bound lazily but *before* the loop: the first time the
        loop body touches a field, its gather/``v_tolist`` chain is staged
        into a detached block and spliced ahead of the ``for`` -- so only
        the fields the consumer actually reads pay the whole-batch
        conversion, and none of it re-runs per row.  Under budget checks
        the loop checks the clock every ``budget_check_interval`` rows;
        the batch scan already charged the rows.
        """
        ctx = self.ctx
        n = self.nrows()
        parent = ctx.current_block
        mark = len(parent)
        views: dict[str, Optional[Rep]] = {}

        def bind_view(desc: FieldDesc) -> None:
            nonlocal mark
            prelude: list = []
            with ctx.emit_into(prelude):
                value = self[desc.name]
                if _is_vec(value):
                    args = [value]
                    if desc.name in self.nullable:
                        args.append(self.nullable[desc.name]())
                    views[desc.name] = ctx.call(
                        "v_tolist", args, result="void*", prefix="rows"
                    )
                else:
                    views[desc.name] = None  # broadcast scalar
            parent[mark:mark] = prelude
            mark += len(prelude)

        with row_loop(self.comp, 0, n, charge=False) as i:
            loaders: dict[str, Callable[[], StagedValue]] = {}
            for desc in self.descs:
                def load(desc: FieldDesc = desc) -> StagedValue:
                    if desc.name not in views:
                        bind_view(desc)
                    view = views[desc.name]
                    if view is None:
                        return self._cache[desc.name]
                    return column_loader(ctx, view, i, desc)()

                loaders[desc.name] = load
            cb(StagedRecord(ctx, list(self.descs), loaders))


# ---------------------------------------------------------------------------
# Batch scan source
# ---------------------------------------------------------------------------


class VecScanSource:
    """A bound base table delivered in batches of at most :data:`BATCH_ROWS`.

    Each batch record's fields are slices of whole-column arrays; a column
    array is bound (next to the table size, ahead of the batch loop) the
    first time the query reads that field, so the program binds only the
    columns it reads.
    """

    def __init__(self, comp, table: str, rename: dict[str, str]) -> None:
        self.comp = comp
        self.ctx = comp.ctx
        self.table = table
        self.ctx.comment(f"columnar batch scan of table {table!r}")
        self.size = self.ctx.call("db_size", [table], result="long", prefix="n")
        self._block = self.ctx.current_block
        self._anchor = self._block[-1]  # the size bind; columns follow it
        self.descs: list[FieldDesc] = []
        self._stored: dict[str, str] = {}  # field name -> stored column name
        for column in comp.catalog.table(table).columns:
            name = rename.get(column.name, column.name)
            self._stored[name] = column.name
            self.descs.append(FieldDesc(name, column.type))
        self._columns: dict[str, Rep] = {}

    def _column(self, desc: FieldDesc) -> Rep:
        """The whole-column array of ``desc``, bound on first read."""
        if desc.name not in self._columns:
            ctx = self.ctx
            prelude: list = []
            with ctx.emit_into(prelude):
                column = ctx.call(
                    "db_column_vec",
                    [self.table, self._stored[desc.name]],
                    result=vec_ctype(desc.type.ctype),
                    prefix="col",
                )
            at = next(i for i, s in enumerate(self._block) if s is self._anchor)
            at += 1 + len(self._columns)
            self._block[at:at] = prelude
            self._columns[desc.name] = column
        return self._columns[desc.name]

    def scan(
        self,
        cb: Callable[[VecRecord], None],
        bounds: Optional[tuple[Rep, Rep]] = None,
    ) -> None:
        from repro.compiler.lb2 import CompileError

        if bounds is not None:
            raise CompileError(
                "the vector backend cannot partition a batch scan; "
                "parallel execution uses scalar codegen"
            )
        ctx = self.ctx
        with row_chunks(
            self.comp, 0, self.size, BATCH_ROWS, batch=True
        ) as (lo, count):

            def slice_loader(desc: FieldDesc) -> Callable[[], StagedValue]:
                def load() -> StagedValue:
                    column = self._column(desc)
                    return ctx.call(
                        "batch_slice", [column, lo, count],
                        result=column.ctype, prefix="v",
                    )

                return load

            loaders = {d.name: slice_loader(d) for d in self.descs}
            cb(VecRecord(self.comp, list(self.descs), loaders, lambda: count))


# ---------------------------------------------------------------------------
# Vectorized aggregation state
# ---------------------------------------------------------------------------


class _IndexedSlots(Slots):
    """Aggregate slots read out of per-group result arrays (one group row)."""

    def __init__(
        self,
        ctx: StagingContext,
        arrays: Sequence[Rep],
        ctypes: Sequence[str],
        gi: RepInt,
    ) -> None:
        self.ctx = ctx
        self.arrays = list(arrays)
        self.ctypes = list(ctypes)
        self.gi = gi

    def get(self, i: int) -> Rep:
        sym = self.ctx.bind(
            ir.Index(self.arrays[i].expr, self.gi.expr), ctype=self.ctypes[i]
        )
        return rep_for_ctype(self.ctypes[i])(sym, self.ctx)

    def set(self, i: int, value) -> None:  # pragma: no cover - defensive
        raise NotImplementedError("vectorized group slots are read-only")

    def distinct_count(self, i: int) -> Rep:
        return RepInt(self.get(i).expr, self.ctx)  # merged to a count already


class _ColumnSlots(Slots):
    """Aggregate slots as whole columns over the merged groups (read-only):
    finalizers stage kernels over every group at once."""

    def __init__(self, arrays: Sequence[Rep]) -> None:
        self.arrays = list(arrays)

    def get(self, i: int) -> Rep:
        return self.arrays[i]

    def set(self, i: int, value) -> None:  # pragma: no cover - defensive
        raise NotImplementedError("vectorized group slots are read-only")

    def distinct_count(self, i: int) -> Rep:
        return self.arrays[i]  # merged to counts already


class VecAggMap:
    """Grouped aggregation over batches into one group table.

    Implements the accumulate/foreach protocol of the staged hash maps.
    The table (``rt.group_state``) is allocated ahead of the input loop,
    with each key's base-column bounds (``key_columns``, empty unless
    every key has one: see :func:`field_columns`) for a static layout;
    ``accumulate`` is called once per batch and stages one ``v_group_ids``
    -- every row's global group id -- and one ``v_agg_*`` fold per slot
    of the node's :class:`AggLayout` into the table's accumulators.
    ``foreach`` stages ``group_merge``, which orders the groups and hands
    out their key and slot columns.  With ``batch_out`` it hands the
    operator every group at once, from which :meth:`record` builds one
    output batch with a row per group, for a batch consumer (a filter or
    join over the groups); otherwise it loops over the groups, the scalar
    emit loop a row-at-a-time consumer expects.
    """

    def __init__(
        self,
        comp,
        node: phys.Agg,
        key_ctypes: Sequence[str],
        slot_ctypes: Sequence[str],
        batch_out: bool,
        key_columns: Sequence[tuple[str, str]],
        value_columns: Sequence[Optional[tuple[str, str]]],
    ) -> None:
        self.comp = comp
        self.ctx = ctx = comp.ctx
        self.key_ctypes = list(key_ctypes)
        self.slot_ctypes = list(slot_ctypes)
        self.batch_out = batch_out
        ctx.comment(
            f"vectorized grouped aggregation; keys: {[n for n, _ in node.keys]}"
        )
        self.state = ctx.call(
            "group_state",
            [len(self.key_ctypes), len(self.slot_ctypes),
             *(_bounds(ctx, c) for c in key_columns)],
            result="void*",
            prefix="groups",
        )
        # per aggregate: its count(distinct) value's bounds, if it has any
        self._value_bounds = [
            None if c is None else _bounds(ctx, c) for c in value_columns
        ]
        self._ngroups: Optional[RepInt] = None

    def accumulate(self, rec: VecRecord, stage_keys, layout: AggLayout) -> None:
        ctx = self.ctx
        keys = stage_keys(rec)
        ids = ctx.call(
            "v_group_ids", [self.state, rec.nrows(), *keys],
            result="vec_long", prefix="gid",
        )
        input_of = _agg_inputs(rec)
        bounds = dict(zip(map(id, layout.aggs), self._value_bounds))
        for agg, offset in layout.folds:
            value, valid = input_of(agg)
            _fold_batch(ctx, self.state, agg, offset, ids, value, valid, bounds[id(agg)])

    def foreach(self, on_group) -> None:
        ctx = self.ctx
        args = [self.state] + ([True] if self.batch_out else [])
        merged = ctx.call("group_merge", args, result="void*", prefix="grp")

        def entry(i: int, ctype: str) -> Rep:
            sym = ctx.bind(ir.Index(merged.expr, ir.Const(i)), ctype=ctype, prefix="v")
            return rep_for_ctype(ctype)(sym, ctx)

        nkeys = len(self.key_ctypes)
        ngroups = self._ngroups = entry(0, "long")  # type: ignore[assignment]
        if self.batch_out:
            # a count(distinct) slot merges to counts: void* -> vec_long
            on_group(
                [entry(1 + j, vec_ctype(kt)) for j, kt in enumerate(self.key_ctypes)],
                _ColumnSlots([
                    entry(1 + nkeys + i, vec_ctype(ct))
                    for i, ct in enumerate(self.slot_ctypes)
                ]),
            )
            return
        keylists = [entry(1 + j, "void*") for j in range(nkeys)]
        slot_arrays = [
            entry(1 + nkeys + i, "void*") for i in range(len(self.slot_ctypes))
        ]
        with ctx.for_range(0, ngroups, prefix="g") as gi:
            keys = [
                rep_for_ctype(kt)(
                    ctx.bind(ir.Index(kl.expr, gi.expr), ctype=kt), ctx
                )
                for kl, kt in zip(keylists, self.key_ctypes)
            ]
            slots = _IndexedSlots(ctx, slot_arrays, self.slot_ctypes, gi)
            on_group(keys, slots)

    def record(self, descs: list[FieldDesc], values: dict):
        """One group's output row, or (``batch_out``) the output batch."""
        if not self.batch_out:
            return StagedRecord.from_values(self.ctx, descs, values)
        ngroups = self._ngroups
        rec = VecRecord(self.comp, descs, {}, lambda: ngroups)
        rec._cache = dict(values)
        return rec


def _bounds(ctx: StagingContext, column: tuple[str, str]) -> Rep:
    """A base column's bounds, read from the database the program runs
    against (``db.bounds``): a residual program holds no data."""
    return ctx.call("db_bounds", list(column), result="void*", prefix="bnd")


def _agg_inputs(rec: VecRecord) -> Callable:
    """``input_of(agg)``: ``(value, valid)``, the batch's values of the
    aggregate's expression (None where no slot it folds takes them) and --
    for a count of a null-extended field -- the field's validity mask (the
    count reads both: a matched build value may itself be None).  Staged
    at the aggregate's first fold, once."""
    staged: dict[int, tuple] = {}

    def input_of(agg: StagedAgg) -> tuple:
        if id(agg) not in staged:
            value = agg.row_value(rec) if agg.needs_value() else None
            staged[id(agg)] = (value, rec.validity(agg.spec.expr))
        return staged[id(agg)]

    return input_of


def _mask_arg(valid: Optional[Rep]) -> list[Rep]:
    """The optional trailing ``valid`` argument of the count kernels."""
    return [] if valid is None else [valid]


def _fold_batch(
    ctx: StagingContext,
    groups: Rep,
    agg: StagedAgg,
    offset: int,
    ids: Rep,
    value: Optional[StagedValue],
    valid: Optional[Rep],
    bounds: Optional[Rep] = None,
) -> None:
    """Stage the fold of one batch into the group table's slot at
    ``offset`` of ``agg`` (``valid``: the mask of the null-extended field a
    count counts; ``bounds``: a ``count(distinct)`` value's base
    column's)."""
    kind = agg.spec.kind
    if kind == "count":
        if agg.spec.expr is None:
            kernel, args = "v_agg_count", []
        else:
            kernel, args = "v_agg_count_nn", [value, *_mask_arg(valid)]
    elif kind == "avg":
        # Matches the scalar layout: a float total plus an all-rows counter.
        kernel, args = ("v_agg_fsum", [value]) if offset == 0 else ("v_agg_count", [])
    elif kind in ("sum", "min", "max"):
        kernel, args = f"v_agg_{kind}", [value]
    elif kind == "count_distinct":
        kernel, args = "v_agg_distinct", [value] + ([] if bounds is None else [bounds])
    else:
        raise AssertionError(f"aggregate kind {kind!r} passed vector eligibility")
    ctx.call_stmt(kernel, [groups, agg.slots[offset], ids, *args])


def _global_partial(
    ctx: StagingContext,
    agg: StagedAgg,
    offset: int,
    value: Optional[StagedValue],
    valid: Optional[Rep],
    n: RepInt,
) -> Rep:
    """One batch's reduction backing the slot at ``offset`` of ``agg``
    (``valid`` as for :func:`_fold_batch`)."""
    kind = agg.spec.kind

    def reduce(fn: str, ctype: str, *extra) -> Rep:
        return ctx.call(fn, [value, n, *extra], result=ctype, prefix="v")

    if kind == "count":
        if agg.spec.expr is None:
            return n
        return reduce("v_count_nn", "long", *_mask_arg(valid))
    if kind == "avg":
        # Float total + all-rows counter, mirroring the scalar slots.
        return reduce("v_fsum", "double") if offset == 0 else n
    if kind in ("sum", "min", "max"):
        return reduce(f"v_{kind}", agg.value_type.ctype)
    raise AssertionError(f"aggregate kind {kind!r} passed vector eligibility")


class GlobalAggVec(GlobalAggState):
    """Global (ungrouped) aggregation over batches.

    The scalar lowering's row counter and slot variables, accumulated a
    batch at a time: one reduction kernel per slot, then -- for a non-empty
    batch -- the first batch's partials initialize the slots and later ones
    fold in (sums add, extremes compare).  ``empty_cond`` / ``result`` are
    the scalar lowering's.
    """

    def __init__(self, ctx: StagingContext, layout: AggLayout) -> None:
        ctx.comment("vectorized global aggregation")
        super().__init__(ctx, layout, comment=False)

    def accumulate(self, rec: VecRecord, layout: AggLayout) -> None:
        ctx = self.ctx
        n = rec.nrows()
        input_of = _agg_inputs(rec)
        partials = [
            _global_partial(ctx, agg, offset, *input_of(agg), n)
            for agg, offset in layout.folds
        ]
        with ctx.if_(n > 0):
            with ctx.if_(self.empty_cond()):
                for i, part in enumerate(partials):
                    self.slots.set(i, part)
            with ctx.else_():
                for i, part in enumerate(partials):
                    acc = self.slots.get(i)
                    fold = layout.combine(i)
                    if fold == "sum":
                        self.slots.set(i, acc + part)
                    else:
                        self.slots.set(i, ctx.call(
                            f"{fold}2", [acc, part], result=acc.ctype
                        ))
            self.seen.set(self.seen.get() + n)


# ---------------------------------------------------------------------------
# Batch joins
# ---------------------------------------------------------------------------


class BatchJoinBuild:
    """A join's build side kept as columns, probed one batch at a time.

    The build loop appends one tuple per batch -- the row count, the key
    columns, the payload columns -- or, when the build input runs row at a
    time, one tuple per row; :meth:`finish` stages ``rt.join_finish`` once,
    after the loop, which concatenates the columns and indexes the keys
    (:class:`repro.compiler.runtime.JoinIndex`).  Semi/anti joins use the
    same structure with no payload (:meth:`contains`); inner joins gather
    payload and probe columns through the matches (:meth:`each_match`),
    and left outer joins through the matches plus the unmatched probe
    rows, null-extended (:meth:`each_match_or_missing`).
    """

    def __init__(
        self,
        comp,
        label: str,
        nkeys: int,
        ncols: int,
        batched: bool,
        outer: bool = False,
    ) -> None:
        self.comp = comp
        self.ctx = ctx = comp.ctx
        ctx.comment(f"{label} (batch build: columns + key index)")
        self.nkeys = nkeys
        self.ncols = ncols
        self.batched = batched
        self.outer = outer
        self.state = ctx.call("list_new", [], result="void*", prefix="jb")
        self.built: Optional[Rep] = None

    def _append(self, rec, items: Sequence[Rep]) -> None:
        ctx = self.ctx
        if self.batched:
            items = [rec.nrows(), *items]
        row = ctx.bind(ir.TupleExpr(tuple(v.expr for v in items)), ctype="void*")
        ctx.call_stmt("list_append", [self.state, Rep(row, ctx, ctype="void*")])

    def insert(self, keys: Sequence[Rep], values: Sequence[Rep], rec) -> None:
        self._append(rec, [*keys, *values])

    def add(self, keys: Sequence[Rep], rec) -> None:
        self._append(rec, keys)

    def finish(self) -> None:
        args = [self.state, self.nkeys, self.ncols, self.batched]
        if self.outer:
            args.append(True)
        self.built = self.ctx.call("join_finish", args, result="void*", prefix="jx")

    def _probe_args(self, rec: VecRecord, keys: Sequence[Rep]) -> list:
        assert self.built is not None, "probe before finish()"
        return [self.built, rec.nrows(), *keys]

    def each_match(self, keys, descs, fn, rec: VecRecord) -> None:
        """Hand ``fn`` the probe batch's matches (build columns first)."""
        fn(self._matches("v_join_probe", keys, descs, rec))

    def each_match_or_missing(
        self, keys, descs, fn, on_missing, rec: VecRecord
    ) -> None:
        """Hand ``fn`` the probe batch's matches and unmatched rows at
        once, in probe order; ``on_missing`` is not staged, since the
        unmatched rows ride in the batch with their build fields
        null-extended."""
        fn(self._matches("v_join_probe_outer", keys, descs, rec))

    def _matches(self, kernel: str, keys, descs, rec: VecRecord) -> "_MatchBatch":
        ctx = self.ctx
        matches = ctx.call(
            kernel, self._probe_args(rec, keys), result="void*", prefix="jm"
        )

        def part(i: int) -> Rep:
            sym = ctx.bind(ir.Index(matches.expr, ir.Const(i)), ctype="void*", prefix="v")
            return Rep(sym, ctx, ctype="void*")

        return _MatchBatch(self, descs, part(0), part(1))

    def contains(self, keys, rec: VecRecord) -> Rep:
        """The probe batch's key-set membership mask."""
        return self.ctx.call(
            "v_join_contains", self._probe_args(rec, keys),
            result="vec_bool", prefix="v",
        )


class _MatchBatch:
    """One probe batch's matches, waiting for the probe batch they pair
    with: :meth:`merged` is the join's output batch -- build columns
    gathered (late) through ``build_rows``, probe columns through
    ``probe_rows`` -- with fields in the scalar join's order: build fields
    first for an inner join, probe fields first for an outer join, whose
    build fields are null-extended where ``build_rows`` is -1 (their
    validity mask is ``build_rows >= 0``, staged once, on first use)."""

    def __init__(
        self, build: BatchJoinBuild, descs: list[FieldDesc], build_rows: Rep,
        probe_rows: Rep,
    ) -> None:
        self.build = build
        self.descs = list(descs)
        self.build_rows = build_rows
        self.probe_rows = probe_rows

    def merged(self, probe: VecRecord) -> VecRecord:
        build = self.build
        ctx = build.ctx
        clash = {d.name for d in self.descs} & set(probe.field_names)
        if clash:
            raise KeyError(f"merged record field clash: {sorted(clash)}")

        # Each build column is bound once, by the first record that reads
        # it: later gathers through any level share the binding.
        loaded: dict[int, StagedValue] = {}

        def column(j: int, desc: FieldDesc) -> Callable[[], StagedValue]:
            def load() -> StagedValue:
                value = loaded.get(j)
                if value is None:
                    ctype = vec_ctype(desc.type.ctype)
                    value = loaded[j] = rep_for_ctype(ctype)(
                        ctx.bind(ir.Index(build.built.expr, ir.Const(1 + j)),
                                 ctype=ctype, prefix="v"),
                        ctx,
                    )
                return value

            return load

        build_rows = _Rows(ctx, self.build_rows)
        gathers = {
            d.name: (column(j, d), build_rows) for j, d in enumerate(self.descs)
        }
        parent = (probe, _Rows(ctx, self.probe_rows))

        def nrows_loader() -> RepInt:
            return ctx.call("v_len", [self.build_rows], result="long", prefix="v")

        if not build.outer:
            return VecRecord(
                build.comp, self.descs + list(probe.descs), {}, nrows_loader,
                gathers=gathers, parent=parent,
            )

        @functools.cache
        def validity() -> Rep:
            return RepVecInt(self.build_rows.expr, ctx) >= 0

        return VecRecord(
            build.comp, list(probe.descs) + self.descs, {}, nrows_loader,
            nullable={d.name: validity for d in self.descs},
            gathers=gathers, parent=parent,
        )


# ---------------------------------------------------------------------------
# Eligibility analysis
# ---------------------------------------------------------------------------

_VEC_AGG_KINDS = frozenset({"count", "sum", "avg", "min", "max"})
_CONST_TYPES = (bool, int, float, str)
#: Join key types a batch join codes, by kind: a key pair must agree on it
#: (an integer key meeting a float one takes rows).
_JOIN_KEY_KINDS = {
    ColumnType.INT: "int",
    ColumnType.DATE: "int",
    ColumnType.BOOL: "int",
    ColumnType.FLOAT: "float",
}
#: Batch operators that earn their chain its batches (see ``_chain_earns``).
_EARNING = (
    phys.Select, phys.HashJoin, phys.SemiJoin, phys.AntiJoin, phys.LeftOuterJoin,
)


def _expr_supported(expr: Expr) -> bool:
    """Can ``expr`` stage against batch columns?

    Exactly the expression forms whose staged operators lower to ``v_*``
    kernels.  ``Case`` stages through staged branches, so it (and anything
    containing it) runs scalar.
    """
    if isinstance(expr, Col):
        return True
    if isinstance(expr, Const):
        return isinstance(expr.value, _CONST_TYPES)
    if isinstance(expr, Param):
        # A parameter stages to one scalar symbol (bound from the runtime
        # vector at function entry) and broadcasts through the kernels
        # exactly like a lifted constant; bindings are already restricted
        # to the const-able scalar types.
        return True
    if isinstance(expr, (Arith, Cmp)):
        return _expr_supported(expr.lhs) and _expr_supported(expr.rhs)
    if isinstance(expr, (And, Or)):
        return all(_expr_supported(t) for t in expr.terms)
    if isinstance(expr, (Not, ExtractYear, Like, Substring)):
        return _expr_supported(expr.term)
    if isinstance(expr, InList):
        return _expr_supported(expr.term) and all(
            isinstance(v, _CONST_TYPES) for v in expr.values
        )
    return False


def _counts_only(node: phys.PhysicalPlan, fields: frozenset[str]) -> bool:
    """Does ``node`` read the null-extended ``fields`` only as
    ``count(field)`` -- the one use a batch serves, by counting the
    validity mask?  Every other reader takes the rows, with Nones."""
    if not isinstance(node, phys.Agg):
        return False
    if any(expr.columns() & fields for _, expr in node.keys):
        return False
    return all(
        spec.kind == "count" and isinstance(spec.expr, Col)
        for _, spec in node.aggs
        if spec.columns() & fields
    )


def field_columns(
    node: phys.PhysicalPlan, catalog, memo: Optional[dict] = None
) -> dict[str, tuple[str, str]]:
    """Each field of ``node``'s output that carries a base column's values
    unchanged -> that column's ``(table, column)``.

    A field keeps its column through a scan's renames, a filter, a
    projection of the bare field, either side of an inner join, the kept
    (left) side of a semi, anti or left outer join, and a grouping key
    that is the bare field: each passes on some of the column's values
    and makes none.  Anything else -- a computed expression, a
    ``SUBSTRING``, an outer join's null-extended side, a group join's or
    index join's output -- has none.  ``memo`` (by node id) shares the
    work across one plan.
    """
    memo = {} if memo is None else memo
    if id(node) in memo:
        return memo[id(node)]

    def sub(child) -> dict[str, tuple[str, str]]:
        return field_columns(child, catalog, memo)

    def bare(outputs) -> dict[str, tuple[str, str]]:
        source = sub(node.child)
        return {
            name: source[e.name]
            for name, e in outputs
            if isinstance(e, Col) and e.name in source
        }

    out: dict[str, tuple[str, str]] = {}
    if isinstance(node, phys.Scan):
        renames = node.rename_map
        out = {
            renames.get(c.name, c.name): (node.table, c.name)
            for c in catalog.table(node.table).columns
        }
    elif isinstance(node, phys.Select):
        out = sub(node.child)
    elif isinstance(node, phys.Project):
        out = bare(node.outputs)
    elif isinstance(node, phys.Agg):
        out = bare(node.keys)
    elif isinstance(node, phys.HashJoin):
        out = {**sub(node.left), **sub(node.right)}
    elif isinstance(node, (phys.SemiJoin, phys.AntiJoin, phys.LeftOuterJoin)):
        out = sub(node.left)
    memo[id(node)] = out
    return out


class VectorBackend(ScalarBackend):
    """Batch-vectorized lowering with per-operator scalar fallback."""

    name = "vector"

    def __init__(self, comp) -> None:
        super().__init__(comp)
        self._batch: set[int] = set()  # id(node) -> emits VecRecords
        self._vec_aggs: set[int] = set()  # id(node) -> vectorized Agg
        self._uses: dict[int, int] = {}  # id(node) -> occurrences in the plan
        # id(batch outer join) -> the null-extended fields it emits with a
        # validity mask: how a batch represents them, not whether a value
        # can be NULL (that is PhysicalPlan.nullable, the plan's one rule)
        self._nullable: dict[int, frozenset[str]] = {}
        self._counts = {
            "batch_scans": 0,
            "batch_selects": 0,
            "batch_projects": 0,
            "batch_joins": 0,
            "batch_key_set_joins": 0,
            "batch_outer_joins": 0,
            "vector_aggs": 0,
            "static_group_tables": 0,
            "static_distinct_slots": 0,
            "scalar_nodes": 0,
            "devectorized_edges": 0,
        }
        self._pruned_chains: list[dict] = []
        self._columns: dict = {}  # field_columns' memo over this plan

    # -- whole-plan analysis --------------------------------------------------

    def prepare(self, root: phys.PhysicalPlan) -> None:
        """Decide, per node, which lowering it gets -- before any staging."""
        self._analyze(root, consumer=None)
        self._prune(root, kept_above=False)

    def _analyze(
        self,
        node: phys.PhysicalPlan,
        consumer: Optional[phys.PhysicalPlan],
    ) -> None:
        self._uses[id(node)] = self._uses.get(id(node), 0) + 1
        for sub in node.children():
            self._analyze(sub, consumer=node)
        nullable = frozenset().union(
            *(self._nullable.get(id(sub), ()) for sub in node.children())
        )
        if nullable and not _counts_only(node, nullable):
            # reads null-extended fields: takes rows, through a devectorizing edge
            self._counts["scalar_nodes"] += 1
            return
        if isinstance(node, phys.Scan) and self._scan_ok(node):
            self._batch.add(id(node))
            self._counts["batch_scans"] += 1
            return
        elif isinstance(node, phys.Select):
            if id(node.child) in self._batch and _expr_supported(node.pred):
                self._batch.add(id(node))
                self._counts["batch_selects"] += 1
                return
        elif isinstance(node, phys.Project):
            if (
                id(node.child) in self._batch
                and not any(node.null_refs(self.comp.catalog))
                and all(_expr_supported(e) for _, e in node.outputs)
            ):
                self._batch.add(id(node))
                self._counts["batch_projects"] += 1
                return
        elif isinstance(node, phys.HashJoin):
            # probed by batches of the right input; built from either kind
            if id(node.right) in self._batch and self._join_ok(node, node.left):
                self._batch.add(id(node))
                self._counts["batch_joins"] += 1
                return
        elif isinstance(node, (phys.SemiJoin, phys.AntiJoin)):
            # the left input is probed; the right one builds the key set
            if id(node.left) in self._batch and self._join_ok(node, node.right):
                self._batch.add(id(node))
                self._counts["batch_key_set_joins"] += 1
                return
        elif isinstance(node, phys.LeftOuterJoin):
            # the preserved left input is probed; the right one builds
            if id(node.left) in self._batch and self._join_ok(node, node.right):
                self._batch.add(id(node))
                self._nullable[id(node)] = frozenset(
                    node.right.field_names(self.comp.catalog)
                )
                self._counts["batch_outer_joins"] += 1
                return
        elif isinstance(node, phys.Agg):
            if id(node.child) in self._batch and self._agg_ok(node):
                self._vec_aggs.add(id(node))
                if node.keys:
                    self._batch.add(id(node))  # emits its groups as one batch
                self._counts["vector_aggs"] += 1
                return
        self._counts["scalar_nodes"] += 1

    def _scan_ok(self, node: phys.Scan) -> bool:
        # Dictionary-compressed columns stage DicValues, which specialize
        # per-row against the present-stage dictionary; those scans (and
        # everything above them) keep the scalar lowering.
        return not any(f.compressed for f in self.comp.static_fields(node))

    def _join_ok(self, node, build: phys.PhysicalPlan) -> bool:
        """Key pairs both integer-like or both float, no key the plan says
        can be NULL (:meth:`PhysicalPlan.nullable`: the join index holds
        typed key arrays only), and a plain build side (its columns are
        kept as arrays, so no dictionary codes)."""
        if self.comp.config.hashmap != "native" or not node.left_keys:
            return False
        catalog = self.comp.catalog
        left = self.comp.field_types(node.left)
        right = self.comp.field_types(node.right)
        left_null, right_null = node.left.nullable(catalog), node.right.nullable(catalog)
        for lk, rk in zip(node.left_keys, node.right_keys):
            kind = _JOIN_KEY_KINDS.get(left[lk])
            if kind is None or kind != _JOIN_KEY_KINDS.get(right[rk]):
                return False
            if lk in left_null or rk in right_null:
                return False
        return not any(f.compressed for f in self.comp.static_fields(build))

    # -- benefit pruning ------------------------------------------------------
    #
    # Candidacy is about *correctness* (every expression has a kernel);
    # whether batching pays is a separate question.  A batch chain that
    # neither filters (a mask shrinks the devectorized residual loop), nor
    # joins (a batch probe replaces a per-row lookup), nor feeds a vector
    # aggregation stages whole columns only to convert them straight back --
    # pure overhead (a Scan -> Project pair under a scalar join, say), so
    # such chains are stripped back to the scalar lowering.

    _STRIP_COUNTERS = {
        phys.Scan: "batch_scans",
        phys.Select: "batch_selects",
        phys.Project: "batch_projects",
    }

    def _prune(self, node: phys.PhysicalPlan, kept_above: bool) -> None:
        nid = id(node)
        if nid in self._batch and not kept_above:
            # the top of a maximal batch chain: does it earn its keep?
            if not self._chain_earns(node):
                stripped = self._strip(node)
                if stripped:
                    self._pruned_chains.append({
                        "root": type(node).__name__,
                        "reason": "no-select-in-chain",
                        "nodes": stripped,
                    })
        keeps = nid in self._batch or nid in self._vec_aggs
        for sub in node.children():
            self._prune(sub, kept_above=keeps)

    def _chain_earns(self, node: phys.PhysicalPlan) -> bool:
        """Does the batch chain under ``node`` filter or join?  A grouped
        aggregate ends the chain: its batched input always pays (it feeds
        kernels), its batched output only through what consumes it."""
        if id(node) not in self._batch or isinstance(node, phys.Agg):
            return False
        if isinstance(node, _EARNING):
            return True
        return any(self._chain_earns(sub) for sub in node.children())

    def _strip(self, node: phys.PhysicalPlan) -> int:
        """Demote a batch chain to scalar; returns how many nodes it held.

        A subplan the plan uses twice (a view, say) is one node with two
        consumers; it keeps its lowering, and the demoted consumer reads
        it through a devectorizing edge."""
        nid = id(node)
        if nid not in self._batch or self._uses[nid] > 1:
            return 0
        self._batch.discard(nid)
        if isinstance(node, phys.Agg):
            return 0  # still aggregates in batches; emits its groups as rows
        self._counts[self._STRIP_COUNTERS[type(node)]] -= 1
        self._counts["scalar_nodes"] += 1
        return 1 + sum(self._strip(sub) for sub in node.children())

    def _agg_ok(self, node: phys.Agg) -> bool:
        for _, expr in node.keys:
            if not _expr_supported(expr):
                return False
        for _, spec in node.aggs:
            # count(distinct) keeps (group, value) pairs: grouped only
            grouped_distinct = spec.kind == "count_distinct" and node.keys
            if spec.kind not in _VEC_AGG_KINDS and not grouped_distinct:
                return False
            if spec.expr is not None and not _expr_supported(spec.expr):
                return False
        return True

    def stats(self) -> dict:
        out = {"backend": self.name, **self._counts}
        if self._pruned_chains:
            out["pruned_chains"] = [dict(c) for c in self._pruned_chains]
        return out

    # -- operator edges -------------------------------------------------------

    def edge(self, child, consumer_node) -> Callable:
        dp = child.exec()
        node = getattr(child, "node", None)
        if node is None or id(node) not in self._batch:
            return dp
        if self._consumes_batch(consumer_node):
            return dp
        self._counts["devectorized_edges"] += 1

        def devectorized(cb) -> None:
            dp(lambda rec: rec.rows(cb))

        return devectorized

    def _consumes_batch(self, consumer_node) -> bool:
        return id(consumer_node) in self._batch or id(consumer_node) in self._vec_aggs

    # -- staged data-structure factories --------------------------------------

    def scan_source(self, node):
        if id(node) in self._batch:
            return VecScanSource(self.comp, node.table, node.rename_map)
        return super().scan_source(node)

    def multimap(self, node, label: str):
        if id(node) in self._batch:
            # an inner join builds its left input, an outer join its right
            outer = isinstance(node, phys.LeftOuterJoin)
            build = node.right if outer else node.left
            return BatchJoinBuild(
                self.comp, label, len(node.left_keys),
                len(self.comp.live_names(build, node)),
                batched=id(build) in self._batch, outer=outer,
            )
        return super().multimap(node, label)

    def key_set(self, node, label: str):
        if id(node) in self._batch:
            return BatchJoinBuild(
                self.comp, label, len(node.right_keys), 0,
                batched=id(node.right) in self._batch,
            )
        return super().key_set(node, label)

    def agg_map(self, node, key_ctypes, slot_ctypes):
        if id(node) in self._vec_aggs:
            catalog = self.comp.catalog
            columns = field_columns(node.child, catalog, self._columns)
            types = self.comp.field_types(node.child)

            def column(expr) -> Optional[tuple[str, str]]:
                # the columns Database.bounds answers: integer-like ones,
                # and strings declared one character wide (NOT NULL)
                if not isinstance(expr, Col) or types[expr.name] is ColumnType.FLOAT:
                    return None
                found = columns.get(expr.name)
                if found is not None and types[expr.name] is ColumnType.STRING:
                    declared = catalog.table(found[0]).require(found[1])
                    if declared.width != 1 or declared.nullable:
                        return None
                return found

            keys = [column(expr) for _, expr in node.keys]
            if None in keys:
                keys = []  # the static layout needs every key's bounds
            values = [
                column(spec.expr) if spec.kind == "count_distinct" else None
                for _, spec in node.aggs
            ]
            self._counts["static_group_tables"] += bool(keys)
            self._counts["static_distinct_slots"] += sum(v is not None for v in values)
            return VecAggMap(
                self.comp, node, key_ctypes, slot_ctypes,
                batch_out=id(node) in self._batch,
                key_columns=keys, value_columns=values,
            )
        return super().agg_map(node, key_ctypes, slot_ctypes)

    def global_agg_state(self, node, layout):
        if id(node) in self._vec_aggs:
            return GlobalAggVec(self.ctx, layout)
        return super().global_agg_state(node, layout)
