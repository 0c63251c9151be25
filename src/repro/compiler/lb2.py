"""The LB2 staged evaluator: data-centric with callbacks, over staged records.

This module is the push interpreter of :mod:`repro.engine.push`, re-typed.
Every operator exposes ``exec() -> datapath`` where ``datapath(cb)`` runs
the operator symbolically, calling ``cb`` on each *staged* record.  Running
the tree therefore emits the residual program -- the first Futamura
projection performed programmatically, in one pass (Sections 2-4).

The two-phase ``exec`` protocol is the paper's code-motion device (Section
4.4, Figure 7): calling ``exec()`` emits data-structure allocations and
cold-path binds *now* (when hoisting is on) and returns a closure that emits
the hot path wherever the caller stands.  With hoisting off, allocations are
deferred into the data path -- the ablation of experiment E9.

Operator code here never emits residual loops or subscripts directly: it
talks to staged data structures (scan sources, hash maps, aggregate state,
sort buffers -- :mod:`repro.compiler.staged_source` and friends) and to
records (:class:`repro.compiler.staged_record.StagedRecord`'s ``guard`` /
``derive`` / ``rows`` seam).  Those structures come from the builder's
*backend* (:mod:`repro.compiler.backends`), selected by ``Config.codegen``:
the scalar backend reproduces row-at-a-time loops byte-identically, the
vector backend lowers eligible pipelines to batch-columnar kernels.  No
operator branches on the backend; specialization happens entirely below
this seam (the paper's Section 4 claim, made testable).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional, Sequence

from repro.errors import ReproError
from repro.catalog.catalog import Catalog
from repro.catalog.types import ColumnType
from repro.plan import physical as phys
from repro.plan.expressions import Col
from repro.staging import ir
from repro.staging.builder import StagingContext
from repro.staging.rep import Rep, RepInt, rep_for_ctype
from repro.storage.database import Database
from repro.compiler.backends import make_backend
from repro.compiler.staged_agg import AggLayout, GlobalAggState
from repro.compiler.staged_hashmap import NativeAggMap
from repro.compiler.staged_record import (
    DicValue,
    FieldDesc,
    StagedRecord,
    StagedValue,
    materialize,
    value_output,
    value_payload,
)
from repro.compiler.staged_source import set_stat, set_time


class CompileError(ReproError):
    """Raised when a plan cannot be compiled."""

    code = "E_COMPILE"
    phase = "codegen"


@dataclass(frozen=True)
class Config:
    """Compilation knobs (the paper's per-optimization flags).

    * ``hashmap`` -- ``"native"`` (Python dict) or ``"open"`` (the paper's
      open-addressing columnar layout) for aggregation maps.
    * ``open_map_size`` -- slot count for open maps (power of two).
    * ``hoist`` -- allocate data structures ahead of the hot path (4.4).
    * ``use_dictionaries`` -- read dictionary-compressed columns when the
      database provides them (4.3).
    * ``budget_checks`` -- emit a periodic ``rt.scan_tick`` checkpoint into
      scan loops so the resilience layer can enforce wall-clock/row budgets
      and inject mid-scan faults.  Off by default: with the flag off the
      residual source is byte-identical to an unguarded build.
    * ``budget_check_interval`` -- rows between checkpoints in counted scan
      loops (candidate-list scans check per row).
    * ``codegen`` -- the lowering below the data-structure seam:
      ``"scalar"`` (row-at-a-time loops, the historical output, byte-stable)
      or ``"vector"`` (batch-columnar kernels for eligible scan/filter/
      project/aggregate pipelines, per-operator scalar fallback elsewhere).
    """

    hashmap: str = "native"
    open_map_size: int = 1 << 16
    hoist: bool = True
    use_dictionaries: bool = True
    instrument: bool = False
    sort_layout: str = "row"  # "row" (tuple buffer) or "column" (SoA + argsort)
    budget_checks: bool = False
    budget_check_interval: int = 1024
    codegen: str = "scalar"  # "scalar" or "vector"

    def __post_init__(self) -> None:
        if self.hashmap not in ("native", "open"):
            raise CompileError(f"unknown hashmap implementation {self.hashmap!r}")
        if self.sort_layout not in ("row", "column"):
            raise CompileError(f"unknown sort layout {self.sort_layout!r}")
        if self.budget_check_interval <= 0:
            raise CompileError("budget_check_interval must be positive")
        if self.codegen not in ("scalar", "vector"):
            raise CompileError(f"unknown codegen backend {self.codegen!r}")


class StaticField(NamedTuple):
    """Generation-time field info: name, SQL type, compressed or not (a
    tuple: the eligibility analysis builds one per field per node)."""

    name: str
    type: ColumnType
    compressed: bool = False

    @property
    def ctype(self) -> str:
        return "long" if self.compressed else self.type.ctype


RecCallback = Callable[[StagedRecord], None]
Datapath = Callable[[RecCallback], None]


class StagedOp:
    """Base staged operator."""

    def __init__(self, comp: "StagedPlanBuilder") -> None:
        self.comp = comp
        self.ctx = comp.ctx

    def exec(self) -> Datapath:
        raise NotImplementedError

    # -- the alloc/datapath split ------------------------------------------------

    def _two_phase(self, allocate: Callable[[], object],
                   emit: Callable[[object, RecCallback], None]) -> Datapath:
        """Wire an allocation phase and a hot-path phase per the config."""
        if self.comp.config.hoist:
            state = allocate()

            def datapath(cb: RecCallback) -> None:
                emit(state, cb)

            return datapath

        holder: dict[str, object] = {}

        def datapath_lazy(cb: RecCallback) -> None:
            if "state" not in holder:
                holder["state"] = allocate()
            emit(holder["state"], cb)

        return datapath_lazy


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


class StagedScan(StagedOp):
    def __init__(self, comp: "StagedPlanBuilder", node: phys.Scan) -> None:
        super().__init__(comp)
        self.node = node

    def exec(self) -> Datapath:
        def allocate():
            return self.comp.backend.scan_source(self.node)

        def emit(source, cb: RecCallback) -> None:
            source.scan(cb, self.comp.partition_bounds_for(self.node))

        return self._two_phase(allocate, emit)


class StagedDateIndexScan(StagedOp):
    """Date-partition-pruned scan (Section 4.3).

    Plain mode emits one loop over candidate row ids.  In ``enforce`` mode
    the residual program gets *two* loops: interior partitions run the
    downstream pipeline with **no** date comparison at all (they satisfy
    the range by construction), and only boundary partitions re-check --
    the pipeline code is specialized twice, one generation pass, no
    rewrite rules.
    """

    def __init__(self, comp: "StagedPlanBuilder", node: phys.DateIndexScan) -> None:
        super().__init__(comp)
        self.node = node

    def _bound_cond(self, rec: StagedRecord):
        node = self.node
        value = rec[node.column if not node.rename_map else node.rename_map.get(node.column, node.column)]
        cond = None
        if node.lo is not None:
            piece = (value > node.lo) if node.lo_strict else (value >= node.lo)
            cond = piece
        if node.hi is not None:
            piece = (value < node.hi) if node.hi_strict else (value <= node.hi)
            cond = piece if cond is None else (cond & piece)
        return cond

    def exec(self) -> Datapath:
        def allocate():
            return self.comp.backend.date_scan_source(self.node)

        def emit(source, cb: RecCallback) -> None:
            source.scan(cb, self._bound_cond)

        return self._two_phase(allocate, emit)


# ---------------------------------------------------------------------------
# Stateless operators
# ---------------------------------------------------------------------------


class StagedSelect(StagedOp):
    def __init__(self, comp, node: phys.Select, child: StagedOp) -> None:
        super().__init__(comp)
        self.node = node
        self.child = child

    def exec(self) -> Datapath:
        child_dp = self.comp.backend.edge(self.child, self.node)

        def datapath(cb: RecCallback) -> None:
            def on_rec(rec: StagedRecord) -> None:
                rec.guard(self.node.pred.stage(rec), cb)

            child_dp(on_rec)

        return datapath


class StagedProject(StagedOp):
    def __init__(self, comp, node: phys.Project, child: StagedOp) -> None:
        super().__init__(comp)
        self.node = node
        self.child = child

    def exec(self) -> Datapath:
        child_dp = self.comp.backend.edge(self.child, self.node)
        null_refs = self.node.null_refs(self.comp.catalog)
        types = self.comp.field_types(self.node)
        live = self.comp.live(self.node)
        outputs = [
            (name, expr, refs)
            for (name, expr), refs in zip(self.node.outputs, null_refs)
            if name in live
        ]

        def datapath(cb: RecCallback) -> None:
            def on_rec(rec: StagedRecord) -> None:
                values: dict[str, StagedValue] = {}
                descs: list[FieldDesc] = []
                for name, expr, refs in outputs:
                    if refs:
                        # SQL NULL propagation: the output reads a field
                        # the plan says can be NULL (PhysicalPlan.nullable)
                        present = None
                        for ref in refs:
                            check = self.ctx.call("not_none", [rec[ref]], result="bool")
                            present = check if present is None else (present & check)
                        none_rep = Rep(ir.Const(None), self.ctx, ctype="void*")
                        slot = self.ctx.var(none_rep, prefix="proj")
                        with self.ctx.if_(present):
                            slot.set(value_output(expr.stage(rec)))
                        value: StagedValue = rep_for_ctype(types[name].ctype)(
                            ir.Sym(slot.name), self.ctx
                        )
                    elif isinstance(expr, Col):
                        value = rec.field_ref(expr.name)
                    else:
                        value = expr.stage(rec)
                    values[name] = value
                    descs.append(_desc_for_value(name, value, rec, expr))
                cb(rec.derive(descs, values))

            child_dp(on_rec)

        return datapath


def _desc_for_value(name: str, value: StagedValue, rec: StagedRecord, expr) -> FieldDesc:
    if isinstance(value, DicValue):
        return FieldDesc(
            name,
            ColumnType.STRING,
            dictionary=value.dictionary,
            strings_sym=value.strings_sym,
        )
    return FieldDesc(name, _TYPE_OF_CTYPE.get(value.ctype, ColumnType.INT))


#: A staged value's C type -> the column type of a field holding it.
_TYPE_OF_CTYPE = {
    "long": ColumnType.INT,
    "double": ColumnType.FLOAT,
    "bool": ColumnType.BOOL,
    "char*": ColumnType.STRING,
    "vec_long": ColumnType.INT,
    "vec_double": ColumnType.FLOAT,
    "vec_bool": ColumnType.BOOL,
    "vec_str": ColumnType.STRING,
}


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def _join_key(value: StagedValue) -> Rep:
    """Join keys compare across tables: decode compressed values so the key
    domain is the raw column domain (different dictionaries stay safe)."""
    return value_output(value)


def _keys_present(comp, side: phys.PhysicalPlan, keys) -> Optional[Callable]:
    """SQL equality never holds for NULL, so a row whose join key holds
    one matches nothing: given a record of ``side``, the staged condition
    "every key field that can be NULL is present" -- or None when the plan
    says no key field can be NULL (:meth:`PhysicalPlan.nullable`), and no
    guard is emitted."""
    nullable = phys.nullable_keys(side, keys, comp.catalog)
    if not nullable:
        return None

    def present(rec: StagedRecord) -> Rep:
        cond = None
        for k in nullable:
            check = comp.ctx.call("not_none", [rec[k]], result="bool")
            cond = check if cond is None else (cond & check)
        return cond

    return present


def _guarded(cb: RecCallback, present: Optional[Callable]) -> RecCallback:
    """``cb``, forwarded only the records whose ``present`` holds."""
    if present is None:
        return cb
    return lambda rec: rec.guard(present(rec), cb)


class StagedHashJoin(StagedOp):
    def __init__(self, comp, node: phys.HashJoin, left: StagedOp, right: StagedOp):
        super().__init__(comp)
        self.node = node
        self.left = left
        self.right = right

    def exec(self) -> Datapath:
        left_dp = self.comp.backend.edge(self.left, self.node)
        right_dp = self.comp.backend.edge(self.right, self.node)

        def allocate():
            return self.comp.backend.multimap(self.node, "hash join build table")

        node = self.node
        build_present = _keys_present(self.comp, node.left, node.left_keys)
        probe_present = _keys_present(self.comp, node.right, node.right_keys)
        stored = self.comp.live_names(node.left, node)

        def emit(mm, cb: RecCallback) -> None:
            build_descs: list[FieldDesc] = []

            def build(rec: StagedRecord) -> None:
                nonlocal build_descs
                keys = [_join_key(rec[k]) for k in node.left_keys]
                payloads, build_descs = materialize(rec, stored)
                mm.insert(keys, payloads, rec=rec)

            left_dp(_guarded(build, build_present))
            mm.finish()

            def probe(rec: StagedRecord) -> None:
                keys = [_join_key(rec[k]) for k in node.right_keys]
                mm.each_match(
                    keys, build_descs, lambda left_rec: cb(left_rec.merged(rec)),
                    rec=rec,
                )

            right_dp(_guarded(probe, probe_present))

        return self._two_phase(allocate, emit)


class StagedLeftOuterJoin(StagedOp):
    def __init__(self, comp, node: phys.LeftOuterJoin, left: StagedOp, right: StagedOp):
        super().__init__(comp)
        self.node = node
        self.left = left
        self.right = right

    def exec(self) -> Datapath:
        left_dp = self.comp.backend.edge(self.left, self.node)
        right_dp = self.comp.backend.edge(self.right, self.node)
        node = self.node
        live = self.comp.live(node)
        right_fields = [
            (name, ftype)
            for name, ftype in node.right.fields(self.comp.catalog)
            if name in live
        ]
        build_present = _keys_present(self.comp, node.right, node.right_keys)
        probe_present = _keys_present(self.comp, node.left, node.left_keys)

        def allocate():
            return self.comp.backend.multimap(
                self.node, "left outer join build table (right side)"
            )

        def emit(mm, cb: RecCallback) -> None:
            build_descs: list[FieldDesc] = []

            def build(rec: StagedRecord) -> None:
                nonlocal build_descs
                keys = [_join_key(rec[k]) for k in self.node.right_keys]
                # Decode compressed values at build time so the match and
                # no-match branches below produce identically-typed fields.
                payloads: list[Rep] = []
                build_descs = []
                for name, _ in right_fields:
                    value = value_output(rec[name])
                    payloads.append(value)
                    build_descs.append(FieldDesc(name, rec.desc(name).type))
                mm.insert(keys, payloads, rec=rec)

            right_dp(_guarded(build, build_present))
            mm.finish()

            def probe(rec: StagedRecord) -> None:
                keys = [_join_key(rec[k]) for k in self.node.left_keys]

                def on_missing() -> None:
                    null_values = {
                        name: Rep(ir.Const(None), self.ctx, ctype="void*")
                        for name, _ in right_fields
                    }
                    null_descs = [FieldDesc(n, t) for n, t in right_fields]
                    null_rec = StagedRecord.from_values(
                        self.ctx, null_descs, null_values
                    )
                    cb(rec.merged(null_rec))

                def each_match() -> None:
                    mm.each_match_or_missing(
                        keys,
                        build_descs,
                        lambda right_rec: cb(rec.merged(right_rec)),
                        on_missing,
                        rec=rec,
                    )

                if probe_present is None:
                    each_match()
                    return
                # a NULL key matches nothing: the row is null-extended
                with self.ctx.if_(probe_present(rec)):
                    each_match()
                with self.ctx.else_():
                    on_missing()

            left_dp(probe)

        return self._two_phase(allocate, emit)


class StagedKeySetJoin(StagedOp):
    """Semi (EXISTS) and anti (NOT EXISTS) joins over a staged key set."""

    def __init__(self, comp, node, left: StagedOp, right: StagedOp, keep: bool):
        super().__init__(comp)
        self.node = node
        self.left = left
        self.right = right
        self.keep = keep

    def exec(self) -> Datapath:
        left_dp = self.comp.backend.edge(self.left, self.node)
        right_dp = self.comp.backend.edge(self.right, self.node)

        def allocate():
            kind = "semi" if self.keep else "anti"
            return self.comp.backend.key_set(self.node, f"{kind} join key set")

        # A key set holds no NULL-bearing key, so a probe key holding NULL
        # is never in it: a semi join drops the row, an anti join keeps it.
        build_present = _keys_present(self.comp, self.node.right, self.node.right_keys)

        def emit(keyset, cb: RecCallback) -> None:
            def build(rec: StagedRecord) -> None:
                keyset.add([_join_key(rec[k]) for k in self.node.right_keys], rec=rec)

            right_dp(_guarded(build, build_present))
            keyset.finish()

            def probe(rec: StagedRecord) -> None:
                hit = keyset.contains(
                    [_join_key(rec[k]) for k in self.node.left_keys], rec=rec
                )
                rec.guard(hit if self.keep else ~hit, cb)

            left_dp(probe)

        return self._two_phase(allocate, emit)


class StagedIndexJoin(StagedOp):
    def __init__(self, comp, node: phys.IndexJoin, child: StagedOp) -> None:
        super().__init__(comp)
        self.node = node
        self.child = child

    def _allocate(self):
        node = self.node
        comment = (
            f"index join against {node.table}.{node.table_key} "
            f"({'unique' if node.unique else 'multi'})"
        )
        return self.comp.backend.index_source(
            node.table, node.table_key, node.unique, node.rename_map,
            comment, with_table=True,
        )

    def exec(self) -> Datapath:
        child_dp = self.comp.backend.edge(self.child, self.node)

        def emit(source, cb: RecCallback) -> None:
            node = self.node

            def merge_and_emit(rec: StagedRecord, rowid: Rep) -> None:
                merged = rec.merged(source.record_at(rowid))
                if node.residual is not None:
                    merged.guard(node.residual.stage(merged), cb)
                else:
                    cb(merged)

            def probe(rec: StagedRecord) -> None:
                key = _join_key(rec[node.child_key])
                if node.unique:
                    rowid = source.lookup_unique(key, prefix="rid")
                    rec.guard(rowid >= 0, lambda r: merge_and_emit(r, rowid))
                else:
                    rows = source.lookup(key, prefix="rids")
                    source.each(rows, lambda rowid: merge_and_emit(rec, rowid))

            child_dp(probe)

        return self._two_phase(self._allocate, emit)


class StagedIndexSemiJoin(StagedOp):
    """Semi/anti join via index existence (``IndexEntryView.exists``)."""

    def __init__(self, comp, node: phys.IndexSemiJoin, child: StagedOp) -> None:
        super().__init__(comp)
        self.node = node
        self.child = child

    def _allocate(self):
        node = self.node
        kind = "anti" if node.anti else "semi"
        comment = f"index {kind} join against {node.table}.{node.table_key}"
        return self.comp.backend.index_source(
            node.table, node.table_key, node.unique, node.rename_map,
            comment, with_table=node.residual is not None,
        )

    def exec(self) -> Datapath:
        child_dp = self.comp.backend.edge(self.child, self.node)

        def emit(source, cb: RecCallback) -> None:
            node = self.node
            ctx = self.ctx

            def probe(rec: StagedRecord) -> None:
                key = _join_key(rec[node.child_key])
                if node.residual is None:
                    if node.unique:
                        rowid = source.lookup_unique(key)
                        hit = rowid >= 0
                    else:
                        rows = source.lookup(key)
                        hit = source.count(rows) > 0
                else:
                    found = ctx.var(ctx.bool_(False), prefix="found")

                    def check(rowid: Rep) -> None:
                        merged = rec.merged(source.record_at(rowid))
                        with ctx.if_(node.residual.stage(merged)):
                            found.set(True)

                    if node.unique:
                        rowid = source.lookup_unique(key)
                        with ctx.if_(rowid >= 0):
                            check(rowid)
                    else:
                        rows = source.lookup(key)
                        source.each(rows, check, break_when=found.get)
                    hit = found.get()
                rec.guard(~hit if node.anti else hit, cb)

            child_dp(probe)

        return self._two_phase(self._allocate, emit)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class StagedAggOp(StagedOp):
    def __init__(self, comp, node: phys.Agg, child: StagedOp) -> None:
        super().__init__(comp)
        self.node = node
        self.child = child
        self.child_types = comp.field_types(node.child)
        self.layout = AggLayout(
            node.aggs, self.child_types, node.child.nullable(comp.catalog)
        )
        self.out_fields = node.fields(comp.catalog)

    def exec(self) -> Datapath:
        if not self.node.keys:
            return self._exec_global()
        return self._exec_grouped()

    # -- grouped ---------------------------------------------------------------

    def _key_ctypes(self) -> list[str]:
        ctypes = []
        statics = self.comp.static_fields(self.node.child)
        static_map = {f.name: f for f in statics}
        for _, expr in self.node.keys:
            if isinstance(expr, Col) and static_map.get(expr.name, None) and static_map[expr.name].compressed:
                ctypes.append("long")  # dictionary code
            else:
                ctypes.append(expr.result_type(self.child_types).ctype)
        return ctypes

    def _exec_grouped(self) -> Datapath:
        child_dp = self.comp.backend.edge(self.child, self.node)
        key_ctypes = self._key_ctypes()

        def allocate():
            return self.comp.backend.agg_map(self.node, key_ctypes, self.layout.ctypes)

        def emit(hm, cb: RecCallback) -> None:
            key_descs: list[Optional[FieldDesc]] = [None] * len(self.node.keys)
            self._emit_grouped_accumulate(child_dp, hm, key_descs)

            def on_group(keys: list[Rep], slots) -> None:
                values: dict[str, StagedValue] = {}
                descs: list[FieldDesc] = []
                for key, desc in zip(keys, key_descs):
                    assert desc is not None
                    if desc.compressed:
                        assert desc.dictionary is not None
                        assert desc.strings_sym is not None
                        values[desc.name] = DicValue(
                            RepInt(key.expr, self.ctx),
                            desc.dictionary,
                            desc.strings_sym,
                            self.ctx,
                        )
                    else:
                        values[desc.name] = key
                    descs.append(desc)
                for (name, _), agg in zip(self.node.aggs, self.layout.aggs):
                    values[name] = agg.finalize(self.ctx, slots)
                    descs.append(FieldDesc(name, dict(self.out_fields)[name]))
                cb(hm.record(descs, values))

            hm.foreach(on_group)

        return self._two_phase(allocate, emit)

    # -- partial mode (Section 4.5 thread-local state) ---------------------------

    def exec_partial(self) -> None:
        """Emit a *partial* aggregation: accumulate, then return raw state.

        The generated function ends with ``return`` of the thread-local hash
        map (grouped) or ``[seen, slot...]`` (global); the parallel driver
        merges these across partitions (the ``hm.merge`` step of the paper's
        parallel ``Agg``).
        """
        child_dp = self.comp.backend.edge(self.child, self.node)
        if not self.node.keys:
            state = GlobalAggState(self.ctx, self.layout, comment=False)
            child_dp(lambda rec: state.accumulate(rec, self.layout))
            self.ctx.emit(ir.Return(ir.ListExpr(tuple(state.raw_items()))))
            return
        if self.comp.config.hashmap != "native":
            raise CompileError(
                "parallel partial aggregation requires the native hash map"
            )
        hm = NativeAggMap(self.ctx, self._key_ctypes(), self.layout.ctypes)
        self._emit_grouped_accumulate(child_dp, hm, [None] * len(self.node.keys))
        self.ctx.emit(ir.Return(hm.hm.expr))

    def _stage_keys(self, key_descs) -> Callable[[StagedRecord], list[Rep]]:
        """How the map stages this Agg's group keys (and learns their descs)."""

        def stage_keys(rec: StagedRecord) -> list[Rep]:
            keys: list[Rep] = []
            for i, (name, expr) in enumerate(self.node.keys):
                value = expr.stage(rec)
                keys.append(value_payload(value))
                if isinstance(value, DicValue):
                    key_descs[i] = FieldDesc(
                        name,
                        ColumnType.STRING,
                        dictionary=value.dictionary,
                        strings_sym=value.strings_sym,
                    )
                else:
                    key_descs[i] = FieldDesc(
                        name, self.node.keys[i][1].result_type(self.child_types)
                    )
            return keys

        return stage_keys

    def _emit_grouped_accumulate(self, child_dp, hm, key_descs) -> None:
        stage_keys = self._stage_keys(key_descs)

        def accumulate(rec: StagedRecord) -> None:
            hm.accumulate(rec, stage_keys, self.layout)

        child_dp(accumulate)

    # -- global (no grouping keys) -------------------------------------------------

    def _exec_global(self) -> Datapath:
        child_dp = self.comp.backend.edge(self.child, self.node)

        def allocate():
            return self.comp.backend.global_agg_state(self.node, self.layout)

        def emit(state, cb: RecCallback) -> None:
            child_dp(lambda rec: state.accumulate(rec, self.layout))

            values: dict[str, StagedValue] = {}
            descs: list[FieldDesc] = []
            empty = state.empty_cond()
            for (name, _), agg in zip(self.node.aggs, self.layout.aggs):
                values[name] = state.result(agg, empty)
                descs.append(FieldDesc(name, dict(self.out_fields)[name]))
            cb(StagedRecord.from_values(self.ctx, descs, values))

        return self._two_phase(allocate, emit)


class StagedGroupJoin(StagedOp):
    """HyPer's GroupJoin, staged: aggregate the right side per join key,
    then stream left rows with finalized (or empty-group) values appended.
    One row out per left row; no intermediate join product materializes."""

    def __init__(self, comp, node: phys.GroupJoin, left: StagedOp, right: StagedOp):
        super().__init__(comp)
        self.node = node
        self.left = left
        self.right = right
        right_types = comp.field_types(node.right)
        self.layout = AggLayout(
            node.aggs, right_types, node.right.nullable(comp.catalog)
        )
        self.out_types = dict(node.fields(comp.catalog))

    def exec(self) -> Datapath:
        left_dp = self.comp.backend.edge(self.left, self.node)
        right_dp = self.comp.backend.edge(self.right, self.node)
        node = self.node
        right_types = self.comp.field_types(node.right)
        key_ctypes = [right_types[k].ctype for k in node.right_keys]

        def allocate() -> NativeAggMap:
            self.ctx.comment(
                f"group join state (aggregate right side by {list(node.right_keys)})"
            )
            return NativeAggMap(self.ctx, key_ctypes, self.layout.ctypes)

        def emit(hm: NativeAggMap, cb: RecCallback) -> None:
            ctx = self.ctx

            def stage_keys(rec: StagedRecord) -> list[Rep]:
                return [_join_key(rec[k]) for k in node.right_keys]

            def build(rec: StagedRecord) -> None:
                hm.accumulate(rec, stage_keys, self.layout)

            right_dp(build)

            def probe(rec: StagedRecord) -> None:
                keys = [_join_key(rec[k]) for k in node.left_keys]
                state, present = hm.lookup(keys)
                values: dict[str, StagedValue] = {}
                descs: list[FieldDesc] = []
                for (name, _), agg in zip(node.aggs, self.layout.aggs):
                    slot = ctx.var(agg.empty_value(ctx), prefix="gj")
                    with ctx.if_(present):
                        slot.set(agg.finalize(ctx, hm.slots_of(state)))
                    values[name] = rep_for_ctype(self.out_types[name].ctype)(
                        ir.Sym(slot.name), ctx
                    )
                    descs.append(FieldDesc(name, self.out_types[name]))
                agg_rec = StagedRecord.from_values(ctx, descs, values)
                cb(rec.merged(agg_rec))

            left_dp(probe)

        return self._two_phase(allocate, emit)


# ---------------------------------------------------------------------------
# Materializing tail operators
# ---------------------------------------------------------------------------


class StagedSort(StagedOp):
    """Sort pipeline breaker; materializes in row OR column layout.

    Section 4.1: "A pipeline breaker materializes the intermediate Records
    inside a buffer ... at which point a format conversion may occur."
    ``Config.sort_layout`` picks the buffer shape -- a row buffer of tuples
    sorted in place, or one list per field permuted through an argsort --
    with zero change to any operator code (the abstraction dissolves).
    """

    def __init__(self, comp, node: phys.Sort, child: StagedOp) -> None:
        super().__init__(comp)
        self.node = node
        self.child = child
        # what the buffer stores: the fields read past the sort, and its keys
        self.field_names = comp.live_names(node.child, node.child)

    def _spec(self) -> tuple[tuple[int, bool], ...]:
        index_of = {name: i for i, name in enumerate(self.field_names)}
        return tuple((index_of[name], asc) for name, asc in self.node.keys)

    def exec(self) -> Datapath:
        child_dp = self.comp.backend.edge(self.child, self.node)

        def allocate():
            return self.comp.backend.sort_buffer(self.node, self.field_names)

        def emit(buffer, cb: RecCallback) -> None:
            child_dp(buffer.append)
            buffer.drain(self._spec(), self.node.limit, cb)

        return self._two_phase(allocate, emit)


class StagedLimit(StagedOp):
    def __init__(self, comp, node: phys.Limit, child: StagedOp) -> None:
        super().__init__(comp)
        self.node = node
        self.child = child

    def exec(self) -> Datapath:
        child_dp = self.comp.backend.edge(self.child, self.node)

        def datapath(cb: RecCallback) -> None:
            counter = self.ctx.var(self.ctx.int_(0), prefix="lim")

            def on_rec(rec: StagedRecord) -> None:
                def bump(r: StagedRecord) -> None:
                    counter.set(counter.get() + 1)
                    cb(r)

                rec.guard(counter.get() < self.node.n, bump)

            child_dp(on_rec)

        return datapath


class StagedDistinct(StagedOp):
    def __init__(self, comp, node: phys.Distinct, child: StagedOp) -> None:
        super().__init__(comp)
        self.node = node
        self.child = child

    def exec(self) -> Datapath:
        child_dp = self.comp.backend.edge(self.child, self.node)

        def allocate():
            return self.comp.backend.key_set(self.node, "distinct key set")

        def emit(seen, cb: RecCallback) -> None:
            def on_rec(rec: StagedRecord) -> None:
                payloads = [value_payload(rec[n]) for n in rec.field_names]
                rec.guard(seen.add_if_absent(payloads), cb)

            child_dp(on_rec)

        return self._two_phase(allocate, emit)


class InstrumentedOp(StagedOp):
    """Wraps any staged operator with a generated row counter and timer.

    With ``Config(instrument=True)`` the residual program counts every
    record each operator emits, brackets the operator's datapath with a
    pair of ``obs_now`` clock reads, and stores totals and intervals into
    the ``stats`` dict parameter -- the compiled analogue of EXPLAIN
    ANALYZE, produced by the same single generation pass (instrumentation
    is just one more generation-time abstraction).  Datapath invocations
    chain at the top level of the generated function, so both the timer
    binds and the stats writes land at statement depth zero, never inside
    the per-row loops; intervals are *inclusive* (a parent's bracket spans
    its children's), matching classic EXPLAIN ANALYZE semantics.

    Record callbacks may deliver scalar records or whole batches (the
    vector lowering); batch records advance the counter by their row count
    in one staged statement, so instrumentation no longer forces the plan
    back to scalar codegen.
    """

    def __init__(self, comp: "StagedPlanBuilder", inner: StagedOp, label: str) -> None:
        super().__init__(comp)
        self.inner = inner
        self.label = label

    @property
    def node(self) -> phys.PhysicalPlan:
        # the vector backend's edge analysis keys eligibility decisions on
        # plan nodes; the wrapper must be transparent to it
        return self.inner.node

    def exec(self) -> Datapath:
        inner_dp = self.inner.exec()
        counter = self.ctx.var(self.ctx.int_(0), prefix="cnt")

        def datapath(cb: RecCallback) -> None:
            t0 = self.ctx.call("obs_now", [], result="double", prefix="t")

            def counting_cb(rec: StagedRecord) -> None:
                if getattr(rec, "is_batch", False):
                    counter.set(counter.get() + rec.nrows())
                else:
                    counter.set(counter.get() + 1)
                cb(rec)

            inner_dp(counting_cb)
            stats = self.comp.stats_sym
            assert stats is not None
            set_stat(self.ctx, stats, self.label, counter.name)
            t1 = self.ctx.call("obs_now", [], result="double", prefix="t")
            set_time(self.ctx, stats, self.label, t0, t1)

        return datapath


# ---------------------------------------------------------------------------
# Plan -> staged operators
# ---------------------------------------------------------------------------


class StagedPlanBuilder:
    """Builds the staged operator tree and tracks shared cold-path binds."""

    def __init__(
        self,
        catalog: Catalog,
        db: Database,
        ctx: StagingContext,
        config: Config,
    ) -> None:
        self.catalog = catalog
        self.db = db
        self.ctx = ctx
        self.config = config
        self._strings_syms: dict[tuple[str, str], Rep] = {}
        self._partition_target: Optional[phys.Scan] = None
        self._partition_bounds: Optional[tuple[Rep, Rep]] = None
        self.stats_sym: Optional[Rep] = None  # set by the driver in instrument mode
        self._op_counter = 0
        # This compile's plan facts, once per node: id(node) -> (node,
        # fact).  Holding the node keeps its id unique; the static fields
        # read the config and the database, so neither memo outlives the
        # builder (one per compile).
        self._static_fields: dict[int, tuple] = {}
        self._field_types: dict[int, tuple] = {}
        # id(node) -> the node's fields some consumer reads (the root
        # build() call holds the plan while this compile runs)
        self._live: dict[int, frozenset[str]] = {}
        self.backend = make_backend(self)
        self._prepared = False

    def finish(self) -> dict:
        """End generation: the backend's codegen stats.

        The backend points back at this builder; dropping that link ends
        their cycle, so this compile's staged state (its plan facts among
        it) is freed when the compile returns instead of waiting for the
        cyclic collector.
        """
        stats = self.backend.stats()
        self.backend.comp = None
        return stats

    def _maybe_instrument(self, op: StagedOp, node: phys.PhysicalPlan) -> StagedOp:
        if not self.config.instrument:
            return op
        self._op_counter += 1
        label = f"{type(node).__name__}#{self._op_counter}"
        return InstrumentedOp(self, op, label)

    def set_partition(self, target: phys.Scan, lo: Rep, hi: Rep) -> None:
        """Mark ``target`` as the partitioned driving scan (Section 4.5)."""
        self._partition_target = target
        self._partition_bounds = (lo, hi)

    def partition_bounds_for(self, node: phys.Scan) -> Optional[tuple[Rep, Rep]]:
        if self._partition_target is not None and node is self._partition_target:
            return self._partition_bounds
        return None

    def strings_sym(self, table: str, column: str) -> Rep:
        """Bind (once) the decoded-string table of a dictionary."""
        key = (table, column)
        if key not in self._strings_syms:
            self._strings_syms[key] = self.ctx.call(
                "db_dict_strings", [table, column], result="void*", prefix="dic"
            )
        return self._strings_syms[key]

    # -- static (pre-datapath) field info --------------------------------------

    def field_types(self, node: phys.PhysicalPlan) -> dict[str, ColumnType]:
        """``node.field_types(catalog)``, computed once per node per
        compile (read only: the dict is shared)."""
        memo = self._field_types.get(id(node))
        if memo is None:
            memo = (node, node.field_types(self.catalog))
            self._field_types[id(node)] = memo
        return memo[1]

    def static_fields(self, node: phys.PhysicalPlan) -> list[StaticField]:
        """Each output field's type and whether it holds dictionary codes,
        computed once per node per compile (read only: the list is
        shared)."""
        memo = self._static_fields.get(id(node))
        if memo is None:
            memo = (node, self._compute_static_fields(node))
            self._static_fields[id(node)] = memo
        return memo[1]

    def _compute_static_fields(self, node: phys.PhysicalPlan) -> list[StaticField]:
        if isinstance(node, (phys.Scan, phys.DateIndexScan)):
            schema = self.catalog.table(node.table)
            rename = node.rename_map
            out = []
            for column in schema.columns:
                compressed = (
                    self.config.use_dictionaries
                    and column.type is ColumnType.STRING
                    and self.db.has_dictionary(node.table, column.name)
                )
                out.append(
                    StaticField(rename.get(column.name, column.name), column.type, compressed)
                )
            return out
        if isinstance(
            node, (phys.Select, phys.Sort, phys.Limit, phys.Distinct, phys.IndexSemiJoin)
        ):
            return self.static_fields(node.child)
        if isinstance(node, phys.Project):
            child = {f.name: f for f in self.static_fields(node.child)}
            types = self.field_types(node.child)
            out = []
            for name, expr in node.outputs:
                if isinstance(expr, Col) and child[expr.name].compressed:
                    out.append(StaticField(name, ColumnType.STRING, True))
                else:
                    out.append(StaticField(name, expr.result_type(types)))
            return out
        if isinstance(node, phys.HashJoin):
            return self.static_fields(node.left) + self.static_fields(node.right)
        if isinstance(node, phys.LeftOuterJoin):
            right = [
                StaticField(f.name, f.type, False)
                for f in self.static_fields(node.right)
            ]
            return self.static_fields(node.left) + right
        if isinstance(node, (phys.SemiJoin, phys.AntiJoin)):
            return self.static_fields(node.left)
        if isinstance(node, phys.IndexJoin):
            schema = self.catalog.table(node.table)
            rename = node.rename_map
            table_fields = [
                StaticField(
                    rename.get(c.name, c.name),
                    c.type,
                    self.config.use_dictionaries
                    and c.type is ColumnType.STRING
                    and self.db.has_dictionary(node.table, c.name),
                )
                for c in schema.columns
            ]
            return self.static_fields(node.child) + table_fields
        if isinstance(node, phys.GroupJoin):
            right_types = self.field_types(node.right)
            out = list(self.static_fields(node.left))
            for name, spec in node.aggs:
                out.append(StaticField(name, spec.result_type(right_types)))
            return out
        if isinstance(node, phys.Agg):
            types = self.field_types(node.child)
            child = {f.name: f for f in self.static_fields(node.child)}
            out = []
            for name, expr in node.keys:
                if isinstance(expr, Col) and child[expr.name].compressed:
                    out.append(StaticField(name, ColumnType.STRING, True))
                else:
                    out.append(StaticField(name, expr.result_type(types)))
            for name, spec in node.aggs:
                out.append(StaticField(name, spec.result_type(types)))
            return out
        raise CompileError(f"static_fields: unhandled node {type(node).__name__}")

    # -- construction --------------------------------------------------------------

    def live(self, node: phys.PhysicalPlan) -> frozenset[str]:
        """The output fields of ``node`` that some consumer reads
        (:func:`repro.plan.physical.live_fields`)."""
        return self._live[id(node)]

    def live_names(
        self, source: phys.PhysicalPlan, reader: phys.PhysicalPlan
    ) -> list[str]:
        """The fields of ``source``, in its order, that ``reader``'s
        consumers read: what a materialization at ``reader`` stores of
        ``source`` (a join's build side, or a sort's own input)."""
        live = self._live[id(reader)]
        return [name for name in source.field_names(self.catalog) if name in live]

    def build(self, node: phys.PhysicalPlan) -> StagedOp:
        if not self._prepared:
            # First build() call sees the plan root: compute which fields
            # each operator must hand on, then let the backend run its
            # whole-plan analysis (the vector backend's eligibility pass).
            self._prepared = True
            self._live = phys.live_fields(node, self.catalog)
            self.backend.prepare(node)
        return self._maybe_instrument(self._build_raw(node), node)

    def _build_raw(self, node: phys.PhysicalPlan) -> StagedOp:
        if isinstance(node, phys.Scan):
            return StagedScan(self, node)
        if isinstance(node, phys.DateIndexScan):
            return StagedDateIndexScan(self, node)
        if isinstance(node, phys.Select):
            return StagedSelect(self, node, self.build(node.child))
        if isinstance(node, phys.Project):
            return StagedProject(self, node, self.build(node.child))
        if isinstance(node, phys.HashJoin):
            return StagedHashJoin(self, node, self.build(node.left), self.build(node.right))
        if isinstance(node, phys.LeftOuterJoin):
            return StagedLeftOuterJoin(
                self, node, self.build(node.left), self.build(node.right)
            )
        if isinstance(node, phys.SemiJoin):
            return StagedKeySetJoin(
                self, node, self.build(node.left), self.build(node.right), keep=True
            )
        if isinstance(node, phys.AntiJoin):
            return StagedKeySetJoin(
                self, node, self.build(node.left), self.build(node.right), keep=False
            )
        if isinstance(node, phys.IndexJoin):
            return StagedIndexJoin(self, node, self.build(node.child))
        if isinstance(node, phys.IndexSemiJoin):
            return StagedIndexSemiJoin(self, node, self.build(node.child))
        if isinstance(node, phys.GroupJoin):
            return StagedGroupJoin(
                self, node, self.build(node.left), self.build(node.right)
            )
        if isinstance(node, phys.Agg):
            return StagedAggOp(self, node, self.build(node.child))
        if isinstance(node, phys.Sort):
            return StagedSort(self, node, self.build(node.child))
        if isinstance(node, phys.Limit):
            return StagedLimit(self, node, self.build(node.child))
        if isinstance(node, phys.Distinct):
            return StagedDistinct(self, node, self.build(node.child))
        raise CompileError(f"no staged implementation for {type(node).__name__}")
