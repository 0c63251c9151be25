"""Staged aggregate accumulators.

Mirrors :mod:`repro.engine.aggregates` for the compiled path: each
:class:`repro.plan.expressions.AggSpec` maps to one or two hash-map slots
plus generation-time ``init`` / ``update`` / ``finalize`` emitters.  Group
state is created from the first row of the group (the LB2 ``up(init)``
pattern), so no sentinel values appear on the hot path; the SQL empty-input
semantics (count = 0, everything else None) only arise for global
aggregates and are handled by :func:`empty_values`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.catalog.types import ColumnType
from repro.plan.expressions import AggSpec
from repro.staging import ir
from repro.staging.builder import StagingContext
from repro.staging.rep import Rep, RepFloat, RepInt, rep_for_ctype
from repro.compiler.staged_hashmap import Slots
from repro.compiler.staged_record import (
    StagedRecord,
    StagedValue,
    value_output,
    value_payload,
)


class StagedAgg:
    """One aggregate spec bound to its slot range."""

    def __init__(self, spec: AggSpec, value_type: ColumnType, base: int) -> None:
        self.spec = spec
        self.value_type = value_type
        self.base = base  # index of this aggregate's first slot

    # -- static layout ---------------------------------------------------------

    def slot_ctypes(self) -> list[str]:
        kind = self.spec.kind
        if kind == "avg":
            return ["double", "long"]
        if kind == "count":
            return ["long"]
        if kind == "count_distinct":
            return ["void*"]
        return [self.value_type.ctype]

    # -- per-row value ------------------------------------------------------------

    def row_value(self, rec: StagedRecord) -> StagedValue | None:
        """Evaluate the aggregated expression once per row (None for count(*))."""
        if self.spec.expr is None:
            return None
        staged = self.spec.expr.stage(rec)
        if self.spec.kind == "count_distinct":
            return value_payload(staged)
        return value_output(staged)

    # -- emitters -------------------------------------------------------------------

    def init_values(self, ctx: StagingContext, value: StagedValue | None) -> list[Rep]:
        kind = self.spec.kind
        if kind == "count":
            if self.spec.expr is None:
                return [ctx.int_(1)]
            # count(expr): 1 when the (possibly null) value is present.
            present = ctx.call("not_none", [value], result="bool")
            counter = ctx.var(ctx.int_(0), prefix="c")
            with ctx.if_(present):
                counter.set(1)
            return [counter.get()]
        if kind == "avg":
            return [_as_float(ctx, value), ctx.int_(1)]
        if kind == "count_distinct":
            return [ctx.call("set_new1", [value], result="void*")]
        return [value]  # sum / min / max start from the first row's value

    def update(self, ctx: StagingContext, slots: Slots, value: StagedValue | None) -> None:
        kind = self.spec.kind
        base = self.base
        if kind == "count":
            if self.spec.expr is None:
                slots.set(base, slots.get(base) + 1)
            else:
                present = ctx.call("not_none", [value], result="bool")
                with ctx.if_(present):
                    slots.set(base, slots.get(base) + 1)
        elif kind == "sum":
            slots.set(base, slots.get(base) + value)
        elif kind == "avg":
            slots.set(base, slots.get(base) + _as_float(ctx, value))
            slots.set(base + 1, slots.get(base + 1) + 1)
        elif kind == "min":
            current = slots.get(base)
            with ctx.if_(value < current):
                slots.set(base, value)
        elif kind == "max":
            current = slots.get(base)
            with ctx.if_(value > current):
                slots.set(base, value)
        elif kind == "count_distinct":
            ctx.call_stmt("set_add", [slots.get(base), value])

    def finalize(self, ctx: StagingContext, slots: Slots) -> Rep:
        kind = self.spec.kind
        if kind == "avg":
            total = slots.get(self.base)
            count = slots.get(self.base + 1)
            return total / count
        if kind == "count_distinct":
            return slots.distinct_count(self.base)
        return slots.get(self.base)

    def empty_value(self, ctx: StagingContext) -> Rep:
        """The SQL value of this aggregate over zero rows."""
        if self.spec.kind in ("count", "count_distinct"):
            return ctx.int_(0)
        return Rep(ir.Const(None), ctx, ctype="void*")


def build_staged_aggs(
    aggs: Sequence[tuple[str, AggSpec]],
    types: dict[str, ColumnType],
) -> list[StagedAgg]:
    """Lay out aggregate slots contiguously, returning bound emitters."""
    out: list[StagedAgg] = []
    base = 0
    for _, spec in aggs:
        if spec.expr is not None and spec.kind not in ("count", "count_distinct"):
            value_type = spec.expr.result_type(types)
        else:
            value_type = ColumnType.INT
        agg = StagedAgg(spec, value_type, base)
        out.append(agg)
        base += len(agg.slot_ctypes())
    return out


def all_slot_ctypes(staged: Sequence[StagedAgg]) -> list[str]:
    ctypes: list[str] = []
    for agg in staged:
        ctypes.extend(agg.slot_ctypes())
    return ctypes


def _as_float(ctx: StagingContext, value) -> Rep:
    if isinstance(value, RepInt):
        return ctx.call("to_float", [value], result="double")
    if isinstance(value, RepFloat):
        return value
    return value  # dynamic numeric; Python addition handles it


UpdateEmitter = Callable[[Slots], None]


class _VarSlots(Slots):
    """Aggregate slots held in mutable staged locals (global aggregates)."""

    def __init__(self, ctx: StagingContext, ctypes: Sequence[str]) -> None:
        self.ctx = ctx
        none = Rep(ir.Const(None), ctx, ctype="void*")
        self.vars = [ctx.var(none, prefix="gagg") for _ in ctypes]
        self.ctypes = list(ctypes)

    def get(self, i: int) -> Rep:
        return rep_for_ctype(self.ctypes[i])(ir.Sym(self.vars[i].name), self.ctx)

    def set(self, i: int, value: Rep) -> None:
        self.vars[i].set(value)


class GlobalAggState:
    """Global (ungrouped) aggregation state: a row counter plus var slots.

    This is the scalar lowering of the global-aggregate data structure;
    :class:`repro.compiler.vec.GlobalAggVec` implements the same protocol
    (``accumulate`` / ``empty_cond`` / ``result``) with batch kernels.
    """

    def __init__(
        self,
        ctx: StagingContext,
        staged_aggs: Sequence[StagedAgg],
        comment: bool = True,
    ) -> None:
        self.ctx = ctx
        if comment:
            ctx.comment("global aggregate state")
        self.seen = ctx.var(ctx.int_(0), prefix="rows")
        self.slots = _VarSlots(ctx, all_slot_ctypes(staged_aggs))

    def accumulate(self, rec, staged_aggs: Sequence[StagedAgg]) -> None:
        ctx = self.ctx
        values = [agg.row_value(rec) for agg in staged_aggs]
        first = self.seen.get() == 0
        with ctx.if_(first):
            for agg, value in zip(staged_aggs, values):
                for offset, init in enumerate(agg.init_values(ctx, value)):
                    self.slots.set(agg.base + offset, init)
        with ctx.else_():
            for agg, value in zip(staged_aggs, values):
                agg.update(ctx, self.slots, value)
        self.seen.set(self.seen.get() + 1)

    def empty_cond(self) -> Rep:
        """Was the input empty?  Bound once, shared by every finalizer."""
        return self.seen.get() == 0

    def result(self, agg: StagedAgg, empty) -> Rep:
        """One aggregate's SQL value: its empty value, or the finalized slots."""
        ctx = self.ctx
        result = ctx.var(agg.empty_value(ctx), prefix="agg")
        with ctx.if_(~empty):
            result.set(agg.finalize(ctx, self.slots))
        return result.get()

    def raw_items(self) -> list[ir.Expr]:
        """``[seen, slot...]`` expressions for the partial-mode return."""
        return [self.seen.get().expr] + [
            self.slots.get(i).expr for i in range(len(self.slots.ctypes))
        ]
