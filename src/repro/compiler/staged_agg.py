"""Staged aggregate accumulators.

Mirrors :mod:`repro.engine.aggregates` for the compiled path: each
:class:`repro.plan.expressions.AggSpec` maps to one or two hash-map slots
plus generation-time ``init`` / ``update`` / ``finalize`` emitters.  Group
state is created from the first row of the group (the LB2 ``up(init)``
pattern), so no sentinel values appear on the hot path; the SQL empty-input
semantics (count = 0, everything else None) only arise for global
aggregates and are handled by :meth:`StagedAgg.empty_value`.  An
:class:`AggLayout` lays out one node's slots, sharing those whose folds
provably compute the same.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.catalog.types import ColumnType
from repro.plan.expressions import AggSpec, Col
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
    """One aggregate spec bound to the slots it reads (:class:`AggLayout`).

    Per *offset* -- a position in :meth:`slot_ctypes`, the aggregate's own
    view of its state -- ``slots`` holds the node's slot it reads, and
    ``owned`` the offsets it also folds into: another aggregate of the
    node may fold a slot this one only reads.
    """

    def __init__(self, spec: AggSpec, value_type: ColumnType) -> None:
        self.spec = spec
        self.value_type = value_type
        self.slots: list[int] = []
        self.owned: list[int] = []

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

    def share_keys(self, nullable: frozenset[str]) -> list[Optional[tuple]]:
        """Per offset: what its fold computes, where another aggregate's
        fold may provably compute the same (None: nothing may).  A FLOAT
        ``sum(x)`` and ``avg(x)``'s float total add the same floats; a
        ``count(*)``, ``avg``'s row counter and a ``count(col)`` of a
        column that cannot be NULL all count rows.  An INT sum stays
        exact, so it never meets a float total."""
        kind, expr = self.spec.kind, self.spec.expr
        if kind == "avg":
            return [("float total", expr), _ROWS]
        if kind == "sum" and self.value_type is ColumnType.FLOAT:
            return [("float total", expr)]
        if kind == "count" and (
            expr is None or (isinstance(expr, Col) and expr.name not in nullable)
        ):
            return [_ROWS]
        return [None]

    def needs_value(self) -> bool:
        """Does a slot this aggregate folds take its per-row value?"""
        if self.spec.expr is None:
            return False
        return not (self.spec.kind == "avg" and self.owned == [1])  # the counter only

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

    def init_value(
        self, ctx: StagingContext, offset: int, value: StagedValue | None
    ) -> Rep:
        """The first row's state of the slot at ``offset``."""
        kind = self.spec.kind
        if kind == "count":
            if self.spec.expr is None:
                return ctx.int_(1)
            # count(expr): 1 when the (possibly null) value is present.
            present = ctx.call("not_none", [value], result="bool")
            counter = ctx.var(ctx.int_(0), prefix="c")
            with ctx.if_(present):
                counter.set(1)
            return counter.get()
        if kind == "avg":
            return _as_float(ctx, value) if offset == 0 else ctx.int_(1)
        if kind == "count_distinct":
            return ctx.call("set_new1", [value], result="void*")
        return value  # sum / min / max start from the first row's value

    def update(
        self, ctx: StagingContext, slots: Slots, offset: int, value: StagedValue | None
    ) -> None:
        """Fold one more row into the slot at ``offset``."""
        kind = self.spec.kind
        slot = self.slots[offset]
        if kind == "count":
            if self.spec.expr is None:
                slots.set(slot, slots.get(slot) + 1)
            else:
                present = ctx.call("not_none", [value], result="bool")
                with ctx.if_(present):
                    slots.set(slot, slots.get(slot) + 1)
        elif kind == "sum":
            slots.set(slot, slots.get(slot) + value)
        elif kind == "avg":
            if offset == 0:
                slots.set(slot, slots.get(slot) + _as_float(ctx, value))
            else:
                slots.set(slot, slots.get(slot) + 1)
        elif kind == "min":
            current = slots.get(slot)
            with ctx.if_(value < current):
                slots.set(slot, value)
        elif kind == "max":
            current = slots.get(slot)
            with ctx.if_(value > current):
                slots.set(slot, value)
        elif kind == "count_distinct":
            ctx.call_stmt("set_add", [slots.get(slot), value])

    def finalize(self, ctx: StagingContext, slots: Slots) -> Rep:
        kind = self.spec.kind
        if kind == "avg":
            total = slots.get(self.slots[0])
            count = slots.get(self.slots[1])
            return total / count
        if kind == "count_distinct":
            return slots.distinct_count(self.slots[0])
        return slots.get(self.slots[0])

    def empty_value(self, ctx: StagingContext) -> Rep:
        """The SQL value of this aggregate over zero rows."""
        if self.spec.kind in ("count", "count_distinct"):
            return ctx.int_(0)
        return Rep(ir.Const(None), ctx, ctype="void*")


#: What every row-counting fold computes (:meth:`StagedAgg.share_keys`).
_ROWS = ("rows",)

#: How the slots of each aggregate kind combine across batches or
#: partitions, offset by offset: ``sum`` adds, ``min``/``max`` keep the
#: extreme, ``union`` joins two ``count(distinct)`` sets.
_SLOT_COMBINE = {
    "count": ("sum",),
    "sum": ("sum",),
    "avg": ("sum", "sum"),
    "min": ("min",),
    "max": ("max",),
    "count_distinct": ("union",),
}


class AggLayout:
    """One aggregate node's slots, laid out once.

    ``aggs`` holds a :class:`StagedAgg` per spec, in order, and ``folds``
    one ``(agg, offset)`` per slot: the aggregate that folds each row into
    it.  Slots go in order of first use, so a node whose folds share
    nothing gets each aggregate's slots contiguously, in spec order.  Two
    offsets whose :meth:`StagedAgg.share_keys` agree share one slot --
    folded once, by the first aggregate to claim it, read by both.
    ``nullable`` is the input's nullable fields
    (:meth:`PhysicalPlan.nullable`): a ``count(col)`` shares only when
    ``col`` is not one.
    """

    def __init__(
        self,
        aggs: Sequence[tuple[str, AggSpec]],
        types: dict[str, ColumnType],
        nullable: frozenset[str] = frozenset(),
    ) -> None:
        self.aggs: list[StagedAgg] = []
        self.folds: list[tuple[StagedAgg, int]] = []
        self.ctypes: list[str] = []
        claimed: dict[tuple, int] = {}
        for _, spec in aggs:
            if spec.expr is not None and spec.kind not in ("count", "count_distinct"):
                value_type = spec.expr.result_type(types)
            else:
                value_type = ColumnType.INT
            agg = StagedAgg(spec, value_type)
            self.aggs.append(agg)
            keys = agg.share_keys(nullable)
            for offset, (ctype, key) in enumerate(zip(agg.slot_ctypes(), keys)):
                slot = claimed.get(key) if key is not None else None
                if slot is None:
                    slot = len(self.folds)
                    self.folds.append((agg, offset))
                    self.ctypes.append(ctype)
                    agg.owned.append(offset)
                    if key is not None:
                        claimed[key] = slot
                agg.slots.append(slot)

    def combine(self, slot: int) -> str:
        """How ``slot`` combines across batches or partitions
        (:data:`_SLOT_COMBINE`)."""
        agg, offset = self.folds[slot]
        return _SLOT_COMBINE[agg.spec.kind][offset]

    def row_values(self, rec) -> dict[int, StagedValue | None]:
        """The per-row values the folds take, by ``id`` of their aggregate:
        staged once per aggregate, in spec order, for those that fold one."""
        return {
            id(agg): agg.row_value(rec) if agg.needs_value() else None
            for agg in self.aggs
            if agg.owned
        }


def _as_float(ctx: StagingContext, value) -> Rep:
    if isinstance(value, RepInt):
        return ctx.call("to_float", [value], result="double")
    if isinstance(value, RepFloat):
        return value
    return value  # dynamic numeric; Python addition handles it


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
        layout: AggLayout,
        comment: bool = True,
    ) -> None:
        self.ctx = ctx
        if comment:
            ctx.comment("global aggregate state")
        self.seen = ctx.var(ctx.int_(0), prefix="rows")
        self.slots = _VarSlots(ctx, layout.ctypes)

    def accumulate(self, rec, layout: AggLayout) -> None:
        ctx = self.ctx
        values = layout.row_values(rec)
        first = self.seen.get() == 0
        with ctx.if_(first):
            for slot, (agg, offset) in enumerate(layout.folds):
                self.slots.set(slot, agg.init_value(ctx, offset, values[id(agg)]))
        with ctx.else_():
            for agg, offset in layout.folds:
                agg.update(ctx, self.slots, offset, values[id(agg)])
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
