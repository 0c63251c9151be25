"""Generation-time hash map abstractions (Section 4.2).

These classes are the compiler's ``HashMap`` / ``HashMultiMap``: they exist
only while generating code and dissolve completely into the residual
program.  Two aggregate-map implementations are provided, selectable per
compilation (the paper: "adding a new hash map variant requires a
high-level implementation ... using normal object-oriented techniques"):

* :class:`NativeAggMap` -- lowers to a Python dict keyed by the group key;
  the idiomatic choice for the Python target (Python's dict is a C hash
  table, the moral equivalent of LB2 leaning on specialized C structures).
* :class:`OpenAggMap` -- the paper-faithful open-addressing layout of
  Figure 14: columnar key/aggregate arrays, an occupancy array, a ``used``
  insertion log, linear probing with a peeled fast path.  This demonstrates
  data-structure specialization producing only flat array operations.

Joins use :class:`NativeMultiMap` (key -> list of materialized row tuples)
and semi/anti joins use :class:`StagedSet`.  Their ``insert``/``add`` and
probes also take the record they stage for (``rec=``, unused here: a batch
lowering, ``repro.compiler.vec.BatchJoinBuild``, reads its row count), and
operators stage a ``finish`` step between the build and the probe loop (a
no-op here).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.staging import ir
from repro.staging.builder import StagingContext
from repro.staging.rep import Rep, RepBool, RepInt, rep_for_ctype
from repro.compiler.staged_record import StagedRecord, rebuild_record


class Slots:
    """Read/write access to one group's aggregate slots during an update."""

    ctx: StagingContext

    def get(self, i: int) -> Rep:
        raise NotImplementedError

    def set(self, i: int, value: Rep) -> None:
        raise NotImplementedError

    def distinct_count(self, i: int) -> Rep:
        """The value of a ``count(distinct)`` slot: the size of its set."""
        return self.ctx.call("set_len", [self.get(i)], result="long")


class _ListSlots(Slots):
    """Slots stored in a Python list (native map state)."""

    def __init__(self, ctx: StagingContext, state: Rep, ctypes: Sequence[str]):
        self.ctx = ctx
        self.state = state
        self.ctypes = ctypes

    def get(self, i: int) -> Rep:
        sym = self.ctx.bind(ir.Index(self.state.expr, ir.Const(i)), ctype=self.ctypes[i])
        return rep_for_ctype(self.ctypes[i])(sym, self.ctx)

    def set(self, i: int, value: Rep) -> None:
        self.ctx.emit(ir.SetIndex(self.state.expr, ir.Const(i), value.expr))


class _ColumnSlots(Slots):
    """Slots stored in columnar arrays at a probe position (open map)."""

    def __init__(self, ctx: StagingContext, arrays: Sequence[Rep], pos: Rep,
                 ctypes: Sequence[str]):
        self.ctx = ctx
        self.arrays = arrays
        self.pos = pos
        self.ctypes = ctypes

    def get(self, i: int) -> Rep:
        sym = self.ctx.bind(
            ir.Index(self.arrays[i].expr, self.pos.expr), ctype=self.ctypes[i]
        )
        return rep_for_ctype(self.ctypes[i])(sym, self.ctx)

    def set(self, i: int, value: Rep) -> None:
        self.ctx.emit(ir.SetIndex(self.arrays[i].expr, self.pos.expr, value.expr))


def hash_keys(ctx: StagingContext, keys: Sequence[Rep]) -> RepInt:
    """Combine key hashes; strings hash via the host hash, doubles truncate
    to their integer part (equality is still checked on the stored key, so
    any deterministic projection is a valid hash), and integers are their
    own hash (matching the generated-C ``hash_string`` + mix)."""
    combined: RepInt | None = None
    for key in keys:
        if key.ctype == "char*":
            piece = key.hash()  # type: ignore[attr-defined]
        elif key.ctype == "double":
            piece = ctx.call("to_int", [key], result="long")
        else:
            piece = RepInt(key.expr, ctx)
        if combined is None:
            combined = piece
        else:
            combined = combined * 1000003 + piece
    assert combined is not None
    return combined


def _keys_tuple(ctx: StagingContext, keys: Sequence[Rep]) -> Rep:
    """A single scalar key, or a staged tuple for composite keys."""
    if len(keys) == 1:
        return keys[0]
    sym = ctx.bind(ir.TupleExpr(tuple(k.expr for k in keys)), ctype="void*")
    return Rep(sym, ctx, ctype="void*")


InsertFn = Callable[[], list[Rep]]
UpdateFn = Callable[[Slots], None]
ForeachFn = Callable[[list[Rep], Slots], None]


class _AggAccumulate:
    """Shared per-record accumulate protocol for scalar aggregation maps.

    The operator hands over the record plus *how* to stage its keys and
    the slot layout of its aggregates (``staged_agg.AggLayout``); the map
    decides what residual code one row's worth of accumulation becomes.
    A batch map (``repro.compiler.vec.VecAggMap``) implements the same
    method over whole columns at once.
    """

    def accumulate(self, rec, stage_keys, layout) -> None:
        keys = stage_keys(rec)
        values = layout.row_values(rec)

        def on_insert() -> list[Rep]:
            return [
                agg.init_value(self.ctx, offset, values[id(agg)])
                for agg, offset in layout.folds
            ]

        def on_update(slots: Slots) -> None:
            for agg, offset in layout.folds:
                agg.update(self.ctx, slots, offset, values[id(agg)])

        self.update(keys, on_insert, on_update)

    def record(self, descs, values) -> StagedRecord:
        """The output record of one group (its keys and finalized values)."""
        return StagedRecord.from_values(self.ctx, descs, values)


class NativeAggMap(_AggAccumulate):
    """Aggregation map lowering to a Python dict of slot lists."""

    def __init__(
        self,
        ctx: StagingContext,
        key_ctypes: Sequence[str],
        slot_ctypes: Sequence[str],
    ) -> None:
        self.ctx = ctx
        self.key_ctypes = list(key_ctypes)
        self.slot_ctypes = list(slot_ctypes)
        self.hm = ctx.call("dict_new", [], result="void*", prefix="hm")

    def update(self, keys: Sequence[Rep], on_insert: InsertFn, on_update: UpdateFn) -> None:
        ctx = self.ctx
        key = _keys_tuple(ctx, keys)
        state = ctx.call("dict_get", [self.hm, key, None], result="void*", prefix="st")
        missing = ctx.call("is_none", [state], result="bool")
        with ctx.if_(missing):
            init = on_insert()
            ctx.emit(
                ir.SetIndex(
                    self.hm.expr, key.expr, ir.ListExpr(tuple(v.expr for v in init))
                )
            )
        with ctx.else_():
            on_update(_ListSlots(ctx, state, self.slot_ctypes))

    def foreach(self, body: ForeachFn) -> None:
        ctx = self.ctx
        items = ctx.call("dict_items", [self.hm], result="void*", prefix="it")
        with ctx.for_each(items, prefix="kv", ctype="void*") as kv:
            key = ctx.bind(ir.Index(kv.expr, ir.Const(0)), ctype="void*")
            state = ctx.bind(ir.Index(kv.expr, ir.Const(1)), ctype="void*")
            key_rep = Rep(key, ctx, ctype="void*")
            if len(self.key_ctypes) == 1:
                keys = [rep_for_ctype(self.key_ctypes[0])(key, ctx)]
            else:
                keys = []
                for i, ctype in enumerate(self.key_ctypes):
                    sym = ctx.bind(ir.Index(key_rep.expr, ir.Const(i)), ctype=ctype)
                    keys.append(rep_for_ctype(ctype)(sym, ctx))
            body(keys, _ListSlots(ctx, Rep(state, ctx, ctype="void*"), self.slot_ctypes))

    def is_empty(self) -> RepBool:
        size = self.ctx.call("dict_len", [self.hm], result="long")
        return size == 0

    def lookup(self, keys: Sequence[Rep]) -> tuple[Rep, "RepBool"]:
        """Probe for a group's state: ``(state, present)`` (GroupJoin probe)."""
        ctx = self.ctx
        key = _keys_tuple(ctx, keys)
        state = ctx.call("dict_get", [self.hm, key, None], result="void*", prefix="gst")
        present = ctx.call("not_none", [state], result="bool")
        return state, present  # type: ignore[return-value]

    def slots_of(self, state: Rep) -> Slots:
        return _ListSlots(self.ctx, state, self.slot_ctypes)


class OpenAggMap(_AggAccumulate):
    """The Figure 14 layout: columnar arrays + open addressing.

    The probe loop peels its first iteration into a fast path (hit or empty
    at the home slot) exactly as the paper's generated code does; collisions
    fall into the general probing loop.
    """

    def __init__(
        self,
        ctx: StagingContext,
        key_ctypes: Sequence[str],
        slot_ctypes: Sequence[str],
        size: int = 1 << 16,
    ) -> None:
        if size & (size - 1):
            raise ValueError(f"open map size must be a power of two, got {size}")
        self.ctx = ctx
        self.key_ctypes = list(key_ctypes)
        self.slot_ctypes = list(slot_ctypes)
        self.size = size
        zero_of = {"long": 0, "double": 0.0, "bool": False}
        self.key_arrays = [
            ctx.call("alloc", [size, _zero_for(ct)], result="void*", prefix="keys")
            for ct in self.key_ctypes
        ]
        self.slot_arrays = [
            ctx.call(
                "alloc",
                [size, zero_of.get(ct, None)],
                result="void*",
                prefix="agg",
            )
            for ct in self.slot_ctypes
        ]
        self.occupied = ctx.call("alloc", [size, 0], result="void*", prefix="occ")
        self.used = ctx.call("list_new", [], result="void*", prefix="used")

    def _keys_match(self, pos: Rep, keys: Sequence[Rep]) -> RepBool:
        ctx = self.ctx
        result: RepBool | None = None
        for array, key in zip(self.key_arrays, keys):
            stored = ctx.bind(ir.Index(array.expr, pos.expr), ctype=key.ctype)
            equal = rep_for_ctype(key.ctype)(stored, ctx) == key
            result = equal if result is None else (result & equal)
        assert result is not None
        return result

    def _insert_at(self, pos: Rep, keys: Sequence[Rep], on_insert: InsertFn) -> None:
        ctx = self.ctx
        ctx.emit(ir.SetIndex(self.occupied.expr, pos.expr, ir.Const(1)))
        for array, key in zip(self.key_arrays, keys):
            ctx.emit(ir.SetIndex(array.expr, pos.expr, key.expr))
        for array, value in zip(self.slot_arrays, on_insert()):
            ctx.emit(ir.SetIndex(array.expr, pos.expr, value.expr))
        ctx.call_stmt("list_append", [self.used, pos])
        count = ctx.call("list_len", [self.used], result="long")
        with ctx.if_(count == self.size):
            ctx.call_stmt("map_full", [])

    def update(self, keys: Sequence[Rep], on_insert: InsertFn, on_update: UpdateFn) -> None:
        ctx = self.ctx
        home = ctx.bind(
            ir.Bin("%", hash_keys(ctx, keys).expr, ir.Const(self.size)), ctype="long"
        )
        home_rep = RepInt(home, ctx)
        occupied = ctx.bind(ir.Index(self.occupied.expr, home), ctype="long")
        occupied_rep = RepInt(occupied, ctx)
        # Fast path: home slot hit (the paper's peeled first iteration).
        hit = (occupied_rep == 1) & self._keys_match(home_rep, keys)
        with ctx.if_(hit):
            on_update(_ColumnSlots(ctx, self.slot_arrays, home_rep, self.slot_ctypes))
        with ctx.else_():
            with ctx.if_(occupied_rep == 0):
                self._insert_at(home_rep, keys, on_insert)
            with ctx.else_():
                # Slow path: linear probing from the next slot.
                pos = ctx.var(
                    RepInt(
                        ctx.bind(
                            ir.Bin("%", ir.Bin("+", home, ir.Const(1)), ir.Const(self.size)),
                            ctype="long",
                        ),
                        ctx,
                    ),
                    prefix="probe",
                )
                with ctx.loop():
                    cur = pos.get()
                    occ = RepInt(
                        ctx.bind(ir.Index(self.occupied.expr, cur.expr), ctype="long"),
                        ctx,
                    )
                    with ctx.if_(occ == 0):
                        self._insert_at(cur, keys, on_insert)
                        ctx.break_()
                    with ctx.else_():
                        with ctx.if_(self._keys_match(cur, keys)):
                            on_update(
                                _ColumnSlots(
                                    ctx, self.slot_arrays, cur, self.slot_ctypes
                                )
                            )
                            ctx.break_()
                        with ctx.else_():
                            pos.set((cur + 1) % self.size)

    def foreach(self, body: ForeachFn) -> None:
        ctx = self.ctx
        count = ctx.call("list_len", [self.used], result="long")
        with ctx.for_range(0, count, prefix="ui") as i:
            pos_sym = ctx.bind(ir.Index(self.used.expr, i.expr), ctype="long")
            pos = RepInt(pos_sym, ctx)
            keys = []
            for array, ctype in zip(self.key_arrays, self.key_ctypes):
                sym = ctx.bind(ir.Index(array.expr, pos.expr), ctype=ctype)
                keys.append(rep_for_ctype(ctype)(sym, ctx))
            body(keys, _ColumnSlots(ctx, self.slot_arrays, pos, self.slot_ctypes))

    def is_empty(self) -> RepBool:
        count = self.ctx.call("list_len", [self.used], result="long")
        return count == 0


class NativeMultiMap:
    """Join build side: key -> list of materialized row tuples."""

    def __init__(self, ctx: StagingContext) -> None:
        self.ctx = ctx
        self.hm = ctx.call("dict_new", [], result="void*", prefix="jm")

    def insert(self, keys: Sequence[Rep], values: Sequence[Rep], rec=None) -> None:
        ctx = self.ctx
        key = _keys_tuple(ctx, keys)
        row = ctx.bind(ir.TupleExpr(tuple(v.expr for v in values)), ctype="void*")
        bucket = ctx.call("dict_get", [self.hm, key, None], result="void*", prefix="bkt")
        missing = ctx.call("is_none", [bucket], result="bool")
        with ctx.if_(missing):
            ctx.emit(
                ir.SetIndex(self.hm.expr, key.expr, ir.ListExpr((row,)))
            )
        with ctx.else_():
            ctx.call_stmt("list_append", [bucket, Rep(row, ctx, ctype="void*")])

    def finish(self) -> None:
        """After the build loop: nothing to do (buckets are already built)."""

    def lookup(self, keys: Sequence[Rep]) -> Rep:
        """The bucket (possibly empty tuple) for a probe key."""
        key = _keys_tuple(self.ctx, keys)
        return self.ctx.call("dict_get", [self.hm, key, ()], result="void*", prefix="ms")

    def lookup_or_none(self, keys: Sequence[Rep]) -> Rep:
        """The bucket or None (outer joins need the distinction)."""
        key = _keys_tuple(self.ctx, keys)
        return self.ctx.call("dict_get", [self.hm, key, None], result="void*", prefix="ms")

    def each_match(self, keys: Sequence[Rep], descs, fn, rec=None) -> None:
        """Probe and run ``fn`` on each matching build-side record."""
        bucket = self.lookup(keys)
        with self.ctx.for_each(bucket, prefix="m", ctype="void*") as row:
            fn(rebuild_record(self.ctx, row, descs))

    def each_match_or_missing(
        self, keys: Sequence[Rep], descs, fn, on_missing, rec=None
    ) -> None:
        """Probe with an explicit no-match branch (outer join shape)."""
        bucket = self.lookup_or_none(keys)
        missing = self.ctx.call("is_none", [bucket], result="bool")
        with self.ctx.if_(missing):
            on_missing()
        with self.ctx.else_():
            with self.ctx.for_each(bucket, prefix="m", ctype="void*") as row:
                fn(rebuild_record(self.ctx, row, descs))


class StagedSet:
    """Semi/anti-join key set, and DISTINCT state."""

    def __init__(self, ctx: StagingContext) -> None:
        self.ctx = ctx
        self.set_ = ctx.call("set_new", [], result="void*", prefix="ks")

    def add(self, keys: Sequence[Rep], rec=None) -> None:
        key = _keys_tuple(self.ctx, keys)
        self.ctx.call_stmt("set_add", [self.set_, key])

    def finish(self) -> None:
        """After the build loop: nothing to do (the set is already built)."""

    def contains(self, keys: Sequence[Rep], rec=None) -> RepBool:
        key = _keys_tuple(self.ctx, keys)
        return self.ctx.call("set_contains", [self.set_, key], result="bool")  # type: ignore[return-value]

    def add_if_absent(self, keys: Sequence[Rep]) -> RepBool:
        """True when the key was new (DISTINCT forwarding condition)."""
        ctx = self.ctx
        key = _keys_tuple(ctx, keys)
        before = ctx.call("set_len", [self.set_], result="long")
        ctx.call_stmt("set_add", [self.set_, key])
        after = ctx.call("set_len", [self.set_], result="long")
        return after > before  # type: ignore[return-value]


def _zero_for(ctype: str):
    if ctype == "double":
        return 0.0
    if ctype == "char*":
        return ""
    if ctype == "bool":
        return False
    return 0
