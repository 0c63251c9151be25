"""Unit tests for the compiler's generation-time abstractions:
StagedRecord, DicValue, hash maps, staged aggregates."""

import pytest

from repro.catalog.types import ColumnType
from repro.plan.expressions import AggSpec
from repro.staging import PyProgram, StagingContext, generate_python
from repro.staging import ir
from repro.staging.rep import Rep, RepInt, RepStr, rep_for_ctype
from repro.storage.dictionary import StringDictionary
from repro.compiler.staged_agg import AggLayout
from repro.compiler.staged_hashmap import NativeAggMap, OpenAggMap, StagedSet, hash_keys
from repro.compiler.staged_record import (
    DicValue,
    FieldDesc,
    StagedRecord,
    value_output,
    value_payload,
)


def _compile(ctx):
    return PyProgram(generate_python(ctx.program()))


# -- StagedRecord --------------------------------------------------------------


def test_record_lazy_loading_memoizes():
    ctx = StagingContext()
    loads = []

    def loader():
        loads.append(1)
        return ctx.int_(7)

    with ctx.function("f", []):
        rec = StagedRecord(ctx, [FieldDesc("a", ColumnType.INT)], {"a": loader})
        first = rec["a"]
        second = rec["a"]
        assert first is second
    assert len(loads) == 1


def test_record_unknown_field():
    ctx = StagingContext()
    with ctx.function("f", []):
        rec = StagedRecord(ctx, [FieldDesc("a", ColumnType.INT)], {"a": lambda: ctx.int_(1)})
        with pytest.raises(KeyError, match="no field 'zzz'"):
            rec["zzz"]


def test_record_merged_clash_rejected():
    ctx = StagingContext()
    with ctx.function("f", []):
        a = StagedRecord.from_values(
            ctx, [FieldDesc("x", ColumnType.INT)], {"x": ctx.int_(1)}
        )
        b = StagedRecord.from_values(
            ctx, [FieldDesc("x", ColumnType.INT)], {"x": ctx.int_(2)}
        )
        with pytest.raises(KeyError, match="clash"):
            a.merged(b)


def test_record_merged_concatenates():
    ctx = StagingContext()
    with ctx.function("f", []):
        a = StagedRecord.from_values(
            ctx, [FieldDesc("x", ColumnType.INT)], {"x": ctx.int_(1)}
        )
        b = StagedRecord.from_values(
            ctx, [FieldDesc("y", ColumnType.INT)], {"y": ctx.int_(2)}
        )
        merged = a.merged(b)
        assert merged.field_names == ["x", "y"]


def test_field_desc_ctype():
    assert FieldDesc("a", ColumnType.FLOAT).ctype == "double"
    d = StringDictionary(["x"])
    ctx = StagingContext()
    with ctx.function("f", []):
        strings = Rep(ir.Sym("tbl"), ctx, ctype="void*")
        desc = FieldDesc("a", ColumnType.STRING, dictionary=d, strings_sym=strings)
        assert desc.compressed and desc.ctype == "long"


# -- DicValue -----------------------------------------------------------------


def _dic_fn(dictionary, op):
    """Build f(code, strings_table) computing ``op(DicValue)``."""
    ctx = StagingContext()
    with ctx.function("f", ["code", "tbl"]):
        value = DicValue(
            RepInt(ir.Sym("code"), ctx),
            dictionary,
            Rep(ir.Sym("tbl"), ctx, ctype="void*"),
            ctx,
        )
        ctx.return_(op(ctx, value))
    return _compile(ctx).fn("f")


DICT = StringDictionary(["apple", "banana", "cherry", "date"])


def test_dicvalue_eq_constant_folds_to_code_compare():
    fn = _dic_fn(DICT, lambda ctx, v: v == "banana")
    assert fn(DICT.code("banana"), DICT.strings) is True
    assert fn(DICT.code("apple"), DICT.strings) is False


def test_dicvalue_eq_missing_constant_folds_false():
    fn = _dic_fn(DICT, lambda ctx, v: v == "zzz")
    assert fn(0, DICT.strings) is False


def test_dicvalue_ne():
    fn = _dic_fn(DICT, lambda ctx, v: v != "apple")
    assert fn(DICT.code("banana"), DICT.strings) is True
    assert fn(DICT.code("apple"), DICT.strings) is False


def test_dicvalue_order_comparisons():
    lt = _dic_fn(DICT, lambda ctx, v: v < "cherry")
    le = _dic_fn(DICT, lambda ctx, v: v <= "cherry")
    gt = _dic_fn(DICT, lambda ctx, v: v > "banana")
    ge = _dic_fn(DICT, lambda ctx, v: v >= "banana")
    assert lt(DICT.code("banana"), DICT.strings) and not lt(DICT.code("cherry"), DICT.strings)
    assert le(DICT.code("cherry"), DICT.strings) and not le(DICT.code("date"), DICT.strings)
    assert gt(DICT.code("cherry"), DICT.strings) and not gt(DICT.code("banana"), DICT.strings)
    assert ge(DICT.code("banana"), DICT.strings) and not ge(DICT.code("apple"), DICT.strings)


def test_dicvalue_order_comparison_with_absent_constant():
    lt = _dic_fn(DICT, lambda ctx, v: v < "bb")  # between banana and cherry
    assert lt(DICT.code("banana"), DICT.strings) is True
    assert lt(DICT.code("cherry"), DICT.strings) is False


def test_dicvalue_startswith_range_check():
    d = StringDictionary(["apple", "applesauce", "apricot", "banana"])
    fn = _dic_fn(d, lambda ctx, v: v.startswith("app"))
    assert fn(d.code("apple"), d.strings)
    assert fn(d.code("applesauce"), d.strings)
    assert not fn(d.code("apricot"), d.strings)
    assert not fn(d.code("banana"), d.strings)


def test_dicvalue_startswith_no_match_folds_false():
    fn = _dic_fn(DICT, lambda ctx, v: v.startswith("zzz"))
    assert fn(0, DICT.strings) is False


def test_dicvalue_endswith_decodes():
    fn = _dic_fn(DICT, lambda ctx, v: v.endswith("rry"))
    assert fn(DICT.code("cherry"), DICT.strings)
    assert not fn(DICT.code("apple"), DICT.strings)


def test_dicvalue_contains_decodes():
    fn = _dic_fn(DICT, lambda ctx, v: v.contains("nan"))
    assert fn(DICT.code("banana"), DICT.strings)
    assert not fn(DICT.code("date"), DICT.strings)


def test_dicvalue_decode_and_payload():
    ctx = StagingContext()
    with ctx.function("f", ["code", "tbl"]):
        v = DicValue(
            RepInt(ir.Sym("code"), ctx), DICT, Rep(ir.Sym("tbl"), ctx, ctype="void*"), ctx
        )
        assert value_payload(v) is v.code
        ctx.return_(value_output(v))
    fn = _compile(ctx).fn("f")
    assert fn(2, DICT.strings) == "cherry"


def test_dicvalue_same_dictionary_compare():
    ctx = StagingContext()
    with ctx.function("f", ["c1", "c2", "tbl"]):
        tbl = Rep(ir.Sym("tbl"), ctx, ctype="void*")
        a = DicValue(RepInt(ir.Sym("c1"), ctx), DICT, tbl, ctx)
        b = DicValue(RepInt(ir.Sym("c2"), ctx), DICT, tbl, ctx)
        ctx.return_(a == b)
    fn = _compile(ctx).fn("f")
    assert fn(1, 1, DICT.strings) and not fn(1, 2, DICT.strings)


def test_dicvalue_cross_dictionary_falls_back_to_strings():
    other = StringDictionary(["banana", "kiwi"])
    ctx = StagingContext()
    with ctx.function("f", ["c1", "c2", "t1", "t2"]):
        a = DicValue(RepInt(ir.Sym("c1"), ctx), DICT, Rep(ir.Sym("t1"), ctx, ctype="void*"), ctx)
        b = DicValue(RepInt(ir.Sym("c2"), ctx), other, Rep(ir.Sym("t2"), ctx, ctype="void*"), ctx)
        ctx.return_(a == b)
    fn = _compile(ctx).fn("f")
    assert fn(DICT.code("banana"), other.code("banana"), DICT.strings, other.strings)
    assert not fn(DICT.code("apple"), other.code("kiwi"), DICT.strings, other.strings)


# -- hash maps ---------------------------------------------------------------------


def _sum_by_key(map_factory):
    """Generate f(keys, vals) -> dict key -> [sum, count] via a staged map."""
    ctx = StagingContext()
    with ctx.function("f", ["keys", "vals"]):
        hm = map_factory(ctx)
        n = ctx.call("len", [Rep(ir.Sym("keys"), ctx, ctype="void*")], result="long")
        with ctx.for_range(0, n) as i:
            k = RepInt(ctx.bind(ir.Index(ir.Sym("keys"), i.expr), ctype="long"), ctx)
            v = RepInt(ctx.bind(ir.Index(ir.Sym("vals"), i.expr), ctype="long"), ctx)
            hm.update(
                [k],
                lambda v=v: [v, ctx.int_(1)],
                lambda slots, v=v: (
                    slots.set(0, slots.get(0) + v),
                    slots.set(1, slots.get(1) + 1),
                ),
            )
        out = ctx.call("dict_new", [], result="void*")
        def fill(keys, slots):
            ctx.emit(
                ir.SetIndex(
                    out.expr,
                    keys[0].expr,
                    ir.ListExpr((slots.get(0).expr, slots.get(1).expr)),
                )
            )
        hm.foreach(fill)
        ctx.return_(out)
    return _compile(ctx).fn("f")


KEYS = [3, 1, 3, 2, 1, 3]
VALS = [10, 20, 30, 40, 50, 60]
EXPECTED = {3: [100, 3], 1: [70, 2], 2: [40, 1]}


def test_native_agg_map():
    fn = _sum_by_key(lambda ctx: NativeAggMap(ctx, ["long"], ["long", "long"]))
    assert fn(KEYS, VALS) == EXPECTED


def test_open_agg_map():
    fn = _sum_by_key(lambda ctx: OpenAggMap(ctx, ["long"], ["long", "long"], size=8))
    assert fn(KEYS, VALS) == EXPECTED


def test_open_agg_map_with_collisions():
    # size 4 forces probing; keys 1 and 5 collide (5 % 4 == 1).
    fn = _sum_by_key(lambda ctx: OpenAggMap(ctx, ["long"], ["long", "long"], size=4))
    assert fn([1, 5, 1, 5], [1, 2, 3, 4]) == {1: [4, 2], 5: [6, 2]}


def test_open_agg_map_full_raises():
    fn = _sum_by_key(lambda ctx: OpenAggMap(ctx, ["long"], ["long", "long"], size=2))
    with pytest.raises(RuntimeError, match="full"):
        fn([1, 2, 3], [1, 1, 1])


def test_open_agg_map_size_must_be_power_of_two():
    ctx = StagingContext()
    with ctx.function("f", []):
        with pytest.raises(ValueError, match="power of two"):
            OpenAggMap(ctx, ["long"], ["long"], size=10)


def test_open_map_generated_code_is_flat_arrays():
    """The paper's claim: the specialized map is only array operations."""
    ctx = StagingContext()
    with ctx.function("f", ["keys"]):
        hm = OpenAggMap(ctx, ["long"], ["long"], size=8)
        hm.update([ctx.int_(1)], lambda: [ctx.int_(1)], lambda s: s.set(0, s.get(0) + 1))
        hm.foreach(lambda k, s: None)
    source = generate_python(ctx.program())
    assert "{}" not in source  # no dict anywhere
    assert "[0] * 8" in source  # flat preallocated arrays


def test_staged_set():
    ctx = StagingContext()
    with ctx.function("f", ["items", "probe"]):
        s = StagedSet(ctx)
        with ctx.for_each(Rep(ir.Sym("items"), ctx, ctype="void*"), ctype="long") as e:
            s.add([e])
        ctx.return_(s.contains([Rep(ir.Sym("probe"), ctx, ctype="long")]))
    fn = _compile(ctx).fn("f")
    assert fn([1, 2, 3], 2) and not fn([1, 2, 3], 9)


def test_hash_keys_combines():
    ctx = StagingContext()
    with ctx.function("f", ["a", "b"]):
        h = hash_keys(
            ctx,
            [RepInt(ir.Sym("a"), ctx), RepStr(ir.Sym("b"), ctx)],
        )
        ctx.return_(h)
    fn = _compile(ctx).fn("f")
    assert fn(1, "x") != fn(2, "x")
    assert fn(1, "x") != fn(1, "y")


# -- staged aggregates -----------------------------------------------------------


def test_slot_layout():
    types = {"v": ColumnType.FLOAT}
    from repro.plan.expressions import avg, col, count, count_distinct, max_, sum_

    layout = AggLayout(
        [
            ("s", sum_(col("v"))),
            ("a", avg(col("v"))),
            ("n", count()),
            ("d", count_distinct(col("v"))),
            ("m", max_(col("v"))),
        ],
        types,
    )
    # the FLOAT sum is avg's total, count(*) its row counter: both shared
    assert [a.slots for a in layout.aggs] == [[0], [0, 1], [1], [2], [3]]
    assert layout.ctypes == ["double", "long", "void*", "double"]


def test_empty_values():
    from repro.plan.expressions import col, count, count_distinct, sum_

    ctx = StagingContext()
    types = {"v": ColumnType.INT}
    layout = AggLayout(
        [("n", count()), ("d", count_distinct(col("v"))), ("s", sum_(col("v")))], types
    )
    with ctx.function("f", []):
        values = [a.empty_value(ctx) for a in layout.aggs]
        assert [v.expr for v in values][0] == ir.Const(0)
        assert values[2].expr == ir.Const(None)
