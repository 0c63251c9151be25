"""Group keys and distinct values that are base columns: the static layout.

* a Hypothesis property of the group table: built with its keys' bounds
  (``group_state(nkeys, nslots, *bounds)``) it answers exactly like one
  built without -- the same partition of every batch's rows into ids, the
  same merged keys in the same order, and the same ``sum`` / ``avg`` /
  ``count`` / ``min`` / ``max`` / ``count(distinct)`` -- over one to three
  integer and one-byte string keys, a negative ``lo``, a span of 1, empty
  batches and batches of 1, 5, 8192 and ``vec.BATCH_ROWS`` rows; a
  product of spans at the direct bound is static, one past it adaptive;
* a batch whose dtype does not match its bounds leaves the static form
  through the replay, and the answer does not change;
* ``Database.bounds`` and the provenance rule (:func:`vec.field_columns`):
  a bare field keeps its column through a scan's renames, a filter, a
  projection and either side of a join; a computed key, a ``SUBSTRING``
  key and an outer join's null-extended side get none;
* a string key or distinct value gets bounds only when its column is
  declared one character wide;
* the served q1, q20 and q21 report static group tables, the served mix
  never replays a static table into the coded form, every ``db.bounds``
  call it makes returns bounds and each request's
  ``static_group_tables`` counts the tables made with every key's bounds,
  and one compiled grouped program answers against two databases of
  different bounds;
* vector, scalar, push and Volcano agree on ad hoc ``GROUP BY``s over
  flags and keys, an empty input and ``count(distinct)`` included.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import INT, STRING, Catalog
from repro.catalog.schema import schema
from repro.compiler import runtime as rt
from repro.compiler import vec
from repro.compiler.driver import CompiledQuery, LB2Compiler
from repro.compiler.lb2 import Config
from repro.engine import execute_push, execute_volcano
from repro.plan import (
    Agg, Arith, Cmp, HashJoin, LeftOuterJoin, Project, Scan, Select, Substring,
    col, count, count_distinct, lit,
)
from repro.serve import QueryService, ServiceConfig, ServiceRequest
from repro.session import Session
from repro.sql import sql_to_plan
from repro.storage import Database
from repro.tpch import query_plan
from repro.tpch.dbgen import generate_database
from tests.conftest import TINY_SCALE, needs_numpy, normalize
from tests.test_batch_joins import _served_build

pytestmark = needs_numpy

BATCH_SIZES = [1, 5, 8192, vec.BATCH_ROWS]

#: Where the ledger keeps its statements (the served mix, both literal variants).
LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"

#: The direct bound over a table of at most this many rows is its floor.
FLOOR = rt._DIRECT_SLOTS_MIN


def _np():
    import numpy as np

    return np


# -- the table: with bounds and without ------------------------------------------


@st.composite
def key_domain(draw):
    """One key: ``(kind, lo, span)``; a string key's values are bytes."""
    kind = draw(st.sampled_from(["int", "str"]))
    if kind == "int":
        return kind, draw(st.integers(-60, 60)), draw(st.sampled_from([1, 2, 7, 40]))
    lo = draw(st.integers(32, 120))
    return kind, lo, draw(st.integers(1, min(7, 127 - lo)))


@st.composite
def static_case(draw):
    keys = draw(st.lists(key_domain(), min_size=1, max_size=3))
    n = draw(st.integers(0, 50))
    rows = [
        (
            tuple(draw(st.integers(lo, lo + span - 1)) for _, lo, span in keys),
            draw(st.integers(-(1 << 40), 1 << 40)),
            draw(st.booleans()),
            draw(st.integers(-3, 3)),
        )
        for _ in range(n)
    ]
    # the rows the bounds' table holds: the bound is a floor below 512
    table_rows = draw(st.integers(max(n, 1), 2000))
    batch = draw(st.sampled_from(BATCH_SIZES))
    empties = draw(st.lists(st.integers(0, n), max_size=3))
    return keys, rows, table_rows, batch, empties


def _key_batch(kind: str, values):
    np = _np()
    if kind == "str":
        return np.array([bytes([v]) for v in values], dtype="S1")
    return np.asarray(values, dtype=np.int64)


def _batches(keys, rows, size: int, empties):
    """Batches of ``size`` rows, plus an empty batch before each row
    position in ``empties``: ``(key batches, value, valid, distinct)``."""
    np = _np()
    cuts = sorted(set(range(0, len(rows), size)) | set(empties) | {len(rows)})
    out = []
    for lo, hi in zip([0, *cuts], cuts):
        part = rows[lo:hi]
        out.append((
            [
                _key_batch(kind, [r[0][j] for r in part])
                for j, (kind, _, _) in enumerate(keys)
            ],
            np.asarray([r[1] for r in part], dtype=np.int64),
            np.asarray([r[2] for r in part], dtype=bool),
            np.asarray([r[3] for r in part], dtype=np.int64),
        ))
    return out


def _fill(groups, batches, value_bounds=None):
    """Fold every batch; returns each batch's ids."""
    seen = []
    for keys, value, valid, distinct in batches:
        ids = rt.v_group_ids(groups, len(value), *keys)
        seen.append(rt.v_tolist(ids))
        rt.v_agg_sum(groups, 0, ids, value)
        rt.v_agg_fsum(groups, 1, ids, value)
        rt.v_agg_count(groups, 2, ids)
        rt.v_agg_min(groups, 3, ids, value)
        rt.v_agg_max(groups, 4, ids, value)
        rt.v_agg_count_nn(groups, 5, ids, value, valid)
        rt.v_agg_distinct(groups, 6, ids, distinct, value_bounds)
    return seen


def _partition(ids: list) -> list:
    """Each row's group as the first row of the batch holding it."""
    first: dict = {}
    return [first.setdefault(g, i) for i, g in enumerate(ids)]


def _answer(groups, batch: bool):
    merged = rt.group_merge(groups, batch)
    if batch:
        return [merged[0], *(rt.v_tolist(c) for c in merged[1:])]
    return merged


@settings(max_examples=150, deadline=None)
@given(case=static_case())
def test_static_table_answers_like_the_adaptive_one(case):
    keys, rows, table_rows, size, empties = case
    bounds = [(lo, lo + span - 1, table_rows) for _, lo, span in keys]
    product = math.prod(span for _, _, span in keys)
    batches = _batches(keys, rows, size, empties)
    for batch in (False, True):
        static = rt.group_state(len(keys), 7, *bounds)
        adaptive = rt.group_state(len(keys), 7)
        assert (static.spans is not None) == (product <= max(8 * table_rows, FLOOR))
        value_bounds = (-3, 3, table_rows)
        got = _fill(static, batches, value_bounds)
        want = _fill(adaptive, batches)
        assert [_partition(ids) for ids in got] == [_partition(ids) for ids in want]
        answer = _answer(static, batch)
        assert answer == _answer(adaptive, batch)
        # ascending by (k_0, k_1, ...), a one-byte string by its byte
        merged_keys = list(zip(*answer[1:1 + len(keys)]))
        assert merged_keys == sorted(merged_keys)


@pytest.mark.parametrize("spans,static", [
    ((FLOOR,), True), ((FLOOR + 1,), False),
    ((64, 64), True), ((64, 65), False),
    ((16, 16, 16), True), ((16, 16, 17), False),
])
def test_a_product_past_the_direct_bound_stays_adaptive(spans, static):
    bounds = [(-5, -5 + span - 1, 100) for span in spans]
    groups = rt.group_state(len(spans), 1, *bounds)
    assert (groups.spans is not None) is static
    keys = [_key_batch("int", [-5, -5 + span - 1, -5]) for span in spans]
    ids = rt.v_group_ids(groups, 3, *keys)
    rt.v_agg_count(groups, 0, ids)
    n, *columns = rt.group_merge(groups)
    assert n == 2
    assert columns[-1] == [2, 1]


def test_a_key_without_bounds_keeps_the_adaptive_table():
    groups = rt.group_state(2, 1, (0, 9, 10), None)
    assert groups.spans is None
    assert rt.group_state(1, 1).spans is None


def _flag_batches():
    np = _np()
    return [
        ([np.array([b"A", b"R", b"A"], dtype="S1"), np.asarray([3, 1, 3])], np.asarray([1, 2, 3])),
        ([np.array([b"N"], dtype="S1"), np.asarray([2])], np.asarray([4])),
    ]


@pytest.mark.parametrize("late", [
    "float key", "wider string", "object key", "first batch out of bounds",
])
def test_a_batch_whose_dtype_does_not_match_its_bounds_is_replayed(late):
    """The static form never gives such a batch an id: the groups seen
    move to the coded form, and the answer is the coded table's (as a bag
    of rows where a key of objects leaves the groups unordered)."""
    np = _np()
    batches = _flag_batches()
    if late == "float key":
        batches.append(([np.array([b"A"], dtype="S1"), np.asarray([3.0])], np.asarray([5])))
    elif late == "wider string":
        batches.append(([np.array([b"AB"], dtype="S2"), np.asarray([3])], np.asarray([5])))
    elif late == "object key":
        batches.append(([np.array(["Ä"], dtype=object), np.asarray([3])], np.asarray([5])))
    else:  # bounds that do not hold the first batch's values
        batches.insert(0, ([np.array([b"B"], dtype="S1"), np.asarray([99])], np.asarray([6])))
    answers = []
    for bounds in ([(ord("A"), ord("R"), 10), (1, 3, 10)], []):
        groups = rt.group_state(2, 2, *bounds)
        for keys, value in batches:
            ids = rt.v_group_ids(groups, len(value), *keys)
            rt.v_agg_sum(groups, 0, ids, value)
            rt.v_agg_distinct(groups, 1, ids, value, (1, 6, 10) if bounds else None)
        assert groups.spans is None
        answers.append(rt.group_merge(groups))
    if late == "object key":
        # a key of objects orders nothing, so the groups come in id order:
        # the replay's (static offsets) and the codebook's (arrival) differ
        assert answers[0][0] == answers[1][0]
        assert sorted(zip(*answers[0][1:])) == sorted(zip(*answers[1][1:]))
    else:
        assert answers[0] == answers[1]


def test_a_distinct_value_of_another_dtype_is_coded_by_value():
    np = _np()
    groups = rt.group_state(1, 1, (0, 1, 4))
    for values in ([1, 2, 1], [2.5, 1.0, 2.0]):
        ids = rt.v_group_ids(groups, 3, np.asarray([0, 1, 0]))
        rt.v_agg_distinct(groups, 0, ids, np.asarray(values), (1, 2, 4))
    assert rt.group_merge(groups) == [2, [0, 1], [3, 2]]


def test_static_accumulators_are_allocated_once_at_their_size():
    np = _np()
    groups = rt.group_state(2, 1, (0, 9, 100), (ord("A"), ord("Z"), 100))
    for _ in range(3):
        ids = rt.v_group_ids(
            groups, 2, np.asarray([9, 0]), np.array([b"A", b"Z"], dtype="S1")
        )
        rt.v_agg_sum(groups, 0, ids, np.asarray([1, 2]))
    assert len(groups.slots[0].data) == groups.size == 10 * 26
    assert rt.group_merge(groups) == [2, [0, 9], ["Z", "A"], [6, 3]]


# -- bounds and provenance -------------------------------------------------------------


def _flags_db(rows) -> Database:
    db = Database(Catalog())
    db.add_rows(
        schema("F", ("k", INT), ("flag", STRING, 1), ("name", STRING), ("v", INT), ("d", INT)),
        rows,
    )
    db.add_rows(schema("G", ("gk", INT), ("g", INT)), [(1, 10), (2, 20), (3, 30)])
    return db


FLAG_ROWS = [
    (-3, "A", "alpha", 5, 1), (2, "R", "beta", 7, 2), (2, "A", "gamma", 1, 1),
    (9, "N", "", 4, 3), (-3, "A", "alpha", 8, 2),
]


def test_database_bounds():
    db = _flags_db(FLAG_ROWS)
    assert db.bounds("F", "k") == (-3, 9, 5)
    assert db.bounds("F", "flag") == (ord("A"), ord("R"), 5)
    assert db.bounds("F", "name") is None  # wider than one byte
    empty = Database(Catalog())
    empty.add_rows(schema("E", ("x", INT)), [])
    assert empty.bounds("E", "x") is None


def _catalog():
    return _flags_db(FLAG_ROWS).catalog


def test_bare_fields_keep_their_column():
    catalog = _catalog()
    plan = HashJoin(
        Project(
            Select(Scan("F", rename={"k": "fk"}), Cmp(">", col("v"), lit(2))),
            [("key", col("fk")), ("f", col("flag"))],
        ),
        Scan("G"),
        ["key"], ["gk"],
    )
    columns = vec.field_columns(plan, catalog)
    assert columns["key"] == ("F", "k")
    assert columns["f"] == ("F", "flag")
    assert columns["g"] == ("G", "g")
    grouped = Agg(plan, [("kk", col("key"))], [("n", count())])
    assert vec.field_columns(grouped, catalog) == {"kk": ("F", "k")}


def test_computed_substring_and_null_extended_fields_have_none():
    catalog = _catalog()
    computed = Project(
        Scan("F"),
        [("plus", Arith("+", col("k"), lit(1))), ("head", Substring(col("name"), 1, 1))],
    )
    assert vec.field_columns(computed, catalog) == {}
    outer = LeftOuterJoin(Scan("G"), Scan("F"), ["gk"], ["k"])
    columns = vec.field_columns(outer, catalog)
    assert columns["g"] == ("G", "g")
    assert "flag" not in columns and "k" not in columns


def _compiled(db, plan):
    return LB2Compiler(db.catalog, db, Config(codegen="vector")).compile(plan)


def test_only_bare_keys_get_a_static_table():
    db = _flags_db(FLAG_ROWS)
    bare = _compiled(db, Agg(Scan("F"), [("flag", col("flag")), ("k", col("k"))], [
        ("n", count()), ("d", count_distinct(col("d"))),
    ]))
    assert bare.codegen_stats["static_group_tables"] == 1
    assert bare.codegen_stats["static_distinct_slots"] == 1
    assert "db.bounds('F', 'flag')" in bare.source
    computed = Project(Scan("F"), [("plus", Arith("+", col("k"), lit(1))), ("d", col("d"))])
    for key in ("plus", "head"):
        child = computed if key == "plus" else Project(
            Scan("F"), [("head", Substring(col("name"), 1, 1)), ("d", col("d"))]
        )
        build = _compiled(db, Agg(child, [(key, col(key))], [("d", count_distinct(col("d")))]))
        assert build.codegen_stats["static_group_tables"] == 0
        assert build.codegen_stats["static_distinct_slots"] == 1


def test_a_string_key_needs_a_declared_width_of_one():
    """``db.bounds`` answers a string column only when its values are one
    byte wide, so the generator asks for a string key's or distinct
    value's bounds only when the column is declared one character wide:
    an undeclared column, or one declared wider, stays coded even when its
    values happen to be one byte."""
    db = Database(Catalog())
    db.add_rows(
        schema("W", ("wide", STRING, 2), ("free", STRING), ("one", STRING, 1)),
        [("a", "b", "c"), ("d", "e", "f")],
    )
    for key in ("wide", "free"):
        build = _compiled(db, Agg(Scan("W"), [(key, col(key))], [
            ("n", count()), ("d", count_distinct(col("one"))),
        ]))
        assert build.codegen_stats["static_group_tables"] == 0, key
        assert f"db.bounds('W', '{key}')" not in build.source
        assert build.codegen_stats["static_distinct_slots"] == 1, key
        distinct = _compiled(db, Agg(Scan("W"), [("one", col("one"))], [
            ("d", count_distinct(col(key))),
        ]))
        assert distinct.codegen_stats["static_group_tables"] == 1, key
        assert distinct.codegen_stats["static_distinct_slots"] == 0, key


# -- served plans and data independence --------------------------------------------------


@pytest.mark.parametrize("q,tables,slots", [(1, 1, 0), (20, 1, 0), (21, 2, 2)])
def test_served_plans_report_static_group_tables(q, tables, slots, tpch_db):
    stats = _served_build(Session(tpch_db), q).codegen_stats
    assert stats["static_group_tables"] == tables, stats
    assert stats["static_distinct_slots"] == slots, stats


def test_the_served_mix_never_leaves_a_static_table(monkeypatch):
    """Both literal variants of the ledger's 22-statement mix, served
    through ``QueryService.submit`` at SF 0.001: no static table replays
    into the coded form (that path is a guard, not one the mix takes),
    q1's and q20's tables are static, and q10's seven keys stay
    ``c_custkey`` plus six dependent keys, never promoted."""
    mix = json.loads((LEDGER / "statements.json").read_text())["mix"]
    tables: list = []
    left: list = []

    class Recorded(rt.GroupTable):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            tables.append(self)

        def _leave_static(self) -> None:
            left.append(self)
            super()._leave_static()

    monkeypatch.setattr(rt, "GroupTable", Recorded)
    scale = 0.001
    served: dict = {}
    with QueryService(
        Session(generate_database(scale)), ServiceConfig(workers=1, query_scale=scale)
    ) as service:
        for variant in (0, 1):
            for entry in mix:
                if "tpch" in entry:
                    request = ServiceRequest(tpch=entry["tpch"])
                else:
                    request = ServiceRequest(sql=entry["sql"][variant % len(entry["sql"])])
                del tables[:]
                reply = service.submit(request)
                assert reply.ok, (entry["key"], reply.error)
                served.setdefault(entry["key"], []).extend(tables)
    assert left == []
    for key in ("q1", "q20"):
        assert served[key] and all(t.spans is not None for t in served[key]), key
    assert len(served["q10"]) == 2  # one per variant
    for table in served["q10"]:
        assert len(table.reps) == 7 and table.spans is None
        assert table.real == [0] and not table.stages
        assert table.dependent == [1, 2, 3, 4, 5, 6]


def test_the_served_mix_asks_only_for_bounds_it_gets(monkeypatch):
    """Both literal variants of the 22 mix statements, served through
    ``QueryService.submit`` at SF 0.001: every ``db.bounds`` call a served
    program makes returns bounds, and each request's
    ``codegen_stats["static_group_tables"]`` is the number of its group
    tables that can run static -- made with every key's bounds -- since a
    string key is given bounds only when its column is declared one
    character wide.  (Whether such a table does run static is decided at
    run time, from the bounds' product: q3's three integer keys span too
    much and stay coded.)"""
    mix = json.loads((LEDGER / "statements.json").read_text())["mix"]
    calls: list = []
    tables: list = []
    programs: list = []
    real_bounds, real_prepare = Database.bounds, CompiledQuery.prepare

    def bounds(self, table, column):
        answer = real_bounds(self, table, column)
        calls.append((table, column, answer))
        return answer

    def prepare(self, db):
        programs.append(self)
        return real_prepare(self, db)

    class Recorded(rt.GroupTable):
        def __init__(self, nkeys, nslots, *bounds) -> None:
            super().__init__(nkeys, nslots, *bounds)
            tables.append(len(bounds) == nkeys and None not in bounds)

    monkeypatch.setattr(Database, "bounds", bounds)
    monkeypatch.setattr(CompiledQuery, "prepare", prepare)
    monkeypatch.setattr(rt, "GroupTable", Recorded)
    scale = 0.001
    with QueryService(
        Session(generate_database(scale)), ServiceConfig(workers=1, query_scale=scale)
    ) as service:
        for variant in (0, 1):
            for entry in mix:
                if "tpch" in entry:
                    request = ServiceRequest(tpch=entry["tpch"])
                else:
                    request = ServiceRequest(sql=entry["sql"][variant % len(entry["sql"])])
                del tables[:], programs[:]
                reply = service.submit(request)
                assert reply.ok, (entry["key"], reply.error)
                assert len(programs) == 1, entry["key"]
                assert programs[0].codegen_stats["static_group_tables"] == sum(tables), (
                    entry["key"], variant
                )
    assert calls
    assert [(t, c) for t, c, answer in calls if answer is None] == []


def test_one_grouped_program_answers_against_two_databases():
    """The bounds are read from the database a run gets, so the program
    holds no data: built against one scale, it answers another with that
    database's Volcano rows."""
    small = generate_database(0.001)
    large = generate_database(0.01)
    for q in (1, 20, 21):
        plan = query_plan(q, scale=0.001)
        program = _compiled(small, plan)
        for db in (small, large):
            oracle = execute_volcano(plan, db, db.catalog)
            got, want = normalize(program.run(db), 2), normalize(oracle, 2)
            assert len(got) == len(want), q
            for a, b in zip(got, want):  # float sums differ in the last digits
                assert all(
                    math.isclose(x, y, rel_tol=1e-9) if isinstance(x, float) else x == y
                    for x, y in zip(a, b)
                ), (q, a, b)


# -- four engines ------------------------------------------------------------------------------


ADHOC = [
    "select flag, count(*) as n, sum(v) as s, min(v) as lo, max(v) as hi, avg(v) as a "
    "from F group by flag",
    "select flag, k, count(distinct d) as nd from F group by flag, k",
    "select k, flag, sum(v) as s from F where v > 100 group by k, flag",
    "select g, count(*) as n from F, G where k = gk group by g",
    "select k, count(distinct flag) as nf from F group by k",
]


@pytest.mark.parametrize("batch_rows", BATCH_SIZES)
@pytest.mark.parametrize("sql", ADHOC)
def test_four_engines_agree_on_adhoc_groupings(sql, batch_rows, monkeypatch):
    db = _flags_db(FLAG_ROWS + [(k % 7 - 2, "NRA"[k % 3], "x", k, k % 4) for k in range(40)])
    plan = sql_to_plan(sql, db)
    monkeypatch.setattr(vec, "BATCH_ROWS", batch_rows)
    vector = _compiled(db, plan)
    if "group by" in sql and " F, G " not in sql:
        assert vector.codegen_stats["static_group_tables"] == 1
    answers = [
        normalize(vector.run(db), 6),
        normalize(LB2Compiler(db.catalog, db).compile(plan).run(db), 6),
        normalize(execute_push(plan, db, db.catalog), 6),
        normalize(execute_volcano(plan, db, db.catalog), 6),
    ]
    assert all(a == answers[0] for a in answers), sql
    if "v > 100" in sql:
        assert answers[0] == []


def test_tpch_statements_answer_like_scalar_across_batch_sizes(monkeypatch):
    db = generate_database(TINY_SCALE)
    for batch_rows in (5, vec.BATCH_ROWS):
        monkeypatch.setattr(vec, "BATCH_ROWS", batch_rows)
        for q in (1, 2, 13, 15, 16, 18, 20, 21):
            plan = query_plan(q, scale=TINY_SCALE)
            scalar = LB2Compiler(db.catalog, db).compile(plan).run(db)
            assert normalize(_compiled(db, plan).run(db), 6) == normalize(scalar, 6), q
