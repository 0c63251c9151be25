"""Grouping once per query: the batch lowering's group table.

* a Hypothesis property of the table (``group_state`` / ``v_group_ids`` /
  ``v_agg_*`` / ``group_merge``) against a dict reference, over batches cut
  anywhere (empty ones included): integer keys arriving in increasing,
  decreasing and random order, negative keys, spans at the direct-table
  bound and one past it, composite keys mixing integers, typed strings and
  floats, a dependent key that breaks only in a late batch, and every fold
  -- ``sum``, ``avg``'s two slots, ``min``, ``max``, counts under a
  validity mask and ``count(distinct)`` with duplicates across batches;
  the merged groups of integer, float and short typed-string keys come in
  ascending key order;
* the same shapes through the compiler, at ``BATCH_ROWS`` 1, 5, 8192 and
  the shipped cap, answer like the scalar lowering as a bag of rows;
* integer sums near ``2**62`` are exact in both lowerings, grouped or not;
* two threads running instrumented builds each see only their kernels;
* served TPC-H rows hold plain Python values only.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import FLOAT, INT, STRING, Catalog
from repro.catalog.schema import schema
from repro.compiler import runtime as rt
from repro.compiler import vec
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.plan import (
    Agg, Scan, avg, col, count, count_col, count_distinct, max_, min_, sum_,
)
from repro.resilience import Budget, ResilientExecutor
from repro.session import Session
from repro.storage import Database
from repro.tpch.sql_queries import SQL_QUERIES
from tests.conftest import needs_numpy, normalize
from tests.test_batch_joins import _served_build

pytestmark = needs_numpy


#: The direct table's floor: a span of this many slots is direct, one more
#: is not (on inputs of fewer than 512 rows).
BOUND = rt._DIRECT_SLOTS_MIN

#: Integer key domains.
INT_KEYS = {
    "dense": st.integers(0, 20),
    "negative": st.integers(-30, -1),
    "at the bound": st.sampled_from([7, 7 + BOUND - 1]),
    "past the bound": st.sampled_from([-7, -7 + BOUND]),
    "sparse": st.integers(-(1 << 40), 1 << 40),
}
TEXT = st.text(alphabet="ab", max_size=3)
WIDE = st.text(alphabet="ab", min_size=9, max_size=10)
FLOATS = st.sampled_from([-1.5, 0.0, 2.25, 1e300])


@st.composite
def table_case(draw):
    """Rows of ``(int key, short text, wide text, float, dependent key,
    value, valid, distinct value)``, their order, batch cuts, and which
    key columns group them."""
    n = draw(st.integers(0, 40))
    ints = draw(st.lists(INT_KEYS[draw(st.sampled_from(sorted(INT_KEYS)))], min_size=n, max_size=n))
    arrival = draw(st.sampled_from(["increasing", "decreasing", "random"]))
    if arrival != "random":
        ints.sort(reverse=arrival == "decreasing")
    late = draw(st.integers(0, max(n - 1, 0)))
    rows = [
        (
            k,
            draw(TEXT),
            draw(WIDE),
            draw(FLOATS),
            # follows from the int key, except in rows from ``late`` on
            k * 3 + (draw(st.integers(0, 1)) if i >= late else 0),
            draw(st.integers(-(1 << 40), 1 << 40)),
            draw(st.booleans()),
            draw(st.integers(0, 5)),
        )
        for i, k in enumerate(ints)
    ]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    keys = draw(st.sampled_from([(0,), (0, 4), (0, 1), (1, 0, 3), (2, 0), (3, 4, 1)]))
    return rows, cuts, keys


def _arrays(values, column: int):
    """One column of the rows as a batch: typed strings, numbers."""
    import numpy as np

    if column in (1, 2):
        return rt._column(list(values))
    return np.asarray(values, dtype=np.float64 if column == 3 else np.int64)


def _reference(rows, keys):
    groups: dict = {}
    for row in rows:
        k, value, ok, dv = tuple(row[j] for j in keys), row[5], row[6], row[7]
        g = groups.setdefault(k, [0, 0.0, 0, None, None, 0, set()])
        g[0] += value
        g[1] += float(value)
        g[2] += 1
        g[3] = value if g[3] is None else min(g[3], value)
        g[4] = value if g[4] is None else max(g[4], value)
        g[5] += ok
        g[6].add(dv)
    return {k: (*g[:6], len(g[6])) for k, g in groups.items()}


def _run_table(rows, cuts, keys, batch: bool):
    groups = rt.group_state(len(keys), 7)
    columns = list(zip(*rows)) if rows else [()] * 8
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        part = [_arrays(c[lo:hi], j) for j, c in enumerate(columns)]
        n = hi - lo
        ids = rt.v_group_ids(groups, n, *(part[j] for j in keys))
        rt.v_agg_sum(groups, 0, ids, part[5])
        rt.v_agg_fsum(groups, 1, ids, part[5])
        rt.v_agg_count(groups, 2, ids)
        rt.v_agg_min(groups, 3, ids, part[5])
        rt.v_agg_max(groups, 4, ids, part[5])
        valid = rt.v_eq(part[6], 1)
        rt.v_agg_count_nn(groups, 5, ids, part[5], valid)
        rt.v_agg_distinct(groups, 6, ids, part[7])
    ngroups, *columns = rt.group_merge(groups, batch)
    if batch:
        columns = [rt.v_tolist(c) for c in columns]
    return ngroups, columns


@settings(max_examples=200, deadline=None)
@given(case=table_case())
def test_group_table_matches_a_dict(case):
    rows, cuts, keys = case
    expected = _reference(rows, keys)
    for batch in (False, True):
        ngroups, columns = _run_table(rows, cuts, keys, batch)
        nkeys = len(keys)
        got_keys = list(zip(*columns[:nkeys])) if ngroups else []
        assert ngroups == len(expected) == len(set(got_keys))
        got = {}
        for key, *slots in zip(got_keys, *columns[nkeys:]):
            got[key] = (*slots[:1], round(slots[1], 6), *slots[2:])
        assert got == {
            k: (e[0], round(e[1], 6), *e[2:]) for k, e in expected.items()
        }
        for column in columns:
            assert all(type(v) in (int, float, str) for v in column)
        if all(j in (0, 1, 3, 4) for j in keys):
            # integers, floats and short strings: ascending key order
            assert got_keys == sorted(got_keys)


def test_a_key_breaking_in_a_late_batch_is_promoted():
    """The second key follows from the first for two batches; the third
    splits a group, which keeps its id while the new pair gets one."""
    groups = rt.group_state(2, 1)
    batches = [([1, 2, 1], [10, 20, 10]), ([2, 3], [20, 30]), ([1, 3, 1], [11, 30, 10])]
    for a, b in batches:
        ids = rt.v_group_ids(groups, len(a), _ints(a), _ints(b))
        rt.v_agg_count(groups, 0, ids)
    assert rt.v_tolist(ids)[1] == 2  # group (3, 30) kept its id
    ngroups, first, second, counts = rt.group_merge(groups)
    assert ngroups == 4
    assert sorted(zip(first, second, counts)) == [
        (1, 10, 3), (1, 11, 1), (2, 20, 2), (3, 30, 2)
    ]


def _ints(values):
    import numpy as np

    return np.asarray(values, dtype=np.int64)


# -- through the compiler -----------------------------------------------------


def _db(rows) -> Database:
    db = Database(Catalog())
    db.add_rows(
        schema(
            "T", ("k", INT), ("s", STRING), ("w", STRING), ("f", FLOAT),
            ("dep", INT), ("v", INT), ("ok", INT), ("d", INT),
        ),
        rows,
    )
    return db


NAMES = ["k", "s", "w", "f", "dep", "v", "ok", "d"]


def _plan(keys):
    return Agg(
        Scan("T"),
        [(NAMES[j], col(NAMES[j])) for j in keys],
        [
            ("total", sum_(col("v"))),
            ("mean", avg(col("v"))),
            ("n", count()),
            ("lo", min_(col("v"))),
            ("hi", max_(col("f"))),
            ("named", count_col(col("s"))),
            ("kinds", count_distinct(col("d"))),
        ],
    )


@settings(max_examples=40, deadline=None)
@given(case=table_case())
@pytest.mark.parametrize("batch_rows", [1, 5, 8192, vec.BATCH_ROWS])
def test_grouped_plans_match_scalar_at_any_batch_size(batch_rows, case):
    rows, _, keys = case
    rows = [(*r[:6], int(r[6]), r[7]) for r in rows]
    db = _db(rows)
    plan = _plan(keys)
    expected = LB2Compiler(db.catalog, db).compile(plan).run(db)
    saved = vec.BATCH_ROWS
    vec.BATCH_ROWS = batch_rows
    try:
        compiled = LB2Compiler(db.catalog, db, Config(codegen="vector")).compile(plan)
    finally:
        vec.BATCH_ROWS = saved
    assert compiled.codegen_stats["vector_aggs"] == 1
    assert normalize(compiled.run(db), 6) == normalize(expected, 6)


# -- exact integer sums -----------------------------------------------------------

NEAR = st.integers((1 << 62) - 8, (1 << 62) + 8) | st.integers(-(1 << 62) - 8, -(1 << 62) + 8)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.tuples(st.integers(0, 2), NEAR | st.integers(-5, 5)), min_size=1, max_size=12),
    batch_rows=st.sampled_from([1, 5, 8192, vec.BATCH_ROWS]),
)
def test_integer_sums_near_2_62_are_exact(values, batch_rows):
    """The scalar lowering sums Python ints; int64 kernels wrapped
    (``2**62 + 2**62``) or went through float weights (``2**60 + 1``
    and ``2**60 + 3`` summed to ``2**61``).  Both lowerings agree exactly."""
    db = Database(Catalog())
    db.add_rows(schema("B", ("g", INT), ("v", INT)), values)
    plans = [
        Agg(Scan("B"), [("g", col("g"))], [("s", sum_(col("v")))]),
        Agg(Scan("B"), [], [("s", sum_(col("v")))]),
    ]
    saved = vec.BATCH_ROWS
    vec.BATCH_ROWS = batch_rows
    try:
        for plan in plans:
            scalar = LB2Compiler(db.catalog, db).compile(plan).run(db)
            vector = LB2Compiler(db.catalog, db, Config(codegen="vector")).compile(plan)
            assert sorted(vector.run(db)) == sorted(scalar), plan
    finally:
        vec.BATCH_ROWS = saved


def test_int_sum_kernels_past_float_and_int64():
    big = [2**60 + 1, 2**60 + 3]
    assert rt.v_sum(_ints([2**62, 2**62]), 2) == 2**63
    assert rt.v_tolist(rt.v_group_sum(_ints([0, 0]), 1, _ints(big))) == [2**61 + 4]
    groups = rt.group_state(1, 1)
    for _ in range(3):
        ids = rt.v_group_ids(groups, 2, _ints([5, 5]))
        rt.v_agg_sum(groups, 0, ids, _ints([2**62, 2**62 - 1]))
    assert rt.group_merge(groups) == [1, [5], [3 * (2**63 - 1)]]


# -- observers and plain values -----------------------------------------------------


def test_concurrent_instrumented_runs_see_only_their_kernels(tpch_db):
    """Each thread's instrumented run reports its own kernels: the kernel
    observer is per thread, and none is left installed afterwards."""
    from repro.tpch import query_plan
    from tests.conftest import TINY_SCALE

    config = Config(codegen="vector", instrument=True)
    builds = {
        q: LB2Compiler(tpch_db.catalog, tpch_db, config).compile(query_plan(q, scale=TINY_SCALE))
        for q in (1, 6)
    }
    solo = {}
    for q, build in builds.items():
        build.run(tpch_db)
        solo[q] = build.last_kernels
    assert solo[1] != solo[6]
    seen: dict = {1: [], 6: []}
    start = threading.Barrier(2)

    def work(q):
        start.wait()
        for _ in range(25):
            builds[q].run(tpch_db)
            seen[q].append(builds[q].last_kernels)

    threads = [threading.Thread(target=work, args=(q,)) for q in builds]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for q in builds:
        assert all(kernels == solo[q] for kernels in seen[q]), q
    assert rt.set_kernel_observer(None) is None


@pytest.mark.parametrize("q", [1, 10, 17, 21])
def test_served_rows_hold_plain_python_values(q, tpch_db):
    """Integer-keyed, string-keyed and dependent-key groupings, an avg and
    count(distinct): the served rows hold ints, floats and strs only (the
    wire cannot JSON-encode ``np.int64``)."""
    session = Session(tpch_db)
    if q in SQL_QUERIES:
        executor = ResilientExecutor(session, budget=Budget(wall_clock_seconds=60))
        result = executor.query(SQL_QUERIES[q])
        assert result.report.engine == "compiled"
        rows = result.rows
    else:
        rows = _served_build(session, q).run(tpch_db)
    assert rows
    bad = {type(v) for row in rows for v in row} - {int, float, str, type(None)}
    assert not bad, bad
