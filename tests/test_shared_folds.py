"""Aggregates of one node that fold the same share one accumulator.

``staged_agg.AggLayout`` lays out a node's slots once: a FLOAT ``sum(x)``
and ``avg(x)``'s float total share a slot, and so do ``count(*)``,
``avg``'s row counter and a ``count(col)`` of a column that cannot be
NULL.  An INT ``sum`` stays exact and shares with nothing; a ``count`` of
a nullable column counts its own slot.  Here:

* the layouts of those aggregate sets, slot by slot;
* Volcano, push, template, scalar LB2 and vector LB2 answer alike over
  them -- as a global aggregate, a grouped one and a GroupJoin's right
  side -- and so does the partition-parallel merge (``compiler.parallel``);
* the served q1 folds each batch into 6 slots, not 11.
"""

from __future__ import annotations

import pytest

from repro.analysis.lint import DuplicateFold
from repro.compiler.parallel import ParallelQuery
from repro.compiler.staged_agg import AggLayout
from repro.engine import execute_push
from repro.plan import (
    Agg, GroupJoin, Project, Scan, Select, avg, col, count, count_col, lit, sum_,
)
from repro.session import Session
from tests.conftest import make_tiny_db, needs_numpy, normalize
from tests.test_batch_joins import _served_build
from tests.test_engines_micro import _not_in_db, run_five

#: Per aggregate set: its table, the aggregates and, per aggregate, the
#: slots it reads.
CASES = {
    "float column": (
        "Sales",
        [("s", sum_(col("amount"))), ("a", avg(col("amount"))),
         ("n", count()), ("c", count_col(col("amount")))],
        [[0], [0, 1], [1], [1]],
    ),
    "int column": (
        "Sales",
        [("s", sum_(col("sid"))), ("a", avg(col("sid"))),
         ("n", count()), ("c", count_col(col("sid")))],
        [[0], [1, 2], [2], [2]],
    ),
    "nullable column": (
        "Labels",
        [("n", count()), ("c", count_col(col("label"))),
         ("k", count_col(col("lid"))), ("a", avg(col("lid")))],
        [[0], [1], [0], [2, 0]],
    ),
}


def _db(table: str):
    return make_tiny_db() if table == "Sales" else _not_in_db()


def _group_key(table: str) -> str:
    return "sdep" if table == "Sales" else "lid"


@pytest.mark.parametrize("case", sorted(CASES))
def test_layout_shares_only_provably_equal_folds(case):
    table, aggs, slots = CASES[case]
    db = _db(table)
    scan = Scan(table)
    layout = AggLayout(aggs, scan.field_types(db.catalog), scan.nullable(db.catalog))
    assert [agg.slots for agg in layout.aggs] == slots
    assert len(layout.folds) == len({s for agg_slots in slots for s in agg_slots})


@pytest.mark.parametrize("case", sorted(CASES))
def test_global_and_grouped_aggregates_answer_alike(case):
    table, aggs, _ = CASES[case]
    db = _db(table)
    run_five(Agg(Scan(table), [], aggs), db)
    grouped = run_five(Agg(Scan(table), [("g", col(_group_key(table)))], aggs), db)
    assert len(grouped) >= 3
    key = "sid" if table == "Sales" else "lid"
    nothing = Select(Scan(table), col(key).lt(lit(0)))
    (empty,) = run_five(Agg(nothing, [], aggs), db)
    assert empty == tuple(0 if spec.kind == "count" else None for _, spec in aggs)


def test_float_and_int_values_are_exact():
    """The shared slots hold what the unshared ones did: the float total
    is the FLOAT sum, the row count every counter."""
    db = make_tiny_db()
    rows = run_five(Agg(Scan("Sales"), [], CASES["float column"][1]), db)
    total = 100.0 + 250.0 + 75.5 + 10.0 + 33.25 + 42.0
    assert normalize(rows) == normalize([(total, total / 6, 6, 6)])
    rows = run_five(Agg(Scan("Sales"), [], CASES["int column"][1]), db)
    assert rows == [(21, 3.5, 6, 6)]


def test_a_nullable_count_keeps_its_own_slot():
    db = _not_in_db()
    rows = run_five(Agg(Scan("Labels"), [], CASES["nullable column"][1]), db)
    assert rows == [(4, 3, 4, 2.5)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_group_join_aggregates_answer_alike(case):
    table, aggs, _ = CASES[case]
    db = _db(table)
    if table == "Sales":
        left = Project(Scan("Dep"), [("dname", col("dname"))])
        keys = ("dname",), ("sdep",)
    else:
        left = Project(Scan("Tags"), [("tag", col("tag"))])
        keys = ("tag",), ("label",)
    rows = run_five(GroupJoin(left, Scan(table), *keys, aggs), db)
    assert len(rows) == len(execute_push(left, db, db.catalog))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("grouped", [False, True])
def test_parallel_partials_merge_shared_slots(case, grouped):
    """Each partition returns the shared slots once; the merge combines
    them slot by slot and every aggregate reads its own back."""
    table, aggs, _ = CASES[case]
    db = _db(table)
    keys = [("g", col(_group_key(table)))] if grouped else []
    plan = Agg(Scan(table), keys, aggs)
    expected = normalize(execute_push(plan, db, db.catalog))
    query = ParallelQuery(plan, db, db.catalog)
    assert len(query.layout.folds) < sum(len(a.slot_ctypes()) for a in query.layout.aggs)
    for partitions in (1, 2, 3):
        rows, _ = query.run_simulated(partitions)
        assert normalize(rows) == expected, partitions


def test_a_shared_slot_sums_once_per_row():
    """Three counters and two totals over one column: every accumulator
    adds each row once, however many aggregates read it."""
    db = make_tiny_db()
    aggs = [
        ("a1", avg(col("amount"))), ("s", sum_(col("amount"))),
        ("a2", avg(col("amount"))), ("n", count()), ("c", count_col(col("sid"))),
        ("twice", sum_(col("amount") * lit(2.0))),
    ]
    layout = AggLayout(aggs, Scan("Sales").field_types(db.catalog))
    assert [agg.slots for agg in layout.aggs] == [[0, 1], [0], [0, 1], [1], [1], [2]]
    (row,) = run_five(Agg(Scan("Sales"), [], aggs), db)
    total = 510.75
    assert normalize([row]) == normalize([(total / 6, total, total / 6, 6, 6, 2 * total)])


@needs_numpy
def test_served_q1_folds_six_slots_per_batch(tpch_db):
    """q1's 8 aggregates read 11 slots; 6 of them are distinct folds, and
    the served program stages each once per batch."""
    program = _served_build(Session(tpch_db), 1)
    assert program.source.count("rt.v_agg_") == 6
    assert "rt.group_state(2, 6," in program.source
    assert DuplicateFold().run(program.functions) == []
