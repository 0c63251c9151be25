"""Tests for the GroupJoin extension operator (HyPer's specialized op)."""

import pytest

from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.compiler.runtime import have_numpy
from repro.compiler.template import execute_template
from repro.engine import execute_push, execute_volcano
from repro.plan import (
    Agg,
    Scan,
    Select,
    Sort,
    avg,
    col,
    count,
    count_col,
    max_,
    min_,
    sum_,
)
from repro.plan.physical import GroupJoin, PlanError
from repro.plan.rewrite import fuse_topk, optimize_for_level
from repro.tpch import query_plan
from repro.tpch.queries import q13_groupjoin, keep
from tests.conftest import TINY_SCALE, normalize


def run_all(plan, db):
    cat = db.catalog
    results = [
        execute_volcano(plan, db, cat),
        execute_push(plan, db, cat),
        execute_template(plan, db, cat),
        LB2Compiler(cat, db).compile(plan).run(db),
    ]
    for other in results[1:]:
        assert normalize(other) == normalize(results[0])
    return results[0]


def test_groupjoin_fields(tiny_db):
    plan = GroupJoin(
        Scan("Dep"), Scan("Emp"), ("dname",), ("edname",), [("n", count())]
    )
    assert plan.field_names(tiny_db.catalog) == ["dname", "rank", "n"]


def test_groupjoin_name_clash_rejected(tiny_db):
    plan = GroupJoin(
        Scan("Dep"), Scan("Emp"), ("dname",), ("edname",), [("rank", count())]
    )
    with pytest.raises(PlanError, match="clash"):
        plan.fields(tiny_db.catalog)


def test_groupjoin_key_arity(tiny_db):
    plan = GroupJoin(
        Scan("Dep"), Scan("Emp"), ("dname", "rank"), ("edname",), [("n", count())]
    )
    with pytest.raises(PlanError, match="arity"):
        plan.fields(tiny_db.catalog)


def test_groupjoin_counts_matches(tiny_db):
    plan = GroupJoin(
        Scan("Dep"), Scan("Emp"), ("dname",), ("edname",), [("n", count())]
    )
    rows = run_all(plan, tiny_db)
    by_dep = {r[0]: r[2] for r in rows}
    assert by_dep == {"CS": 3, "EE": 1, "ME": 1, "BIO": 1}
    assert len(rows) == 4  # exactly one row per left row


def test_groupjoin_empty_groups(tiny_db):
    """Left rows without matches get count 0 / None for other aggregates."""
    plan = GroupJoin(
        Scan("Dep"),
        Select(Scan("Emp"), col("eid").lt(3)),  # only CS employees remain
        ("dname",),
        ("edname",),
        [("n", count()), ("lo", min_(col("eid")))],
    )
    rows = {r[0]: (r[2], r[3]) for r in run_all(plan, tiny_db)}
    assert rows["CS"] == (2, 1)
    assert rows["EE"] == (0, None)
    assert rows["ME"] == (0, None)


def test_groupjoin_numeric_aggregates(tiny_db):
    plan = GroupJoin(
        Scan("Dep"),
        Scan("Sales"),
        ("dname",),
        ("sdep",),
        [
            ("total", sum_(col("amount"))),
            ("mean", avg(col("amount"))),
            ("hi", max_(col("amount"))),
        ],
    )
    rows = {r[0]: r[2:] for r in run_all(plan, tiny_db)}
    assert rows["CS"][0] == pytest.approx(392.0)
    assert rows["CS"][1] == pytest.approx(392.0 / 3)
    assert rows["CS"][2] == pytest.approx(250.0)


def test_groupjoin_compiled_source_has_no_join_product(tiny_db):
    """The compiled GroupJoin must not materialize match lists."""
    plan = GroupJoin(
        Scan("Dep"), Scan("Emp"), ("dname",), ("edname",), [("n", count())]
    )
    source = LB2Compiler(tiny_db.catalog, tiny_db).compile(plan).source
    # the only append is the final output collector -- no match buckets
    appends = [l for l in source.splitlines() if ".append(" in l]
    assert all("out.append" in l for l in appends)


def test_q13_groupjoin_equals_q13(tpch_db):
    reference = normalize(
        execute_push(query_plan(13, scale=TINY_SCALE), tpch_db, tpch_db.catalog)
    )
    variant = q13_groupjoin(TINY_SCALE)
    assert normalize(run_all(variant, tpch_db)) == reference


def test_q13_groupjoin_fewer_operators():
    assert q13_groupjoin().operator_count() < query_plan(13).operator_count()


def test_q13_groupjoin_goes_through_the_level_rewrites(tpch_db, tpch_db_full):
    """The level rewrites rebuild a plan holding a GroupJoin like any
    other, and every engine and lowering runs the result."""
    reference = normalize(
        execute_volcano(query_plan(13, scale=TINY_SCALE), tpch_db, tpch_db.catalog)
    )
    db, cat = tpch_db_full, tpch_db_full.catalog
    variant = q13_groupjoin(TINY_SCALE)
    assert fuse_topk(variant) is variant
    plan = optimize_for_level(variant, db, cat)
    results = {
        "volcano": execute_volcano(plan, db, cat),
        "push": execute_push(plan, db, cat),
        "template": execute_template(plan, db, cat),
        "lb2": LB2Compiler(cat, db).compile(plan).run(db),
    }
    if have_numpy():
        vector = LB2Compiler(cat, db, Config(codegen="vector")).compile(plan)
        results["vector"] = vector.run(db)
    for engine, rows in results.items():
        assert normalize(rows) == reference, engine
