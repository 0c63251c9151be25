"""Tests for instrumented compilation (per-operator row counters)."""

import pytest

from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.engine import execute_push
from repro.plan import Agg, HashJoin, Limit, Scan, Select, Sort, col, count
from repro.session import Session
from repro.tpch import query_plan
from tests.conftest import TINY_SCALE, normalize


def compile_instrumented(plan, db):
    return LB2Compiler(db.catalog, db, Config(instrument=True)).compile(plan)


def test_counts_match_known_cardinalities(tiny_db):
    plan = Select(Scan("Dep"), col("rank").lt(10))
    compiled = compile_instrumented(plan, tiny_db)
    compiled.run(tiny_db)
    stats = compiled.last_stats
    assert stats["Scan#1"] == 4
    assert stats["Select#2"] == 3


def test_counts_through_pipeline(tiny_db):
    plan = Limit(
        Sort(
            Agg(
                HashJoin(Scan("Dep"), Scan("Emp"), ("dname",), ("edname",)),
                [("dname", col("dname"))],
                [("n", count())],
            ),
            [("n", False)],
        ),
        2,
    )
    compiled = compile_instrumented(plan, tiny_db)
    rows = compiled.run(tiny_db)
    stats = compiled.last_stats
    by_kind = {}
    for label, value in stats.items():
        by_kind[label.split("#")[0]] = value
    assert by_kind["HashJoin"] == 6       # all employees match a department
    assert by_kind["Agg"] == 4            # four departments
    assert by_kind["Sort"] == 4
    assert by_kind["Limit"] == 2 == len(rows)


def test_instrumented_results_agree(tpch_db):
    plan = query_plan(10, scale=TINY_SCALE)
    compiled = compile_instrumented(plan, tpch_db)
    got = compiled.run(tpch_db)
    assert normalize(got) == normalize(execute_push(plan, tpch_db, tpch_db.catalog))
    # every operator in the plan reported a count
    assert len(compiled.last_stats) == plan.operator_count()


def test_counts_reset_between_runs(tiny_db):
    plan = Select(Scan("Dep"), col("rank").lt(10))
    compiled = compile_instrumented(plan, tiny_db)
    compiled.run(tiny_db)
    first = dict(compiled.last_stats)
    compiled.run(tiny_db)
    assert compiled.last_stats == first  # fresh counters each run, not doubled


def test_times_and_counts_are_split(tiny_db):
    plan = Select(Scan("Dep"), col("rank").lt(10))
    compiled = compile_instrumented(plan, tiny_db)
    compiled.run(tiny_db)
    # timing keys never leak into last_stats; every counter has a time
    assert set(compiled.last_times) == set(compiled.last_stats)
    assert all(t >= 0.0 for t in compiled.last_times.values())
    assert not any(k.startswith("@t:") for k in compiled.last_stats)


def test_session_analyze(tiny_db):
    session = Session(tiny_db)
    rows, stats = session.analyze(
        "select sdep, count(*) n from Sales where amount > 20.0 group by sdep"
    )
    assert rows
    assert any(label.startswith("Scan") for label in stats)
    scan_count = next(v for k, v in stats.items() if k.startswith("Scan"))
    assert scan_count == 6  # all Sales rows scanned
    select_count = next(v for k, v in stats.items() if k.startswith("Select"))
    assert select_count == 5  # amount > 20 keeps 5 of 6


def test_uninstrumented_query_has_no_stats(tiny_db):
    compiled = LB2Compiler(tiny_db.catalog, tiny_db).compile(Scan("Dep"))
    compiled.run(tiny_db)
    assert compiled.last_stats is None
    assert "stats" not in compiled.source.splitlines()[1]  # signature unchanged
