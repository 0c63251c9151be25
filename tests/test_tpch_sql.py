"""Differential tests: TPC-H queries expressed in SQL vs hand-written plans.

Fifteen queries flow through the entire front-end (lexer, parser, subquery
decorrelation, cost-based join ordering) and must produce exactly the rows
of the corresponding hand-written physical plan, both interpreted and
compiled.
"""

import pytest

from repro.compiler.driver import LB2Compiler
from repro.engine import execute_push
from repro.plan import optimizer
from repro.plan import physical as phys
from repro.resilience import ResilientExecutor
from repro.session import Session
from repro.sql import sql_to_plan
from repro.tpch import query_plan
from repro.tpch.sql_queries import PLAN_ONLY, SQL_QUERIES
from tests.conftest import TINY_SCALE, normalize

SQL_NUMBERS = sorted(SQL_QUERIES)


def test_coverage_is_complete():
    """Every TPC-H query is either SQL-expressible or documented plan-only."""
    assert sorted(set(SQL_QUERIES) | set(PLAN_ONLY)) == list(range(1, 23))
    assert not set(SQL_QUERIES) & set(PLAN_ONLY)


@pytest.fixture(scope="module")
def references(tpch_db):
    return {
        q: normalize(execute_push(query_plan(q, scale=TINY_SCALE), tpch_db, tpch_db.catalog))
        for q in SQL_NUMBERS
    }


@pytest.mark.parametrize("q", SQL_NUMBERS)
def test_sql_matches_hand_plan_interpreted(q, tpch_db, references):
    plan = sql_to_plan(SQL_QUERIES[q], tpch_db)
    got = execute_push(plan, tpch_db, tpch_db.catalog)
    assert normalize(got) == references[q]


@pytest.mark.parametrize("q", SQL_NUMBERS)
def test_sql_matches_hand_plan_compiled(q, tpch_db, references):
    plan = sql_to_plan(SQL_QUERIES[q], tpch_db)
    got = LB2Compiler(tpch_db.catalog, tpch_db).compile(plan).run(tpch_db)
    assert normalize(got) == references[q]


@pytest.mark.parametrize("q", (1, 4, 9, 16, 22))
def test_sql_with_index_rewrites(q, tpch_db_full, references):
    from repro.plan.rewrite import optimize_for_level

    plan = optimize_for_level(
        sql_to_plan(SQL_QUERIES[q], tpch_db_full),
        tpch_db_full,
        tpch_db_full.catalog,
    )
    got = LB2Compiler(tpch_db_full.catalog, tpch_db_full).compile(plan).run(tpch_db_full)
    assert normalize(got) == references[q]


@pytest.mark.parametrize("q", SQL_NUMBERS)
def test_sql_output_column_order_matches(q, tpch_db):
    """The SELECT list order must equal the hand plan's field order."""
    sql_names = sql_to_plan(SQL_QUERIES[q], tpch_db).field_names(tpch_db.catalog)
    plan_names = query_plan(q, scale=TINY_SCALE).field_names(tpch_db.catalog)
    assert len(sql_names) == len(plan_names)


def _scan_tables(node) -> set:
    tables = {node.table} if isinstance(node, phys.Scan) else set()
    for child in node.children():
        tables |= _scan_tables(child)
    return tables


def test_served_q9_probes_part_first(tpch_db):
    """q9's lineitem stream meets the 6 %-selective ``part`` build before
    any other: the join directly over the lineitem scan builds ``part``."""
    session = Session(tpch_db)
    plan = ResilientExecutor(session).prepare(SQL_QUERIES[9]).plan
    joins = []

    def walk(node):
        if isinstance(node, phys.HashJoin) and _scan_tables(node.right) == {"lineitem"}:
            joins.append(node)
        for child in node.children():
            walk(child)

    walk(plan)
    assert [_scan_tables(j.left) for j in joins] == [{"part"}]


@pytest.mark.parametrize("q", SQL_NUMBERS)
def test_probe_order_keeps_every_statements_rows(q, tpch_db, monkeypatch):
    """Reordering a probe spine changes which build a row meets first, not
    which rows come out."""
    ordered = sql_to_plan(SQL_QUERIES[q], tpch_db)
    monkeypatch.setattr(optimizer, "_probe_order", lambda plan, *_: plan)
    greedy = sql_to_plan(SQL_QUERIES[q], tpch_db)
    rows = [execute_push(p, tpch_db, tpch_db.catalog) for p in (ordered, greedy)]
    assert normalize(rows[0]) == normalize(rows[1])
