"""The backbone differential test: all 22 TPC-H queries across all four
engines, at every optimization level, with and without plan rewrites."""

import pytest

from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.compiler.template import execute_template
from repro.engine import execute_push, execute_volcano
from repro.plan import physical as phys
from repro.plan.rewrite import optimize_for_level
from repro.sql import sql_to_plan
from repro.sql.shape import statement_shape
from repro.tpch import query_plan
from repro.tpch.queries import QUERIES
from repro.tpch.sql_queries import SQL_QUERIES
from tests.conftest import TINY_SCALE, needs_numpy, normalize

ALL_QUERIES = sorted(QUERIES)


@pytest.fixture(scope="module")
def reference(tpch_db):
    """Push-engine results for every query (the agreed baseline)."""
    out = {}
    for q in ALL_QUERIES:
        plan = query_plan(q, scale=TINY_SCALE)
        out[q] = normalize(execute_push(plan, tpch_db, tpch_db.catalog))
    return out


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_plan_validates(q, tpch_db):
    plan = query_plan(q, scale=TINY_SCALE)
    plan.validate(tpch_db.catalog)
    assert plan.operator_count() >= 3


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_volcano_matches_push(q, tpch_db, reference):
    plan = query_plan(q, scale=TINY_SCALE)
    assert normalize(execute_volcano(plan, tpch_db, tpch_db.catalog)) == reference[q]


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_template_matches_push(q, tpch_db, reference):
    plan = query_plan(q, scale=TINY_SCALE)
    assert normalize(execute_template(plan, tpch_db, tpch_db.catalog)) == reference[q]


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_lb2_compiled_matches_push(q, tpch_db, reference):
    plan = query_plan(q, scale=TINY_SCALE)
    compiled = LB2Compiler(tpch_db.catalog, tpch_db).compile(plan)
    assert normalize(compiled.run(tpch_db)) == reference[q]


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_lb2_with_dictionaries_matches(q, tpch_db_full, reference):
    plan = query_plan(q, scale=TINY_SCALE)
    compiled = LB2Compiler(tpch_db_full.catalog, tpch_db_full).compile(plan)
    assert normalize(compiled.run(tpch_db_full)) == reference[q]


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_lb2_rewritten_plans_match(q, tpch_db_full, reference):
    """Index-join and date-index rewrites preserve results (Figure 9 path)."""
    plan = optimize_for_level(
        query_plan(q, scale=TINY_SCALE), tpch_db_full, tpch_db_full.catalog
    )
    compiled = LB2Compiler(tpch_db_full.catalog, tpch_db_full).compile(plan)
    assert normalize(compiled.run(tpch_db_full)) == reference[q]


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_push_rewritten_plans_match(q, tpch_db_full, reference):
    plan = optimize_for_level(
        query_plan(q, scale=TINY_SCALE), tpch_db_full, tpch_db_full.catalog
    )
    got = execute_push(plan, tpch_db_full, tpch_db_full.catalog)
    assert normalize(got) == reference[q]


@pytest.mark.parametrize("q", [1, 3, 6, 13, 16, 18])
def test_lb2_hoisted_mode_matches(q, tpch_db, reference):
    """Figure 7 by hand: ``prepare(db)`` allocates, its ``run`` closure
    answers into ``out``."""
    plan = query_plan(q, scale=TINY_SCALE)
    compiled = LB2Compiler(tpch_db.catalog, tpch_db, Config(hoist=True)).compile(plan)
    run = compiled.prepare(tpch_db)
    out: list = []
    run(out)
    assert normalize(out) == reference[q]


@pytest.mark.parametrize("q", [1, 4, 6, 12, 16])
def test_lb2_open_hashmap_matches(q, tpch_db, reference):
    plan = query_plan(q, scale=TINY_SCALE)
    config = Config(hashmap="open", open_map_size=1 << 14)
    compiled = LB2Compiler(tpch_db.catalog, tpch_db, config).compile(plan)
    assert normalize(compiled.run(tpch_db)) == reference[q]


# Literal plans of every listed query, and the auto-lifted shape (what the
# session serves) of those the SQL front end accepts: Q13 and Q20 are
# served as hand-written plans only.
_CLOSURE_CASES = [(q, "literal") for q in (1, 3, 13, 18, 20)] + [
    (q, "lifted") for q in (1, 3, 18) if q in SQL_QUERIES
]


@pytest.mark.parametrize(
    "codegen", ["scalar", pytest.param("vector", marks=needs_numpy)]
)
@pytest.mark.parametrize("q,form", _CLOSURE_CASES)
def test_prepared_closures_answer_on_their_own(q, form, codegen, tpch_db):
    """Program state lives in ``prepare``'s frame: two closures of one
    program, prepared and run interleaved, each answer like Volcano."""
    if form == "literal":
        plan = query_plan(q, scale=TINY_SCALE)
        expected = execute_volcano(plan, tpch_db, tpch_db.catalog)
        args: tuple = ()
    else:
        shape = statement_shape(SQL_QUERIES[q])
        plan = sql_to_plan(shape.text, tpch_db)
        expected = execute_volcano(
            sql_to_plan(SQL_QUERIES[q], tpch_db), tpch_db, tpch_db.catalog
        )
        args = (list(shape.values),)
    config = Config(codegen=codegen)
    compiled = LB2Compiler(tpch_db.catalog, tpch_db, config).compile(plan)
    run_a = compiled.prepare(tpch_db)
    run_b = compiled.prepare(tpch_db)
    out_a: list = []
    out_b: list = []
    run_a(out_a, *args)
    run_b(out_b, *args)
    assert normalize(out_a) == normalize(expected)
    assert normalize(out_b) == normalize(expected)


# -- result-shape spot checks (domain knowledge, not just agreement) -----------


def test_q1_returns_flag_status_groups(tpch_db):
    rows = execute_push(query_plan(1), tpch_db, tpch_db.catalog)
    groups = {(r[0], r[1]) for r in rows}
    assert ("N", "O") in groups and ("R", "F") in groups and ("A", "F") in groups
    for row in rows:
        # avg_qty consistent with sum_qty / count_order
        assert row[6] == pytest.approx(row[2] / row[9])


def test_q1_sorted_by_flag_then_status(tpch_db):
    rows = execute_push(query_plan(1), tpch_db, tpch_db.catalog)
    keys = [(r[0], r[1]) for r in rows]
    assert keys == sorted(keys)


def test_q3_limit_and_descending_revenue(tpch_db):
    rows = execute_push(query_plan(3), tpch_db, tpch_db.catalog)
    assert len(rows) <= 10
    revenues = [r[1] for r in rows]
    assert revenues == sorted(revenues, reverse=True)


def test_q4_priorities_complete_and_sorted(tpch_db):
    rows = execute_push(query_plan(4), tpch_db, tpch_db.catalog)
    priorities = [r[0] for r in rows]
    assert priorities == sorted(priorities)
    assert all(n > 0 for _, n in rows)


def test_q6_single_positive_revenue(tpch_db):
    rows = execute_push(query_plan(6), tpch_db, tpch_db.catalog)
    assert len(rows) == 1
    assert rows[0][0] > 0


def test_q13_customers_sum_to_total(tpch_db):
    rows = execute_push(query_plan(13), tpch_db, tpch_db.catalog)
    assert sum(r[1] for r in rows) == tpch_db.size("customer")
    assert any(r[0] == 0 for r in rows)  # a third of customers have no orders


def test_q14_promo_share_in_percent_range(tpch_db):
    rows = execute_push(query_plan(14), tpch_db, tpch_db.catalog)
    assert len(rows) == 1
    assert 0.0 < rows[0][0] < 100.0


def test_q15_top_supplier_has_max_revenue(tpch_db):
    rows = execute_push(query_plan(15), tpch_db, tpch_db.catalog)
    assert rows, "Q15 must find at least one top supplier"
    # All returned suppliers share the same (maximal) revenue.
    assert len({round(r[4], 4) for r in rows}) == 1


def test_q18_all_orders_over_threshold(tpch_db):
    rows = execute_push(query_plan(18), tpch_db, tpch_db.catalog)
    assert all(r[5] > 300 for r in rows)


def test_q21_numwait_desc(tpch_db):
    rows = execute_push(query_plan(21), tpch_db, tpch_db.catalog)
    waits = [r[1] for r in rows]
    assert waits == sorted(waits, reverse=True)


def test_q22_codes_are_from_list(tpch_db):
    rows = execute_push(query_plan(22), tpch_db, tpch_db.catalog)
    assert rows
    assert {r[0] for r in rows} <= {"13", "31", "23", "29", "30", "18", "17"}
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)


def test_q11_value_exceeds_threshold(tpch_db):
    rows = execute_push(query_plan(11, scale=TINY_SCALE), tpch_db, tpch_db.catalog)
    assert rows
    values = [r[1] for r in rows]
    assert values == sorted(values, reverse=True)


def test_unknown_query_number():
    with pytest.raises(KeyError):
        query_plan(23)
