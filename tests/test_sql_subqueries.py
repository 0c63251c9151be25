"""Tests for SQL subqueries: EXISTS / NOT EXISTS, IN / NOT IN, scalars."""

import pytest

from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.engine import execute_push, execute_volcano
from repro.serve import QueryService, ServiceConfig, ServiceRequest
from repro.session import Session
from repro.sql import SqlPlanError, sql_to_plan
from repro.sql.parser import parse_select
from repro.sql import ast_nodes as ast
from repro.tpch.sql_queries import SQL_QUERIES
from tests.conftest import TINY_SCALE, needs_numpy, normalize


def run_sql(text, db):
    plan = sql_to_plan(text, db)
    interpreted = execute_push(plan, db, db.catalog)
    volcano = execute_volcano(plan, db, db.catalog)
    compiled = LB2Compiler(db.catalog, db).compile(plan).run(db)
    assert normalize(interpreted) == normalize(volcano) == normalize(compiled)
    return interpreted


# -- parsing -----------------------------------------------------------------------


def test_parse_exists():
    stmt = parse_select(
        "select a from t where exists (select b from u where b = a)"
    )
    assert isinstance(stmt.where, ast.Exists)
    assert not stmt.where.negate
    assert stmt.where.select.from_tables == [ast.FromTable("u", "u")]


def test_parse_not_exists():
    stmt = parse_select(
        "select a from t where not exists (select b from u where b = a)"
    )
    assert isinstance(stmt.where, ast.Exists) and stmt.where.negate


def test_parse_in_subselect():
    stmt = parse_select("select a from t where a in (select b from u)")
    assert isinstance(stmt.where, ast.InSelectOp)
    stmt = parse_select("select a from t where a not in (select b from u)")
    assert isinstance(stmt.where, ast.InSelectOp) and stmt.where.negate


def test_parse_scalar_subquery():
    stmt = parse_select("select a from t where a > (select max(b) from u)")
    assert isinstance(stmt.where.rhs, ast.ScalarSubquery)


def test_parse_subselect_inside_and():
    stmt = parse_select(
        "select a from t where a > 0 and exists (select b from u where b = a)"
    )
    assert isinstance(stmt.where, ast.BinOp) and stmt.where.op == "and"


# -- planning + execution ---------------------------------------------------------------


def test_exists_semi_join(tiny_db):
    rows = run_sql(
        "select dname from Dep where exists "
        "(select eid from Emp where edname = dname and eid < 4) order by dname",
        tiny_db,
    )
    assert [r[0] for r in rows] == ["CS", "EE"]


def test_not_exists_anti_join(tiny_db):
    rows = run_sql(
        "select dname from Dep where not exists "
        "(select eid from Emp where edname = dname and eid < 4) order by dname",
        tiny_db,
    )
    assert [r[0] for r in rows] == ["BIO", "ME"]


def test_exists_combined_with_plain_predicates(tiny_db):
    rows = run_sql(
        "select dname from Dep where rank < 10 and exists "
        "(select eid from Emp where edname = dname)",
        tiny_db,
    )
    assert {r[0] for r in rows} == {"CS", "EE", "BIO"}


def test_exists_under_aggregation(tiny_db):
    rows = run_sql(
        "select count(*) from Sales where exists "
        "(select eid from Emp where edname = sdep and eid < 3)",
        tiny_db,
    )
    assert rows == [(3,)]  # the three CS sales


def test_in_subquery(tiny_db):
    rows = run_sql(
        "select dname from Dep where dname in "
        "(select edname from Emp where eid < 4) order by dname",
        tiny_db,
    )
    assert [r[0] for r in rows] == ["CS", "EE"]


def test_not_in_subquery(tiny_db):
    rows = run_sql(
        "select dname from Dep where dname not in "
        "(select edname from Emp where eid < 4) order by dname",
        tiny_db,
    )
    assert [r[0] for r in rows] == ["BIO", "ME"]


def test_in_subquery_with_inner_aggregation(tiny_db):
    rows = run_sql(
        "select dname from Dep where dname in "
        "(select sdep from Sales group by sdep having sum(amount) > 80.0) "
        "order by dname",
        tiny_db,
    )
    assert [r[0] for r in rows] == ["CS"]


def test_scalar_subquery_comparison(tiny_db):
    rows = run_sql(
        "select sid from Sales where amount > (select avg(amount) from Sales) "
        "order by sid",
        tiny_db,
    )
    # avg = 85.125; amounts above: 100 (sid 1) and 250 (sid 2)
    assert [r[0] for r in rows] == [1, 2]


def test_scalar_subquery_on_left(tiny_db):
    rows = run_sql(
        "select sid from Sales where (select min(amount) from Sales) = amount",
        tiny_db,
    )
    assert rows == [(4,)]


def test_scalar_subquery_under_group_by(tiny_db):
    rows = run_sql(
        "select sdep, count(*) n from Sales "
        "where amount > (select avg(amount) from Sales) group by sdep",
        tiny_db,
    )
    assert rows == [("CS", 2)]


EMPTY_SCALAR = (
    "select count(*) from customer where c_acctbal > "
    "(select avg(c_acctbal) from customer where c_acctbal > 1000000.0)"
)


@pytest.mark.parametrize(
    "codegen", ["scalar", pytest.param("vector", marks=needs_numpy)]
)
def test_comparing_with_an_empty_scalar_subquery_keeps_no_row(codegen, tpch_db):
    """An empty input averages to NULL, and no comparison with NULL is
    true: the count is 0 on every engine and under either lowering."""
    plan = sql_to_plan(EMPTY_SCALAR, tpch_db)
    assert execute_push(plan, tpch_db, tpch_db.catalog) == [(0,)]
    assert execute_volcano(plan, tpch_db, tpch_db.catalog) == [(0,)]
    config = Config(codegen=codegen)
    assert LB2Compiler(tpch_db.catalog, tpch_db, config).compile(plan).run(tpch_db) == [(0,)]


def test_served_q22_with_an_empty_subquery_answers_no_group(tpch_db):
    """q22's subquery literal is lifted, so a variant whose bound no
    customer passes runs the program the canonical text compiled."""
    q22 = SQL_QUERIES[22]
    variant = q22.replace("c_acctbal > 0.0", "c_acctbal > 1000000.0")
    assert variant != q22
    config = ServiceConfig(workers=1, query_scale=TINY_SCALE)
    with QueryService(Session(tpch_db), config) as service:
        warm = service.submit(ServiceRequest(sql=q22))
        assert warm.ok and warm.rows
        reply = service.submit(ServiceRequest(sql=variant))
        assert reply.ok, reply.error
        assert reply.rows == [] and reply.engine == "compiled" and not reply.degraded
        assert service.session.cache_info()["shape_hits"] >= 1


def test_tpch_q4_in_sql_matches_plan(tpch_db):
    from repro.tpch import query_plan

    sql = """
        select o_orderpriority, count(*) as order_count
        from orders
        where o_orderdate >= date '1993-07-01'
          and o_orderdate < date '1993-07-01' + interval '3' month
          and exists (select l_orderkey from lineitem
                      where l_orderkey = o_orderkey
                        and l_commitdate < l_receiptdate)
        group by o_orderpriority
        order by o_orderpriority
    """
    got = run_sql(sql, tpch_db)
    ref = execute_push(query_plan(4, scale=TINY_SCALE), tpch_db, tpch_db.catalog)
    assert normalize(got) == normalize(ref)


# -- error cases --------------------------------------------------------------------


def test_uncorrelated_exists_rejected(tiny_db):
    with pytest.raises(SqlPlanError, match="correlate"):
        sql_to_plan(
            "select dname from Dep where exists (select eid from Emp)", tiny_db
        )


def test_exists_with_group_by_rejected(tiny_db):
    with pytest.raises(SqlPlanError, match="plain filtered"):
        sql_to_plan(
            "select dname from Dep where exists "
            "(select count(*) from Emp where edname = dname group by edname)",
            tiny_db,
        )


def test_in_subquery_multi_column_rejected(tiny_db):
    with pytest.raises(SqlPlanError, match="exactly one column"):
        sql_to_plan(
            "select dname from Dep where dname in (select edname, eid from Emp)",
            tiny_db,
        )


def test_in_subquery_requires_column_term(tiny_db):
    with pytest.raises(SqlPlanError, match="plain column"):
        sql_to_plan(
            "select dname from Dep where rank + 1 in (select eid from Emp)",
            tiny_db,
        )


def test_scalar_subquery_with_group_by_rejected(tiny_db):
    with pytest.raises(SqlPlanError, match="single row"):
        sql_to_plan(
            "select dname from Dep where rank > "
            "(select count(*) from Emp group by edname)",
            tiny_db,
        )


def test_nested_exists_rejected(tiny_db):
    with pytest.raises(SqlPlanError, match="nested"):
        sql_to_plan(
            "select dname from Dep where exists ("
            "  select eid from Emp where edname = dname and exists ("
            "    select sid from Sales where sdep = edname))",
            tiny_db,
        )
