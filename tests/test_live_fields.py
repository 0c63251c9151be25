"""Field liveness over the physical plan, and the narrowed materializations
it gives both lowerings: a join build, a sort buffer and a row tuple store
only the fields some consumer past them reads."""

import gc
import re

import pytest

from repro.catalog import Catalog, FLOAT, INT, STRING
from repro.catalog.schema import schema
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.engine import execute_volcano
from repro.plan import (
    Agg,
    AntiJoin,
    Distinct,
    GroupJoin,
    HashJoin,
    IndexJoin,
    LeftOuterJoin,
    Limit,
    Project,
    Scan,
    Select,
    SemiJoin,
    Sort,
    col,
    count,
    lit,
    sum_,
)
from repro.plan.physical import live_fields
from repro.session import Session
from repro.tpch import query_plan
from repro.tpch.sql_queries import SQL_QUERIES
from tests.conftest import TINY_SCALE, needs_numpy, normalize


@pytest.fixture
def cat():
    return Catalog(
        [
            schema("t", ("a", INT), ("b", STRING), ("v", FLOAT), pk=["a"]),
            schema("u", ("x", INT), ("y", STRING), ("z", FLOAT)),
        ]
    )


def _live(plan, cat, node):
    return set(live_fields(plan, cat)[id(node)])


def test_the_root_reads_every_field_and_a_join_side_only_what_passes_it(cat):
    t, u = Scan("t"), Scan("u")
    join = HashJoin(t, u, "a", "x")
    plan = Project(join, [("y", col("y")), ("w", col("v") * lit(2.0))])
    live = live_fields(plan, cat)
    assert live[id(plan)] == {"y", "w"}
    assert live[id(join)] == {"y", "v"}
    assert live[id(t)] == {"a", "v"}  # its key, and what the projection reads
    assert live[id(u)] == {"x", "y"}


def test_a_dead_projection_output_reads_nothing(cat):
    inner = Project(Scan("t"), [("a", col("a")), ("w", col("v") * lit(2.0))])
    plan = Project(inner, [("a", col("a"))])
    assert _live(plan, cat, inner) == {"a"}
    assert _live(plan, cat, inner.child) == {"a"}


def test_select_sort_limit_and_distinct(cat):
    scan = Scan("t")
    sel = Select(scan, col("v").gt(1.0))
    proj = Project(sel, [("a", col("a"))])
    assert _live(proj, cat, scan) == {"a", "v"}
    sort = Sort(Scan("t"), [("v", False)])
    top = Project(Limit(sort, 3), [("a", col("a"))])
    assert _live(top, cat, sort) == {"a"}
    assert _live(top, cat, sort.child) == {"a", "v"}
    distinct = Distinct(Scan("t"))
    plan = Project(distinct, [("a", col("a"))])
    assert _live(plan, cat, distinct.child) == {"a", "b", "v"}


def test_aggregates_and_key_set_joins_read_only_their_own_fields(cat):
    right = Scan("u")
    semi = SemiJoin(Scan("t"), right, "a", "x")
    agg = Agg(semi, [("b", col("b"))], [("n", count()), ("s", sum_(col("v")))])
    live = live_fields(agg, cat)
    assert live[id(semi)] == {"b", "v"}
    assert live[id(semi.left)] == {"a", "b", "v"}
    assert live[id(right)] == {"x"}
    anti = AntiJoin(Scan("t"), Scan("u"), "a", "x")
    plan = Project(anti, [("b", col("b"))])
    assert _live(plan, cat, anti.right) == {"x"}


def test_outer_group_and_index_joins(cat):
    outer = LeftOuterJoin(Scan("t"), Scan("u"), "a", "x")
    plan = Agg(outer, [("b", col("b"))], [("n", count())])
    assert _live(plan, cat, outer.right) == {"x"}
    gj = GroupJoin(Scan("t"), Scan("u"), "a", "x", [("s", sum_(col("z")))])
    plan = Project(gj, [("s", col("s"))])
    assert _live(plan, cat, gj.left) == {"a"}
    assert _live(plan, cat, gj.right) == {"x", "z"}
    ij = IndexJoin(Scan("u"), "t", "a", "x", residual=col("v").gt(col("z")))
    plan = Project(ij, [("b", col("b"))])
    assert _live(plan, cat, ij.child) == {"x", "z"}


def test_a_shared_subplan_keeps_what_any_consumer_reads(cat):
    shared = Scan("u")
    left = Project(shared, [("y", col("y")), ("x", col("x"))])
    right = Project(shared, [("zz", col("z")), ("xx", col("x"))])
    plan = Project(HashJoin(left, right, "x", "xx"), [("y", col("y")), ("zz", col("zz"))])
    assert _live(plan, cat, shared) == {"x", "y", "z"}


def test_the_analysis_leaves_no_cyclic_garbage():
    """A compile's liveness map is freed with it, not at the next
    collection (one iterative walk, no recursive closure)."""
    plan = query_plan(9, scale=TINY_SCALE)
    from repro.tpch.dbgen import generate_database

    catalog = generate_database(0.001).catalog
    gc.collect()
    gc.disable()
    try:
        live_fields(plan, catalog)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _build_widths(source: str) -> list[int]:
    return [int(m) for m in re.findall(r"join_finish\(\w+, \d+, (\d+)", source)]


@needs_numpy
def test_q9_builds_store_only_the_fields_read_past_them(tpch_db):
    """The SQL q9 a session serves built 2/4/1/11/14 payload columns
    before the liveness pass; its probes now gather only these."""
    session = Session(tpch_db, Config(codegen="vector"))
    assert _build_widths(session.prepare(SQL_QUERIES[9]).source) == [1, 1, 0, 5, 5]


@pytest.mark.parametrize("codegen", ["scalar", "vector"])
@pytest.mark.parametrize("layout", ["row", "column"])
def test_narrowed_programs_answer_as_the_interpreter(tpch_db, codegen, layout):
    if codegen == "vector":
        pytest.importorskip("numpy")
    for q in (3, 9, 10, 13, 18):
        plan = query_plan(q, scale=TINY_SCALE)
        config = Config(codegen=codegen, sort_layout=layout)
        rows = LB2Compiler(tpch_db.catalog, tpch_db, config).compile(plan).run(tpch_db)
        expected = execute_volcano(plan, tpch_db, tpch_db.catalog)
        assert normalize(rows) == normalize(expected), q
