"""Unit tests for the cost-based optimizer internals."""

import pytest

from repro.catalog import Catalog, FLOAT, INT, STRING
from repro.catalog.schema import schema
from repro.engine import execute_push
from repro.plan import physical as phys
from repro.plan.expressions import And, InList, Like, col, count, lit, sum_
from repro.plan.optimizer import (
    OptimizeError,
    QueryBlock,
    Relation,
    estimated_rows,
    order_joins,
    plan_block,
)
from repro.storage import Database


@pytest.fixture
def star_db():
    """A small star schema: facts referencing two dimensions."""
    dims = schema("dim_a", ("a_id", INT), ("a_name", STRING))
    dimb = schema("dim_b", ("b_id", INT), ("b_name", STRING))
    facts = schema("facts", ("f_id", INT), ("f_a", INT), ("f_b", INT), ("f_v", FLOAT))
    db = Database(Catalog())
    db.add_rows(dims, [(i, f"a{i}") for i in range(10)])
    db.add_rows(dimb, [(i, f"b{i}") for i in range(4)])
    db.add_rows(
        facts,
        [(i, i % 10, i % 4, float(i)) for i in range(200)],
    )
    return db


def _rel(alias, table, filters=()):
    return Relation(alias, table, list(filters))


def test_estimated_rows_no_filters(star_db):
    assert estimated_rows(_rel("f", "facts"), star_db) == 200.0


def test_estimated_rows_equality_filter(star_db):
    rel = _rel("f", "facts", [col("f.f_a").eq(3)])
    est = estimated_rows(rel, star_db)
    assert est == pytest.approx(200 / 10)


def test_estimated_rows_range_filter(star_db):
    rel = _rel("f", "facts", [col("f.f_v").lt(99.5)])
    est = estimated_rows(rel, star_db)
    assert 80 <= est <= 120  # ~half of the 0..199 span


def test_estimated_rows_in_list(star_db):
    rel = _rel("f", "facts", [InList(col("f.f_a"), (1, 2))])
    assert estimated_rows(rel, star_db) == pytest.approx(200 * 2 / 10)


def test_estimated_rows_like_default(star_db):
    rel = _rel("a", "dim_a", [Like(col("a.a_name"), "a%")])
    assert estimated_rows(rel, star_db) == pytest.approx(1.0)


def test_estimated_rows_floor_at_one(star_db):
    rel = _rel(
        "a", "dim_a", [col("a.a_id").eq(1), col("a.a_id").eq(2), col("a.a_id").eq(3)]
    )
    assert estimated_rows(rel, star_db) >= 1.0


def test_order_joins_builds_on_small_side(star_db):
    block = QueryBlock(
        relations=[_rel("f", "facts"), _rel("b", "dim_b")],
        join_edges=[("f.f_b", "b.b_id")],
        extra_columns=["f.f_v", "b.b_name"],
    )
    plan = order_joins(block, star_db, star_db.catalog)

    def find_join(node):
        if isinstance(node, phys.HashJoin):
            return node
        for child in node.children():
            found = find_join(child)
            if found:
                return found
        return None

    join = find_join(plan)
    assert join is not None
    # the 4-row dimension is the build (left) side
    left_tables = set()

    def collect_tables(node, acc):
        if isinstance(node, phys.Scan):
            acc.add(node.table)
        for child in node.children():
            collect_tables(child, acc)

    collect_tables(join.left, left_tables)
    assert left_tables == {"dim_b"}


def test_order_joins_three_relations(star_db):
    block = QueryBlock(
        relations=[_rel("f", "facts"), _rel("a", "dim_a"), _rel("b", "dim_b")],
        join_edges=[("f.f_a", "a.a_id"), ("f.f_b", "b.b_id")],
        extra_columns=["f.f_v"],
    )
    plan = order_joins(block, star_db, star_db.catalog)
    rows = execute_push(plan, star_db, star_db.catalog)
    assert len(rows) == 200  # FK joins preserve fact cardinality


def test_order_joins_rejects_cross_product(star_db):
    block = QueryBlock(
        relations=[_rel("a", "dim_a"), _rel("b", "dim_b")],
        join_edges=[],
    )
    with pytest.raises(OptimizeError, match="cross product"):
        order_joins(block, star_db, star_db.catalog)


def test_plan_block_full_pipeline(star_db):
    block = QueryBlock(
        relations=[_rel("f", "facts", [col("f.f_v").ge(100.0)]), _rel("b", "dim_b")],
        join_edges=[("f.f_b", "b.b_id")],
        keys=[("name", col("b.b_name"))],
        aggs=[("n", count()), ("total", sum_(col("f.f_v")))],
        outputs=[("name", col("name")), ("n", col("n")), ("total", col("total"))],
        order_by=[("n", False)],
        limit=2,
    )
    plan = plan_block(block, star_db, star_db.catalog)
    rows = execute_push(plan, star_db, star_db.catalog)
    assert len(rows) == 2
    assert rows[0][1] >= rows[1][1]


def test_plan_block_base_override(star_db):
    """The base hook substitutes a prebuilt join tree (subquery grafting)."""
    block = QueryBlock(
        relations=[_rel("f", "facts")],
        join_edges=[],
        keys=[],
        aggs=[("n", count())],
        outputs=[("n", col("n"))],
    )
    base = phys.Select(
        phys.Scan("facts", rename={c.name: f"f.{c.name}" for c in star_db.catalog.table("facts").columns}),
        col("f.f_id").lt(10),
    )
    plan = plan_block(block, star_db, star_db.catalog, base=base)
    assert execute_push(plan, star_db, star_db.catalog) == [(10,)]


def test_projection_pruning_keeps_extra_columns(star_db):
    block = QueryBlock(
        relations=[_rel("f", "facts"), _rel("b", "dim_b")],
        join_edges=[("f.f_b", "b.b_id")],
        extra_columns=["f.f_v"],
    )
    plan = order_joins(block, star_db, star_db.catalog)
    assert "f.f_v" in plan.field_names(star_db.catalog)


# -- join estimates and probe order -------------------------------------------


def _tables(node, acc=None):
    acc = set() if acc is None else acc
    if isinstance(node, phys.Scan):
        acc.add(node.table)
    for child in node.children():
        _tables(child, acc)
    return acc


def _spines(node):
    """Every probe spine: (base tables, [build tables, bottom first])."""
    out = []
    if isinstance(node, phys.HashJoin):
        builds = []
        while isinstance(node, phys.HashJoin):
            builds.append(node)
            node = node.right
        out.append((_tables(node), [_tables(j.left) for j in reversed(builds)]))
        for join in builds:
            out.extend(_spines(join.left))
        out.extend(_spines(node))
        return out
    for child in node.children():
        out.extend(_spines(child))
    return out


@pytest.fixture
def composite_db():
    """A fact table on a composite (part, supplier) key of a link table
    whose key columns' distinct counts multiply past both tables' rows."""
    link = schema("link", ("k_p", INT), ("k_s", INT), ("k_cost", FLOAT))
    fact = schema("fact", ("x_p", INT), ("x_s", INT), ("x_v", FLOAT))
    pairs = [(p, (p + 10 * k) % 20) for p in range(40) for k in range(2)]
    db = Database(Catalog())
    db.add_rows(link, [(p, s, 1.0) for p, s in pairs])
    db.add_rows(fact, [(*pairs[i % len(pairs)], float(i)) for i in range(300)])
    return db


def test_composite_key_estimate_caps_each_relation_at_its_rows(composite_db):
    """(x_p, x_s) = (k_p, k_s): 40 x 20 = 800 distinct-count product, but
    the link table has 80 rows and the facts 300, so the larger side holds
    at most 300 distinct keys -- not 800, which would estimate 30 rows for
    a join where every fact row matches."""
    from repro.plan.optimizer import _join_result_estimate

    relations = {"x": _rel("x", "fact"), "k": _rel("k", "link")}
    edges = [("x.x_p", "k.k_p"), ("x.x_s", "k.k_s")]
    estimate = _join_result_estimate(300.0, 80.0, edges, composite_db, relations)
    assert estimate == pytest.approx(300 * 80 / 300)
    # a one-column key keeps the larger distinct count as its divisor
    one = _join_result_estimate(300.0, 80.0, edges[:1], composite_db, relations)
    assert one == pytest.approx(300 * 80 / 40)


@pytest.fixture
def snowflake_db():
    """Facts over a 2-row dimension ``b`` (keyed into ``c``) and a
    100-row dimension ``a`` that a filter makes selective."""
    dima = schema("dim_a", ("a_id", INT), ("a_name", STRING))
    dimb = schema("dim_b", ("b_id", INT), ("b_c", INT))
    dimc = schema("dim_c", ("c_id", INT), ("c_name", STRING))
    facts = schema("facts", ("f_id", INT), ("f_a", INT), ("f_b", INT))
    db = Database(Catalog())
    db.add_rows(dima, [(i, f"a{i}") for i in range(100)])
    db.add_rows(dimb, [(0, 3), (1, 70)])
    db.add_rows(dimc, [(i, f"c{i}") for i in range(100)])
    db.add_rows(facts, [(i, i % 100, i % 2) for i in range(400)])
    return db


def _bag(plan, db):
    """``plan``'s rows as a sorted list of name -> value records: probe
    order changes a join chain's field order, not its rows."""
    names = plan.field_names(db.catalog)
    rows = execute_push(plan, db, db.catalog)
    return sorted(sorted(zip(names, row)) for row in rows)


def _unordered(monkeypatch):
    from repro.plan import optimizer

    monkeypatch.setattr(optimizer, "_probe_order", lambda plan, *_: plan)


def test_probe_order_probes_the_selective_build_first(snowflake_db, monkeypatch):
    """Greedy order starts from the smallest input (``b``), so facts probe
    ``b`` (every row matches) before the 5 %-selective ``a``; the probe
    order rule swaps them, keeping each join's build side."""
    block = QueryBlock(
        relations=[
            _rel("f", "facts"),
            _rel("a", "dim_a", [col("a.a_id").lt(5)]),
            _rel("b", "dim_b"),
        ],
        join_edges=[("f.f_a", "a.a_id"), ("f.f_b", "b.b_id")],
        extra_columns=["f.f_id", "a.a_name"],
    )
    plan = order_joins(block, snowflake_db, snowflake_db.catalog)
    assert _spines(plan)[0] == ({"facts"}, [{"dim_a"}, {"dim_b"}])
    _unordered(monkeypatch)
    before = order_joins(block, snowflake_db, snowflake_db.catalog)
    assert _spines(before)[0] == ({"facts"}, [{"dim_b"}, {"dim_a"}])
    rows = _bag(plan, snowflake_db)
    assert rows == _bag(before, snowflake_db) and len(rows) == 20


def test_probe_order_keeps_a_build_above_the_build_its_key_comes_from(
    snowflake_db,
):
    """``c`` is the most selective build of the spine, but its probe key
    ``b_c`` is a field of the ``b`` build, so it stays above ``b``; ``a``,
    keyed from the facts, moves down to the bottom."""
    from repro.plan.optimizer import _probe_order

    def scan(table, alias):
        columns = snowflake_db.catalog.table(table).columns
        return phys.Scan(table, rename={c.name: f"{alias}.{c.name}" for c in columns})

    facts, dim_b = scan("facts", "f"), scan("dim_b", "b")
    dim_c = phys.Select(scan("dim_c", "c"), col("c.c_id").lt(5))
    dim_a = phys.Select(scan("dim_a", "a"), col("a.a_id").lt(5))
    by_b = phys.HashJoin(dim_b, facts, ("b.b_id",), ("f.f_b",))
    by_c = phys.HashJoin(dim_c, by_b, ("c.c_id",), ("b.b_c",))
    by_a = phys.HashJoin(dim_a, by_c, ("a.a_id",), ("f.f_a",))
    matches = {id(by_b): 1.0, id(by_c): 0.05, id(by_a): 0.05}
    aliases = {
        id(facts): frozenset({"f"}), id(dim_b): frozenset({"b"}),
        id(dim_c): frozenset({"c"}), id(dim_a): frozenset({"a"}),
    }
    plan = _probe_order(by_a, matches, aliases)
    assert _spines(plan) == [
        ({"facts"}, [{"dim_a"}, {"dim_b"}, {"dim_c"}])
    ]
    rows = _bag(plan, snowflake_db)
    assert rows == _bag(by_a, snowflake_db) and len(rows) == 12
