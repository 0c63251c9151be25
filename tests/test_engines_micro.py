"""Micro-query tests run against ALL FOUR engines on the tiny database.

Each case states the expected rows explicitly (hand-computed), so these
tests anchor absolute correctness; the TPC-H differential tests then anchor
cross-engine agreement at scale.

The NULL sources -- an outer join's null-extended side, an empty global
aggregate under a Select or a Project, a declared-nullable STRING column,
a GroupJoin's unmatched left rows -- also run on the vector lowering
where NumPy imports, and the loader's refusals of data that breaks a
column's declaration are checked here too.
"""

import pytest

from repro.catalog import BOOL, DATE, FLOAT, INT, STRING, Catalog
from repro.catalog.schema import Column, SchemaError, schema
from repro.compiler.runtime import have_numpy
from repro.plan import GroupJoin, Substring
from repro.plan.expressions import IsNotNull
from repro.storage import Database, OptimizationLevel

from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.compiler.template import execute_template
from repro.engine import execute_push, execute_volcano
from repro.plan import (
    Agg,
    AntiJoin,
    Between,
    Case,
    Distinct,
    HashJoin,
    IndexJoin,
    LeftOuterJoin,
    Like,
    Limit,
    Project,
    Scan,
    Select,
    SemiJoin,
    Sort,
    avg,
    col,
    count,
    count_col,
    count_distinct,
    lit,
    max_,
    min_,
    sum_,
)
from repro.sql import sql_to_plan
from tests.conftest import normalize


def run_all(plan, db):
    """Execute on all four engines; assert agreement; return one result."""
    cat = db.catalog
    volcano = execute_volcano(plan, db, cat)
    push = execute_push(plan, db, cat)
    template = execute_template(plan, db, cat)
    compiled = LB2Compiler(cat, db).compile(plan).run(db)
    assert normalize(volcano) == normalize(push) == normalize(template) == normalize(compiled)
    return volcano


def test_scan(tiny_db):
    rows = run_all(Scan("Dep"), tiny_db)
    assert normalize(rows) == normalize(
        [("CS", 1), ("EE", 5), ("ME", 20), ("BIO", 7)]
    )


def test_scan_rename(tiny_db):
    plan = Scan("Dep", rename={"dname": "d", "rank": "r"})
    assert plan.field_names(tiny_db.catalog) == ["d", "r"]
    assert len(run_all(plan, tiny_db)) == 4


def test_select(tiny_db):
    rows = run_all(Select(Scan("Dep"), col("rank").lt(10)), tiny_db)
    assert normalize(rows) == normalize([("CS", 1), ("EE", 5), ("BIO", 7)])


def test_select_conjunction(tiny_db):
    plan = Select(Scan("Sales"), Between(col("amount"), 30.0, 200.0))
    rows = run_all(plan, tiny_db)
    assert {r[0] for r in rows} == {1, 3, 5, 6}


def test_project_computation(tiny_db):
    plan = Project(
        Select(Scan("Sales"), col("sid").eq(1)),
        [("doubled", col("amount") * lit(2.0)), ("dep", col("sdep"))],
    )
    assert run_all(plan, tiny_db) == [(200.0, "CS")]


def test_hash_join(tiny_db):
    plan = HashJoin(
        Select(Scan("Dep"), col("rank").lt(10)),
        Scan("Emp"),
        ("dname",),
        ("edname",),
    )
    rows = run_all(plan, tiny_db)
    assert len(rows) == 5  # CS x3, EE x1, BIO x1
    assert all(r[0] == r[3] for r in rows)


def test_hash_join_composite_key(tiny_db):
    left = Project(Scan("Sales"), [("k1", col("sdep")), ("k2", col("sid")), ("amt", col("amount"))])
    right = Project(Scan("Sales"), [("r1", col("sdep")), ("r2", col("sid"))])
    plan = HashJoin(left, right, ("k1", "k2"), ("r1", "r2"))
    rows = run_all(plan, tiny_db)
    assert len(rows) == 6  # exactly the diagonal


def test_left_outer_join_fills_none(tiny_db):
    plan = LeftOuterJoin(
        Scan("Dep"),
        Project(Select(Scan("Emp"), col("eid").lt(4)), [("edname", col("edname")), ("eid", col("eid"))]),
        ("dname",),
        ("edname",),
    )
    rows = run_all(plan, tiny_db)
    unmatched = [r for r in rows if r[2] is None]
    assert {r[0] for r in unmatched} == {"ME", "BIO"}
    assert len(rows) == 5  # CS x2 (eids 1,2), EE x1 (eid 3), ME null, BIO null


def test_semi_join(tiny_db):
    plan = SemiJoin(Scan("Dep"), Scan("Emp"), ("dname",), ("edname",))
    rows = run_all(plan, tiny_db)
    assert {r[0] for r in rows} == {"CS", "EE", "ME", "BIO"}


def test_anti_join(tiny_db):
    emp = Select(Scan("Emp"), col("eid").lt(4))
    plan = AntiJoin(Scan("Dep"), emp, ("dname",), ("edname",))
    rows = run_all(plan, tiny_db)
    assert {r[0] for r in rows} == {"ME", "BIO"}


def test_index_join_unique(tiny_db_full):
    plan = Project(
        IndexJoin(Scan("Emp"), table="Dep", table_key="dname", child_key="edname"),
        [("eid", col("eid")), ("rank", col("rank"))],
    )
    rows = run_all(plan, tiny_db_full)
    assert len(rows) == 6


def test_index_join_non_unique(tiny_db_full):
    plan = IndexJoin(
        Scan("Dep"), table="Emp", table_key="edname", child_key="dname", unique=False
    )
    rows = run_all(plan, tiny_db_full)
    assert len(rows) == 6


def test_index_join_residual(tiny_db_full):
    plan = IndexJoin(
        Scan("Emp"),
        table="Dep",
        table_key="dname",
        child_key="edname",
        residual=col("rank").lt(6),
    )
    rows = run_all(plan, tiny_db_full)
    assert len(rows) == 4  # CS x3 + EE x1


def test_group_by_count(tiny_db):
    plan = Agg(Scan("Emp"), [("edname", col("edname"))], [("n", count())])
    rows = run_all(plan, tiny_db)
    assert normalize(rows) == normalize(
        [("CS", 3), ("EE", 1), ("ME", 1), ("BIO", 1)]
    )


def test_group_by_many_aggs(tiny_db):
    plan = Agg(
        Scan("Sales"),
        [("sdep", col("sdep"))],
        [
            ("total", sum_(col("amount"))),
            ("n", count()),
            ("lo", min_(col("amount"))),
            ("hi", max_(col("amount"))),
            ("mean", avg(col("amount"))),
        ],
    )
    rows = run_all(plan, tiny_db)
    by_dep = {r[0]: r[1:] for r in rows}
    assert by_dep["CS"] == pytest.approx((392.0, 3, 42.0, 250.0, 392.0 / 3))
    assert by_dep["EE"] == pytest.approx((75.5, 1, 75.5, 75.5, 75.5))


def test_global_agg(tiny_db):
    plan = Agg(Scan("Sales"), [], [("total", sum_(col("amount"))), ("n", count())])
    rows = run_all(plan, tiny_db)
    assert rows[0] == pytest.approx((510.75, 6))


def test_global_agg_empty_input(tiny_db):
    plan = Agg(
        Select(Scan("Sales"), col("amount").gt(1e9)),
        [],
        [("total", sum_(col("amount"))), ("n", count()), ("m", min_(col("amount")))],
    )
    rows = run_all(plan, tiny_db)
    assert rows == [(None, 0, None)]


def test_null_guarded_projection_over_empty_agg(tiny_db):
    inner = Agg(
        Select(Scan("Sales"), col("amount").gt(1e9)),
        [],
        [("total", sum_(col("amount")))],
    )
    plan = Project(inner, [("ratio", col("total") / lit(7.0))])
    rows = run_all(plan, tiny_db)
    assert rows == [(None,)]


def test_count_distinct(tiny_db):
    plan = Agg(Scan("Emp"), [], [("deps", count_distinct(col("edname")))])
    assert run_all(plan, tiny_db) == [(4,)]


def test_count_col_skips_none(tiny_db):
    outer = LeftOuterJoin(
        Scan("Dep"),
        Project(Select(Scan("Emp"), col("eid").lt(4)), [("edname", col("edname")), ("eid", col("eid"))]),
        ("dname",),
        ("edname",),
    )
    plan = Agg(outer, [("dname", col("dname"))], [("n", count_col(col("eid")))])
    rows = dict(run_all(plan, tiny_db))
    assert rows == {"CS": 2, "EE": 1, "ME": 0, "BIO": 0}


def test_case_in_aggregate(tiny_db):
    plan = Agg(
        Scan("Sales"),
        [],
        [
            ("big", sum_(Case(col("amount").gt(50.0), lit(1), lit(0)))),
            ("small", sum_(Case(col("amount").le(50.0), lit(1), lit(0)))),
        ],
    )
    assert run_all(plan, tiny_db) == [(3, 3)]


def test_sort_asc_desc(tiny_db):
    plan = Sort(Scan("Dep"), [("rank", False)])
    rows = run_all(plan, tiny_db)
    assert [r[1] for r in rows] == [20, 7, 5, 1]
    plan = Sort(Scan("Dep"), [("dname", True)])
    rows = run_all(plan, tiny_db)
    assert [r[0] for r in rows] == ["BIO", "CS", "EE", "ME"]


def test_sort_multi_key_mixed_direction(tiny_db):
    plan = Sort(
        Project(Scan("Emp"), [("edname", col("edname")), ("eid", col("eid"))]),
        [("edname", True), ("eid", False)],
    )
    rows = run_all(plan, tiny_db)
    assert rows[0] == ("BIO", 5)
    cs_rows = [r for r in rows if r[0] == "CS"]
    assert [r[1] for r in cs_rows] == [6, 2, 1]


def test_limit(tiny_db):
    plan = Limit(Sort(Scan("Dep"), [("rank", True)]), 2)
    rows = run_all(plan, tiny_db)
    assert [r[0] for r in rows] == ["CS", "EE"]


def test_limit_zero(tiny_db):
    assert run_all(Limit(Scan("Dep"), 0), tiny_db) == []


def test_limit_beyond_input(tiny_db):
    assert len(run_all(Limit(Scan("Dep"), 100), tiny_db)) == 4


def test_distinct(tiny_db):
    plan = Distinct(Project(Scan("Emp"), [("edname", col("edname"))]))
    rows = run_all(plan, tiny_db)
    assert sorted(rows) == [("BIO",), ("CS",), ("EE",), ("ME",)]


def test_like_on_select(tiny_db):
    plan = Select(Scan("Dep"), Like(col("dname"), "B%"))
    assert run_all(plan, tiny_db) == [("BIO", 7)]


def test_deep_pipeline(tiny_db):
    plan = Limit(
        Sort(
            Agg(
                HashJoin(
                    Select(Scan("Dep"), col("rank").lt(25)),
                    Project(
                        Scan("Sales"),
                        [("sdep2", col("sdep")), ("amount", col("amount"))],
                    ),
                    ("dname",),
                    ("sdep2",),
                ),
                [("dname", col("dname"))],
                [("total", sum_(col("amount")))],
            ),
            [("total", False)],
        ),
        2,
    )
    rows = run_all(plan, tiny_db)
    assert rows[0][0] == "CS"
    assert rows[0][1] == pytest.approx(392.0)


def test_compiled_hoisted_mode_matches(tiny_db):
    plan = Agg(Scan("Emp"), [("edname", col("edname"))], [("n", count())])
    compiled = LB2Compiler(tiny_db.catalog, tiny_db).compile(plan)
    assert "def prepare(db):" in compiled.source
    assert "def run(out):" in compiled.source
    out: list = []
    compiled.prepare(tiny_db)(out)
    assert normalize(out) == normalize(execute_push(plan, tiny_db, tiny_db.catalog))
    assert normalize(compiled.run(tiny_db)) == normalize(out)


def test_compiled_no_hoist_config(tiny_db):
    plan = Agg(Scan("Emp"), [("edname", col("edname"))], [("n", count())])
    compiler = LB2Compiler(tiny_db.catalog, tiny_db, Config(hoist=False))
    assert normalize(compiler.compile(plan).run(tiny_db)) == normalize(
        execute_push(plan, tiny_db, tiny_db.catalog)
    )


def test_compiled_open_hashmap(tiny_db):
    plan = Agg(
        Scan("Sales"),
        [("sdep", col("sdep"))],
        [("total", sum_(col("amount"))), ("n", count())],
    )
    compiler = LB2Compiler(tiny_db.catalog, tiny_db, Config(hashmap="open", open_map_size=16))
    got = compiler.compile(plan).run(tiny_db)
    assert normalize(got) == normalize(execute_push(plan, tiny_db, tiny_db.catalog))


def test_open_hashmap_probe_wraps_from_the_last_slot():
    """Integer keys hash to themselves, so 7 and 15 both land in the last
    of 8 slots whatever PYTHONHASHSEED is: the second must probe
    ``(7 + 1) % 8 == 0``, not ``7 + 1 % 8 == 8`` (an IndexError)."""
    from repro.catalog import INT, Catalog
    from repro.catalog.schema import schema
    from repro.storage import Database

    db = Database(Catalog())
    db.add_rows(schema("T", ("k", INT)), [(7,), (15,), (7,), (0,)])
    plan = Agg(Scan("T"), [("k", col("k"))], [("n", count())])
    compiler = LB2Compiler(db.catalog, db, Config(hashmap="open", open_map_size=8))
    compiled = compiler.compile(plan)
    assert "% 8" in compiled.source
    assert normalize(compiled.run(db)) == normalize([(0, 1), (7, 2), (15, 1)])


def test_compiled_source_has_no_operator_dispatch(tiny_db):
    """The residual program must not contain engine abstractions."""
    plan = Select(Scan("Dep"), col("rank").lt(10))
    source = LB2Compiler(tiny_db.catalog, tiny_db).compile(plan).source
    for forbidden in ("exec(", "Record", "HashJoin", "eval(", "Op("):
        assert forbidden not in source


# -- NULL sources: every engine and both lowerings ---------------------------------


def run_five(plan, db):
    """:func:`run_all`, plus the vector lowering where NumPy imports."""
    rows = run_all(plan, db)
    if have_numpy():
        vector = LB2Compiler(db.catalog, db, Config(codegen="vector")).compile(plan)
        assert normalize(vector.run(db)) == normalize(rows)
    return rows


def _sales_over_50():
    """Sales 1, 2 and 3 (amounts above 50), keyed by ``sid``."""
    return Project(
        Select(Scan("Sales"), col("amount").gt(lit(50.0))),
        [("sid", col("sid")), ("amount", col("amount"))],
    )


def test_arithmetic_on_an_outer_joins_null_extended_field(tiny_db):
    """``amount * 2`` and ``sid + 1`` over the null-extended side are None
    on the unmatched rows, not a TypeError; ``eid`` stays unguarded."""
    outer = LeftOuterJoin(Scan("Emp"), _sales_over_50(), ["eid"], ["sid"])
    plan = Project(outer, [
        ("eid", col("eid")), ("twice", col("amount") * lit(2.0)),
        ("next", col("sid") + lit(1)),
    ])
    assert plan.null_refs(tiny_db.catalog) == [(), ("amount",), ("sid",)]
    assert normalize(run_five(plan, tiny_db)) == normalize([
        (1, 200.0, 2), (2, 500.0, 3), (3, 151.0, 4),
        (4, None, None), (5, None, None), (6, None, None),
    ])
    # ``None != 2`` holds, so a ``!=`` filter keeps the unmatched rows and
    # leaves ``sid`` nullable: ``sid + 1`` stays guarded
    kept = Project(Select(outer, col("sid").ne(lit(2))), [
        ("eid", col("eid")), ("next", col("sid") + lit(1)),
    ])
    assert kept.null_refs(tiny_db.catalog) == [(), ("sid",)]
    assert normalize(run_five(kept, tiny_db)) == normalize([
        (1, 2), (3, 4), (4, None), (5, None), (6, None),
    ])


def _empty_total():
    return Agg(
        Select(Scan("Sales"), col("amount").gt(1e9)),
        [],
        [("total", sum_(col("amount"))), ("n", count())],
    )


def test_a_project_over_a_select_above_an_empty_global_aggregate(tiny_db):
    plan = Project(
        Select(_empty_total(), col("n").ge(lit(0))),
        [("plus", col("total") + lit(1.0)), ("n", col("n"))],
    )
    assert run_five(plan, tiny_db) == [(None, 0)]


def test_a_project_over_a_project_above_an_empty_global_aggregate(tiny_db):
    inner = Project(_empty_total(), [("t", col("total")), ("n", col("n"))])
    plan = Project(inner, [("half", col("t") / lit(2.0)), ("n1", col("n") + lit(1))])
    assert run_five(plan, tiny_db) == [(None, 1)]


def _emp_sales(suffix: str):
    """Emp's ``eid`` and its Sales ``sid`` over 50 (None for eid 4-6),
    renamed with ``suffix``: a join key that is NULL on three rows."""
    outer = LeftOuterJoin(Scan("Emp"), _sales_over_50(), ["eid"], ["sid"])
    return Project(outer, [("eid" + suffix, col("eid")), ("sid" + suffix, col("sid"))])


def test_a_null_join_key_matches_nothing(tiny_db):
    """``None = None`` is not true in SQL: the three NULL keys on each
    side meet no row (SQL gives 3 rows, not 3 + 3 x 3)."""
    plan = HashJoin(_emp_sales("a"), _emp_sales("b"), ["sida"], ["sidb"])
    assert normalize(run_five(plan, tiny_db)) == normalize([
        (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3),
    ])


def test_a_null_semi_join_key_has_no_match(tiny_db):
    plan = SemiJoin(_emp_sales("a"), _emp_sales("b"), ["sida"], ["sidb"])
    assert normalize(run_five(plan, tiny_db)) == normalize([(1, 1), (2, 2), (3, 3)])


def test_a_null_anti_join_key_keeps_its_row(tiny_db):
    """NOT EXISTS semantics: no right row equals a NULL key, so the left
    rows holding one are kept."""
    plan = AntiJoin(_emp_sales("a"), _emp_sales("b"), ["sida"], ["sidb"])
    assert normalize(run_five(plan, tiny_db)) == normalize([
        (4, None), (5, None), (6, None),
    ])


def test_a_null_outer_join_key_is_null_extended(tiny_db):
    plan = LeftOuterJoin(_emp_sales("a"), _emp_sales("b"), ["sida"], ["sidb"])
    assert normalize(run_five(plan, tiny_db)) == normalize([
        (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3),
        (4, None, None, None), (5, None, None, None), (6, None, None, None),
    ])


def test_a_groupjoin_with_unmatched_left_rows(tiny_db):
    """ME and BIO meet no Emp row below 4: their count is 0 and their
    max is None, which ``m + 10`` carries through."""
    group_join = GroupJoin(
        Scan("Dep"), Select(Scan("Emp"), col("eid").lt(4)),
        ("dname",), ("edname",),
        [("n", count()), ("m", max_(col("eid")))],
    )
    plan = Project(group_join, [
        ("dname", col("dname")), ("n", col("n")), ("m10", col("m") + lit(10)),
    ])
    assert normalize(run_five(plan, tiny_db)) == normalize([
        ("CS", 2, 12), ("EE", 1, 13), ("ME", 0, None), ("BIO", 0, None),
    ])


def _notes_db(level: OptimizationLevel = OptimizationLevel.COMPLIANT) -> Database:
    db = Database(Catalog(), level=level)
    db.add_rows(
        schema("Notes", ("nid", INT), Column("note", STRING, nullable=True)),
        [(1, "alpha"), (2, None), (3, "beta"), (4, None), (5, "gamma")],
    )
    return db


@pytest.mark.parametrize("level", [OptimizationLevel.COMPLIANT, OptimizationLevel.IDX_DATE_STR])
def test_a_declared_nullable_string_column(level):
    """A nullable STRING column loads with its NULLs (a level that builds
    string dictionaries leaves it uncoded: a code table has no NULL);
    reading it is guarded, ``IS NOT NULL`` clears it, and ``count(note)``
    skips them."""
    db = _notes_db(level)
    assert not db.has_dictionary("Notes", "note")
    assert Scan("Notes").nullable(db.catalog) == {"note"}
    head = Project(Scan("Notes"), [
        ("nid", col("nid")), ("note", col("note")),
        ("head", Substring(col("note"), 1, 2)),
    ])
    assert normalize(run_five(head, db)) == normalize([
        (1, "alpha", "al"), (2, None, None), (3, "beta", "be"),
        (4, None, None), (5, "gamma", "ga"),
    ])
    present = Project(
        Select(Scan("Notes"), IsNotNull(col("note"))),
        [("head", Substring(col("note"), 1, 1))],
    )
    assert present.null_refs(db.catalog) == [()]
    assert normalize(run_five(present, db)) == normalize([("a",), ("b",), ("g",)])
    counted = Agg(Scan("Notes"), [], [("notes", count_col(col("note"))), ("rows", count())])
    assert run_five(counted, db) == [(3, 5)]


def _not_in_db() -> Database:
    """``Notes`` (a nullable ``note``), ``Tags`` (NOT NULL tags) and
    ``Labels`` (a nullable ``label``, one of them NULL)."""
    db = _notes_db()
    db.add_rows(schema("Tags", ("tag", STRING)), [("alpha",), ("zeta",)])
    db.add_rows(
        schema("Labels", ("lid", INT), Column("label", STRING, nullable=True)),
        [(1, "alpha"), (2, None), (3, "zeta"), (4, "omega")],
    )
    return db


@pytest.mark.parametrize("sql,expected", [
    # a NULL in the subquery: no tag is known not to be in it
    ("select count(*) from Tags where tag not in (select note from Notes)", [(0,)]),
    ("select tag from Tags where tag not in (select note from Notes)", []),
    # the same nullable column holding no NULL in the rows it selects
    ("select tag from Tags where tag not in (select note from Notes where nid = 1)",
     [("zeta",)]),
    # a NULL outer key against a non-empty subquery does not pass
    ("select lid from Labels where label not in (select tag from Tags)", [(4,)]),
    # a NULL outer key against an empty subquery passes, as every row does
    ("select lid from Labels where label not in (select tag from Tags where tag = 'none')",
     [(1,), (2,), (3,), (4,)]),
    ("select lid from Labels where label not in (select note from Notes where nid > 9)",
     [(1,), (2,), (3,), (4,)]),
])
def test_not_in_a_subquery_follows_sql_nulls(sql, expected):
    """``NOT IN (subquery)`` is three-valued where either side can be NULL;
    every engine and both lowerings agree."""
    db = _not_in_db()
    assert normalize(run_five(sql_to_plan(sql, db), db)) == normalize(expected)


@pytest.mark.parametrize("sql,expected", [
    ("select count(*) from Notes where note is not null", [(3,)]),
    ("select count(*) from Notes where note is null", [(2,)]),
    ("select nid from Notes where note is null or nid = 1", [(1,), (2,), (4,)]),
    ("select count(*) from Notes where not note is not null", [(2,)]),
    ("select count(*) from Labels where label is not null and lid > 1", [(2,)]),
    ("select count(*) from Tags where tag is null", [(0,)]),
    # clearing the subselect's NULLs makes NOT IN a plain anti-join
    ("select tag from Tags where tag not in (select note from Notes where note is not null)",
     [("zeta",)]),
    ("select count(*) from Tags where tag not in (select note from Notes where note is null)",
     [(0,)]),
])
def test_is_null_in_sql(sql, expected):
    """``IS [NOT] NULL`` parses to ``IsNotNull`` / ``Not(IsNotNull)``;
    every engine and both lowerings agree."""
    db = _not_in_db()
    assert normalize(run_five(sql_to_plan(sql, db), db)) == normalize(expected)


def test_only_is_not_null_clears_nullability():
    db = _not_in_db()
    cleared = sql_to_plan("select note from Notes where note is not null", db)
    assert cleared.nullable(db.catalog) == frozenset()
    kept = sql_to_plan("select note from Notes where note is null", db)
    assert kept.nullable(db.catalog) == {"note"}


# -- the loader enforces each column's declaration -----------------------------------


@pytest.mark.parametrize("ctype,value", [
    (STRING, "x"), (INT, 1), (FLOAT, 1.5), (BOOL, True),
])
def test_a_null_in_a_not_null_column_is_refused_at_load(ctype, value):
    """A NULL in a NOT NULL column -- every INT, FLOAT and BOOL column
    is one -- is a typed ``SchemaError`` naming the table and column,
    never an untyped error, a NaN or a False."""
    db = Database(Catalog())
    with pytest.raises(SchemaError, match="'T' column 'c' is declared NOT NULL") as info:
        db.add_rows(schema("T", ("k", INT), ("c", ctype)), [(1, value), (2, None)])
    assert info.value.code == "E_SCHEMA"


@pytest.mark.parametrize("ctype", [INT, FLOAT, BOOL, DATE])
def test_a_nullable_number_column_is_refused(ctype):
    """No read path holds a NULL number, so the schema refuses one; a
    width is a STRING column's only."""
    with pytest.raises(SchemaError, match="only a STRING column can be nullable"):
        schema("T", Column("c", ctype, nullable=True))
    with pytest.raises(SchemaError, match="positive length of a STRING column"):
        schema("T", ("c", ctype, 4))


def test_a_string_longer_than_its_declared_width_is_refused_at_load():
    db = Database(Catalog())
    with pytest.raises(SchemaError, match="'T' column 'flag'.*longer than its declared width 1"):
        db.add_rows(schema("T", ("flag", STRING, 1)), [("A",), ("AB",)])
    db.add_rows(schema("U", ("flag", STRING, 2)), [("A",), ("AB",)])
    assert db.size("U") == 2
    # typed layouts pad to a word width (S16 here) and non-ASCII text
    # keeps an object array: the width still holds in both
    db.add_rows(schema("V", ("code", STRING, 10)), [("A",), ("ABCDEFGHIJ",)])
    for name, value in [("W", "ABCDEFGHIJK"), ("X", "\u00e9" * 11)]:
        with pytest.raises(SchemaError, match="11-character string is longer"):
            db.add_rows(schema(name, ("code", STRING, 10)), [("A",), (value,)])


def test_a_dictionary_on_a_nullable_column_is_refused_at_load():
    db = Database(
        Catalog(), level=OptimizationLevel.IDX_DATE_STR,
        dictionary_columns={"T": ["note"]},
    )
    with pytest.raises(SchemaError, match="'T' column 'note' is nullable"):
        db.add_rows(schema("T", Column("note", STRING, nullable=True)), [("a",), (None,)])
