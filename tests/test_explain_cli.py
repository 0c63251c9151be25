"""Tests for the plan pretty-printer and the TPC-H command-line tool."""

import os

import pytest

from repro.plan import (
    Agg,
    AntiJoin,
    Case,
    DateIndexScan,
    HashJoin,
    IndexJoin,
    IndexSemiJoin,
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
    count_distinct,
    lit,
    sum_,
)
from repro.plan.explain import explain, format_agg, format_expr
from repro.tpch import query_plan
from repro.tpch.cli import build_parser, load_directory, main
from repro.storage.database import OptimizationLevel


# -- format_expr -----------------------------------------------------------------


def test_format_expr_basics():
    assert format_expr(col("a")) == "a"
    assert format_expr(lit(3)) == "3"
    assert format_expr(col("a").eq(lit(1))) == "a = 1"
    assert format_expr(col("a") + col("b")) == "(a + b)"
    assert format_expr(Like(col("s"), "x%")) == "s LIKE 'x%'"
    assert format_expr(Like(col("s"), "x%", negate=True)) == "s NOT LIKE 'x%'"
    assert "CASE WHEN" in format_expr(Case(col("a").gt(0), lit(1), lit(0)))


def test_format_agg():
    assert format_agg(count()) == "count(*)"
    assert format_agg(sum_(col("v"))) == "sum(v)"
    assert format_agg(count_distinct(col("k"))) == "count(distinct k)"
    assert format_agg(avg(col("v"))) == "avg(v)"


# -- explain -----------------------------------------------------------------------


def test_explain_tree_shape(tiny_db):
    plan = Limit(
        Sort(
            Agg(
                HashJoin(
                    Select(Scan("Dep"), col("rank").lt(10)),
                    Scan("Emp"),
                    ("dname",),
                    ("edname",),
                ),
                [("dname", col("dname"))],
                [("n", count())],
            ),
            [("n", False)],
        ),
        5,
    )
    text = explain(plan, tiny_db.catalog)
    assert text.startswith("output: [dname, n]")
    for fragment in (
        "Limit 5",
        "Sort by n desc",
        "Agg by dname AS dname: count(*) AS n",
        "HashJoin on dname=edname",
        "Select rank < 10",
        "Scan Dep",
        "Scan Emp",
    ):
        assert fragment in text
    # indentation deepens along the chain
    lines = text.splitlines()[1:]
    assert lines[0].startswith("-> ") and lines[1].startswith("  -> ")


def test_explain_index_operators(tiny_db_full):
    plan = IndexSemiJoin(
        IndexJoin(Scan("Emp"), table="Dep", table_key="dname", child_key="edname"),
        table="Emp",
        table_key="eid",
        child_key="eid",
        anti=True,
        unique=True,
    )
    text = explain(plan)
    assert "IndexJoin Dep via unique index on dname probe edname" in text
    assert "IndexAntiJoin Emp on eid probe eid" in text


def test_explain_other_operators(tiny_db):
    for plan, needle in (
        (DateIndexScan("Sales", "sold", lo=1, hi=2, enforce=True), "(enforced)"),
        (SemiJoin(Scan("Dep"), Scan("Emp"), ("dname",), ("edname",)), "SemiJoin"),
        (AntiJoin(Scan("Dep"), Scan("Emp"), ("dname",), ("edname",)), "AntiJoin"),
        (
            LeftOuterJoin(Scan("Dep"), Scan("Emp"), ("dname",), ("edname",)),
            "LeftOuterJoin",
        ),
        (
            Project(Scan("Dep"), [("x", col("rank") * lit(2)), ("dname", col("dname"))]),
            "(rank * 2) AS x",
        ),
    ):
        assert needle in explain(plan)


def test_explain_every_tpch_plan_renders():
    for q in range(1, 23):
        text = explain(query_plan(q))
        assert text.count("->") >= 3


# -- CLI ------------------------------------------------------------------------------


def test_cli_generate_and_load_roundtrip(tmp_path):
    out = str(tmp_path / "data")
    assert main(["generate", "--scale", "0.001", "--out", out]) == 0
    files = sorted(os.listdir(out))
    assert files == sorted(
        f"{t}.tbl" for t in (
            "region", "nation", "supplier", "customer",
            "part", "partsupp", "orders", "lineitem",
        )
    )
    db = load_directory(out, OptimizationLevel.COMPLIANT)
    assert db.size("region") == 5
    assert db.size("orders") == 1500


def test_cli_load_directory_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_directory(str(tmp_path), OptimizationLevel.COMPLIANT)


def test_cli_run_from_directory(tmp_path, capsys):
    out = str(tmp_path / "data")
    main(["generate", "--scale", "0.001", "--out", out])
    assert main(["run", "--dir", out, "--query", "6", "--scale", "0.001"]) == 0
    captured = capsys.readouterr()
    assert "Q6: 1 rows" in captured.err
    assert captured.out.strip()  # the revenue number


def test_cli_run_generated_with_level(capsys):
    assert main(["run", "--query", "6", "--scale", "0.001", "--level", "idx_date"]) == 0
    assert "Q6: 1 rows" in capsys.readouterr().err


def test_cli_show(capsys):
    assert main(["show", "--query", "6", "--scale", "0.001"]) == 0
    output = capsys.readouterr().out
    assert "-> Agg" in output
    assert "def prepare(db):" in output and "def run(out):" in output


def test_cli_bad_level():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--query", "6", "--level", "bogus"])


def test_cli_bad_query():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--query", "99"])
