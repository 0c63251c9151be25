"""Tests for the top-level API (repro.execute) and the Session facade."""

import pytest

import repro
from repro.session import Session
from repro.plan import Agg, Scan, col, count
from tests.conftest import normalize


# -- repro.execute ------------------------------------------------------------------


def test_execute_sql_default_engine(tiny_db):
    rows = repro.execute("select count(*) from Emp", tiny_db)
    assert rows == [(6,)]


def test_execute_plan_object(tiny_db):
    plan = Agg(Scan("Emp"), [], [("n", count())])
    assert repro.execute(plan, tiny_db) == [(6,)]


@pytest.mark.parametrize("engine", ("lb2", "push", "volcano", "template"))
def test_execute_all_engines_agree(tiny_db, engine):
    rows = repro.execute(
        "select sdep, sum(amount) t from Sales group by sdep order by t desc",
        tiny_db,
        engine=engine,
    )
    assert rows[0][0] == "CS"


def test_execute_rejects_bad_engine(tiny_db):
    with pytest.raises(ValueError, match="unknown engine"):
        repro.execute("select count(*) from Emp", tiny_db, engine="spark")


def test_execute_rejects_bad_query_type(tiny_db):
    with pytest.raises(TypeError):
        repro.execute(42, tiny_db)


def test_compile_plan_helper(tiny_db):
    compiled = repro.compile_plan(Scan("Dep"), tiny_db)
    assert len(compiled.run(tiny_db)) == 4


# -- Session -----------------------------------------------------------------------


def test_session_query(tiny_db):
    session = Session(tiny_db)
    rows = session.query("select dname from Dep where rank < 10 order by dname")
    assert [r[0] for r in rows] == ["BIO", "CS", "EE"]


def test_session_caches_compiled_statements(tiny_db):
    session = Session(tiny_db)
    sql = "select count(*) from Emp"
    first = session.prepare(sql)
    second = session.prepare("select  count(*)   from Emp")  # whitespace differs
    assert first is second
    assert session.cached_statements == 1
    session.clear_cache()
    assert session.cached_statements == 0


def test_session_repeated_queries_same_result(tiny_db):
    session = Session(tiny_db)
    sql = "select sdep, count(*) n from Sales group by sdep"
    assert normalize(session.query(sql)) == normalize(session.query(sql))


def test_session_explain(tiny_db):
    session = Session(tiny_db)
    text = session.explain("select dname from Dep where rank < 10")
    assert "Scan Dep" in text and "rank < 10" in text


def test_session_generated_code(tiny_db):
    session = Session(tiny_db)
    code = session.generated_code("select count(*) from Emp")
    assert "def prepare(db):" in code and "def run(out):" in code


def test_session_uses_index_rewrites_when_available(tiny_db_full):
    session = Session(tiny_db_full)
    text = session.explain(
        "select eid from Emp, Dep where edname = dname and rank < 10"
    )
    assert "IndexJoin" in text
    rows = session.query(
        "select eid from Emp, Dep where edname = dname and rank < 10"
    )
    assert len(rows) == 5  # CS x3, EE x1, BIO x1


def test_session_rewrites_can_be_disabled(tiny_db_full):
    session = Session(tiny_db_full, use_index_rewrites=False)
    text = session.explain(
        "select eid from Emp, Dep where edname = dname and rank < 10"
    )
    assert "IndexJoin" not in text


def test_session_execute_plan(tiny_db):
    session = Session(tiny_db)
    rows = session.execute_plan(Agg(Scan("Emp"), [], [("n", count())]))
    assert rows == [(6,)]


def test_session_tpch(tpch_db):
    session = Session(tpch_db, use_index_rewrites=False)
    rows = session.query(
        "select l_returnflag, count(*) n from lineitem group by l_returnflag "
        "order by l_returnflag"
    )
    assert [r[0] for r in rows] == ["A", "N", "R"]


# -- packaging ----------------------------------------------------------------------


def test_console_scripts_resolve():
    """Every ``[project.scripts]`` entry imports and is callable, and the
    set is exactly the four CLIs the repo ships."""
    import importlib
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert set(scripts) == {"repro-lint", "repro-obs", "repro-serve", "repro-doctor"}
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
