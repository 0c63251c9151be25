"""``SUBSTRING``: one start-position rule in every lowering, and its batch
form.

* :func:`substring_bounds` is the one rule: SQL positions count from 1,
  a start below 1 keeps only the part of the span from position 1 on, and
  ``Substring.eval``, ``.template``, ``.stage`` (scalar ``str_slice``) and
  the ``v_substr`` kernel all slice exactly what it says;
* ``from 0 for 3`` in SQL answers alike on every engine;
* ``v_substr`` slices a typed (``S{w}``) batch through its bytes and an
  object (non-ASCII) batch value by value, a start past the values'
  width included;
* a plan using ``SUBSTRING`` as a filter, a projection and a group key
  lowers to batches and answers like the scalar lowering at any batch
  size.
"""

from __future__ import annotations

import pytest

from repro.catalog import INT, STRING, Catalog
from repro.catalog.schema import schema
from repro.compiler import runtime as rt
from repro.compiler import vec
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.engine import execute_push, execute_volcano
from repro.plan import Agg, Or, Project, Scan, Select, Substring, col, count, lit, sum_
from repro.plan.expressions import substring_bounds
from repro.sql import sql_to_plan
from repro.storage import Database
from tests.conftest import needs_numpy, normalize

#: (start, length) -> the 0-based slice SQL takes.
BOUNDS = {
    (1, 2): (0, 2),
    (3, 4): (2, 6),
    (0, 3): (0, 2),
    (-1, 3): (0, 1),
    (-5, 3): (0, 0),
    (2, 0): (1, 1),
    (12, 2): (11, 13),
}

#: Values with an empty one, a short one and one longer than every slice.
ASCII = ["23-946-123", "CS", "", "abcdefghijklmnop", "x"]
TEXT = ["Zoë-Ünïcode", "naïve", "", "ab", "ëë-12"]


def _db() -> Database:
    db = Database(Catalog())
    db.add_rows(
        schema("T", ("id", INT), ("ascii", STRING), ("text", STRING)),
        [(i, a, t) for i, (a, t) in enumerate(zip(ASCII, TEXT))],
    )
    return db


def _slices(values, lo, hi):
    return [v[lo:hi] for v in values]


# -- the position rule ----------------------------------------------------------


@pytest.mark.parametrize("start,length", sorted(BOUNDS))
def test_substring_bounds_follow_sql_positions(start, length):
    lo, hi = BOUNDS[start, length]
    assert substring_bounds(start, length) == (lo, hi)
    # SQL's own definition: the characters at positions start .. start +
    # length - 1 that exist (1-based)
    for value in ASCII + TEXT:
        expected = "".join(
            value[p - 1]
            for p in range(start, start + length)
            if 1 <= p <= len(value)
        )
        assert value[lo:hi] == expected


@pytest.mark.parametrize("start,length", sorted(BOUNDS))
def test_eval_template_and_scalar_stage_agree(start, length):
    db = _db()
    expr = Substring(col("text"), start, length)
    lo, hi = BOUNDS[start, length]
    rows = [{"text": v} for v in TEXT]
    assert [expr.eval(r) for r in rows] == _slices(TEXT, lo, hi)
    assert [eval(expr.template("r"), {}, {"r": r}) for r in rows] == _slices(
        TEXT, lo, hi
    )
    plan = Project(Scan("T"), [("s", expr)])
    compiled = LB2Compiler(db.catalog, db, Config()).compile(plan)
    assert f"[{lo}:{hi}]" in compiled.source
    assert [r[0] for r in compiled.run(db)] == _slices(TEXT, lo, hi)


def test_sql_substring_positions_start_at_one(tpch_db):
    """``from 0 for 3`` takes positions 0-2, of which 1 and 2 exist."""
    sql = "select substring(c_phone from 0 for 3) as p from customer where c_custkey < 4"
    plan = sql_to_plan(sql, tpch_db)
    phones = [
        r[0]
        for r in execute_volcano(
            sql_to_plan("select c_phone from customer where c_custkey < 4", tpch_db),
            tpch_db, tpch_db.catalog,
        )
    ]
    expected = sorted((p[:2],) for p in phones)
    assert sorted(execute_push(plan, tpch_db, tpch_db.catalog)) == expected
    assert sorted(execute_volcano(plan, tpch_db, tpch_db.catalog)) == expected
    compiled = LB2Compiler(tpch_db.catalog, tpch_db, Config()).compile(plan)
    assert sorted(compiled.run(tpch_db)) == expected


# -- the kernel -------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("start,length", sorted(BOUNDS))
def test_v_substr_slices_typed_and_object_batches(start, length):
    import numpy as np

    lo, hi = BOUNDS[start, length]
    typed = np.array(ASCII, dtype="S")
    out = rt.v_substr(typed, lo, hi)
    assert out.dtype.kind == "S"
    assert rt.v_tolist(out) == _slices(ASCII, lo, hi)
    text = np.array(TEXT, dtype=object)
    out = rt.v_substr(text, lo, hi)
    assert out.dtype == object
    assert rt.v_tolist(out) == _slices(TEXT, lo, hi)
    # the result meets the string kernels: equality against a literal
    mask = rt.v_eq(rt.v_substr(typed, lo, hi), ASCII[0][lo:hi])
    assert rt.v_tolist(mask) == [v[lo:hi] == ASCII[0][lo:hi] for v in ASCII]


@needs_numpy
def test_v_substr_past_the_width_and_on_empty_batches():
    import numpy as np

    typed = np.array(["ab", "c"], dtype="S")
    assert rt.v_tolist(rt.v_substr(typed, 5, 9)) == ["", ""]
    assert rt.v_tolist(rt.v_substr(typed, 1, 9)) == ["b", ""]
    assert rt.v_substr(typed[:0], 0, 2).tolist() == []
    assert rt.v_substr(np.array([], dtype=object), 0, 2).tolist() == []


# -- the lowering ------------------------------------------------------------------


def _plans(column: str, start: int, length: int) -> dict:
    """``SUBSTRING`` of ``column`` as a filter, a projection and a group key."""
    piece = Substring(col(column), start, length)
    probe = {"ascii": "3-", "text": "aï"}[column]
    every = Select(Scan("T"), col("id").ge(lit(0)))
    return {
        "filter": Agg(
            Select(Scan("T"), Or(piece.eq(lit(probe)), piece.eq(lit("")))),
            [],
            [("cnt", count()), ("ids", sum_(col("id")))],
        ),
        "project": Project(every, [("id", col("id")), ("s", piece)]),
        "group": Agg(every, [("s", piece)], [("cnt", count()), ("ids", sum_(col("id")))]),
    }


@needs_numpy
@pytest.mark.parametrize("batch_rows", [1, 5, 8192, vec.BATCH_ROWS])
@pytest.mark.parametrize("column", ["ascii", "text"])
@pytest.mark.parametrize("start,length", [(1, 2), (0, 3), (3, 4), (12, 2), (20, 3)])
def test_substring_in_batches_answers_like_scalar(
    batch_rows, column, start, length, monkeypatch
):
    """Over a typed and an object column, with starts before, inside and
    past every value: the batch lowering stages ``v_substr`` and answers
    like the scalar lowering and push."""
    monkeypatch.setattr(vec, "BATCH_ROWS", batch_rows)
    db = _db()
    assert db.column_vec("T", "ascii").dtype.kind == "S"
    assert db.column_vec("T", "text").dtype == object
    for name, plan in _plans(column, start, length).items():
        vector = LB2Compiler(db.catalog, db, Config(codegen="vector")).compile(plan)
        stats = vector.codegen_stats
        assert stats["batch_selects"] == 1 and stats["scalar_nodes"] == 0, (name, stats)
        assert "rt.v_substr(" in vector.source, name
        rows = vector.run(db)
        expected = LB2Compiler(db.catalog, db, Config()).compile(plan).run(db)
        assert normalize(rows) == normalize(expected), name
        assert normalize(rows) == normalize(execute_push(plan, db, db.catalog)), name
