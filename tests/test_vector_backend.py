"""The batch-vectorized codegen backend: kernels, eligibility, degradation.

Three layers under test:

* the ``rt.v_*`` kernels themselves, over NumPy arrays;
* the backend seam -- operators never branch on ``Config.codegen``, the
  vector backend's eligibility pass falls back per node (dictionaries,
  unsupported expressions), bounded batches fold into the same answers
  and row counts as the scalar lowering (budget checkpoints and
  instrumentation included), and its stats are surfaced through
  ``CompiledQuery.codegen_stats``;
* the contract without NumPy: the vector lowering, which requires it, is
  a typed :class:`CompileError` that the fallback chain degrades past,
  and the scalar lowering neither needs NumPy nor warns.

Tests of the vector lowering carry ``needs_numpy``: an install without
NumPy skips them.
"""

import warnings

import pytest

from repro.compiler import runtime as rt
from repro.compiler import vec
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import CompileError, Config
from repro.plan import (
    Agg,
    Case,
    Project,
    Scan,
    Select,
    avg,
    col,
    count,
    lit,
    max_,
    min_,
    sum_,
)
from repro.resilience import ResilientExecutor
from repro.session import Session
from repro.storage import OptimizationLevel
from tests.conftest import make_tiny_db, needs_numpy, normalize

PLAIN_SCALARS = (bool, int, float, str, type(None))


def _batch(values):
    import numpy as np

    return np.asarray(values)


# -- kernels ------------------------------------------------------------------


@needs_numpy
def test_elementwise_kernels():
    a = _batch([1, 2, 3, 4])
    b = _batch([10, 20, 30, 40])
    assert rt.v_tolist(rt.v_add(a, b)) == [11, 22, 33, 44]
    assert rt.v_tolist(rt.v_sub(b, a)) == [9, 18, 27, 36]
    assert rt.v_tolist(rt.v_mul(a, 2)) == [2, 4, 6, 8]
    assert rt.v_tolist(rt.v_div(a, 2)) == [0.5, 1.0, 1.5, 2.0]
    assert rt.v_tolist(rt.v_floordiv(b, 3)) == [3, 6, 10, 13]
    assert rt.v_tolist(rt.v_mod(b, 3)) == [1, 2, 0, 1]
    assert rt.v_tolist(rt.v_neg(a)) == [-1, -2, -3, -4]


@needs_numpy
def test_comparison_and_mask_kernels():
    a = _batch([5, 1, 7, 3])
    ge = rt.v_ge(a, 3)
    lt = rt.v_lt(a, 7)
    assert rt.v_tolist(ge) == [True, False, True, True]
    assert rt.v_tolist(rt.v_and(ge, lt)) == [True, False, False, True]
    assert rt.v_tolist(rt.v_or(ge, lt)) == [True, True, True, True]
    assert rt.v_tolist(rt.v_not(ge)) == [False, True, False, False]
    sel = rt.v_mask_index(rt.v_and(ge, lt))
    assert rt.v_tolist(sel) == [0, 3]
    assert rt.v_tolist(rt.v_take(a, sel)) == [5, 3]
    # broadcast scalars pass through v_take untouched
    assert rt.v_take(42, sel) == 42
    assert rt.v_len(sel) == 2


def _grouped(keys, vals, nbatches=2):
    """Group ``vals`` by ``keys`` through a group table, in ``nbatches``
    batches: the merged ``[ngroups, keys, sum, count, min, max, fsum]``."""
    groups = rt.group_state(1, 5)
    n = len(keys)
    cuts = [n * i // nbatches for i in range(nbatches + 1)]
    for lo, hi in zip(cuts, cuts[1:]):
        k, v = keys[lo:hi], vals[lo:hi]
        ids = rt.v_group_ids(groups, hi - lo, k)
        rt.v_agg_sum(groups, 0, ids, v)
        rt.v_agg_count(groups, 1, ids)
        rt.v_agg_min(groups, 2, ids, v)
        rt.v_agg_max(groups, 3, ids, v)
        rt.v_agg_fsum(groups, 4, ids, v)
    return rt.group_merge(groups)


@needs_numpy
def test_group_kernels():
    keys = _batch(["b", "a", "b", "a", "b"])
    vals = _batch([1, 10, 2, 20, 3])
    ngroups, keylist, sums, counts, mins, maxs, fsums = _grouped(keys, vals)
    assert ngroups == 2
    by_key = {
        keylist[g]: (sums[g], counts[g], mins[g], maxs[g], fsums[g])
        for g in range(ngroups)
    }
    assert by_key == {"a": (30, 2, 10, 20, 30.0), "b": (6, 3, 1, 3, 6.0)}
    # the stateless factorization the merge orders groups with
    grouped = rt.v_group(5, keys)
    assert grouped[1] == 2
    assert rt.v_tolist(rt.v_group_sum(grouped[0], 2, vals)) == [
        30 if k == "a" else 6 for k in rt.v_tolist(grouped[2])
    ]


@needs_numpy
def test_global_kernels_and_empty_batches():
    vals = _batch([4, 1, 3])
    assert rt.v_sum(vals, 3) == 8
    assert rt.v_fsum(vals, 3) == 8.0
    assert rt.v_min(vals, 3) == 1
    assert rt.v_max(vals, 3) == 4
    assert rt.v_count_nn(vals, 3) == 3
    # broadcast scalars: the batch never materialized
    assert rt.v_sum(5, 4) == 20
    assert rt.v_min(5, 0) is None
    empty = _batch([])
    assert rt.v_sum(empty, 0) == 0
    assert rt.v_min(empty, 0) is None
    assert rt.v_max(empty, 0) is None
    assert rt.v_count_nn(empty, 0) == 0


@needs_numpy
def test_column_arrays_are_built_when_the_table_loads():
    """Storage builds every column's array with the table, on the loading
    thread, not lazily in whichever query worker reads it first."""
    db = make_tiny_db()
    assert set(db.table("Sales")._arrays) == {"sid", "sdep", "amount", "sold"}


@needs_numpy
def test_kernels_return_plain_python_scalars():
    """Aggregate results must be plain ints/floats -- NumPy scalar types
    leaking into result rows would break downstream equality/typing (the
    wire cannot JSON-encode ``np.int64``).  Batches are arrays; values
    become plain where they leave a batch: the global reductions, the
    merged groups a row loop reads, and ``v_tolist``."""
    vals = _batch([1, 2, 3])
    for scalar in (
        rt.v_sum(vals, 3),
        rt.v_fsum(vals, 3),
        rt.v_min(vals, 3),
        rt.v_max(vals, 3),
        rt.v_count_nn(vals, 3),
    ):
        assert type(scalar) in PLAIN_SCALARS, type(scalar)
    merged = _grouped(_batch(["x", "y", "x"]), vals)
    assert type(merged[0]) is int
    for column in merged[1:]:
        assert isinstance(column, list)
        assert all(type(v) in PLAIN_SCALARS for v in column), column
    grouped = rt.v_group(3, _batch([7, 8, 7]))
    for batch in (grouped[0], grouped[2], rt.v_group_sum(grouped[0], grouped[1], vals)):
        assert all(type(v) in PLAIN_SCALARS for v in rt.v_tolist(batch))


# -- the seam -----------------------------------------------------------------


def agg_plan():
    return Agg(
        Select(Scan("Emp"), col("eid").lt(6)),
        [("edname", col("edname"))],
        [("cnt", count()), ("total", sum_(col("eid")))],
    )


@needs_numpy
def test_vector_backend_matches_scalar_on_tiny_db():
    db = make_tiny_db()
    plans = [
        agg_plan(),
        Agg(Scan("Sales"), [], [("m", avg(col("amount")))]),
        Project(
            Select(Scan("Sales"), col("amount").gt(lit(40.0))),
            [("sid", col("sid")), ("twice", col("amount") * lit(2.0))],
        ),
    ]
    for plan in plans:
        got = {}
        for codegen in ("scalar", "vector"):
            compiled = LB2Compiler(
                db.catalog, db, Config(codegen=codegen)
            ).compile(plan)
            got[codegen] = normalize(compiled.run(db))
        assert got["scalar"] == got["vector"]


@needs_numpy
def test_vector_stats_are_surfaced():
    db = make_tiny_db()
    compiled = LB2Compiler(
        db.catalog, db, Config(codegen="vector")
    ).compile(agg_plan())
    stats = compiled.codegen_stats
    assert stats["backend"] == "vector"
    assert stats["batch_scans"] == 1
    assert stats["batch_selects"] == 1
    assert stats["vector_aggs"] == 1
    assert "v_group" in compiled.source
    scalar = LB2Compiler(db.catalog, db).compile(agg_plan())
    assert scalar.codegen_stats["backend"] == "scalar"


def test_operators_never_branch_on_the_backend():
    """The acceptance bar of the seam refactor: operator classes talk to
    the backend interface only; ``Config.codegen`` is read in exactly one
    place (the backend selector)."""
    import inspect

    from repro.compiler import backends, lb2

    assert "config.codegen" not in inspect.getsource(lb2)
    assert "config.codegen" in inspect.getsource(backends.make_backend)


@needs_numpy
def test_instrumentation_stays_vectorized():
    """Batch records advance the staged counters by their row count, so
    EXPLAIN ANALYZE observes the vector lowering instead of disabling it."""
    db = make_tiny_db()
    plain = LB2Compiler(
        db.catalog, db, Config(instrument=True)
    ).compile(agg_plan())
    vec = LB2Compiler(
        db.catalog, db, Config(codegen="vector", instrument=True)
    ).compile(agg_plan())
    assert vec.codegen_stats["batch_scans"] == 1
    assert vec.codegen_stats["vector_aggs"] == 1
    assert normalize(vec.run(db)) == normalize(plain.run(db))
    # identical per-operator row counts from both lowerings
    assert vec.last_stats == plain.last_stats
    # the kernel observer saw the batch kernels fire during the run
    assert vec.last_kernels and "v_group_ids" in vec.last_kernels
    assert plain.last_kernels == {}


def _ticks(compiled, db) -> tuple[list, list[int]]:
    """Run ``compiled``, returning its rows and every ``scan_tick`` it made."""
    ticks: list[int] = []
    rt.push_tick_hook(ticks.append)
    try:
        rows = compiled.run(db)
    finally:
        rt.pop_tick_hook(ticks.append)
    return rows, ticks


@needs_numpy
def test_budget_checks_keep_vectorization(monkeypatch):
    """Budget checkpoints are batch-granular: the plan stays vectorized and
    each batch charges its rows with one tick before its kernels run."""
    monkeypatch.setattr(vec, "BATCH_ROWS", 4)
    db = make_tiny_db()
    compiled = LB2Compiler(
        db.catalog, db, Config(codegen="vector", budget_checks=True)
    ).compile(agg_plan())
    stats = compiled.codegen_stats
    assert stats["batch_scans"] == 1 and stats["vector_aggs"] == 1
    assert "forced_scalar" not in stats
    assert compiled.source.count("rt.scan_tick(") == 1
    rows, ticks = _ticks(compiled, db)
    assert ticks == [4, 2]  # Emp's 6 rows, one tick per batch
    scalar = LB2Compiler(db.catalog, db).compile(agg_plan())
    assert normalize(rows) == normalize(scalar.run(db))


@needs_numpy
def test_full_scan_charges_exactly_its_rows():
    """A full scan of n rows charges n on both lowerings, in ticks of at
    most one interval (scalar) or one batch (vector) -- never a whole
    interval up front for a table smaller than it."""
    db = make_tiny_db()
    plan = Select(Scan("Sales"), col("amount").gt(lit(40.0)))
    for codegen in ("scalar", "vector"):
        compiled = LB2Compiler(
            db.catalog, db, Config(codegen=codegen, budget_checks=True)
        ).compile(plan)
        _, ticks = _ticks(compiled, db)
        assert sum(ticks) == 6, codegen


MULTI_BATCH_PLANS = [
    agg_plan(),
    # groups spanning batches, every foldable slot kind
    Agg(
        Select(Scan("Sales"), col("amount").gt(lit(20.0))),
        [("sdep", col("sdep"))],
        [
            ("n", count()),
            ("total", sum_(col("amount"))),
            ("mean", avg(col("amount"))),
            ("lo", min_(col("sold"))),
            ("hi", max_(col("amount"))),
        ],
    ),
    # a global aggregate whose later batches are empty after the filter
    Agg(
        Select(Scan("Sales"), col("amount").gt(lit(200.0))),
        [],
        [("n", count()), ("total", sum_(col("amount"))), ("lo", min_(col("sid")))],
    ),
    # ... and one over no rows at all
    Agg(
        Select(Scan("Sales"), col("amount").gt(lit(1e9))),
        [],
        [("n", count()), ("hi", max_(col("amount"))), ("mean", avg(col("amount")))],
    ),
    # a devectorized sink
    Project(
        Select(Scan("Sales"), col("amount").gt(lit(40.0))),
        [("sid", col("sid")), ("twice", col("amount") * lit(2.0))],
    ),
]


@needs_numpy
@pytest.mark.parametrize("batch_rows", [1, 2, 4, 5, 8192, vec.BATCH_ROWS])
@pytest.mark.parametrize("plan_index", range(len(MULTI_BATCH_PLANS)))
def test_multi_batch_matches_scalar(batch_rows, plan_index, monkeypatch):
    """Partials folded across batches equal the scalar lowering: rows,
    and the instrumented per-operator row counts."""
    monkeypatch.setattr(vec, "BATCH_ROWS", batch_rows)
    db = make_tiny_db()
    plan = MULTI_BATCH_PLANS[plan_index]
    scalar = LB2Compiler(db.catalog, db, Config(instrument=True)).compile(plan)
    vector = LB2Compiler(
        db.catalog, db, Config(codegen="vector", instrument=True)
    ).compile(plan)
    assert vector.codegen_stats["batch_scans"] == 1
    assert normalize(vector.run(db)) == normalize(scalar.run(db))
    assert vector.last_stats == scalar.last_stats


@needs_numpy
@pytest.mark.parametrize("q", range(1, 23))
def test_multi_batch_tpch_matches_scalar(q, tpch_db, monkeypatch):
    """Every TPC-H query over many batches (lineitem in 13) answers and
    counts like the scalar lowering."""
    from repro.tpch import query_plan
    from tests.conftest import TINY_SCALE

    monkeypatch.setattr(vec, "BATCH_ROWS", 1000)
    plan = query_plan(q, scale=TINY_SCALE)
    scalar = LB2Compiler(
        tpch_db.catalog, tpch_db, Config(instrument=True)
    ).compile(plan)
    vector = LB2Compiler(
        tpch_db.catalog, tpch_db, Config(codegen="vector", instrument=True)
    ).compile(plan)
    assert normalize(vector.run(tpch_db)) == normalize(scalar.run(tpch_db))
    assert vector.last_stats == scalar.last_stats


@needs_numpy
def test_dictionary_compressed_scan_falls_back_to_scalar():
    db = make_tiny_db(OptimizationLevel.IDX_DATE_STR)
    config = Config(codegen="vector", use_dictionaries=True)
    compiled = LB2Compiler(db.catalog, db, config).compile(agg_plan())
    assert compiled.codegen_stats["batch_scans"] == 0
    assert compiled.codegen_stats["scalar_nodes"] > 0
    assert normalize(compiled.run(db)) == normalize(
        LB2Compiler(db.catalog, db).compile(agg_plan()).run(db)
    )


@needs_numpy
def test_unsupported_predicate_falls_back_per_operator():
    """CASE has no vector kernel: the Select stays scalar while the plan
    still compiles and answers correctly."""
    db = make_tiny_db()
    is_cs = Case(col("edname").eq(lit("CS")), lit(1), lit(0))
    plan = Agg(
        Select(Scan("Emp"), is_cs.eq(lit(1))),
        [],
        [("cnt", count())],
    )
    compiled = LB2Compiler(
        db.catalog, db, Config(codegen="vector")
    ).compile(plan)
    assert compiled.codegen_stats["batch_selects"] == 0
    assert compiled.run(db) == [(3,)]


# -- without NumPy -------------------------------------------------------------


def test_vector_backend_without_numpy_is_a_compile_error(monkeypatch):
    """The vector lowering requires NumPy: asked for without it, the
    compile fails with a typed error naming the ``fast`` extra.  A
    session configured for it raises that error from ``query``; under
    the default fallback policy the push interpreter answers instead."""
    monkeypatch.setattr(rt, "_np", None)
    db = make_tiny_db()
    with pytest.raises(CompileError, match="'fast' extra") as raised:
        LB2Compiler(db.catalog, db, Config(codegen="vector")).compile(agg_plan())
    assert raised.value.code == "E_COMPILE"
    sql = "select edname, count(*) cnt from Emp where eid < 6 group by edname"
    session = Session(db, Config(codegen="vector"))
    with pytest.raises(CompileError):
        session.query(sql)
    result = ResilientExecutor(session).query(sql)
    assert result.report.engine == "push"
    assert [a.error_code for a in result.report.attempts] == ["E_COMPILE", None]
    assert normalize(result.rows) == normalize(Session(db, Config()).query(sql))


def test_scalar_backend_never_warns_without_numpy(monkeypatch):
    monkeypatch.setattr(rt, "_np", None)
    db = make_tiny_db()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        LB2Compiler(db.catalog, db, Config()).compile(agg_plan())
