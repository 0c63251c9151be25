"""Ablation benches (E9): the design choices DESIGN.md calls out.

* hash map implementation: native dict vs the paper-faithful open
  addressing (Section 4.2's "different low-level implementation choices");
* allocation hoisting on/off (Section 4.4, Figure 7 b2 vs b1) -- the
  ``run`` closure timed alone, each round on a freshly prepared one;
* string dictionaries on/off on string-predicate queries (Section 4.3);
* date-index scans vs full scans on date-filtered queries (Section 4.3).

Run: ``pytest benchmarks/bench_ablation.py --benchmark-only`` or
``python benchmarks/bench_ablation.py``.
"""

from __future__ import annotations

import pytest

from repro.bench import make_context, print_table, time_callable
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.engine import execute_volcano
from repro.plan.rewrite import rewrite_date_index_scans
from repro.storage.database import OptimizationLevel
from repro.tpch import query_plan

AGG_QUERY = 1     # wide aggregation: hash map choice matters
STRING_QUERY = 19  # brand/container equality predicates: dictionaries matter
DATE_QUERY = 6    # selective date range: date index matters


def _compiled(ctx, query, level=OptimizationLevel.COMPLIANT, config=None, rewrite=False):
    return ctx.compiled(query, level=level, rewrite=rewrite, config=config)


# -- hash map implementations ---------------------------------------------------


@pytest.mark.parametrize("impl", ("native", "open"))
def test_ablation_hashmap(benchmark, ctx, impl):
    benchmark.group = "ablation-hashmap-Q1"
    benchmark.name = impl
    config = Config(hashmap=impl)
    compiled = _compiled(ctx, AGG_QUERY, config=config)
    db = ctx.db()
    compiled.run(db)
    benchmark.pedantic(compiled.run, args=(db,), rounds=2, iterations=1)


def test_hashmap_results_agree(ctx):
    db = ctx.db()
    native = _compiled(ctx, AGG_QUERY, config=Config(hashmap="native")).run(db)
    open_ = _compiled(ctx, AGG_QUERY, config=Config(hashmap="open")).run(db)
    assert sorted(map(repr, native)) == sorted(map(repr, open_))


# -- allocation hoisting ----------------------------------------------------------


@pytest.mark.parametrize("mode", ("hoisted", "inline"))
def test_ablation_hoisting(benchmark, ctx, mode):
    """Figure 7 b2 (allocation in ``prepare``) against b1 (allocation inside
    ``run``).  One closure answers once, so every round prepares a fresh
    closure untimed and times only its ``run``."""
    benchmark.group = "ablation-hoisting-Q1"
    benchmark.name = mode
    db = ctx.db()
    compiled = _compiled(ctx, AGG_QUERY, config=Config(hoist=(mode == "hoisted")))
    outs: list[list] = []

    def fresh_closure():
        outs.append([])
        return (compiled.prepare(db), outs[-1]), {}

    benchmark.pedantic(lambda run, out: run(out), setup=fresh_closure,
                       rounds=2, iterations=1)
    reference = _bag(execute_volcano(ctx.plan(AGG_QUERY), db, db.catalog))
    assert outs and all(_bag(out) == reference for out in outs)


def _bag(rows: list) -> list:
    """Rows as an ordered bag, floats to 6 places (summation order differs)."""
    return sorted(
        repr(tuple(round(v, 6) if isinstance(v, float) else v for v in row))
        for row in rows
    )


# -- string dictionaries -----------------------------------------------------------


@pytest.mark.parametrize("mode", ("plain", "dictionary"))
def test_ablation_dictionaries(benchmark, ctx, mode):
    benchmark.group = f"ablation-dictionaries-Q{STRING_QUERY}"
    benchmark.name = mode
    level = OptimizationLevel.IDX_DATE_STR
    db = ctx.db(level)
    config = Config(use_dictionaries=(mode == "dictionary"))
    compiled = ctx.compiled(STRING_QUERY, level=level, config=config)
    compiled.run(db)
    benchmark.pedantic(compiled.run, args=(db,), rounds=2, iterations=1)


def test_dictionary_results_agree(ctx):
    level = OptimizationLevel.IDX_DATE_STR
    db = ctx.db(level)
    plain = ctx.compiled(STRING_QUERY, level=level, config=Config(use_dictionaries=False)).run(db)
    compressed = ctx.compiled(STRING_QUERY, level=level, config=Config(use_dictionaries=True)).run(db)
    assert sorted(map(repr, plain)) == sorted(map(repr, compressed))


# -- date index -----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ("full-scan", "date-index"))
def test_ablation_date_index(benchmark, ctx, mode):
    benchmark.group = f"ablation-dateindex-Q{DATE_QUERY}"
    benchmark.name = mode
    level = OptimizationLevel.IDX_DATE
    db = ctx.db(level)
    plan = query_plan(DATE_QUERY, scale=ctx.scale)
    if mode == "date-index":
        plan = rewrite_date_index_scans(plan, db, db.catalog)
    compiled = LB2Compiler(db.catalog, db).compile(plan)
    compiled.run(db)
    benchmark.pedantic(compiled.run, args=(db,), rounds=2, iterations=1)


# -- Top-K fusion (Limit over Sort -> bounded heap selection) ------------------------

TOPK_QUERY = 18  # limit 100 over a large sorted aggregate


@pytest.mark.parametrize("mode", ("full-sort", "topk"))
def test_ablation_topk(benchmark, ctx, mode):
    from repro.plan.rewrite import fuse_topk

    benchmark.group = f"ablation-topk-Q{TOPK_QUERY}"
    benchmark.name = mode
    db = ctx.db()
    plan = query_plan(TOPK_QUERY, scale=ctx.scale)
    if mode == "topk":
        plan = fuse_topk(plan)
    compiled = LB2Compiler(db.catalog, db).compile(plan)
    compiled.run(db)
    benchmark.pedantic(compiled.run, args=(db,), rounds=2, iterations=1)


# -- sort materialization layout (Section 4.1 row vs column) ------------------------

SORT_QUERY = 1  # Q1's final sort is tiny; Q10 carries wide rows through Sort


@pytest.mark.parametrize("layout", ("row", "column"))
def test_ablation_sort_layout(benchmark, ctx, layout):
    benchmark.group = "ablation-sortlayout-Q10"
    benchmark.name = layout
    db = ctx.db()
    compiled = ctx.compiled(10, config=Config(sort_layout=layout))
    compiled.run(db)
    benchmark.pedantic(compiled.run, args=(db,), rounds=2, iterations=1)


def test_sort_layout_results_agree(ctx):
    db = ctx.db()
    row = ctx.compiled(10, config=Config(sort_layout="row")).run(db)
    column = ctx.compiled(10, config=Config(sort_layout="column")).run(db)
    assert row == column


# -- GroupJoin vs LeftOuterJoin + Agg (the HyPer specialized-operator gap) --------


@pytest.mark.parametrize("variant", ("outerjoin+agg", "groupjoin"))
def test_ablation_groupjoin(benchmark, ctx, variant):
    from repro.tpch.queries import q13_groupjoin

    benchmark.group = "ablation-groupjoin-Q13"
    benchmark.name = variant
    db = ctx.db()
    plan = (
        q13_groupjoin(ctx.scale) if variant == "groupjoin" else query_plan(13, scale=ctx.scale)
    )
    compiled = LB2Compiler(db.catalog, db).compile(plan)
    compiled.run(db)
    benchmark.pedantic(compiled.run, args=(db,), rounds=2, iterations=1)


def test_groupjoin_results_agree(ctx):
    from repro.tpch.queries import q13_groupjoin

    db = ctx.db()
    standard = LB2Compiler(db.catalog, db).compile(query_plan(13, scale=ctx.scale)).run(db)
    fused = LB2Compiler(db.catalog, db).compile(q13_groupjoin(ctx.scale)).run(db)
    assert sorted(standard) == sorted(fused)


# -- report -----------------------------------------------------------------------------


def main() -> None:
    ctx = make_context()
    db = ctx.db()
    rows = []

    for impl in ("native", "open"):
        compiled = _compiled(ctx, AGG_QUERY, config=Config(hashmap=impl))
        compiled.run(db)
        rows.append((f"Q1 hashmap={impl}", [time_callable(lambda c=compiled: c.run(db)) * 1000]))

    level = OptimizationLevel.IDX_DATE_STR
    dbs = ctx.db(level)
    for mode, use in (("plain", False), ("dict", True)):
        compiled = ctx.compiled(STRING_QUERY, level=level, config=Config(use_dictionaries=use))
        compiled.run(dbs)
        rows.append(
            (f"Q{STRING_QUERY} strings={mode}", [time_callable(lambda c=compiled: c.run(dbs)) * 1000])
        )

    from repro.plan.rewrite import fuse_topk
    from repro.tpch.queries import q13_groupjoin

    for label, plan in (
        ("Q13 outerjoin+agg", query_plan(13, scale=ctx.scale)),
        ("Q13 groupjoin", q13_groupjoin(ctx.scale)),
        ("Q18 full-sort", query_plan(TOPK_QUERY, scale=ctx.scale)),
        ("Q18 topk-fused", fuse_topk(query_plan(TOPK_QUERY, scale=ctx.scale))),
    ):
        compiled = LB2Compiler(db.catalog, db).compile(plan)
        compiled.run(db)
        rows.append((label, [time_callable(lambda c=compiled: c.run(db)) * 1000]))

    for layout in ("row", "column"):
        compiled = ctx.compiled(10, config=Config(sort_layout=layout))
        compiled.run(db)
        rows.append(
            (f"Q10 sort={layout}", [time_callable(lambda c=compiled: c.run(db)) * 1000])
        )

    dbd = ctx.db(OptimizationLevel.IDX_DATE)
    for mode in ("full-scan", "date-index"):
        plan = query_plan(DATE_QUERY, scale=ctx.scale)
        if mode == "date-index":
            plan = rewrite_date_index_scans(plan, dbd, dbd.catalog)
        compiled = LB2Compiler(dbd.catalog, dbd).compile(plan)
        compiled.run(dbd)
        rows.append(
            (f"Q{DATE_QUERY} {mode}", [time_callable(lambda c=compiled: c.run(dbd)) * 1000])
        )

    print_table(
        f"Ablations -- design choices (ms), SF={ctx.scale}",
        ["runtime (ms)"],
        rows,
        note="native dict vs open addressing; dictionaries on string predicates;\n"
        "date-index partition pruning vs full scan",
    )


if __name__ == "__main__":
    main()
