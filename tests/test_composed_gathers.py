"""Late materialization in batches: filters and batch joins compose row
ids, and a field is gathered from its base column once, when read.

* random chains of filters and of inner, semi/anti and left outer batch
  joins -- probe keys drawn from the probe table or from builds joined
  earlier in the chain -- emit the scalar lowering's rows in its order,
  with the same per-operator row counts, at any batch size;
* the served builds of the join-heavy statements gather no column through
  a chain of gathers: a ``v_take`` result whose only reader is another
  gather is the per-level re-gathering composition replaces.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Catalog, INT
from repro.catalog.schema import schema
from repro.compiler import vec
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.plan import col, count, count_col, lit, sum_
from repro.plan import physical as phys
from repro.resilience import Budget, ResilientExecutor
from repro.session import Session
from repro.storage import Database
from repro.tpch.sql_queries import SQL_QUERIES
from tests.conftest import needs_numpy, normalize

pytestmark = needs_numpy


def _chain_db() -> Database:
    """A 60-row probe table and a 40-row build table of small integers."""
    probe = schema("P", ("p_a", INT), ("p_b", INT), ("p_c", INT))
    build = schema("B", ("b_a", INT), ("b_b", INT), ("b_c", INT))
    db = Database(Catalog())
    db.add_rows(probe, [(i, i % 7, (i * 13) % 11) for i in range(60)])
    db.add_rows(build, [(i % 25, i % 6, (i * 7) % 9) for i in range(40)])
    return db


CHAIN_DB = _chain_db()

#: One step of a chain: a filter, or a join of a (possibly filtered) build.
STEP = st.tuples(
    st.sampled_from(["filter", "inner", "semi", "anti", "outer"]),
    st.integers(0, 2),  # which build column is the join key
    st.integers(0, 99),  # which chain field probes (modulo the fields)
    st.integers(1, 8),  # filter / build filter threshold
)


def _build(i: int, key: int, threshold: int) -> phys.PhysicalPlan:
    """The build table with fields renamed ``j{i}_*``, maybe filtered."""
    names = ["b_a", "b_b", "b_c"]
    plan: phys.PhysicalPlan = phys.Project(
        phys.Scan("B"),
        [(f"j{i}_{n}", col(n)) for n in names[key:] + names[:key]],
    )
    if threshold % 3:
        plan = phys.Select(plan, col(f"j{i}_b_c").gt(lit(threshold % 9)))
    return plan


def _chain(steps, aggregate: bool) -> phys.PhysicalPlan:
    plan: phys.PhysicalPlan = phys.Scan("P")
    fields = ["p_a", "p_b", "p_c"]
    counted = None  # a null-extended field an aggregate may count
    for i, (kind, key, pick, threshold) in enumerate(steps):
        probe_key = fields[pick % len(fields)]
        if kind == "filter":
            cmp = col(probe_key).gt if threshold % 2 else col(probe_key).ne
            plan = phys.Select(plan, cmp(lit(threshold)))
            continue
        build = _build(i, key, threshold)
        build_key = build.field_names(CHAIN_DB.catalog)[0]
        if kind == "inner":
            plan = phys.HashJoin(build, plan, (build_key,), (probe_key,))
            fields += build.field_names(CHAIN_DB.catalog)
        elif kind == "outer":
            plan = phys.LeftOuterJoin(plan, build, (probe_key,), (build_key,))
            counted = build.field_names(CHAIN_DB.catalog)[1]
        else:
            join = phys.SemiJoin if kind == "semi" else phys.AntiJoin
            plan = join(plan, build, (probe_key,), (build_key,))
    if aggregate:
        aggs = [("n", count()), ("s", sum_(col(fields[-1])))]
        if counted is not None:
            aggs.append(("c", count_col(col(counted))))
        plan = phys.Agg(plan, [("g", col(fields[1]))], aggs)
    return plan


@pytest.mark.parametrize("batch_rows", [1, 5, 8192, vec.BATCH_ROWS])
@settings(max_examples=40, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=5), aggregate=st.booleans())
def test_random_join_chains_match_scalar_in_order(batch_rows, steps, aggregate):
    """Composed row ids gather what per-level gathers did: the batch chain
    emits the scalar rows in the scalar order, counting the same rows per
    operator."""
    plan = _chain(steps, aggregate)
    saved = vec.BATCH_ROWS
    vec.BATCH_ROWS = batch_rows
    try:
        scalar = LB2Compiler(
            CHAIN_DB.catalog, CHAIN_DB, Config(instrument=True)
        ).compile(plan)
        vector = LB2Compiler(
            CHAIN_DB.catalog, CHAIN_DB, Config(codegen="vector", instrument=True)
        ).compile(plan)
        rows, expected = vector.run(CHAIN_DB), scalar.run(CHAIN_DB)
    finally:
        vec.BATCH_ROWS = saved
    if aggregate:
        assert normalize(rows) == normalize(expected)
    else:
        assert rows == expected
    assert vector.last_stats == scalar.last_stats


# -- the shape of served builds ---------------------------------------------------

_TAKE = re.compile(r"^\s*(\w+) = rt\.v_take\((\w+), (\w+)\)$", re.M)


def chained_gathers(source: str) -> list[str]:
    """Field gathers whose only reader is another gather, as its column."""
    takes = {name: column for name, column, _ in _TAKE.findall(source)}
    chained = []
    for name in takes:
        if name.startswith("rid"):
            continue  # row ids: composing them is the point
        readers = re.findall(rf"^.*\b{name}\b.*$", source, re.M)[1:]
        if readers and all(
            (m := _TAKE.match(line)) is not None and m.group(2) == name
            for line in readers
        ):
            chained.append(name)
    return chained


@pytest.mark.parametrize("q", [9, 18, 7, 8])
def test_served_builds_gather_each_column_once(tpch_db, q):
    """Past a filter, a projection or a join, each column is gathered once
    from its base column (a batch slice, a build column, or a value an
    earlier level read and so materialized) -- never level by level."""
    session = Session(tpch_db)
    executor = ResilientExecutor(session, budget=Budget(wall_clock_seconds=60))
    resolved = executor.prepare(SQL_QUERIES[q])
    config = replace(session.config, budget_checks=True)
    compiled = session.compiled(
        session.cache_key(resolved.kind, resolved.text, config)
    )
    assert compiled.codegen_stats["batch_joins"] >= 1
    assert chained_gathers(compiled.source) == []
