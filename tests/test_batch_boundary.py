"""The served lowering across a batch boundary at the shipped batch size.

At the test scale every table fits in one batch of ``vec.BATCH_ROWS`` rows,
so the other tests cross batch boundaries only by shrinking the constant.
Here SF 0.01 is built once: its lineitem (59 965 rows) is more than one
batch at the shipped cap, and the served program -- the vector lowering
with batch-granular budget checkpoints -- must still answer like push and
charge every scanned row exactly once.  Q2 and Q22, whose partsupp
(8 000 rows) and customer (1 500 rows) scans fit one batch at the shipped
cap, are cut into many at smaller ones.
"""

import math

import pytest

from repro.compiler import runtime, vec
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.resilience import Budget, ResilientExecutor
from repro.session import Session
from repro.tpch import query_plan
from repro.tpch.dbgen import generate_database, generate_tables
from tests.conftest import needs_numpy, normalize

pytestmark = needs_numpy

SCALE = 0.01
LINEITEM_ROWS = 59965


@pytest.fixture(scope="module")
def sf001_db():
    return generate_database(tables=dict(generate_tables(SCALE)))


@pytest.mark.parametrize("q", [1, 3, 6, 18, 21])
def test_served_lowering_answers_like_push(q, sf001_db):
    session = Session(sf001_db)
    assert session.config.codegen == "vector"
    plan = query_plan(q, scale=SCALE)
    served = ResilientExecutor(
        session, engines=("compiled",), budget=Budget(wall_clock_seconds=600.0)
    ).execute_plan(plan)
    push = ResilientExecutor(session, engines=("push",)).execute_plan(plan)
    assert served.report.engine == "compiled" and not served.report.degraded
    assert normalize(served.rows) == normalize(push.rows)


def test_q6_ticks_once_per_batch_and_charges_every_row(sf001_db):
    config = Config(codegen="vector", budget_checks=True)
    compiled = LB2Compiler(sf001_db.catalog, sf001_db, config).compile(
        query_plan(6, scale=SCALE)
    )
    assert compiled.codegen_stats["batch_scans"] == 1
    ticks: list[int] = []
    runtime.push_tick_hook(ticks.append)
    try:
        compiled.run(sf001_db)
    finally:
        runtime.pop_tick_hook(ticks.append)
    assert len(ticks) == math.ceil(LINEITEM_ROWS / vec.BATCH_ROWS) > 1
    assert sum(ticks) == LINEITEM_ROWS


@pytest.mark.parametrize("batch_rows", [5, 8192])
@pytest.mark.parametrize("q", [2, 22])
def test_q2_and_q22_answer_like_push_across_batches(q, batch_rows, sf001_db, monkeypatch):
    """q2's float-keyed partsupp probe and q22's ``SUBSTRING`` batches,
    over scans cut into several batches."""
    monkeypatch.setattr(vec, "BATCH_ROWS", batch_rows)
    plan = query_plan(q, scale=SCALE)
    compiled = LB2Compiler(sf001_db.catalog, sf001_db, Config(codegen="vector")).compile(plan)
    assert compiled.codegen_stats["batch_joins"] >= 1
    push = ResilientExecutor(Session(sf001_db), engines=("push",)).execute_plan(plan)
    assert normalize(compiled.run(sf001_db)) == normalize(push.rows)
    assert push.rows
