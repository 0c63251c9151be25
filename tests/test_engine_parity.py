"""Engine parity through the resilient executor: all 22 TPC-H queries.

The fallback chain is only sound if the engines it degrades between are
observationally equivalent.  This pins that property at the resilience
layer's own entry point: each engine is run as a single-element chain, so
what is compared is exactly what a degraded query would return.  The
batch-vectorized lowering is held to the same bar as the three engines:
it is the compiled engine under a ``Config(codegen="vector")`` session.
"""

import pytest

from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.resilience import ENGINE_CHAIN, ResilientExecutor
from repro.session import Session
from repro.tpch import query_plan
from repro.tpch.queries import QUERIES
from tests.conftest import TINY_SCALE, normalize

ALL_QUERIES = sorted(QUERIES)


@pytest.fixture(scope="module")
def parity_session(tpch_db):
    return Session(tpch_db)


@pytest.fixture(scope="module")
def vector_session(tpch_db):
    return Session(tpch_db, Config(codegen="vector"))


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_every_engine_answers_identically(q, parity_session, vector_session):
    plan = query_plan(q, scale=TINY_SCALE)
    runs = {engine: (parity_session, engine) for engine in ENGINE_CHAIN}
    runs["vector"] = (vector_session, "compiled")
    results = {}
    for label, (session, engine) in runs.items():
        executor = ResilientExecutor(session, engines=(engine,))
        result = executor.execute_plan(plan)
        assert result.report.engine == engine
        assert not result.report.degraded
        results[label] = normalize(result.rows)
    assert (
        results["vector"]
        == results["compiled"]
        == results["push"]
        == results["volcano"]
    )


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_codegen_settings_agree(q, parity_session):
    """Both codegen settings of the compiled engine answer identically,
    compared at the compiler surface (no executor in between)."""
    db = parity_session.db
    plan = query_plan(q, scale=TINY_SCALE)
    rows = {}
    for codegen in ("scalar", "vector"):
        compiled = LB2Compiler(
            db.catalog, db, Config(codegen=codegen)
        ).compile(plan)
        rows[codegen] = normalize(compiled.run(db))
    assert rows["scalar"] == rows["vector"]
