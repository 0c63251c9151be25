"""Engine parity through the resilient executor: all 22 TPC-H queries.

The fallback chain is only sound if the engines it degrades between are
observationally equivalent.  This pins that property at the resilience
layer's own entry point: each engine is run as a single-element chain, so
what is compared is exactly what a degraded query would return.  The
batch-vectorized lowering is held to the same bar as the three engines:
it is the compiled engine under a ``Config(codegen="vector")`` session,
and requires NumPy (``needs_numpy``).
"""

import pytest

from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.resilience import ENGINE_CHAIN, ResilientExecutor
from repro.session import Session
from repro.tpch import query_plan
from repro.tpch.queries import QUERIES
from tests.conftest import TINY_SCALE, needs_numpy, normalize

ALL_QUERIES = sorted(QUERIES)


@pytest.fixture(scope="module")
def parity_session(tpch_db):
    return Session(tpch_db)


@pytest.fixture(scope="module")
def vector_session(tpch_db):
    return Session(tpch_db, Config(codegen="vector"))


def _rows(session, engine, plan):
    """``plan``'s rows from ``session`` with ``engine`` as the whole chain."""
    result = ResilientExecutor(session, engines=(engine,)).execute_plan(plan)
    assert result.report.engine == engine
    assert not result.report.degraded
    return normalize(result.rows)


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_every_engine_answers_identically(q, parity_session):
    plan = query_plan(q, scale=TINY_SCALE)
    results = [_rows(parity_session, engine, plan) for engine in ENGINE_CHAIN]
    assert all(rows == results[0] for rows in results)


@needs_numpy
@pytest.mark.parametrize("q", ALL_QUERIES)
def test_vector_lowering_answers_like_the_engines(q, parity_session, vector_session):
    plan = query_plan(q, scale=TINY_SCALE)
    assert _rows(vector_session, "compiled", plan) == _rows(parity_session, "push", plan)


@needs_numpy
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
