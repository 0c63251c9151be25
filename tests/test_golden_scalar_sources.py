"""Byte-identity goldens: the scalar backend must reproduce pinned sources.

The backend-seam refactor (operators talk to staged data-structure
interfaces; lowerings plug in underneath) is only a refactor if the
``codegen="scalar"`` lowering emits exactly the residual programs the
pre-seam compiler emitted.  These hashes were captured from the compiler
immediately before the seam was introduced; every configuration axis that
changes emission (hoisting, hash-map flavor, sort layout, instrumentation,
budget checkpoints, and the dictionary/index specializations of a fully
built database) is pinned separately.  They were re-captured once when the
Figure 7 ``prepare(db)`` -> ``run(out, ...)`` form became the only one:
each program then differed from its pin only by that wrapper and by its
parameter binds moving into ``run``.

The ``vector`` hashes pin the batch-vectorized backend's output with
observability *off*: staged profiling (``instrument=True``) must leave the
uninstrumented residual program byte-identical, for both backends.  The
``vector_budget`` hashes pin the program a default session serves under a
deadline (the vector lowering with batch-granular budget checkpoints).  The
``instrument`` hashes were re-captured when per-operator wall-clock timing
joined the row counters in the instrumented datapath.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.plan.rewrite import optimize_for_level
from repro.tpch import query_plan
from repro.tpch.queries import QUERIES
from tests.conftest import TINY_SCALE, needs_numpy

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "scalar_sources.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

ALL_QUERIES = sorted(QUERIES)

CONFIGS = {
    "default": Config(),
    "nohoist": Config(hoist=False),
    "openmap": Config(hashmap="open"),
    "colsort": Config(sort_layout="column"),
    "instrument": Config(instrument=True),
    "budget": Config(budget_checks=True),
    "vector": Config(codegen="vector"),
    "vector_budget": Config(codegen="vector", budget_checks=True),
}


def _sha(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def _check_sources(q, db, codegen: str) -> None:
    plan = query_plan(q, scale=TINY_SCALE)
    for label, cfg in CONFIGS.items():
        if cfg.codegen != codegen:
            continue
        compiler = LB2Compiler(db.catalog, db, cfg)
        src = compiler.compile(plan).source
        assert _sha(src) == GOLDEN[f"q{q}:compliant:{label}"], (
            f"q{q} residual source drifted under config {label!r}"
        )


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_scalar_source_is_byte_identical(q, tpch_db):
    _check_sources(q, tpch_db, "scalar")


@needs_numpy
@pytest.mark.parametrize("q", ALL_QUERIES)
def test_vector_source_is_byte_identical(q, tpch_db):
    _check_sources(q, tpch_db, "vector")


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_scalar_split_prepare_is_byte_identical(q, tpch_db):
    """The prepare/run split is the default program: its source is the
    ``default`` pin, wrapped as ``prepare(db)`` returning ``run(out)``."""
    plan = query_plan(q, scale=TINY_SCALE)
    compiler = LB2Compiler(tpch_db.catalog, tpch_db, Config())
    src = compiler.compile(plan).source
    assert _sha(src) == GOLDEN[f"q{q}:compliant:default"], (
        f"q{q} prepare/run residual source drifted"
    )
    defs = [line for line in src.splitlines() if line.lstrip().startswith("def ")]
    assert defs == ["def prepare(db):", "    def run(out):"]
    assert src.rstrip().endswith("    return run")


@pytest.mark.parametrize("q", ALL_QUERIES)
def test_scalar_indexed_source_is_byte_identical(q, tpch_db_full):
    plan = query_plan(q, scale=TINY_SCALE)
    opt = optimize_for_level(plan, tpch_db_full, tpch_db_full.catalog)
    compiler = LB2Compiler(tpch_db_full.catalog, tpch_db_full, Config())
    src = compiler.compile(opt).source
    assert _sha(src) == GOLDEN[f"q{q}:indexed:default"], (
        f"q{q} residual source drifted on the indexed database"
    )
