"""A cold request walks each structure once.

A served miss runs each plan-level check once: the session's resolve
collects a statement's slot signature, the resilient executor validates a
hand-built plan up front, and the compile takes both as given.  Plan facts
the generator derives (static fields, field types) live for one compile
only, and the service freezes the loaded heap once per process.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.compiler.runtime import have_numpy
from repro.plan.params import collect_params
from repro.plan.physical import PhysicalPlan
from repro.serve import QueryService, ServiceConfig, ServiceRequest
from repro.session import Session
from repro.tpch import query_plan
from tests.conftest import TINY_SCALE

ROOT = Path(__file__).resolve().parents[1]


def _count_calls(monkeypatch, fn) -> list:
    """Record each call of ``fn`` through every ``repro`` module holding it."""
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("request_doc", [
    {"sql": "select count(*) from Sales where amount > 20.0"},  # lifted literal
    {"sql": "select count(*) from Sales where amount > ?", "params": [20.0]},
])
def test_a_cold_sql_miss_collects_its_slots_once(tiny_db, monkeypatch, request_doc):
    with QueryService(Session(tiny_db), ServiceConfig(workers=1)) as service:
        calls = _count_calls(monkeypatch, collect_params)
        response = service.submit(ServiceRequest(**request_doc))
        assert response.ok and response.engine == "compiled"
        assert response.rows == [(5,)]
        assert service.session.cache_info()["misses"] == 1
        assert len(calls) == 1


def test_a_tpch_request_validates_its_plan_once(tpch_db, monkeypatch):
    config = ServiceConfig(workers=1, query_scale=TINY_SCALE)
    with QueryService(Session(tpch_db), config) as service:
        roots: list = []
        plan_of = QueryService._tpch_plan

        def recording(self, number):
            roots.append(plan_of(self, number))
            return roots[-1]

        monkeypatch.setattr(QueryService, "_tpch_plan", recording)
        validated: list = []
        validate = PhysicalPlan.validate

        def counting(self, catalog):
            validated.append(self)
            return validate(self, catalog)

        monkeypatch.setattr(PhysicalPlan, "validate", counting)
        for _ in range(2):  # the miss, then a hit
            response = service.submit(ServiceRequest(tpch=6))
            assert response.ok and response.engine == "compiled"
            root = roots[-1]
            assert sum(plan is root for plan in validated) == 1
        assert service.session.cache_info()["misses"] == 1


def _configs(dictionaries: bool) -> list:
    configs = [Config(use_dictionaries=dictionaries)]
    if have_numpy():
        configs.append(Config(codegen="vector", use_dictionaries=dictionaries))
    return configs


@pytest.mark.parametrize("q", [1, 3, 10])
def test_plan_facts_never_leak_between_compiles(tpch_db_full, q):
    """One plan object compiled with dictionaries, without, then with again
    gives each time the source a fresh plan gives: which fields hold
    dictionary codes is decided per compile, from its config."""
    db = tpch_db_full
    shared = query_plan(q, scale=TINY_SCALE)
    sources = {}
    for dictionaries in (True, False, True):
        for config in _configs(dictionaries):
            source = LB2Compiler(db.catalog, db, config).compile(shared).source
            fresh = query_plan(q, scale=TINY_SCALE)
            assert source == LB2Compiler(db.catalog, db, config).compile(fresh).source
            sources[config] = source
    for config in _configs(True):
        # the two configs stage different programs, so the check has teeth
        without = Config(codegen=config.codegen, use_dictionaries=False)
        assert sources[config] != sources[without]


def test_a_second_service_neither_collects_nor_freezes(tiny_db, monkeypatch):
    QueryService(Session(tiny_db)).close()  # this process's first, if no test made one
    calls: list = []
    monkeypatch.setattr(gc, "collect", lambda *args: calls.append("collect") or 0)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    QueryService(Session(tiny_db)).close()
    assert calls == []


def test_the_first_service_freezes_the_loaded_heap():
    """In a fresh process: nothing is frozen before the first service, the
    loaded database (and everything else alive) is after it, and a second
    service leaves the permanent generation as it was."""
    code = (
        "import gc\n"
        "from repro.serve import QueryService\n"
        "from repro.session import Session\n"
        "from tests.conftest import make_tiny_db\n"
        "db = make_tiny_db()\n"
        "before = gc.get_freeze_count()\n"
        "QueryService(Session(db)).close()\n"
        "first = gc.get_freeze_count()\n"
        "QueryService(Session(db)).close()\n"
        "print(before, first, gc.get_freeze_count())\n"
    )
    env = dict(os.environ)
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT), *inherited])
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
        text=True, check=True, timeout=120,
    ).stdout
    before, first, second = map(int, out.split())
    assert before == 0
    assert first > 1000
    assert second == first
