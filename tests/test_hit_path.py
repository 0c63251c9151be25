"""A cache hit does no parsing: one lex per served request, never a plan.

Counts calls to the SQL front end's three stages -- ``statement_shape``
(lex + literal lifting), ``sql_to_plan`` (parse + plan) and
``optimize_for_level`` (index rewrites) -- through every ``repro`` module
that imported them, across served requests whose shape is already
compiled.  A hit must lex its text once (at admission) and plan it never:
the plan, the slot signature and the residual program all come from the
cache entry.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.compiler.lb2 import Config
from repro.plan import params
from repro.plan.rewrite import optimize_for_level
from repro.resilience import Budget, ResilientExecutor
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.serve import QueryServer, QueryService, ServiceClient, ServiceConfig, ServiceRequest
from repro.session import Session
from repro.sql.planner import sql_to_plan
from repro.sql.shape import statement_shape

STAGES = {
    "statement_shape": statement_shape,
    "sql_to_plan": sql_to_plan,
    "optimize_for_level": optimize_for_level,
}

SQL = "select count(*) from Sales where amount > {}"

LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"


@pytest.fixture
def stage_calls(monkeypatch):
    """Per-stage call counts, wherever a ``repro`` module holds the stage."""
    counts: Counter = Counter()
    for stage, fn in STAGES.items():

        def counting(*args, _stage=stage, _fn=fn, **kwargs):
            counts[_stage] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return counts


def _calls(counts: Counter) -> list:
    return [counts[stage] for stage in STAGES]


@pytest.fixture
def service(tiny_db):
    with QueryService(Session(tiny_db), ServiceConfig(workers=1)) as svc:
        yield svc


def test_warm_submit_lexes_once_and_never_plans(service, stage_calls):
    assert service.submit(ServiceRequest(sql=SQL.format(20.0))).ok  # compiles
    expected = Session(service.session.db).query(SQL.format(50.0))
    before = service.session.cache_info()
    stage_calls.clear()
    response = service.submit(ServiceRequest(sql=SQL.format(50.0)))
    assert response.ok and response.engine == "compiled"
    assert response.rows == expected
    assert _calls(stage_calls) == [1, 0, 0]
    after = service.session.cache_info()
    assert after["shape_hits"] == before["shape_hits"] + 1
    assert after["misses"] == before["misses"]


def test_warm_hit_validates_its_bindings_once(service, monkeypatch):
    """The session checks a hit's lifted literals against the shape's slots
    when it resolves the statement; the compiled run takes that vector as
    checked."""
    assert service.submit(ServiceRequest(sql=SQL.format(20.0))).ok  # compiles
    checked = []
    check_value = params._check_value

    def counting(slot, value):
        checked.append(value)
        return check_value(slot, value)

    monkeypatch.setattr(params, "_check_value", counting)
    for literal in (50.0, 70.0):
        checked.clear()
        response = service.submit(ServiceRequest(sql=SQL.format(literal)))
        assert response.ok and response.engine == "compiled"
        assert checked == [literal]


def test_second_warm_hit_builds_no_config(service, monkeypatch):
    """The guarded config a served request compiles and looks up under is
    derived once per session config, not copied per request."""
    for literal in (20.0, 50.0):  # compile, then one warm hit
        assert service.submit(ServiceRequest(sql=SQL.format(literal))).ok
    built = []
    post_init = Config.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Config, "__post_init__", counting)
    response = service.submit(ServiceRequest(sql=SQL.format(70.0)))
    assert response.ok and response.engine == "compiled"
    assert built == []


def test_warm_wire_requests_lex_once_and_never_plan(service, stage_calls):
    with QueryServer(service, own_service=False) as server:
        with ServiceClient(*server.address) as client:
            assert client.sql(SQL.format(20.0))["ok"]  # compiles the shape
            stage_calls.clear()
            reply = client.sql(SQL.format(50.0))
            assert reply["ok"] and reply["engine"] == "compiled"
            assert _calls(stage_calls) == [1, 0, 0]
            # The wire prepare of a cached shape is a hit too.
            stage_calls.clear()
            prepared = client.prepare(SQL.format(99.0))
            assert prepared["ok"]
            assert prepared["signature"] == [{"slot": "?0", "type": "float"}]
            assert _calls(stage_calls) == [1, 0, 0]


@pytest.mark.parametrize("shape_compiled", [True, False])
def test_ill_typed_variant_plans_on_its_miss_only(service, stage_calls, shape_compiled):
    """``sid < 3.5`` does not fit the shape's INT slot and runs its own
    per-literal entry.  Its miss plans the literal (and, when nothing has
    compiled the shape, the shape first, to learn its slots); an exact
    repeat plans nothing, whether or not the shape is cached."""
    ill_typed = "select count(*) from Sales where sid < {}"
    if shape_compiled:
        assert service.submit(ServiceRequest(sql=ill_typed.format(3))).ok
    expected = Session(service.session.db).prepare(ill_typed.format(3.5)).run(
        service.session.db
    )
    stage_calls.clear()
    miss = service.submit(ServiceRequest(sql=ill_typed.format(3.5)))
    assert miss.ok and miss.rows == expected
    plans = 1 if shape_compiled else 2
    assert _calls(stage_calls) == [1, plans, plans]
    before = service.session.cache_info()
    stage_calls.clear()
    hit = service.submit(ServiceRequest(sql=ill_typed.format(3.5)))
    assert hit.ok and hit.engine == "compiled" and hit.rows == expected
    assert _calls(stage_calls) == [1, 0, 0]
    after = service.session.cache_info()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]


def test_failed_compiled_hit_degrades_to_push_planning_at_most_once(
    tiny_db, stage_calls
):
    """The hit's compiled run fails mid-scan: push answers from the plan
    the cache entry held, and the evicted shape is not planned twice.

    Built as the service builds its executors (deadline budget, guarded
    builds cached), but on this thread: fault hooks are thread-local."""
    session = Session(tiny_db)

    def executor() -> ResilientExecutor:
        return ResilientExecutor(
            session, budget=Budget(wall_clock_seconds=60.0), cache_guarded_compiles=True
        )

    assert executor().query(SQL.format(20.0)).report.engine_trail == ("compiled",)
    expected = Session(tiny_db).query(SQL.format(50.0))
    stage_calls.clear()
    with FaultInjector(FaultSpec("mid-scan")):
        result = executor().query(SQL.format(50.0))
    assert result.report.engine_trail == ("compiled", "push")
    assert result.rows == expected
    assert stage_calls["statement_shape"] == 1
    assert stage_calls["sql_to_plan"] <= 1
    assert session.cached_statements == 0  # the failed build was evicted


def test_traced_point_wire_lexes_once_and_self_times_add_up(tmp_path):
    """The perf ledger's traced ``point_wire`` run, span by span: eight
    ``serve.wire`` roots, every served layer present, exactly one
    ``sql.shape`` and no ``sql.plan`` per request, and per-span self times
    that add up to the root's wall time."""
    spec = importlib.util.spec_from_file_location("ledger_spans", LEDGER / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    out = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--quick", "--workload", "point_wire",
         "--trace", "1", "--trace-out", str(out)],
        stdout=subprocess.DEVNULL, check=True, timeout=120,
    )
    docs = json.loads(out.read_text())["spans"]
    by_id = {d["id"]: [d["name"], d["start"], d["end"], None, d["request_id"], None]
             for d in docs}
    for d in docs:
        if d["parent"] is not None:
            by_id[d["id"]][spans.PARENT] = by_id[d["parent"]]
    all_spans = list(by_id.values())
    selfs = spans.self_times(all_spans)
    roots = [s for s in all_spans if s[spans.PARENT] is None and s[spans.RID]]
    assert len(roots) == 8 and {s[spans.NAME] for s in roots} == {"serve.wire"}
    for root in roots:
        tree = [s for s in all_spans if s[spans.RID] == root[spans.RID]]
        names = [s[spans.NAME] for s in tree]
        assert {"serve.server", "serve.service", "resilience.executor",
                "session.resolve", "sql.shape", "compiler.run"} <= set(names)
        assert names.count("sql.shape") == 1 and "sql.plan" not in names
        total = sum(selfs[id(s)] for s in tree)
        assert total == pytest.approx(root[spans.END] - root[spans.START], rel=0.05)
