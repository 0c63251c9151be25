"""The observability layer: spans, metrics, EXPLAIN ANALYZE, zero-cost off.

Four contracts under test:

* tracing -- spans nest correctly, intervals are monotonic and contained
  in their parents', and ``span()`` is inert with no trace active;
* metrics -- the process-wide registry counts what the session, driver,
  and resilience layer feed it, with prefix-scoped reset;
* EXPLAIN ANALYZE -- all three engines label operators identically and
  agree row for row, the compiled engine explains the lowering its config
  (or the session) serves, with staged wall-clock timings and, under the
  vector lowering (which requires NumPy), kernel counters;
* off means off -- with ``instrument=False`` the residual program is
  byte-identical whether or not a trace is active (the golden suite
  additionally pins the hashes).
"""

from __future__ import annotations

import pytest

from repro.compiler import runtime as rt
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.obs.explain import ENGINES, explain_analyze_plan, operator_labels
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import Trace, active_trace, span
from repro.plan import Agg, HashJoin, Scan, Select, Sort, col, count, sum_
from repro.session import Session
from tests.conftest import needs_numpy, normalize

SQL = "select sdep, count(*) n from Sales where amount > 20.0 group by sdep"


@pytest.fixture(autouse=True)
def _clean_registry():
    """Observability tests assert on counter values; isolate them."""
    REGISTRY.reset()
    yield
    REGISTRY.reset()


def sales_plan():
    return Agg(
        Select(Scan("Sales"), col("amount").gt(20.0)),
        [("sdep", col("sdep"))],
        [("n", count()), ("total", sum_(col("amount")))],
    )


# -- tracing ------------------------------------------------------------------


def test_span_without_trace_is_inert():
    assert active_trace() is None
    with span("orphan") as sp:
        assert not sp
        sp.meta["ignored"] = True  # vanishes, never raises
    assert active_trace() is None


def test_spans_nest_and_intervals_are_contained():
    with Trace("root") as trace:
        with span("outer") as outer:
            with span("inner") as inner:
                pass
        with span("sibling"):
            pass
    root = trace.root
    assert [c.name for c in root.children] == ["outer", "sibling"]
    assert [c.name for c in outer.children] == ["inner"]
    # monotonic and contained: parent interval spans the child's
    assert root.start <= outer.start <= inner.start
    assert inner.end <= outer.end <= root.end
    assert inner.end >= inner.start
    assert outer.seconds >= inner.seconds


def test_trace_exit_restores_previous_and_closes_leaked_spans():
    with Trace("outer") as outer_trace:
        try:
            with span("leaky"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        # the leaked span was closed by its finally; stack is back at root
        with span("after") as sp:
            assert sp
    assert active_trace() is None
    assert [c.name for c in outer_trace.root.children] == ["leaky", "after"]


def test_trace_to_dict_roundtrips_to_json():
    import json

    with Trace("t", query=6) as trace:
        with span("stage", detail="x"):
            pass
    doc = json.loads(trace.to_json())
    assert doc["name"] == "t"
    assert doc["meta"] == {"query": 6}
    assert doc["children"][0]["name"] == "stage"
    assert doc["children"][0]["meta"] == {"detail": "x"}


def test_session_populates_compile_pipeline_spans(tiny_db):
    session = Session(tiny_db)
    with Trace("q") as trace:
        session.query(SQL)
    # A miss plans while resolving the statement, before the cache
    # lookup, so ``plan`` is a root sibling of ``compile`` -- the order a
    # served request shows too.
    names = [c.name for c in trace.root.children]
    assert names == ["plan", "compile", "execute"]
    compile_children = [c.name for c in trace.root.children[1].children]
    assert compile_children == ["codegen", "verify", "host-compile"]
    codegen = trace.root.children[1].children[0]
    # a session built without a Config serves the vector lowering
    assert codegen.meta["backend"] == ("vector" if rt.have_numpy() else "scalar")
    assert codegen.meta["residual_bytes"] > 0
    assert codegen.meta["ir_stmts"] > 0


def test_resilient_executor_merges_trail_into_trace(tiny_db):
    from repro.resilience import FaultInjector, FaultSpec, ResilientExecutor

    session = Session(tiny_db)
    with Trace("q") as trace:
        with FaultInjector(FaultSpec("codegen")):
            result = ResilientExecutor(session).query(SQL)
    assert result.report.engine == "push"
    attempts = [c for c in trace.root.children if c.name == "attempt"]
    assert [a.meta["engine"] for a in attempts] == ["compiled", "push"]
    assert attempts[0].meta["error"] == "E_FAULT"
    report = [c for c in trace.root.children if c.name == "report"][-1]
    assert report.meta["engine_trail"] == "compiled->push"
    assert report.meta["degraded"] is True
    assert REGISTRY.get_counter("faults.injected.codegen") == 1
    assert REGISTRY.get_counter("engine.failed.compiled") == 1
    assert REGISTRY.get_counter("engine.selected.push") == 1
    assert REGISTRY.get_counter("engine.degraded") == 1


# -- metrics ------------------------------------------------------------------


def test_registry_counters_gauges_histograms():
    reg = MetricsRegistry()
    assert reg.counter("c") == 1
    assert reg.counter("c", 4) == 5
    reg.gauge("g", 2.5)
    for v in (1.0, 3.0):
        reg.observe("h", v)
    snap = reg.snapshot()
    assert snap["counters"] == {"c": 5}
    assert snap["gauges"] == {"g": 2.5}
    h = snap["histograms"]["h"]
    assert h["count"] == 2
    assert h["total"] == 4.0
    assert h["min"] == 1.0
    assert h["max"] == 3.0
    assert h["mean"] == 2.0
    assert set(h["quantiles"]) == {"p50", "p90", "p95", "p99"}
    assert h["buckets"][-1] == ["+Inf", 2]  # cumulative series covers all
    # the snapshot is detached
    snap["counters"]["c"] = 999
    assert reg.get_counter("c") == 5


def test_registry_reset_scopes_by_prefix():
    reg = MetricsRegistry()
    reg.counter("session.cache.hits")
    reg.counter("engine.selected.push")
    reg.reset("session.")
    assert reg.get_counter("session.cache.hits") == 0
    assert reg.get_counter("engine.selected.push") == 1
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_compile_feeds_registry(tiny_db):
    session = Session(tiny_db)
    session.query(SQL)
    snap = REGISTRY.snapshot()
    assert snap["counters"]["compile.count"] == 1
    assert snap["histograms"]["compile.generation_seconds"]["count"] == 1
    assert snap["histograms"]["compile.host_seconds"]["count"] == 1


# -- the session cache --------------------------------------------------------


def test_cache_info_counts_hits_misses(tiny_db):
    session = Session(tiny_db)
    session.query(SQL)
    session.query(SQL)
    info = session.cache_info()
    assert info["size"] == 1 and info["hits"] == 1 and info["misses"] == 1
    assert info["evictions"] == 0
    # query() auto-parameterizes, so the one cached entry is the shape key
    # (literals lifted to ?) rather than the literal statement text.
    from repro.sql.shape import statement_shape

    assert info["statements"] == ["shape:" + statement_shape(SQL).text]
    assert info["shape_hits"] == 1 and info["shape_misses"] == 1
    assert REGISTRY.get_counter("session.cache.hits") == 1
    assert REGISTRY.get_counter("session.cache.misses") == 1


def test_cache_is_bounded_lru(tiny_db):
    session = Session(tiny_db, max_cache_size=2)
    a = "select dname from Dep"
    b = "select eid from Emp"
    c = "select sid from Sales"
    session.prepare(a)
    session.prepare(b)
    session.prepare(a)  # refresh a's recency; b is now LRU
    session.prepare(c)  # evicts b
    info = session.cache_info()
    assert info["size"] == 2 and info["evictions"] == 1
    assert info["statements"] == [a, c]
    assert REGISTRY.get_counter("session.cache.evictions") == 1
    # b recompiles (miss), a still hits
    assert session.cache_info()["misses"] == 3
    session.prepare(b)
    assert session.cache_info()["misses"] == 4


def test_cache_size_must_be_positive(tiny_db):
    with pytest.raises(ValueError, match="positive"):
        Session(tiny_db, max_cache_size=0)


# -- EXPLAIN ANALYZE ----------------------------------------------------------


def test_operator_labels_match_instrument_numbering(tiny_db):
    plan = sales_plan()
    infos = operator_labels(plan)
    assert [i.label for i in infos] == ["Scan#1", "Select#2", "Agg#3"]
    assert infos[1].children == ("Scan#1",)
    session = Session(tiny_db)
    _, stats = session.analyze(SQL)
    ea = session.explain_analyze(SQL)
    # staged counters and the explain tree tell one story
    assert {op.label: op.rows for op in ea.operators if op.label in stats} == stats


@pytest.mark.parametrize(
    "engine, config",
    [
        ("compiled", None),
        pytest.param("compiled", Config(codegen="vector"), marks=needs_numpy),
        ("push", None),
        ("volcano", None),
    ],
    ids=["compiled", "vector", "push", "volcano"],
)
def test_explain_analyze_rows_and_selectivity(tiny_db, engine, config):
    ea = explain_analyze_plan(
        tiny_db, sales_plan(), engine=engine, config=config
    )
    assert ea.engine == engine
    assert ea.result_rows == 3
    assert ea.rows_by_label == {"Scan#1": 6, "Select#2": 5, "Agg#3": 3}
    assert ea.operator("Scan#1").selectivity == 1.0  # rows-in = table size
    assert ea.operator("Select#2").selectivity == pytest.approx(5 / 6)
    assert ea.operator("Agg#3").selectivity == pytest.approx(3 / 5)
    for op in ea.operators:
        assert op.seconds is not None and op.seconds >= 0.0


@needs_numpy
def test_all_engines_agree_per_operator(tiny_db):
    plan = Sort(
        Agg(
            HashJoin(Scan("Emp"), Scan("Dep"), ("edname",), ("dname",)),
            [("edname", col("edname"))],
            [("n", count())],
        ),
        [("n", False)],
    )
    analyses = {e: explain_analyze_plan(tiny_db, plan, engine=e) for e in ENGINES}
    analyses["vector"] = explain_analyze_plan(
        tiny_db, plan, config=Config(codegen="vector")
    )
    reference = analyses["compiled"]
    for engine, ea in analyses.items():
        assert ea.rows_by_label == reference.rows_by_label, engine
        assert ea.result_rows == reference.result_rows, engine


def test_compiled_timings_are_inclusive(tiny_db):
    """A parent's staged interval brackets its child's: Agg >= Select >= Scan."""
    ea = explain_analyze_plan(tiny_db, sales_plan(), engine="compiled")
    agg = ea.operator("Agg#3").seconds
    select = ea.operator("Select#2").seconds
    scan = ea.operator("Scan#1").seconds
    assert agg >= select >= scan >= 0.0


@needs_numpy
def test_vector_engine_reports_kernels(tiny_db):
    ea = explain_analyze_plan(tiny_db, sales_plan(), config=Config(codegen="vector"))
    assert ea.codegen_stats.get("vector_aggs", 0) >= 1
    assert ea.kernels, "no kernels observed"
    assert any(name.startswith("v_group") for name in ea.kernels)
    for entry in ea.kernels.values():
        assert entry["calls"] >= 1
        assert entry["rows"] >= 0
    # batch sizes flow through: the filter kernels see the whole Sales table
    assert ea.kernels["v_gt"]["rows"] == 6


def test_explain_analyze_explains_the_served_lowering(tiny_db):
    """A session explains the program it serves: the vector lowering when
    NumPy imports, the scalar one otherwise -- never a different build."""
    session = Session(tiny_db)
    served = session.prepare(SQL).codegen_stats["backend"]
    assert session.explain_analyze(SQL).codegen_stats["backend"] == served


@needs_numpy
def test_vector_devectorization_reasons_surface(tiny_db):
    """A batch chain without a Select (and no vector agg consuming it) is
    benefit-pruned; stats say which chain and why."""
    from repro.plan import Project

    plan = Project(Scan("Sales"), [("sdep", col("sdep"))])
    compiled = LB2Compiler(
        tiny_db.catalog, tiny_db, Config(codegen="vector")
    ).compile(plan)
    pruned = compiled.codegen_stats.get("pruned_chains", [])
    assert pruned and pruned[0]["reason"] == "no-select-in-chain"
    assert pruned[0]["root"] == "Project"
    assert pruned[0]["nodes"] == 2  # Project + Scan demoted together


def test_explain_analyze_rejects_unknown_engine(tiny_db):
    with pytest.raises(ValueError, match="unknown engine"):
        explain_analyze_plan(tiny_db, sales_plan(), engine="gpu")


# -- off means off ------------------------------------------------------------


@needs_numpy
def test_uninstrumented_source_identical_under_active_trace(tiny_db):
    """Tracing is a driver-level concern: the residual program must not
    change because a Trace happens to be active."""
    for codegen in ("scalar", "vector"):
        cfg = Config(codegen=codegen)
        plain = LB2Compiler(tiny_db.catalog, tiny_db, cfg).compile(sales_plan())
        with Trace("active"):
            traced = LB2Compiler(tiny_db.catalog, tiny_db, cfg).compile(sales_plan())
        assert plain.source == traced.source, codegen


def test_uninstrumented_run_records_no_stats(tiny_db):
    compiled = LB2Compiler(tiny_db.catalog, tiny_db).compile(sales_plan())
    rows = compiled.run(tiny_db)
    assert normalize(rows)
    assert compiled.last_stats is None
    assert compiled.last_times is None
    assert compiled.last_kernels is None


# -- the repro-obs CLI --------------------------------------------------------


def test_cli_report_validates_and_agrees():
    from repro.obs.cli import build_report, validate_report

    report = build_report(query=6, scale=0.002, engine="compiled")
    assert validate_report(report) == []
    assert report["explain"]["result_rows"] == 1
    labels = [op["label"] for op in report["explain"]["operators"]]
    assert labels[0] == "Scan#1"
    names = [c["name"] for c in report["trace"]["children"]]
    assert names[:2] == ["dbgen", "plan"]


def test_cli_validator_rejects_malformed_reports():
    from repro.obs.cli import validate_report

    assert validate_report([]) == ["report is not an object"]
    problems = validate_report({"schema": "repro-obs/v0"})
    assert any("schema" in p for p in problems)
    assert any("missing top-level key" in p for p in problems)
    bad_span = {
        "schema": "repro-obs/v1", "query": 1, "scale": 0.1, "engine": "compiled",
        "trace": {"name": "t", "start": 2.0, "end": 1.0, "seconds": -1.0,
                  "meta": {}, "children": []},
        "explain": {"result_rows": 0, "operators": [], "kernels": {}},
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
    }
    problems = validate_report(bad_span)
    assert any("end precedes start" in p for p in problems)
    assert any("operators" in p for p in problems)
