"""Resilient-execution tests: fallback chain, budgets, fault injection.

The fault matrix drives every named injection site through real TPC-H
queries and asserts the degraded answer matches the push-engine baseline
-- resilience means the caller still gets correct rows, plus a report
explaining how they were obtained.
"""

import pytest

from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.compiler.parallel import ParallelQuery
from repro.engine import execute_push
from repro.errors import BudgetExceeded, InjectedFault, ReproError
from repro.plan import Agg, IndexJoin, Scan, col, count
from repro.plan.physical import PlanError
from repro.resilience import (
    DEFAULT_POLICY,
    STRICT_POLICY,
    Budget,
    FallbackPolicy,
    FaultInjector,
    FaultSpec,
    ResilientExecutor,
    active_injector,
)
from repro.session import Session
from repro.tpch import query_plan
from tests.conftest import TINY_SCALE, make_tiny_db, needs_numpy, normalize

SAMPLE_QUERIES = (1, 6, 14)
COMPILE_SITES = ("codegen", "verify", "host-compile")


@pytest.fixture(scope="module")
def sample_reference(tpch_db):
    out = {}
    for q in SAMPLE_QUERIES:
        plan = query_plan(q, scale=TINY_SCALE)
        out[q] = normalize(execute_push(plan, tpch_db, tpch_db.catalog))
    return out


# -- the fault matrix -------------------------------------------------------------


@pytest.mark.parametrize("q", SAMPLE_QUERIES)
@pytest.mark.parametrize("site", COMPILE_SITES + ("mid-scan",))
def test_fault_matrix_degrades_to_correct_rows(site, q, tpch_db, sample_reference):
    """Every injection site still answers correctly via degradation."""
    executor = ResilientExecutor(Session(tpch_db))
    plan = query_plan(q, scale=TINY_SCALE)
    with FaultInjector(FaultSpec(site)) as injector:
        result = executor.execute_plan(plan)
    assert normalize(result.rows) == sample_reference[q]
    assert injector.fired, "the armed fault never fired"
    report = result.report
    assert report.degraded
    assert report.engine_trail[0] == "compiled"
    assert report.engine in ("push", "volcano")
    assert site in report.faults
    assert report.attempts[0].error_code == "E_FAULT"
    assert "fault" in report.describe()


def test_fault_exhausting_the_chain_reraises_with_trail(tiny_db):
    """A single-engine chain that faults re-raises with the full story."""
    executor = ResilientExecutor(Session(tiny_db), engines=("compiled",))
    with FaultInjector(FaultSpec("verify")):
        with pytest.raises(InjectedFault) as info:
            executor.query("select count(*) from Emp")
    exc = info.value
    assert exc.engine_trail == ("compiled",)
    assert exc.site == "verify"
    assert exc.execution_report.attempts[0].fault_site == "verify"


def test_fault_times_bound_and_fired_log(tiny_db):
    """``times`` bounds how often a spec fires; ``fired`` records hits."""
    executor = ResilientExecutor(Session(tiny_db))
    with FaultInjector(FaultSpec("verify", times=1)) as injector:
        executor.query("select count(*) from Emp")
        # Spec exhausted: the same statement now compiles cleanly.
        result = executor.query("select count(*) from Emp")
    assert result.report.engine_trail == ("compiled",)
    assert len(injector.fired) == 1


def test_injector_nesting_restores_previous(tiny_db):
    outer = FaultInjector(FaultSpec("codegen"))
    with outer:
        with FaultInjector(FaultSpec("verify")) as inner:
            assert active_injector() is inner
        assert active_injector() is outer
    assert active_injector() is None


def test_fault_spec_rejects_unknown_site():
    with pytest.raises(ValueError, match="site"):
        FaultSpec("no-such-site")


# -- budgets ----------------------------------------------------------------------


def test_row_budget_raises_with_partial_stats(tpch_db):
    executor = ResilientExecutor(Session(tpch_db), budget=Budget(max_rows=64))
    plan = query_plan(6, scale=TINY_SCALE)
    with pytest.raises(BudgetExceeded) as info:
        executor.execute_plan(plan)
    exc = info.value
    assert exc.code == "E_BUDGET"
    assert exc.stats["rows_seen"] > 64
    assert exc.stats["max_rows"] == 64
    assert exc.stats["checks"] >= 1
    assert exc.engine_trail == ("compiled",)
    assert exc.execution_report.budget_stats["rows_seen"] == exc.stats["rows_seen"]


def test_wall_clock_budget_raises_instead_of_running_on(tpch_db):
    executor = ResilientExecutor(
        Session(tpch_db), budget=Budget(wall_clock_seconds=1e-9)
    )
    with pytest.raises(BudgetExceeded) as info:
        executor.execute_plan(query_plan(1, scale=TINY_SCALE))
    assert info.value.stats["elapsed_seconds"] > 1e-9


def test_generous_budget_reports_stats_on_success(tiny_db):
    executor = ResilientExecutor(
        Session(tiny_db), budget=Budget(wall_clock_seconds=60.0, max_rows=10**9)
    )
    result = executor.query("select count(*) from Sales")
    assert result.rows == [(6,)]
    assert result.report.engine == "compiled"
    assert result.report.budget_stats["rows_seen"] >= 1


def test_budget_survives_degradation(tpch_db):
    """One budget bounds the whole chain: after the compiled attempt dies
    to a fault, the push engine runs under the same guard and trips it."""
    executor = ResilientExecutor(Session(tpch_db), budget=Budget(max_rows=64))
    plan = Scan("lineitem")  # wide result: every engine must tick past 64
    with FaultInjector(FaultSpec("verify")):
        with pytest.raises(BudgetExceeded) as info:
            executor.execute_plan(plan)
    assert info.value.engine_trail == ("compiled", "push")
    assert info.value.stats["rows_seen"] > 64


@pytest.mark.parametrize("codegen", ["scalar", pytest.param("vector", marks=needs_numpy)])
def test_row_quota_charges_rows_scanned_not_an_interval(codegen, tpch_db):
    """A 5-row table under a 100-row quota answers: the compiled scan
    charges the rows it scans, exactly like the push engine."""
    session = Session(tpch_db, Config(codegen=codegen))
    for engines in (("compiled",), ("push",)):
        executor = ResilientExecutor(
            session, budget=Budget(max_rows=100), engines=engines
        )
        result = executor.query("select r_name from region")
        assert len(result.rows) == 5
        assert result.report.budget_stats["rows_seen"] == 5


@pytest.mark.parametrize("max_rows", [200, 5000])
@pytest.mark.parametrize("codegen", ["scalar", pytest.param("vector", marks=needs_numpy)])
def test_row_quota_trips_typed_within_one_checkpoint(codegen, max_rows, tpch_db):
    """The budget-trip property over the 22-query mix: a query either
    answers within its quota or raises a typed ``E_BUDGET`` (no partial
    rows) having scanned at most one checkpoint past it -- one interval
    on the scalar lowering, one batch on the vector one.  Checkpoints
    charge scanned rows, so batch joins leave the row bound as it is; the
    work past a checkpoint is that batch's kernel chain, including one
    probe batch's fan-out."""
    from repro.compiler import vec
    from repro.tpch.sql_queries import SQL_QUERIES

    session = Session(tpch_db, Config(codegen=codegen))
    step = Config().budget_check_interval
    if codegen == "vector":
        step = max(step, vec.BATCH_ROWS)
    tripped = 0
    for q in range(1, 23):
        executor = ResilientExecutor(session, budget=Budget(max_rows=max_rows))
        plan = query_plan(q, scale=TINY_SCALE)
        try:
            if q in SQL_QUERIES:
                result = executor.query(SQL_QUERIES[q])
            else:
                result = executor.execute_plan(plan)
        except BudgetExceeded as exc:
            tripped += 1
            assert exc.code == "E_BUDGET" and exc.engine_trail == ("compiled",)
            assert exc.execution_report.engine is None
            assert max_rows < exc.stats["rows_seen"] <= max_rows + step, q
        else:
            assert result.report.engine == "compiled"
            assert result.report.budget_stats["rows_seen"] <= max_rows, q
            expected = execute_push(plan, tpch_db, tpch_db.catalog)
            assert normalize(result.rows) == normalize(expected), q
    assert tripped >= (22 if max_rows < 300 else 1)


@needs_numpy
def test_mid_scan_fault_fires_under_the_vector_lowering(
    tpch_db, sample_reference, monkeypatch
):
    """Mid-scan faults ride the batch checkpoints: the vectorized program
    faults, and the chain degrades to correct rows."""
    from repro.compiler import vec

    # 8 192-row batches split this scale's lineitem (12 005 rows) in two.
    monkeypatch.setattr(vec, "BATCH_ROWS", 8192)
    plan = query_plan(6, scale=TINY_SCALE)
    config = Config(codegen="vector", budget_checks=True)
    guarded = LB2Compiler(tpch_db.catalog, tpch_db, config).compile(plan)
    assert guarded.codegen_stats["batch_scans"] == 1
    executor = ResilientExecutor(Session(tpch_db, Config(codegen="vector")))
    with FaultInjector(FaultSpec("mid-scan", at={1})) as injector:
        result = executor.execute_plan(plan)
    assert injector.fired == [("mid-scan", 1)]  # the second batch's tick
    assert result.report.engine_trail == ("compiled", "push")
    assert normalize(result.rows) == sample_reference[6]


def test_budget_rejects_nonsense():
    with pytest.raises(ValueError):
        Budget(max_rows=0)
    with pytest.raises(ValueError):
        Budget(wall_clock_seconds=-1.0)
    assert Budget().unlimited


# -- codegen byte-identity ---------------------------------------------------------


def test_budget_checks_off_is_byte_identical(tpch_db):
    """The guard is zero-cost when disabled: identical residual source."""
    plan = query_plan(6, scale=TINY_SCALE)
    default = LB2Compiler(tpch_db.catalog, tpch_db).compile(plan).source
    explicit_off = LB2Compiler(
        tpch_db.catalog, tpch_db, Config(budget_checks=False)
    ).compile(plan).source
    assert default == explicit_off
    assert "scan_tick" not in default


def test_budget_checks_on_emits_interval_guarded_ticks(tpch_db):
    plan = query_plan(6, scale=TINY_SCALE)
    config = Config(budget_checks=True, budget_check_interval=512)
    source = LB2Compiler(tpch_db.catalog, tpch_db, config).compile(plan).source
    assert ", 512):" in source  # a strided loop: one tick per 512 rows
    assert "= min(512, " in source and "rt.scan_tick(m" in source
    assert "% 512" not in source  # no per-row test in counted loops


def test_config_rejects_bad_interval():
    from repro.compiler.lb2 import CompileError

    with pytest.raises(CompileError):
        Config(budget_check_interval=0)


# -- fallback policy ---------------------------------------------------------------


def test_policy_degrades_engine_faults_not_query_faults(tiny_db):
    policy = DEFAULT_POLICY
    from repro.catalog.schema import SchemaError
    from repro.engine.push import PushError

    assert policy.should_degrade(PushError("boom"))
    assert policy.should_degrade(ValueError("foreign"))
    assert policy.should_degrade(InjectedFault("verify"))
    assert not policy.should_degrade(PlanError("bad plan"))
    assert not policy.should_degrade(SchemaError("bad schema"))
    assert not policy.should_degrade(BudgetExceeded("over", stats={}))
    assert not policy.should_degrade(KeyboardInterrupt())
    assert not policy.should_degrade(MemoryError())


def test_strict_policy_never_degrades(tiny_db):
    executor = ResilientExecutor(Session(tiny_db), policy=STRICT_POLICY)
    with FaultInjector(FaultSpec("codegen")):
        with pytest.raises(InjectedFault):
            executor.query("select count(*) from Emp")


def test_custom_policy_can_pin_foreign_errors():
    policy = FallbackPolicy(degrade_foreign_errors=False)
    assert not policy.should_degrade(ValueError("foreign"))
    assert policy.should_degrade(InjectedFault("verify"))


def test_query_faults_reraise_without_attempting_engines(tiny_db):
    executor = ResilientExecutor(Session(tiny_db))
    with pytest.raises(ReproError) as info:
        executor.query("select nonsense from NoSuchTable")
    assert info.value.phase == "plan"
    assert info.value.engine_trail == ()  # failed before any engine ran


def test_schema_error_does_not_degrade(tiny_db):
    """A plan querying structures the db never built fails identically on
    every engine; retrying is noise, so the chain stops at one attempt."""
    from repro.catalog.schema import SchemaError

    plan = IndexJoin(Scan("Emp"), table="Dep", table_key="dname", child_key="edname")
    executor = ResilientExecutor(Session(tiny_db))
    with pytest.raises(SchemaError) as info:
        executor.execute_plan(plan)
    assert info.value.engine_trail == ("compiled",)


# -- session cache hygiene ---------------------------------------------------------


def test_session_cache_keyed_by_config(tiny_db):
    session = Session(tiny_db)
    session.query("select count(*) from Emp")
    assert session.cached_statements == 1
    session.config = Config(hashmap="open")
    session.query("select count(*) from Emp")
    assert session.cached_statements == 2  # no stale plan served


def test_session_cache_keyed_by_database(tiny_db):
    session = Session(tiny_db)
    first = session.prepare("select count(*) from Emp")
    session.db = make_tiny_db()
    second = session.prepare("select count(*) from Emp")
    assert first is not second
    assert session.cached_statements == 2


def test_session_forget_and_invalidate(tiny_db):
    session = Session(tiny_db)
    session.prepare("select count(*) from Emp")
    assert session.forget("select   count(*)   from Emp")  # whitespace-insensitive
    assert not session.forget("select count(*) from Emp")
    session.prepare("select count(*) from Emp")
    session.invalidate()
    assert session.cached_statements == 0


def test_fallback_evicts_failed_compiled_query(tiny_db):
    """The executor never leaves a known-bad compiled query in the cache."""
    session = Session(tiny_db)
    sql = "select count(*) from Sales"
    session.prepare(sql)
    assert session.cached_statements == 1
    executor = ResilientExecutor(session)
    with FaultInjector(FaultSpec("mid-scan")):
        result = executor.query(sql)
    assert result.rows == [(6,)]
    assert result.report.engine_trail == ("compiled", "push")
    assert session.cached_statements == 0


def test_guarded_failure_evicts_the_guarded_entry(tiny_db):
    """Under ``cache_guarded_compiles`` the failed attempt ran a cached
    budget-checked build; that entry (not only the plain one) goes."""
    session = Session(tiny_db)
    sql = "select count(*) from Sales"
    executor = ResilientExecutor(
        session, budget=Budget(wall_clock_seconds=60.0), cache_guarded_compiles=True
    )
    assert executor.query(sql).report.engine_trail == ("compiled",)
    session.prepare(sql)  # the same statement under the session config
    assert session.cached_statements == 2
    with FaultInjector(FaultSpec("mid-scan")):
        result = executor.query(sql)
    assert result.rows == [(6,)]
    assert result.report.engine_trail == ("compiled", "push")
    assert session.cached_statements == 0


@pytest.mark.parametrize(
    "sql",
    ["select count(*) from Sales", "select count(*) from Sales where amount > 20.0"],
)
@pytest.mark.parametrize("guarded", [False, True])
def test_executor_miss_plans_once(sql, guarded, tiny_db, monkeypatch):
    """A cache miss compiles the plan ``resolve`` already built."""
    import repro.session as session_module

    planned = []
    real = session_module.sql_to_plan

    def counting(text, db):
        planned.append(text)
        return real(text, db)

    monkeypatch.setattr(session_module, "sql_to_plan", counting)
    session = Session(tiny_db)
    budget = Budget(wall_clock_seconds=60.0) if guarded else None
    executor = ResilientExecutor(
        session, budget=budget, cache_guarded_compiles=guarded
    )
    executor.query(sql)
    assert session.cache_info()["misses"] == 1
    assert len(planned) == 1


# -- resilient parallel execution --------------------------------------------------


def _parallel_query(db):
    plan = Agg(Scan("Emp"), [("edname", col("edname"))], [("n", count())])
    return ParallelQuery(plan, db, db.catalog)


def test_parallel_run_resilient_clean(tiny_db):
    pq = _parallel_query(tiny_db)
    rows, report = pq.run_resilient(2)
    assert report.mode == "multiprocess"
    assert not report.degraded
    expected, _ = pq.run_simulated(2)
    assert normalize(rows) == normalize(expected)


def test_parallel_worker_fault_degrades_to_sequential(tiny_db):
    pq = _parallel_query(tiny_db)
    expected, _ = pq.run_simulated(2)
    with FaultInjector(FaultSpec("worker-run", key=1)):
        rows, report = pq.run_resilient(2)
    assert normalize(rows) == normalize(expected)
    assert report.degraded
    assert report.mode == "sequential-fallback"
    assert report.failed_worker == 1
    assert report.fault_site == "worker-run"


def test_parallel_simulated_injection_names_the_partition(tiny_db):
    pq = _parallel_query(tiny_db)
    with FaultInjector(FaultSpec("worker-run", key=0)):
        with pytest.raises(InjectedFault) as info:
            pq.run_simulated(2, inject=True)
    assert info.value.site == "worker-run"


# -- taxonomy plumbing -------------------------------------------------------------


def test_with_trail_and_describe():
    err = ReproError("something broke").with_trail(("compiled", "push"))
    assert err.engine_trail == ("compiled", "push")
    text = err.describe()
    assert "E_REPRO" in text and "compiled->push" in text
