"""Failure-injection tests: wrong databases, broken inputs, misuse.

A production library fails loudly and early; these tests pin the error
behaviour of every layer.
"""

import pytest

from repro.catalog import Catalog, INT, STRING
from repro.catalog.schema import SchemaError, schema
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import CompileError, Config
from repro.compiler.parallel import ParallelError, ParallelQuery, split_plan
from repro.engine import execute_push, execute_volcano
from repro.engine.push import PushError
from repro.engine.volcano import VolcanoError
from repro.plan import (
    Agg,
    DateIndexScan,
    IndexJoin,
    Scan,
    Select,
    Sort,
    col,
    count,
    sum_,
)
from repro.plan.physical import PhysicalPlan, PlanError
from repro.storage import Database, OptimizationLevel
from tests.conftest import make_tiny_db


# -- querying structures the database never built ---------------------------------


def test_index_join_without_index_fails_loudly(tiny_db):
    plan = IndexJoin(Scan("Emp"), table="Dep", table_key="dname", child_key="edname")
    with pytest.raises(SchemaError, match="no unique index"):
        execute_push(plan, tiny_db, tiny_db.catalog)
    with pytest.raises(SchemaError, match="no unique index"):
        execute_volcano(plan, tiny_db, tiny_db.catalog)


def test_date_index_scan_without_index_fails_loudly(tiny_db):
    plan = DateIndexScan("Sales", "sold", lo=19940101, hi=19941231)
    with pytest.raises(SchemaError, match="no date index"):
        execute_push(plan, tiny_db, tiny_db.catalog)


def test_compiled_index_plan_against_compliant_db_fails_at_run(tiny_db, tiny_db_full):
    """Compilation binds db access by name; running against a database
    without the structures raises the storage layer's error."""
    plan = IndexJoin(Scan("Emp"), table="Dep", table_key="dname", child_key="edname")
    compiled = LB2Compiler(tiny_db_full.catalog, tiny_db_full).compile(plan)
    assert compiled.run(tiny_db_full)  # works where indexes exist
    with pytest.raises(SchemaError):  # missing dictionary or index, loudly
        compiled.run(tiny_db)


def test_compiled_query_against_db_missing_table():
    dep = schema("Dep", ("dname", STRING), ("rank", INT))
    db_a = Database(Catalog())
    db_a.add_rows(dep, [("CS", 1)])
    compiled = LB2Compiler(db_a.catalog, db_a).compile(Scan("Dep"))
    db_b = Database(Catalog())  # nothing loaded
    with pytest.raises(SchemaError, match="not loaded"):
        compiled.run(db_b)


# -- plan-level misuse ---------------------------------------------------------------


def test_unknown_operator_rejected_by_every_engine(tiny_db):
    class Mystery(PhysicalPlan):
        def children(self):
            return ()

        def compute_fields(self, catalog):
            return []

    plan = Mystery()
    with pytest.raises(VolcanoError):
        execute_volcano(plan, tiny_db, tiny_db.catalog)
    with pytest.raises(PushError):
        execute_push(plan, tiny_db, tiny_db.catalog)
    with pytest.raises(CompileError):
        LB2Compiler(tiny_db.catalog, tiny_db).compile(plan)


def test_compile_validates_plan_first(tiny_db):
    bad = Select(Scan("Dep"), col("ghost").gt(0))
    with pytest.raises(PlanError):
        LB2Compiler(tiny_db.catalog, tiny_db).compile(bad)


def test_bad_config_rejected():
    with pytest.raises(CompileError, match="hashmap"):
        Config(hashmap="cuckoo")


# -- parallel misuse -----------------------------------------------------------------


def test_parallel_rejects_scan_only_plan(tiny_db):
    with pytest.raises(ParallelError, match="no aggregation"):
        split_plan(Select(Scan("Sales"), col("amount").gt(0.0)))


def test_parallel_rejects_date_index_driver(tiny_db_full):
    plan = Agg(
        DateIndexScan("Sales", "sold"),
        [],
        [("n", count())],
    )
    with pytest.raises(ParallelError, match="plain scans"):
        split_plan(plan)


def test_parallel_forces_native_map(tiny_db):
    """The parallel driver overrides the map choice: partials must return
    mergeable dict states, so an ``open`` config is coerced to native."""
    plan = Agg(Scan("Sales"), [("sdep", col("sdep"))], [("n", count())])
    pq = ParallelQuery(plan, tiny_db, tiny_db.catalog, Config(hashmap="open"))
    assert pq.config.hashmap == "native"
    rows, _ = pq.run_simulated(2)
    assert rows


def test_parallel_zero_partitions_rejected(tiny_db):
    plan = Agg(Scan("Sales"), [], [("total", sum_(col("amount")))])
    pq = ParallelQuery(plan, tiny_db, tiny_db.catalog)
    with pytest.raises(ValueError):
        pq.partition_ranges(0)


# -- data-level edge cases -------------------------------------------------------------


def test_empty_table_flows_through_every_engine():
    dep = schema("Dep", ("dname", STRING), ("rank", INT))
    db = Database(Catalog())
    db.add_rows(dep, [])
    plan = Sort(
        Agg(Select(Scan("Dep"), col("rank").gt(0)), [("dname", col("dname"))], [("n", count())]),
        [("n", False)],
    )
    assert execute_push(plan, db, db.catalog) == []
    assert execute_volcano(plan, db, db.catalog) == []
    assert LB2Compiler(db.catalog, db).compile(plan).run(db) == []


def test_single_row_tables():
    dep = schema("Dep", ("dname", STRING), ("rank", INT))
    db = Database(Catalog())
    db.add_rows(dep, [("CS", 1)])
    plan = Agg(Scan("Dep"), [], [("n", count()), ("total", sum_(col("rank")))])
    assert LB2Compiler(db.catalog, db).compile(plan).run(db) == [(1, 1)]


def test_duplicate_heavy_join_keys():
    """Many-to-many joins must produce the full cross product per key."""
    t = schema("t", ("k", INT), ("v", INT))
    u = schema("u", ("k2", INT), ("w", INT))
    db = Database(Catalog())
    db.add_rows(t, [(1, i) for i in range(20)])
    db.add_rows(u, [(1, i) for i in range(30)])
    from repro.plan import HashJoin

    plan = HashJoin(Scan("t"), Scan("u"), ("k",), ("k2",))
    rows = LB2Compiler(db.catalog, db).compile(plan).run(db)
    assert len(rows) == 600
    assert len(execute_push(plan, db, db.catalog)) == 600


def test_unicode_strings_survive_dictionaries():
    t = schema("t", ("s", STRING))
    db = Database(Catalog(), level=OptimizationLevel.IDX_DATE_STR)
    values = ["café", "über", "naïve", "ASCII", "café"]
    db.add_rows(t, [(v,) for v in values])
    plan = Agg(Scan("t"), [("s", col("s"))], [("n", count())])
    rows = dict(LB2Compiler(db.catalog, db).compile(plan).run(db))
    assert rows["café"] == 2 and rows["über"] == 1


def test_tiny_db_protocol_reopen(tiny_db):
    """Volcano operators are re-openable (the iterator contract)."""
    from repro.engine.volcano import build_operator

    plan = Select(Scan("Dep"), col("rank").lt(10))
    op = build_operator(plan, tiny_db, tiny_db.catalog)
    op.open()
    first = []
    while True:
        row = op.next()
        if row is None:
            break
        first.append(row)
    op.open()  # rewind
    second = []
    while True:
        row = op.next()
        if row is None:
            break
        second.append(row)
    op.close()
    assert first == second and len(first) == 3


# -- the error taxonomy ----------------------------------------------------------------


def test_every_public_error_carries_code_and_phase():
    """Each public exception class is a taxonomy member with a stable
    ``E_*`` code and a recognised pipeline phase."""
    from repro.analysis.walker import IRVerificationError
    from repro.compiler.parallel import ParallelWorkerError
    from repro.errors import ERROR_CODES, PHASES, BudgetExceeded, InjectedFault, ReproError
    from repro.sql.lexer import SqlLexError
    from repro.sql.parser import SqlParseError
    from repro.sql.planner import SqlPlanError
    from repro.staging.builder import StagingError
    from repro.staging.pygen import CodegenError

    public_errors = [
        PlanError,
        SchemaError,
        CompileError,
        PushError,
        VolcanoError,
        ParallelError,
        ParallelWorkerError,
        StagingError,
        CodegenError,
        IRVerificationError,
        SqlLexError,
        SqlParseError,
        SqlPlanError,
        BudgetExceeded,
        InjectedFault,
    ]
    for cls in public_errors:
        assert issubclass(cls, ReproError), cls
        assert cls.code.startswith("E_"), cls
        assert cls.phase in PHASES, cls
        assert cls.code in ERROR_CODES, cls


def test_error_code_registry_is_injective():
    """One code, one owning class (compatibility aliases inherit)."""
    from repro.errors import ERROR_CODES

    assert len(set(ERROR_CODES)) == len(ERROR_CODES)
    for code, cls in ERROR_CODES.items():
        assert cls.code == code


def test_foreign_errors_map_to_runtime_code():
    from repro.errors import error_code, error_phase

    assert error_code(ValueError("x")) == "E_RUNTIME"
    assert error_phase(ValueError("x")) == "execute"


def test_serve_errors_are_taxonomy_members():
    """The serving tier's rejections each own one code and one phase."""
    from repro.errors import (
        ERROR_CODES,
        PHASES,
        CircuitOpenError,
        DeadlineExceeded,
        RateLimitError,
        ReproError,
        ServiceOverloadError,
        ServiceProtocolError,
    )

    expected = {
        ServiceOverloadError: ("E_ADMIT", "admit"),
        RateLimitError: ("E_RATELIMIT", "admit"),
        CircuitOpenError: ("E_BREAKER", "admit"),
        DeadlineExceeded: ("E_DEADLINE", "execute"),
        ServiceProtocolError: ("E_PROTOCOL", "admit"),
    }
    for cls, (code, phase) in expected.items():
        assert issubclass(cls, ReproError), cls
        assert cls.code == code
        assert cls.phase == phase
        assert phase in PHASES
        assert ERROR_CODES[code] is cls


def test_deadline_is_a_budget_error_with_its_own_code():
    """Fallback policy treats deadlines like budgets (never degrade past
    them), but clients can still tell the two apart by code."""
    from repro.errors import BudgetExceeded, DeadlineExceeded

    exc = DeadlineExceeded("too slow", stats={"rows_seen": 7})
    assert isinstance(exc, BudgetExceeded)
    assert exc.code == "E_DEADLINE" and exc.stats == {"rows_seen": 7}


@pytest.mark.parametrize(
    "make",
    [
        lambda: __import__("repro.errors", fromlist=["x"]).ServiceOverloadError(
            "queue full", depth=16
        ),
        lambda: __import__("repro.errors", fromlist=["x"]).RateLimitError(
            "slow down", tenant="t1"
        ),
        lambda: __import__("repro.errors", fromlist=["x"]).CircuitOpenError(
            "open", shape="sql:select 1"
        ),
        lambda: __import__("repro.errors", fromlist=["x"]).DeadlineExceeded(
            "too slow"
        ),
        lambda: __import__("repro.errors", fromlist=["x"]).ServiceProtocolError(
            "bad line"
        ),
    ],
)
def test_serve_errors_round_trip_through_wire_form(make):
    """code, phase, message and engine trail survive dict serialization;
    the reconstructed instance is of the code-owning class, so clients can
    ``except DeadlineExceeded`` across the socket."""
    import json

    from repro.errors import error_from_dict, error_to_dict

    exc = make().with_trail(["compiled", "push"])
    doc = json.loads(json.dumps(error_to_dict(exc)))  # a real wire hop
    back = error_from_dict(doc)
    assert type(back) is type(exc)
    assert back.code == exc.code
    assert back.phase == exc.phase
    assert str(back) == str(exc)
    assert back.engine_trail == ("compiled", "push")


def test_foreign_errors_round_trip_as_runtime():
    from repro.errors import ReproError, error_from_dict, error_to_dict

    back = error_from_dict(error_to_dict(KeyError("lineitem")))
    assert type(back) is ReproError
    assert back.code == "E_RUNTIME" and back.phase == "execute"


def test_crashed_worker_error_names_worker_and_site(tiny_db):
    """A worker crash surfaces as ParallelError naming the culprit: which
    worker, and (for injected faults) which fault site."""
    from repro.resilience import FaultInjector, FaultSpec

    plan = Agg(Scan("Emp"), [("edname", col("edname"))], [("n", count())])
    pq = ParallelQuery(plan, tiny_db, tiny_db.catalog)
    with FaultInjector(FaultSpec("worker-run", key=0)):
        with pytest.raises(ParallelError) as info:
            pq.run_multiprocess(2)
    exc = info.value
    assert exc.worker == 0
    assert exc.site == "worker-run"
    assert exc.cause_code == "E_FAULT"
    assert "worker 0" in str(exc)
    assert "worker-run" in str(exc)
