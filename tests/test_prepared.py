"""Parameterized prepared statements: placeholders, shapes, bindings.

Covers the whole vertical: lexer/parser placeholder handling, the
auto-parameterized statement shape, the planner's type inference for
parameter slots, the shape-keyed session cache (one compile serves many
bindings), interpreted-engine parity via ``bind_params``, hostile-binding
error typing (everything is ``E_PARAM``, round-trippable over the wire,
never a traceback), and byte-identity of non-parameterized residual
programs.
"""

from __future__ import annotations

import pytest

from repro.catalog.types import ColumnType
from repro.compiler.lb2 import Config
from repro.errors import ParamError, error_code, error_from_dict, error_to_dict
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Trace
from repro.plan import (
    Agg, GroupJoin, IndexJoin, IndexSemiJoin, Project, Scan, Select, col, sum_,
)
from repro.plan.expressions import AggSpec, Const, Expr, Param
from repro.plan.params import bind_params, check_bindings, collect_params
from repro.plan.physical import PhysicalPlan
from repro.session import Session
from repro.sql import sql_to_plan
from repro.sql.lexer import tokenize
from repro.sql.shape import normalize_statement, statement_shape
from repro.tpch.sql_queries import SQL_QUERIES
from tests.conftest import needs_numpy


# -- lexing and parsing placeholders ------------------------------------------


def test_lexer_emits_param_tokens():
    kinds = [(kind, value) for kind, value, _ in tokenize("a > ? and b < :lo")]
    assert ("param", "?") in kinds
    assert ("param", "lo") in kinds


def test_positional_params_number_left_to_right(tiny_db):
    plan = sql_to_plan(
        "select count(*) from Sales where amount > ? and amount < ?", tiny_db
    )
    slots = collect_params(plan)
    assert [s.index for s in slots] == [0, 1]
    assert all(s.ctype is ColumnType.FLOAT for s in slots)


def test_named_params_share_slot_by_name(tiny_db):
    plan = sql_to_plan(
        "select count(*) from Sales where amount > :lo and sid < :hi "
        "and amount < :hi + 100",
        tiny_db,
    )
    slots = collect_params(plan)
    assert [(s.name, s.index) for s in slots] == [("lo", 0), ("hi", 1)]


def test_mixing_positional_and_named_is_typed_error(tiny_db):
    with pytest.raises(ParamError) as info:
        sql_to_plan("select count(*) from Sales where amount > ? and sid < :n", tiny_db)
    assert error_code(info.value) == "E_PARAM"


@pytest.mark.parametrize(
    "sql",
    [
        "select count(*) from ?",  # table name
        "select count(*) from Sales where sdep like ?",  # LIKE pattern
        "select count(*) from Sales where sdep in (?, 'CS')",  # IN list
        "select sid from Sales order by sid limit ?",  # LIMIT bound
        "select count(*) from Sales where sold >= date ?",  # DATE literal
    ],
)
def test_param_in_illegal_position_is_typed_error(tiny_db, sql):
    with pytest.raises(ParamError) as info:
        sql_to_plan(sql, tiny_db)
    assert error_code(info.value) == "E_PARAM"


def test_untypable_param_is_typed_error(tiny_db):
    # Nothing to infer a type from: parameter compared to a parameter.
    plan = sql_to_plan("select count(*) from Sales where ? = ?", tiny_db)
    with pytest.raises(ParamError):
        collect_params(plan)


# -- statement shapes ---------------------------------------------------------


def test_normalize_statement_is_format_insensitive():
    a = normalize_statement("SELECT  count(*)\nFROM Emp -- trailing comment")
    b = normalize_statement("select count ( * ) from Emp")
    assert a == b


def test_statement_shape_lifts_literals_and_keeps_plan_shaping_ones():
    shape = statement_shape(
        "select count(*) from Sales where amount > 10.5 "
        "and sold >= date '1994-01-01' and sdep like 'C%' limit 3"
    )
    assert shape.values == (10.5,)
    assert "?" in shape.text
    assert "'1994-01-01'" in shape.text  # DATE literal stays present-stage
    assert "'C%'" in shape.text  # LIKE pattern stays present-stage
    assert "limit 3" in shape.text  # LIMIT bound stays present-stage


def test_statement_shape_folds_unary_minus():
    shape = statement_shape("select count(*) from Sales where amount > -0.05")
    assert shape.values == (-0.05,)
    assert "- ?" not in shape.text


def test_explicit_placeholders_disable_auto_parameterization():
    shape = statement_shape(
        "select count(*) from Sales where amount > ? and sid < 99"
    )
    assert shape.explicit
    assert shape.values == ()
    assert "99" in shape.text  # the literal stays: user drew the line


def test_literal_variants_share_one_shape():
    texts = {
        statement_shape(
            f"select count(*) from Sales where amount > {v}"
        ).text
        for v in (1.0, 2.5, 99.75)
    }
    assert len(texts) == 1


# -- one compile, many bindings -----------------------------------------------


def test_compiled_query_shared_across_bindings(tiny_db):
    session = Session(tiny_db)
    ps = session.prepare_statement(
        "select count(*) from Sales where amount > ?"
    )
    assert [s.ctype for s in ps.signature] == [ColumnType.FLOAT]
    baseline = {
        v: session.prepare(
            f"select count(*) from Sales where amount > {v}"
        ).run(tiny_db)
        for v in (20.0, 50.0, 100.0)
    }
    for v, expected in baseline.items():
        assert ps.execute([v]) == expected


def test_auto_lifted_query_path_compiles_once(tiny_db):
    session = Session(tiny_db)
    results = [
        session.query(f"select count(*) from Sales where amount > {v}")
        for v in (20.0, 50.0, 100.0)
    ]
    assert results[0] != results[2]  # literally different answers
    info = session.cache_info()
    assert info["shape_misses"] == 1  # exactly one compilation
    assert info["shape_hits"] == 2
    shaped = [t for t in info["statements"] if t.startswith("shape:")]
    assert len(shaped) == 1


def test_named_bindings_accept_mapping_and_sequence(tiny_db):
    session = Session(tiny_db)
    ps = session.prepare_statement(
        "select count(*) from Sales where amount > :lo and amount < :hi"
    )
    assert ps.execute({"lo": 20.0, "hi": 120.0}) == ps.execute([20.0, 120.0])


def test_generated_param_code_closes_over_vector(tiny_db):
    session = Session(tiny_db)
    ps = session.prepare_statement(
        "select count(*) from Sales where amount > ?"
    )
    assert "def prepare(db):" in ps.source
    assert "def run(out, params):" in ps.source
    assert "params[0]" in ps.source


@needs_numpy
def test_vector_codegen_shares_bindings_too(tiny_db):
    session = Session(tiny_db, config=Config(codegen="vector"))
    ps = session.prepare_statement(
        "select count(*) from Sales where amount > ?"
    )
    assert ps.execute([20.0]) == [(5,)]
    assert ps.execute([120.0]) == [(1,)]


# -- interpreted-engine parity ------------------------------------------------


def test_bind_params_matches_compiled(tiny_db):
    from repro.engine.volcano import iterate

    sql = "select count(*) from Sales where amount > ? and amount < ?"
    plan = sql_to_plan(sql, tiny_db)
    signature = collect_params(plan)
    vector = check_bindings(signature, [20.0, 120.0])
    bound = bind_params(plan, vector)
    names = bound.field_names(tiny_db.catalog)
    volcano = [
        tuple(r[n] for n in names) for r in iterate(bound, tiny_db, tiny_db.catalog)
    ]
    compiled = Session(tiny_db).query(sql, [20.0, 120.0])
    assert volcano == compiled


@needs_numpy
def test_executor_chain_agrees_on_params(tiny_db):
    from repro.resilience.executor import ENGINE_CHAIN, ResilientExecutor

    session = Session(tiny_db)
    vector = Session(tiny_db, config=Config(codegen="vector"))
    sql = "select count(*) from Sales where amount > ?"
    expected = session.query(sql, [20.0])
    runs = [(session, engine) for engine in ENGINE_CHAIN]
    runs.append((vector, "compiled"))  # the vector lowering, same engine
    for owner, engine in runs:
        result = ResilientExecutor(owner, engines=(engine,)).query(sql, [20.0])
        assert result.rows == expected, (owner.config, engine)


def _every_slot(slot):
    """A plan holding ``slot(i)`` in every kind of expression slot: an
    IndexJoin and an IndexSemiJoin residual, a Select predicate, a
    GroupJoin aggregate, a Project output, an Agg key and argument."""
    emp = IndexJoin(Scan("Emp"), "Dep", "dname", "edname", residual=col("rank").lt(slot(0)))
    kept = IndexSemiJoin(Scan("Sales"), "Dep", "dname", "sdep", residual=col("rank").gt(slot(1)))
    joined = GroupJoin(
        emp, Select(kept, col("amount").gt(slot(2))), ["edname"], ["sdep"],
        [("total", sum_(col("amount") * slot(3)))],
    )
    shaped = Project(joined, [("eid", col("eid")), ("t", col("total") + slot(4))])
    return Agg(shaped, [("k", col("eid") + slot(5))], [("s", sum_(col("t") - slot(6)))])


def test_bind_params_fills_every_slot_kind(tiny_db):
    plan = _every_slot(lambda i: Param(i, ptype=ColumnType.INT))
    plan.validate(tiny_db.catalog)
    assert [slot.index for slot in collect_params(plan)] == list(range(7))
    values = list(range(10, 17))
    bound = bind_params(plan, values)
    assert bound == _every_slot(lambda i: Const(values[i]))
    assert collect_params(bound) == ()
    assert bind_params(bound, ()) is bound


def _node_classes():
    """Every plan operator and expression class of the package."""
    out, todo = [AggSpec], [PhysicalPlan, Expr]
    while todo:
        cls = todo.pop()
        subs = [c for c in cls.__subclasses__() if c.__module__.startswith("repro.")]
        out.extend(subs)
        todo.extend(subs)
    return out


def test_collect_params_builds_no_node(tiny_db, monkeypatch):
    """Listing a plan's slots is a read-only walk: no constructor runs and
    no node is copied."""
    from repro.plan import expressions, physical

    plan = _every_slot(lambda i: Param(i, ptype=ColumnType.INT))
    made = []

    def counting(fn):
        def counted(node, *args, **kwargs):
            made.append(type(node).__name__)
            return fn(node, *args, **kwargs)
        return counted

    for cls in _node_classes():
        if "__init__" in vars(cls):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    for module in (expressions, physical):  # the copy path that runs no __init__
        if hasattr(module, "remake"):
            monkeypatch.setattr(module, "remake", counting(module.remake))
    Select(Scan("Dep"), col("rank").gt(Const(1)))
    bind_params(plan, list(range(7)))
    assert made[:5] == ["Scan", "Col", "Const", "Cmp", "Select"]  # the probes count
    assert "Agg" in made[5:]
    made.clear()
    assert len(collect_params(plan)) == 7
    assert made == []


def test_walking_and_binding_a_plan_leave_no_cyclic_garbage(tiny_db):
    """A request's plan is freed when its last reference goes, not at the
    next collection."""
    import gc

    plan = _every_slot(lambda i: Param(i, ptype=ColumnType.INT))
    gc.collect()
    gc.disable()
    try:
        collect_params(plan)
        bind_params(plan, list(range(7)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unbound_param_eval_is_typed_error(tiny_db):
    from repro.plan.expressions import Param

    with pytest.raises(ParamError):
        Param(0, ptype=ColumnType.FLOAT).eval({})


# -- cache contract -----------------------------------------------------------


def test_cache_key_ignores_whitespace_and_keyword_case(tiny_db):
    session = Session(tiny_db)
    a = session.prepare("select count(*) from Emp")
    b = session.prepare("SELECT  count(*)\n  FROM Emp")
    assert a is b
    assert session.cached_statements == 1


def test_forget_evicts_both_literal_and_shape_entries(tiny_db):
    session = Session(tiny_db)
    sql = "select count(*) from Sales where amount > 20.0"
    session.query(sql)  # shape-keyed compile
    session.prepare(sql)  # literal-keyed compile
    assert session.cached_statements == 2
    assert session.forget(sql)
    assert session.cached_statements == 0
    assert not session.forget(sql)


def test_forget_one_variant_forgets_the_shared_shape(tiny_db):
    session = Session(tiny_db)
    session.query("select count(*) from Sales where amount > 20.0")
    assert session.forget("select count(*) from Sales where amount > 99.0")
    assert session.cached_statements == 0


def test_invalidate_clears_shape_entries(tiny_db):
    session = Session(tiny_db)
    session.query("select count(*) from Sales where amount > 20.0")
    session.invalidate()
    assert session.cached_statements == 0
    info = session.cache_info()
    assert info["statements"] == []


# -- hostile bindings: always typed, always wire-safe -------------------------


@pytest.fixture
def prepared(tiny_db):
    return Session(tiny_db).prepare_statement(
        "select count(*) from Sales where amount > ?"
    )


@pytest.mark.parametrize(
    "params",
    [None, [], [1.0, 2.0], ["nope"], [True], {"x": 1.0}, "1.0"],
)
def test_hostile_bindings_raise_e_param(prepared, params):
    with pytest.raises(ParamError) as info:
        prepared.execute(params)
    assert error_code(info.value) == "E_PARAM"


def test_param_errors_round_trip_the_wire(prepared):
    try:
        prepared.execute([1.0, 2.0])
    except ParamError as exc:
        doc = error_to_dict(exc)
    assert doc["code"] == "E_PARAM"
    revived = error_from_dict(doc)
    assert isinstance(revived, ParamError)
    assert error_code(revived) == "E_PARAM"


def test_named_statement_rejects_unknown_and_missing_names(tiny_db):
    session = Session(tiny_db)
    ps = session.prepare_statement(
        "select count(*) from Sales where amount > :lo"
    )
    for params in ({"hi": 1.0}, {}, {"lo": 1.0, "hi": 2.0}):
        with pytest.raises(ParamError):
            ps.execute(params)


def test_query_with_params_but_no_placeholders_is_typed_error(tiny_db):
    with pytest.raises(ParamError):
        Session(tiny_db).query("select count(*) from Emp", [1])


HOSTILE = [None, [], [1.0, 2.0], ["nope"], [True], {"x": 1.0}, "1.0"]


@pytest.mark.parametrize("params", HOSTILE)
def test_hostile_bindings_on_an_executor_hit_never_degrade(tiny_db, tmp_path, params):
    """Bindings are checked against the cached entry's signature before
    the first attempt: a bad one is E_PARAM with no engine tried, never a
    compiled failure the fallback policy would degrade to push."""
    import json

    from repro.obs import events
    from repro.resilience.executor import ResilientExecutor

    session = Session(tiny_db)
    sql = "select count(*) from Sales where amount > ?"
    executor = ResilientExecutor(session)
    assert executor.query(sql, [20.0]).rows == [(5,)]  # the shape is cached
    before = session.cache_info()
    path = tmp_path / "events.jsonl"
    log = events.EventLog(str(path))
    previous = events.install(log)
    try:
        with pytest.raises(ParamError) as info:
            executor.query(sql, params)
    finally:
        events.install(previous)
        log.close()
    assert error_code(info.value) == "E_PARAM"
    assert info.value.engine_trail == ()
    assert getattr(info.value, "execution_report", None) is None
    kinds = [json.loads(line)["event"] for line in path.read_text().splitlines()]
    assert "fallback" not in kinds
    assert session.cache_info()["misses"] == before["misses"]


@pytest.mark.parametrize("via", ["session", "executor"])
def test_ill_typed_literal_variant_does_not_poison_its_shape(tiny_db, via):
    """``sid < 3.5`` does not fit the shape's INT slot: that request alone
    takes the per-literal path, and ``sid < 4`` still hits the shape."""
    from repro.resilience.executor import ResilientExecutor

    session = Session(tiny_db)

    def run(sql):
        if via == "session":
            return session.query(sql)
        return ResilientExecutor(session).query(sql).rows

    text = "select count(*) from Sales where sid < {}"
    expected = {
        v: Session(tiny_db).prepare(text.format(v)).run(tiny_db) for v in (3, 3.5, 4)
    }
    assert run(text.format(3)) == expected[3]
    assert run(text.format(3.5)) == expected[3.5]  # per-literal compile
    before = session.cache_info()
    assert run(text.format(4)) == expected[4]
    after = session.cache_info()
    assert after["shape_hits"] == before["shape_hits"] + 1
    assert after["misses"] == before["misses"]
    assert not session._shape_fallbacks


def test_unparameterizable_shape_falls_back_per_literal_once(tiny_db):
    """``? < ?`` gives the planner no type for either slot, so planning
    the shape raises E_PARAM: the statement compiles per literal, and
    later variants never plan the shape again."""
    session = Session(tiny_db)
    assert session.query("select count(*) from Sales where 1 < 2") == [(6,)]
    assert session.query("select count(*) from Sales where 3 < 2") == [(0,)]
    with Trace("again") as trace:
        assert session.query("select count(*) from Sales where 3 < 2") == [(0,)]
    info = session.cache_info()
    assert info["shape_misses"] == info["shape_hits"] == 0
    assert info["misses"] == 2 and info["hits"] == 1
    assert [c.name for c in trace.root.children] == ["execute"]


# -- TPC-H parity: auto-parameterization must not change answers --------------


@pytest.mark.parametrize("codegen", ["scalar", pytest.param("vector", marks=needs_numpy)])
def test_tpch_auto_param_parity(tpch_db, codegen):
    config = Config(codegen=codegen)
    plain = Session(tpch_db, config=config)
    shaped = Session(tpch_db, config=config)
    for number, sql in sorted(SQL_QUERIES.items()):
        expected = plain.prepare(sql).run(tpch_db)
        assert shaped.query(sql) == expected, f"Q{number} ({codegen})"
    info = shaped.cache_info()
    # Every parameterizable query went through the shape path.
    assert info["shape_misses"] >= 10


def _vary_value(value: object, round_index: int) -> object:
    """A literal's value for round ``round_index`` (round 0 = original):
    numbers drift so the statement *text* changes while its *shape* does
    not; strings stay fixed (perturbed names would mostly select nothing)."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, float):
        return round(value * (1.0 + 0.01 * round_index), 6)
    if isinstance(value, int):
        return value + round_index
    return value


def _substitute(shape_text: str, values) -> str:
    """The shape text with its placeholders filled back in as literals."""
    it = iter(values)

    def literal(value: object) -> str:
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        return repr(value)

    return " ".join(
        literal(next(it)) if part == "?" else part
        for part in shape_text.split(" ")
    )


def test_tpch_literal_variants_share_compiles(tpch_db):
    session = Session(tpch_db)
    q6 = SQL_QUERIES[6]
    shape = statement_shape(q6)
    assert shape.param_count >= 3
    session.query(q6)
    before = session.cache_info()
    shape_hits = REGISTRY.get_counter("session.cache.shape_hits")
    # Re-run with perturbed literals: same shape, zero new compiles.
    varied = _substitute(
        shape.text, [_vary_value(v, 1) for v in shape.values]
    )
    assert varied != normalize_statement(q6)
    session.query(varied)
    after = session.cache_info()
    assert after["shape_misses"] == before["shape_misses"]
    assert after["shape_hits"] == before["shape_hits"] + 1
    assert REGISTRY.get_counter("session.cache.shape_hits") == shape_hits + 1


# -- goldens: non-parameterized compiles stay byte-identical ------------------


def test_non_param_compile_signature_unchanged(tiny_db):
    compiled = Session(tiny_db).prepare("select count(*) from Emp")
    assert "def run(out):" in compiled.source
    assert compiled.param_signature == ()
