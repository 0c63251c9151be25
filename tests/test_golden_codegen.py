"""Golden tests for the paper's code-generation walkthroughs (Appendix B).

These pin down the *shape* of residual programs: the power-function trace
(B.1), and the aggregate query whose generated code must contain only raw
loops, subscripts and arithmetic -- no Record/HashMap/operator abstractions
(B.2 / Figure 14).
"""

import re

from repro.analysis import Verifier, analyze
from repro.catalog import Catalog, INT, STRING
from repro.catalog.schema import schema
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.plan import Agg, Scan, col, count
from repro.staging import PyProgram, StagingContext, generate_c, generate_python
from repro.staging import ir
from repro.staging.rep import RepInt
from repro.storage import Database


def power_program():
    ctx = StagingContext()
    with ctx.function("power4", ["in_"]):
        x = RepInt(ir.Sym("in_"), ctx)
        r = ctx.int_(1)
        for _ in range(4):
            r = x * r
        ctx.return_(r)
    return ctx


def test_power_python_golden():
    source = generate_python(power_program().program())
    expected = (
        "def power4(in_):\n"
        "    x0 = in_ * 1\n"
        "    x1 = in_ * x0\n"
        "    x2 = in_ * x1\n"
        "    x3 = in_ * x2\n"
        "    return x3\n"
    )
    assert expected in source


def test_power_program_verifier_clean():
    assert Verifier().run(power_program().program()) == []


def test_power_c_golden():
    source = generate_c(power_program().program())
    for line in (
        "long x0 = in_ * 1;",
        "long x1 = in_ * x0;",
        "long x2 = in_ * x1;",
        "long x3 = in_ * x2;",
        "return x3;",
    ):
        assert line in source


def emp_db():
    emp = schema("Emp", ("eid", INT), ("edname", STRING), pk=["eid"])
    db = Database(Catalog())
    db.add_rows(emp, [(1, "CS"), (2, "CS"), (3, "EE")])
    return db


def agg_plan():
    return Agg(Scan("Emp"), [("edname", col("edname"))], [("cnt", count())])


def test_aggregate_walkthrough_python():
    """Appendix B.2: group-by-count over Emp compiles to two loops."""
    db = emp_db()
    compiled = LB2Compiler(db.catalog, db).compile(agg_plan())
    source = compiled.source
    # the shape: scan loop + group emission loop, a dict update, no abstractions
    loops = re.findall(r"^\s*for ", source, re.M)
    assert len(loops) == 2
    assert "db.column('Emp', 'edname')" in source
    assert re.search(r"hm\d+ = \{\}", source)
    code_only = "\n".join(
        line for line in source.splitlines() if not line.strip().startswith("#")
    )
    for forbidden in ("Record", "Agg", "Scan(", "exec"):
        assert forbidden not in code_only
    # the walkthrough program is not just the right shape -- it is clean
    # under the whole analysis pipeline (verifier, type checker, lints)
    assert analyze(compiled.functions) == []
    assert sorted(compiled.run(db)) == [("CS", 2), ("EE", 1)]


def test_aggregate_walkthrough_open_addressing_c():
    """The Figure 14 rendering: open addressing lowers to malloc'd arrays."""
    db = emp_db()
    compiler = LB2Compiler(db.catalog, db, Config(hashmap="open", open_map_size=16))
    compiled = compiler.compile(agg_plan())
    c_source = compiled.c_source()
    assert "array_fill(16," in c_source
    assert "load_column" in c_source
    assert "for (long" in c_source
    # open addressing probing loop present
    assert "for (;;)" in c_source
    assert analyze(compiled.functions) == []
    # the python rendering runs and agrees
    assert sorted(compiled.run(db)) == [("CS", 2), ("EE", 1)]


def test_budget_checks_scan_tick_c_golden():
    """Budget checkpoints render to C as one support-header call per chunk."""
    db = emp_db()
    compiler = LB2Compiler(
        db.catalog, db, Config(budget_checks=True, budget_check_interval=256)
    )
    compiled = compiler.compile(agg_plan())
    c_source = compiled.c_source()
    # a strided outer loop charging min(256, rows left), no per-row modulo
    assert " += 256) {" in c_source
    assert "= MIN(256, " in c_source
    assert "lb2_scan_tick(m" in c_source
    assert "% 256" not in c_source
    # the python rendering of the same program still runs
    assert sorted(compiled.run(db)) == [("CS", 2), ("EE", 1)]


def test_generated_code_is_data_independent():
    """Same plan, same schema, different data -> identical source (no
    dictionaries involved), so compiled queries are reusable."""
    db1 = emp_db()
    emp = db1.catalog.table("Emp")
    db2 = Database(Catalog())
    db2.add_rows(
        schema("Emp", ("eid", INT), ("edname", STRING), pk=["eid"]),
        [(9, "XX")] * 0 or [(9, "XX"), (10, "YY")],
    )
    s1 = LB2Compiler(db1.catalog, db1).compile(agg_plan()).source
    s2 = LB2Compiler(db2.catalog, db2).compile(agg_plan()).source
    assert s1 == s2


def test_compiled_query_reusable_across_runs():
    db = emp_db()
    compiled = LB2Compiler(db.catalog, db).compile(agg_plan())
    assert compiled.run(db) == compiled.run(db)


def test_select_compiles_to_single_guarded_loop():
    """Figure 4(c): data-centric specialization of a select query."""
    from repro.plan import Select

    db = emp_db()
    plan = Select(Scan("Emp"), col("eid").lt(3))
    source = LB2Compiler(db.catalog, db).compile(plan).source
    assert len(re.findall(r"^\s*for ", source, re.M)) == 1
    assert len(re.findall(r"^\s*if ", source, re.M)) == 1
    # No null-record checks anywhere -- the push model needs none.
    assert "None" not in source


def test_volcano_vs_push_shape_difference():
    """The architectural claim of Section 3, checked on generated artifacts:
    the compiled (push-derived) code has no per-tuple null checks, while the
    Volcano interpreter necessarily tests for the null record."""
    import inspect

    from repro.engine import volcano

    volcano_source = inspect.getsource(volcano.SelectOp.next)
    assert "is None" in volcano_source or "None" in volcano_source
