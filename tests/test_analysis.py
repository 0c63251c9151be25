"""Tests for the static-analysis layer (:mod:`repro.analysis`).

Three parts:

* unit tests proving each verifier / type-checker / lint rule fires on a
  hand-built bad program (and stays quiet on the corresponding good one);
* integration tests asserting the residual programs of all 22 TPC-H
  queries (each in the Section-4.4 ``prepare``/``run`` form) are
  analysis-clean under representative ``Config`` variants, and so are the
  Section-4.5 parallel partials;
* the ``repro-lint --json --check`` report and its schema validator.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    DeadStore,
    HoistSafety,
    InfiniteLoop,
    IRVerificationError,
    Severity,
    TypeChecker,
    UnreachableCode,
    Verifier,
    analyze,
    compatible,
    infer_expr,
)
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.analysis.lint import BulkOpInLoop
from repro.compiler.parallel import ParallelError, ParallelQuery
from repro.staging import ir
from repro.staging.builder import StagingContext, StagingError
from repro.tpch.queries import QUERIES, query_plan
from tests.conftest import TINY_SCALE, needs_numpy


def fn(body, params=("p",), name="f"):
    return [ir.Function(name, tuple(params), body)]


def rules(diagnostics):
    return {d.rule for d in diagnostics}


# ---------------------------------------------------------------------------
# Verifier rules
# ---------------------------------------------------------------------------


class TestVerifier:
    def check(self, body, params=("p",)):
        return Verifier().run(fn(body, params))

    def test_clean_program(self):
        body = [
            ir.Assign("x", ir.Bin("+", ir.Sym("p"), ir.Const(1))),
            ir.Return(ir.Sym("x")),
        ]
        assert self.check(body) == []

    def test_undefined_sym(self):
        diags = self.check([ir.Assign("x", ir.Sym("nope"))])
        assert rules(diags) == {"undefined-sym"}
        assert diags[0].severity is Severity.ERROR

    def test_def_before_use_is_order_sensitive(self):
        body = [
            ir.Assign("y", ir.Sym("x")),  # x defined only on the next line
            ir.Assign("x", ir.Const(1)),
        ]
        assert rules(self.check(body)) == {"undefined-sym"}

    def test_duplicate_def(self):
        body = [ir.Assign("x", ir.Const(1)), ir.Assign("x", ir.Const(2))]
        assert rules(self.check(body)) == {"duplicate-def"}

    def test_param_shadowing_is_duplicate_def(self):
        assert rules(self.check([ir.Assign("p", ir.Const(1))])) == {"duplicate-def"}

    def test_branch_defs_leak_forward(self):
        # optimistic Python scoping: a name bound in a branch is visible after
        body = [
            ir.If(ir.Sym("p"), then=[ir.Assign("x", ir.Const(1))]),
            ir.Return(ir.Sym("x")),
        ]
        assert self.check(body) == []

    def test_reassign_undefined(self):
        assert rules(self.check([ir.Reassign("x", ir.Const(1))])) == {
            "reassign-undefined"
        }

    def test_reassign_immutable(self):
        body = [
            ir.Assign("x", ir.Const(1)),
            ir.Reassign("x", ir.Const(2)),
        ]
        assert rules(self.check(body)) == {"reassign-immutable"}

    def test_reassign_mutable_ok(self):
        body = [
            ir.Assign("x", ir.Const(1), mutable=True),
            ir.Reassign("x", ir.Const(2)),
        ]
        assert self.check(body) == []

    def test_break_outside_loop(self):
        assert rules(self.check([ir.Break()])) == {"break-outside-loop"}

    def test_continue_outside_loop(self):
        assert rules(self.check([ir.Continue()])) == {"continue-outside-loop"}

    def test_break_in_branch_outside_loop(self):
        body = [ir.If(ir.Sym("p"), then=[ir.Break()])]
        assert rules(self.check(body)) == {"break-outside-loop"}

    def test_break_inside_loop_ok(self):
        body = [ir.While([ir.If(ir.Sym("p"), then=[ir.Break()])])]
        assert self.check(body) == []

    def test_nested_func_resets_loop_context(self):
        # a closure defined inside a loop is its own break/continue context
        body = [ir.While([ir.NestedFunc("g", (), [ir.Break()]), ir.Break()])]
        assert rules(self.check(body)) == {"break-outside-loop"}

    def test_closure_capture_undefined(self):
        body = [ir.NestedFunc("g", (), [ir.Return(ir.Sym("free"))])]
        diags = self.check(body)
        assert rules(diags) == {"closure-capture"}
        assert diags[0].function == "f.g"

    def test_closure_sees_later_definitions(self):
        # late binding: run() may reference names prepare() defines after it
        body = [
            ir.NestedFunc("run", ("out",), [ir.Return(ir.Sym("hm"))]),
            ir.Assign("hm", ir.Call("dict_new", ()), ctype="void*"),
            ir.Return(ir.Sym("run")),
        ]
        assert self.check(body) == []

    def test_closure_params_stay_local(self):
        body = [
            ir.NestedFunc("g", ("inner",), [ir.Return(ir.Sym("inner"))]),
            ir.Return(ir.Sym("inner")),  # not visible in the outer scope
        ]
        assert rules(self.check(body)) == {"undefined-sym"}

    def test_loop_vars_are_defined(self):
        body = [
            ir.ForRange("i", ir.Const(0), ir.Const(3),
                        [ir.Assign("x", ir.Sym("i"))]),
            ir.ForEach("e", ir.Sym("p"), [ir.Assign("y", ir.Sym("e"))]),
        ]
        assert self.check(body) == []


# ---------------------------------------------------------------------------
# Type checker rules
# ---------------------------------------------------------------------------


class TestTypeChecker:
    def check(self, body, params=("p",)):
        return TypeChecker().run(fn(body, params))

    def test_ctype_mismatch_double_into_long(self):
        diags = self.check([ir.Assign("x", ir.Const(1.5), ctype="long")])
        assert rules(diags) == {"ctype-mismatch"}

    def test_ctype_mismatch_string_into_long(self):
        # the default hint: a staged string bound without ctype="char*"
        diags = self.check([ir.Assign("x", ir.Const("abc"))])
        assert rules(diags) == {"ctype-mismatch"}

    def test_correct_hints_clean(self):
        body = [
            ir.Assign("s", ir.Const("abc"), ctype="char*"),
            ir.Assign("n", ir.Call("len", (ir.Sym("s"),)), ctype="long"),
            ir.Assign("d", ir.Call("to_float", (ir.Sym("n"),)), ctype="double"),
            ir.Assign("b", ir.Call("str_startswith", (ir.Sym("s"), ir.Const("x"))),
                      ctype="bool"),
        ]
        assert self.check(body) == []

    def test_inference_through_intrinsics(self):
        body = [ir.Assign("n", ir.Call("len", (ir.Sym("p"),)), ctype="char*")]
        assert rules(self.check(body)) == {"ctype-mismatch"}

    def test_like_result_is_checked(self):
        # bool fits a long (both C integers), so the wrong hint is a string
        like = ir.Call("like", (ir.Sym("p"), ir.Const("%x%")))
        assert rules(self.check([ir.Assign("x", like, ctype="char*")])) == {
            "ctype-mismatch"
        }

    def test_void_pointer_accepts_anything(self):
        body = [ir.Assign("x", ir.Const("abc"), ctype="void*")]
        assert self.check(body) == []

    def test_opaque_values_never_flagged(self):
        body = [ir.Assign("x", ir.Index(ir.Sym("p"), ir.Const(0)), ctype="long")]
        assert self.check(body) == []

    def test_reassign_type(self):
        body = [
            ir.Assign("x", ir.Const(1), mutable=True),
            ir.Reassign("x", ir.Const("abc")),
        ]
        assert rules(self.check(body)) == {"reassign-type"}

    def test_cond_type(self):
        body = [ir.If(ir.Const("abc"), then=[ir.Assign("x", ir.Const(1))])]
        assert rules(self.check(body)) == {"cond-type"}

    def test_division_is_double(self):
        assert infer_expr(
            ir.Bin("/", ir.Const(1), ir.Const(2)), {}
        ) == "double"

    def test_compatible_matrix(self):
        assert compatible("long", "bool")
        assert compatible("bool", "long")
        assert compatible("void*", "char*")
        assert compatible("long", None)
        assert not compatible("long", "double")
        assert not compatible("long", "char*")
        assert not compatible("double", "long")


# ---------------------------------------------------------------------------
# Lint rules
# ---------------------------------------------------------------------------


class TestLints:
    def test_unreachable_code(self):
        body = [ir.While([ir.Break(), ir.Assign("x", ir.Const(1))])]
        diags = UnreachableCode().run(fn(body))
        assert rules(diags) == {"unreachable-code"}
        assert diags[0].severity is Severity.WARNING

    def test_comment_after_terminator_ok(self):
        body = [ir.While([ir.Break(), ir.Comment("loop exit")])]
        assert UnreachableCode().run(fn(body)) == []

    def test_unreachable_after_return(self):
        body = [ir.Return(ir.Const(1)), ir.Assign("x", ir.Const(2))]
        assert rules(UnreachableCode().run(fn(body))) == {"unreachable-code"}

    def test_dead_store(self):
        body = [
            ir.Assign("x", ir.Bin("+", ir.Const(1), ir.Const(2))),
            ir.Return(ir.Const(0)),
        ]
        assert rules(DeadStore().run(fn(body))) == {"dead-store"}

    def test_dead_store_spares_used_names(self):
        body = [
            ir.Assign("x", ir.Bin("+", ir.Const(1), ir.Const(2))),
            ir.Return(ir.Sym("x")),
        ]
        assert DeadStore().run(fn(body)) == []

    def test_dead_store_spares_effectful_inits(self):
        # deleting a call (or a subscript, which can fault) changes behavior
        body = [
            ir.Assign("x", ir.Call("list_new", ())),
            ir.Return(ir.Const(0)),
        ]
        assert DeadStore().run(fn(body)) == []

    def test_dead_store_counts_closure_uses(self):
        body = [
            ir.Assign("x", ir.Bin("+", ir.Const(1), ir.Const(2))),
            ir.NestedFunc("g", (), [ir.Return(ir.Sym("x"))]),
        ]
        assert DeadStore().run(fn(body)) == []

    def test_infinite_loop(self):
        body = [ir.While([ir.Assign("x", ir.Const(1))])]
        assert rules(InfiniteLoop().run(fn(body))) == {"infinite-loop"}

    def test_loop_with_guarded_break_ok(self):
        body = [ir.While([ir.If(ir.Sym("p"), then=[ir.Break()])])]
        assert InfiniteLoop().run(fn(body)) == []

    def test_inner_break_does_not_exit_outer(self):
        body = [ir.While([ir.While([ir.Break()])])]
        assert rules(InfiniteLoop().run(fn(body))) == {"infinite-loop"}

    def test_return_exits_any_depth(self):
        body = [ir.While([ir.While([ir.Return(ir.Const(1))])])]
        # the inner loop's return also exits the outer: neither is flagged
        assert InfiniteLoop().run(fn(body)) == []

    def test_kernels_belong_in_the_batch_loop(self):
        def kernel(name):
            return ir.Assign(name, ir.Call("v_not", (ir.Sym("p"),)), ctype="vec_bool")

        def loop(body, batch=False):
            return ir.ForRange("i", ir.Const(0), ir.Sym("p"), body,
                               step=ir.Const(8), batch=batch)

        assert BulkOpInLoop().run(fn([loop([kernel("a")], batch=True)])) == []
        for body in (
            [loop([kernel("a")])],  # a row loop is no batch loop
            [loop([ir.ForRange("j", ir.Const(0), ir.Sym("p"), [kernel("a")])],
                  batch=True)],  # a row loop inside the batch loop
        ):
            assert rules(BulkOpInLoop().run(fn(body))) == {"bulk-op-in-loop"}

    def test_a_build_column_no_probe_reads_is_dead(self):
        from repro.analysis.lint import DeadBuildColumn

        def program(*reads):
            build = ir.Assign("jx", ir.Call("join_finish", (
                ir.Sym("p"), ir.Const(1), ir.Const(2), ir.Const(True))))
            loads = [
                ir.Assign(f"v{j}", ir.Index(ir.Sym("jx"), ir.Const(j)))
                for j in reads
            ]
            return fn([build, *loads, ir.Return(ir.Const(0))])

        assert DeadBuildColumn().run(program(1, 2)) == []
        diags = DeadBuildColumn().run(program(0, 2))  # jx[0] is the key index
        assert rules(diags) == {"dead-build-column"}
        assert "[0]" in diags[0].message

    def test_a_fold_of_one_input_twice_into_one_table_is_a_duplicate(self):
        from repro.analysis.lint import DuplicateFold

        def fold(kernel, slot, *inputs, table="g"):
            return ir.ExprStmt(ir.Call(kernel, (
                ir.Sym(table), ir.Const(slot), ir.Sym("ids"), *map(ir.Sym, inputs))))

        def program(*folds, batch=True):
            take = ir.Call("v_take", (ir.Sym("p"), ir.Sym("p")))
            binds = [
                ir.Assign("x", take, ctype="vec_double"),
                ir.Assign("k", take, ctype="vec_long"),
            ]
            loop = ir.ForRange("c", ir.Const(0), ir.Sym("p"), binds + list(folds),
                               step=ir.Const(8), batch=batch)
            return fn([loop])

        clean = [
            program(fold("v_agg_sum", 0, "x"), fold("v_agg_count", 1)),
            # an exact INT total and a float one compute two things
            program(fold("v_agg_sum", 0, "k"), fold("v_agg_fsum", 1, "k")),
            # two tables, or two inputs, or outside a batch loop
            program(fold("v_agg_count", 0), fold("v_agg_count", 0, table="h")),
            program(fold("v_agg_min", 0, "x"), fold("v_agg_min", 1, "k")),
            program(fold("v_agg_count", 0), fold("v_agg_count", 1), batch=False),
        ]
        for functions in clean:
            assert DuplicateFold().run(functions) == []
        for folds in (
            (fold("v_agg_count", 0), fold("v_agg_count", 3)),
            (fold("v_agg_sum", 0, "x"), fold("v_agg_fsum", 2, "x")),
            (fold("v_agg_fsum", 1, "k"), fold("v_agg_fsum", 2, "k")),
        ):
            diags = DuplicateFold().run(program(*folds))
            assert rules(diags) == {"duplicate-fold"} and len(diags) == 1

    @needs_numpy
    def test_duplicate_fold_fires_when_aggregates_stop_sharing(
        self, tpch_db, monkeypatch
    ):
        """A seeded mutation: with every slot kept apart, q1's served
        program folds its row count four times and two float totals twice."""
        from repro.analysis.lint import DuplicateFold
        from repro.compiler import staged_agg

        def compile_q1():
            config = Config(codegen="vector", budget_checks=True)
            compiled = LB2Compiler(tpch_db.catalog, tpch_db, config).compile(
                query_plan(1, scale=TINY_SCALE)
            )
            return DuplicateFold().run(compiled.functions)

        assert compile_q1() == []
        monkeypatch.setattr(
            staged_agg.StagedAgg, "share_keys",
            lambda self, nullable: [None] * len(self.slot_ctypes()),
        )
        diags = compile_q1()
        assert rules(diags) == {"duplicate-fold"} and len(diags) == 5

    def test_an_unread_gather_is_dead(self):
        from repro.analysis.lint import DeadGather

        take = ir.Assign("g", ir.Call("v_take", (ir.Sym("p"), ir.Sym("p"))))
        assert rules(DeadGather().run(fn([take, ir.Return(ir.Const(0))]))) == {
            "dead-gather"
        }
        assert DeadGather().run(fn([take, ir.Return(ir.Sym("g"))])) == []

    def _split(self, prelude):
        return fn(prelude + [
            ir.NestedFunc("run", ("out",), [ir.Return(ir.Const(0))]),
            ir.Return(ir.Sym("run")),
        ], params=("db",), name="prepare")

    def test_hoist_safe_prelude(self):
        prelude = [
            ir.Assign("col", ir.Call("db_column",
                                     (ir.Sym("db"), ir.Const("Emp"),
                                      ir.Const("eid"))), ctype="void*"),
            ir.Assign("buf", ir.Call("list_new", ()), ctype="void*"),
            ir.ExprStmt(ir.Call("list_append", (ir.Sym("buf"), ir.Const(0)))),
        ]
        assert HoistSafety().run(self._split(prelude)) == []

    def test_hoisted_output_flagged(self):
        prelude = [ir.ExprStmt(ir.Call("out_append", (ir.Const(0),)))]
        assert rules(HoistSafety().run(self._split(prelude))) == {"hoist-unsafe"}

    def test_hoisted_write_to_foreign_state_flagged(self):
        # appending to something NOT allocated in the prelude is a reorder
        prelude = [ir.ExprStmt(ir.Call("list_append",
                                       (ir.Sym("db"), ir.Const(0))))]
        assert rules(HoistSafety().run(self._split(prelude))) == {"hoist-unsafe"}

    def test_hoisted_like_is_pure(self):
        like = ir.Call("like", (ir.Const("abc"), ir.Const("a%")))
        prelude = [ir.Assign("x", like, ctype="bool")]
        assert HoistSafety().run(self._split(prelude)) == []

    def test_hoisted_unknown_helper_flagged(self):
        prelude = [ir.Assign("x", ir.Call("mystery", ()), ctype="void*")]
        assert rules(HoistSafety().run(self._split(prelude))) == {"hoist-unsafe"}

    def test_hot_path_not_checked(self):
        # out_append inside run() is exactly where output belongs
        program = fn([
            ir.NestedFunc("run", ("out",),
                          [ir.ExprStmt(ir.Call("out_append", (ir.Const(0),)))]),
            ir.Return(ir.Sym("run")),
        ], params=("db",), name="prepare")
        assert HoistSafety().run(program) == []


# ---------------------------------------------------------------------------
# Driver integration
# ---------------------------------------------------------------------------


def _emp_plan_and_db():
    from tests.test_golden_codegen import agg_plan, emp_db

    db = emp_db()
    return agg_plan(), db


class TestDriverIntegration:
    def test_compile_retains_functions_and_verifies(self):
        plan, db = _emp_plan_and_db()
        compiled = LB2Compiler(db.catalog, db).compile(plan)
        assert compiled.functions, "compile() must retain the staged IR"
        assert analyze(compiled.functions) == []

    def test_verification_error_is_structured(self, monkeypatch):
        from repro.compiler import driver as driver_mod

        plan, db = _emp_plan_and_db()
        bad = Verifier().diag(
            "undefined-sym", "symbol used before any definition: 'ghost'", "query"
        )
        monkeypatch.setattr(driver_mod.Verifier, "run", lambda self, fns: [bad])
        with pytest.raises(IRVerificationError) as exc:
            LB2Compiler(db.catalog, db).compile(plan)
        assert exc.value.diagnostics == [bad]
        message = str(exc.value)
        assert "undefined-sym" in message
        assert ">>>" in message  # the rendered source excerpt marker

    def test_verify_false_skips_the_check(self, monkeypatch):
        from repro.compiler import driver as driver_mod

        plan, db = _emp_plan_and_db()

        def boom(self, fns):  # pragma: no cover - must not be called
            raise AssertionError("verifier ran despite verify=False")

        monkeypatch.setattr(driver_mod.Verifier, "run", boom)
        compiled = LB2Compiler(db.catalog, db).compile(plan, verify=False)
        assert compiled.run(db)

    def test_error_excerpt_points_at_statement(self):
        target = ir.Assign("x", ir.Sym("ghost"))
        functions = fn([ir.Assign("ok", ir.Const(1)), target])
        diags = Verifier().run(functions)
        assert len(diags) == 1 and diags[0].stmt is target
        err = IRVerificationError(diags, functions)
        marked = [l for l in str(err).splitlines() if l.startswith(">>>")]
        assert len(marked) == 1
        assert "ghost" in marked[0]


class TestBuilderCommentRegression:
    def test_comment_between_if_and_else(self):
        ctx = StagingContext()
        with ctx.function("f", ["a"]):
            cond = ctx.sym("a", "bool")
            with ctx.if_(cond):
                ctx.comment("then")
            ctx.comment("annotation between the branches")
            with ctx.else_():
                ctx.comment("else")
        assert Verifier().run(ctx.program()) == []

    def test_real_statement_still_invalidates_else(self):
        ctx = StagingContext()
        with ctx.function("f", ["a"]):
            cond = ctx.sym("a", "bool")
            with ctx.if_(cond):
                ctx.comment("then")
            ctx.var(ctx.int_(0))
            with pytest.raises(StagingError):
                with ctx.else_():
                    pass


# ---------------------------------------------------------------------------
# TPC-H: every query's residual program is analysis-clean
# ---------------------------------------------------------------------------


CONFIGS = {
    "native-row": Config(),
    "native-column-instr": Config(sort_layout="column", instrument=True),
    "open-row-nohoist": Config(hashmap="open", hoist=False),
    "open-column-hoist-dict": Config(
        hashmap="open", sort_layout="column", hoist=True, use_dictionaries=True
    ),
    # the served program: batch loops with budget checkpoints
    "vector-budget-nodict": Config(
        codegen="vector", budget_checks=True, use_dictionaries=False
    ),
}


@pytest.mark.parametrize(
    "label",
    [
        pytest.param(label, marks=needs_numpy)
        if CONFIGS[label].codegen == "vector" else label
        for label in sorted(CONFIGS)
    ],
)
@pytest.mark.parametrize("q", sorted(QUERIES))
def test_tpch_residual_programs_analysis_clean(q, label, tpch_db_full):
    plan = query_plan(q, scale=TINY_SCALE)
    compiler = LB2Compiler(tpch_db_full.catalog, tpch_db_full, CONFIGS[label])
    compiled = compiler.compile(plan)
    assert analyze(compiled.functions) == []


@pytest.mark.parametrize("q", sorted(QUERIES))
def test_tpch_split_prepare_analysis_clean(q, tpch_db_full):
    """The Section-4.4 split on a fully built database: one ``prepare``
    function whose hot path is the nested ``run`` closure, analysis-clean."""
    plan = query_plan(q, scale=TINY_SCALE)
    compiler = LB2Compiler(
        tpch_db_full.catalog, tpch_db_full, Config(hoist=True)
    )
    compiled = compiler.compile(plan)
    assert [fn.name for fn in compiled.functions] == ["prepare"]
    assert "\n    def run(out" in compiled.source
    assert analyze(compiled.functions) == []


@pytest.mark.parametrize("q", sorted(QUERIES))
def test_tpch_parallel_partials_analysis_clean(q, tpch_db_full):
    plan = query_plan(q, scale=TINY_SCALE)
    try:
        pq = ParallelQuery(plan, tpch_db_full, tpch_db_full.catalog)
    except ParallelError:
        pytest.skip("plan shape not partitionable")
    assert analyze(pq.functions) == []


def test_open_map_double_group_key_runs(tpch_db_full):
    """Regression for the bug the type checker surfaced: hashing a double
    group key (Q10's c_acctbal) must not produce a float slot index."""
    from tests.conftest import normalize

    plan = query_plan(10, scale=TINY_SCALE)
    native = LB2Compiler(
        tpch_db_full.catalog, tpch_db_full, Config(hashmap="native")
    ).compile(plan)
    opened = LB2Compiler(
        tpch_db_full.catalog, tpch_db_full, Config(hashmap="open")
    ).compile(plan)
    assert normalize(opened.run(tpch_db_full)) == normalize(native.run(tpch_db_full))


class TestLintJson:
    def test_json_report_validates_and_round_trips(self, tmp_path, capsys):
        from repro.analysis.cli import SCHEMA, main, validate_report

        out = tmp_path / "lint.json"
        rc = main([
            "--query", "6", "--fast", "--json", "--check", "--out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_report(doc) == []
        assert doc["schema"] == SCHEMA == "repro-lint/v2"
        assert doc["findings"] == []
        assert doc["programs_checked"] > 0

    def test_validate_report_flags_broken_documents(self):
        from repro.analysis.cli import validate_report

        assert validate_report("not a dict")
        assert validate_report({"schema": "other/v9"})
        good = {
            "schema": "repro-lint/v2", "scale": 0.002, "fast": True,
            "queries": [6], "programs_checked": 1, "findings": [],
            "violations_by_rule": {}, "metrics": {"counters": {}},
        }
        assert validate_report(good) == []
        assert validate_report(dict(good, schema="repro-lint/v1"))
        bad = dict(good, findings=[{"label": "x"}])  # missing rule fields
        assert validate_report(bad)
        assert validate_report(dict(good, programs_checked="many"))
        assert validate_report(dict(good, programs_checked=True))
