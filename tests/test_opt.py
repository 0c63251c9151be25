"""Unit tests per optimizer pass, plus the end-to-end parity property.

The pass units run on hand-built IR and check the exact rewrite; the
parity test is the behavioural half of translation validation: for all 22
TPC-H queries, under both codegen backends, the ``opt_level=2`` program
must answer exactly like the ``opt_level=0`` one.  The golden gate pins
the other direction: ``opt_level=0`` output is byte-identical to the
checked-in golden hashes (the optimizer is opt-in, never ambient).
"""

import json
import pathlib

import pytest

from repro.analysis import opt
from repro.analysis.opt import (
    CommonSubexprElim,
    ConstPropagation,
    CopyPropagation,
    DeadCodeElim,
    LoopInvariantHoist,
    OptError,
    OptStats,
    SimplifyIfs,
    fold_expr,
    optimize,
    stmt_count,
)
from repro.staging import ir


def _fn(body, params=("db",), name="f"):
    return ir.Function(name, tuple(params), body)


def _run(pass_obj, fn):
    stats = OptStats()
    changed = pass_obj.run([fn], stats)
    return changed, stats


# ---------------------------------------------------------------------------
# Copy propagation
# ---------------------------------------------------------------------------


class TestCopyProp:
    def test_forwards_immutable_copies(self):
        fn = _fn([
            ir.Assign("a", ir.Const(1)),
            ir.Assign("b", ir.Sym("a")),
            ir.Return(ir.Sym("b")),
        ])
        changed, _ = _run(CopyPropagation(), fn)
        assert changed
        assert fn.body[2].expr == ir.Sym("a")

    def test_resolves_chains(self):
        fn = _fn([
            ir.Assign("a", ir.Const(1)),
            ir.Assign("b", ir.Sym("a")),
            ir.Assign("c", ir.Sym("b")),
            ir.Return(ir.Sym("c")),
        ])
        _run(CopyPropagation(), fn)
        assert fn.body[3].expr == ir.Sym("a")

    def test_never_propagates_mutable_names(self):
        fn = _fn([
            ir.Assign("m", ir.Const(0), mutable=True),
            ir.Assign("snapshot", ir.Sym("m")),
            ir.Reassign("m", ir.Const(9)),
            ir.Return(ir.Sym("snapshot")),
        ])
        changed, _ = _run(CopyPropagation(), fn)
        # forwarding m into the return would read 9 instead of 0
        assert not changed
        assert fn.body[3].expr == ir.Sym("snapshot")


# ---------------------------------------------------------------------------
# Constant propagation + folding
# ---------------------------------------------------------------------------


class TestConstProp:
    def test_propagates_and_folds(self):
        fn = _fn([
            ir.Assign("two", ir.Const(2)),
            ir.Assign("four", ir.Bin("+", ir.Sym("two"), ir.Sym("two"))),
            ir.Return(ir.Sym("four")),
        ])
        _run(ConstPropagation(), fn)
        assert fn.body[1].expr == ir.Const(4)

    def test_folding_is_python_semantics(self):
        c = [0]
        assert fold_expr(ir.Bin("/", ir.Const(7), ir.Const(2)), c) == ir.Const(3.5)
        assert fold_expr(ir.Bin("//", ir.Const(7), ir.Const(2)), c) == ir.Const(3)
        assert fold_expr(ir.Bin("<", ir.Const("a"), ir.Const("b")), c) == ir.Const(True)
        assert fold_expr(ir.Un("not", ir.Const(0)), c) == ir.Const(True)
        assert fold_expr(ir.Un("-", ir.Const(3)), c) == ir.Const(-3)

    def test_never_folds_a_crash_into_a_value(self):
        c = [0]
        div = ir.Bin("/", ir.Const(1), ir.Const(0))
        assert fold_expr(div, c) == div  # still raises at run time
        mixed = ir.Bin("<", ir.Const(1), ir.Const("x"))
        assert fold_expr(mixed, c) == mixed  # TypeError preserved

    def test_short_circuit_folds_only_on_const_lhs(self):
        c = [0]
        # constant lhs decides: Python's `and` returns the deciding operand
        assert fold_expr(
            ir.Bin("and", ir.Const(True), ir.Sym("x")), c
        ) == ir.Sym("x")
        assert fold_expr(
            ir.Bin("and", ir.Const(False), ir.Sym("x")), c
        ) == ir.Const(False)
        assert fold_expr(
            ir.Bin("or", ir.Const(False), ir.Sym("x")), c
        ) == ir.Sym("x")
        assert fold_expr(
            ir.Bin("or", ir.Const(True), ir.Sym("x")), c
        ) == ir.Const(True)
        # a constant RHS must NOT fold: `x and False` still evaluates x
        # and yields x when x is falsy -- not False
        keep = ir.Bin("and", ir.Sym("x"), ir.Const(False))
        assert fold_expr(keep, c) == keep


# ---------------------------------------------------------------------------
# If simplification
# ---------------------------------------------------------------------------


class TestSimplifyIfs:
    def test_splices_constant_true(self):
        fn = _fn([
            ir.If(ir.Const(True),
                  [ir.Assign("t", ir.Const(1))],
                  [ir.Assign("e", ir.Const(2))]),
            ir.Return(ir.Sym("t")),
        ])
        changed, _ = _run(SimplifyIfs(), fn)
        assert changed
        assert isinstance(fn.body[0], ir.Assign) and fn.body[0].name == "t"
        assert not any(
            isinstance(s, ir.If) for s in fn.body
        )

    def test_splices_constant_false_to_else(self):
        fn = _fn([
            ir.If(ir.Const(0), [ir.Assign("t", ir.Const(1))],
                  [ir.Assign("e", ir.Const(2))]),
            ir.Return(ir.Sym("e")),
        ])
        _run(SimplifyIfs(), fn)
        assert fn.body[0].name == "e"

    def test_drops_effect_free_empty_if(self):
        fn = _fn([
            ir.Assign("c", ir.Call("db_size", (ir.Const("t"),))),
            ir.If(ir.Sym("c"), [], [ir.Comment("nothing here")]),
            ir.Return(ir.Sym("c")),
        ])
        changed, _ = _run(SimplifyIfs(), fn)
        assert changed
        assert not any(isinstance(s, ir.If) for s in fn.body)

    def test_keeps_empty_if_with_effectful_condition(self):
        fn = _fn([
            ir.If(ir.Call("scan_tick", (ir.Const(1),)), [], []),
        ])
        changed, _ = _run(SimplifyIfs(), fn)
        assert not changed  # dropping it would drop the tick


# ---------------------------------------------------------------------------
# Dead code elimination
# ---------------------------------------------------------------------------


class TestDce:
    def test_removes_unused_pure_binding(self):
        fn = _fn([
            ir.Assign("used", ir.Const(1)),
            ir.Assign("dead", ir.Bin("*", ir.Sym("used"), ir.Const(2))),
            ir.Return(ir.Sym("used")),
        ])
        changed, stats = _run(DeadCodeElim(), fn)
        assert changed and stats.stmts_removed == 1
        assert [s.name for s in fn.body[:-1]] == ["used"]

    def test_keeps_effectful_unused_binding(self):
        fn = _fn([
            ir.Assign("r", ir.Call("dict_set",
                                   (ir.Sym("db"), ir.Const(1), ir.Const(2)))),
            ir.Return(ir.Const(0)),
        ])
        changed, _ = _run(DeadCodeElim(), fn)
        assert not changed  # the write must survive

    def test_removes_never_read_mutable_with_reassigns(self):
        # `last` is written every iteration but read nowhere at all
        fn = _fn([
            ir.Assign("last", ir.Const(0), mutable=True),
            ir.ForRange("i", ir.Const(0), ir.Const(3), [
                ir.Reassign("last", ir.Sym("i")),
            ]),
            ir.Return(ir.Const(0)),
        ])
        changed, _ = _run(DeadCodeElim(), fn)
        assert changed
        names = {s.name for s in fn.body if isinstance(s, ir.Assign)}
        assert "last" not in names
        loop = next(s for s in fn.body if isinstance(s, ir.ForRange))
        assert not any(isinstance(s, ir.Reassign) for s in loop.body)

    def test_liveness_removes_dead_store_but_keeps_declaration(self):
        dead_store = ir.Reassign("v", ir.Const(99))
        fn = _fn([
            ir.Assign("v", ir.Const(0), mutable=True),
            dead_store,  # overwritten before any read
            ir.Reassign("v", ir.Const(1)),
            ir.Return(ir.Sym("v")),
        ])
        changed, _ = _run(DeadCodeElim(), fn)
        assert changed
        assert dead_store not in fn.body
        # the declaring bind survives (the C emitter needs the declaration)
        assert isinstance(fn.body[0], ir.Assign) and fn.body[0].mutable

    def test_removes_statically_unreachable_statements(self):
        fn = _fn([
            ir.Assign("a", ir.Const(1)),
            ir.Return(ir.Sym("a")),
            ir.Assign("never", ir.Const(2)),
        ])
        changed, _ = _run(DeadCodeElim(), fn)
        assert changed
        assert isinstance(fn.body[-1], ir.Return)

    def test_keeps_closure_captured_bindings(self):
        fn = _fn([
            ir.Assign("cap", ir.Const(1)),
            ir.NestedFunc("run", (), [ir.Return(ir.Sym("cap"))]),
            ir.Return(ir.Sym("run")),
        ])
        changed, _ = _run(DeadCodeElim(), fn)
        assert not changed


# ---------------------------------------------------------------------------
# Common-subexpression elimination
# ---------------------------------------------------------------------------


class TestCse:
    def test_dedupes_pure_binop(self):
        fn = _fn([
            ir.Assign("x", ir.Const(2)),
            ir.Assign("a", ir.Bin("*", ir.Sym("x"), ir.Sym("x"))),
            ir.Assign("b", ir.Bin("*", ir.Sym("x"), ir.Sym("x"))),
            ir.Return(ir.Bin("+", ir.Sym("a"), ir.Sym("b"))),
        ])
        changed, stats = _run(CommonSubexprElim(), fn)
        assert changed and stats.exprs_cse == 1
        names = [s.name for s in fn.body if isinstance(s, ir.Assign)]
        assert names == ["x", "a"]
        assert fn.body[-1].expr == ir.Bin("+", ir.Sym("a"), ir.Sym("a"))

    def test_db_snapshot_reads_dedupe_across_loop_bodies(self):
        fn = _fn([
            ir.Assign("c1", ir.Call("db_column", (ir.Const("t"), ir.Const("x"))),
                      ctype="void*"),
            ir.ForRange("i", ir.Const(0), ir.Const(3), [
                ir.Assign("c2", ir.Call("db_column",
                                        (ir.Const("t"), ir.Const("x"))),
                          ctype="void*"),
                ir.ExprStmt(ir.Call("list_append",
                                    (ir.Sym("db"), ir.Index(ir.Sym("c2"),
                                                            ir.Sym("i"))))),
            ]),
            ir.Return(ir.Sym("c1")),
        ])
        changed, _ = _run(CommonSubexprElim(), fn)
        # list_append is a WRITE kill, but db_column reads load-time state:
        # the entry survives the pre-loop kill and the inner copy dedupes
        assert changed
        loop = next(s for s in fn.body if isinstance(s, ir.ForRange))
        assert not any(
            isinstance(s, ir.Assign) and s.name == "c2" for s in loop.body
        )

    def test_container_reads_killed_by_writes(self):
        fn = _fn([
            ir.Assign("a", ir.Call("dict_get",
                                   (ir.Sym("db"), ir.Const(1), ir.Const(0)))),
            ir.ExprStmt(ir.Call("dict_set",
                                (ir.Sym("db"), ir.Const(1), ir.Const(9)))),
            ir.Assign("b", ir.Call("dict_get",
                                   (ir.Sym("db"), ir.Const(1), ir.Const(0)))),
            ir.Return(ir.Bin("+", ir.Sym("a"), ir.Sym("b"))),
        ])
        changed, _ = _run(CommonSubexprElim(), fn)
        assert not changed  # the write between the reads kills the entry

    def test_mutable_operands_are_never_keys(self):
        fn = _fn([
            ir.Assign("m", ir.Const(1), mutable=True),
            ir.Assign("a", ir.Bin("+", ir.Sym("m"), ir.Const(1))),
            ir.Reassign("m", ir.Const(5)),
            ir.Assign("b", ir.Bin("+", ir.Sym("m"), ir.Const(1))),
            ir.Return(ir.Bin("+", ir.Sym("a"), ir.Sym("b"))),
        ])
        changed, _ = _run(CommonSubexprElim(), fn)
        assert not changed

    def test_volatile_calls_never_dedupe(self):
        fn = _fn([
            ir.Assign("t0", ir.Call("obs_now", ())),
            ir.Assign("t1", ir.Call("obs_now", ())),
            ir.Return(ir.Bin("-", ir.Sym("t1"), ir.Sym("t0"))),
        ])
        changed, _ = _run(CommonSubexprElim(), fn)
        assert not changed  # two clock reads are two different values

    def test_branch_entries_do_not_leak_to_join(self):
        fn = _fn([
            ir.Assign("x", ir.Const(2)),
            ir.If(ir.Sym("db"),
                  [ir.Assign("a", ir.Bin("*", ir.Sym("x"), ir.Sym("x"))),
                   ir.ExprStmt(ir.Call("list_append", (ir.Sym("db"), ir.Sym("a"))))],
                  []),
            ir.Assign("b", ir.Bin("*", ir.Sym("x"), ir.Sym("x"))),
            ir.Return(ir.Sym("b")),
        ])
        _run(CommonSubexprElim(), fn)
        # `b` must NOT reuse `a`: on the else path `a` was never computed
        assert any(
            isinstance(s, ir.Assign) and s.name == "b" for s in fn.body
        )


# ---------------------------------------------------------------------------
# Loop-invariant code motion
# ---------------------------------------------------------------------------


class TestLicm:
    def test_hoists_invariant_field_load(self):
        fn = _fn([
            ir.Assign("n", ir.Call("db_size", (ir.Const("t"),))),
            ir.ForRange("i", ir.Const(0), ir.Sym("n"), [
                ir.Assign("col", ir.Call("db_column",
                                         (ir.Const("t"), ir.Const("x"))),
                          ctype="void*"),
                ir.Assign("v", ir.Index(ir.Sym("col"), ir.Sym("i"))),
                ir.ExprStmt(ir.Call("list_append", (ir.Sym("db"), ir.Sym("v")))),
            ]),
        ])
        changed, stats = _run(LoopInvariantHoist(), fn)
        assert changed and stats.hoisted == 1
        # col now binds before the loop; v (depends on i) stays inside
        names_before_loop = [
            s.name for s in fn.body if isinstance(s, ir.Assign)
        ]
        assert names_before_loop == ["n", "col"]
        loop = next(s for s in fn.body if isinstance(s, ir.ForRange))
        assert [s.name for s in loop.body if isinstance(s, ir.Assign)] == ["v"]

    def test_does_not_hoist_state_read_over_loop_writes(self):
        """The Q13 regression: a dict lookup is only invariant if nothing
        in the loop writes -- here the loop inserts into the same dict."""
        fn = _fn([
            ir.Assign("k", ir.Const(5)),
            ir.ForRange("i", ir.Const(0), ir.Const(3), [
                ir.Assign("hit", ir.Call("dict_get",
                                         (ir.Sym("db"), ir.Sym("k"), ir.Const(0)))),
                ir.ExprStmt(ir.Call("dict_set",
                                    (ir.Sym("db"), ir.Sym("k"), ir.Sym("i")))),
            ]),
        ])
        changed, _ = _run(LoopInvariantHoist(), fn)
        assert not changed

    def test_does_not_hoist_allocation(self):
        fn = _fn([
            ir.ForRange("i", ir.Const(0), ir.Const(3), [
                ir.Assign("state", ir.ListExpr((ir.Const(0),)), ctype="void*"),
                ir.ExprStmt(ir.Call("list_append", (ir.Sym("db"), ir.Sym("state")))),
            ]),
        ])
        changed, _ = _run(LoopInvariantHoist(), fn)
        assert not changed  # one shared list is not three fresh lists

    def test_does_not_hoist_volatile_or_division(self):
        fn = _fn([
            ir.Assign("d", ir.Const(0)),
            ir.ForRange("i", ir.Const(0), ir.Const(3), [
                ir.Assign("t", ir.Call("obs_now", ())),
                ir.Assign("q", ir.Bin("/", ir.Const(1), ir.Sym("d"))),
                ir.ExprStmt(ir.Call("list_append",
                                    (ir.Sym("db"),
                                     ir.Bin("+", ir.Sym("t"), ir.Sym("q"))))),
            ]),
        ])
        changed, _ = _run(LoopInvariantHoist(), fn)
        # obs_now is volatile; 1/d could raise only when the loop runs
        assert not changed

    def test_cascades_through_nested_loops(self):
        fn = _fn([
            ir.ForRange("i", ir.Const(0), ir.Const(3), [
                ir.ForRange("j", ir.Const(0), ir.Const(3), [
                    ir.Assign("inv", ir.Call("db_size", (ir.Const("t"),))),
                    ir.ExprStmt(ir.Call("list_append",
                                        (ir.Sym("db"), ir.Sym("inv")))),
                ]),
            ]),
        ])
        changed, stats = _run(LoopInvariantHoist(), fn)
        assert changed
        # inner loops hoist first, so one pass lifts it out of both loops
        assert isinstance(fn.body[0], ir.Assign) and fn.body[0].name == "inv"


# ---------------------------------------------------------------------------
# The pipeline: levels, fixpoint, validation
# ---------------------------------------------------------------------------


class TestPipeline:
    def test_level_0_is_identity(self):
        fn = _fn([
            ir.Assign("dead", ir.Const(1)),
            ir.Return(ir.Const(0)),
        ])
        result = optimize([fn], level=0)
        assert result.stats.stmts_before == result.stats.stmts_after == 2
        assert len(fn.body) == 2

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            optimize([_fn([ir.Return(ir.Const(0))])], level=3)

    def test_validation_rejects_invalid_input(self):
        # uses an undefined symbol: the verifier must veto before any pass
        fn = _fn([ir.Return(ir.Sym("ghost"))])
        with pytest.raises(OptError) as exc:
            optimize([fn], level=1)
        assert exc.value.origin == "input"
        assert exc.value.code == "E_OPT"
        assert exc.value.phase == "optimize"

    def test_fixpoint_cascades_across_passes(self):
        # copyprop exposes constprop exposes dce: needs >1 round
        fn = _fn([
            ir.Assign("a", ir.Const(2)),
            ir.Assign("b", ir.Sym("a")),
            ir.Assign("c", ir.Bin("+", ir.Sym("b"), ir.Const(3))),
            ir.Assign("d", ir.Bin("*", ir.Sym("c"), ir.Sym("c"))),
            ir.Return(ir.Sym("d")),
        ])
        result = optimize([fn], level=1)
        assert result.stats.iterations >= 2
        assert stmt_count([fn]) == 1
        assert fn.body[0].expr == ir.Const(25)

    def test_stats_land_in_codegen_stats_and_registry(self, tpch_db):
        from repro.compiler.driver import LB2Compiler
        from repro.compiler.lb2 import Config
        from repro.obs.metrics import REGISTRY
        from repro.tpch import query_plan
        from tests.conftest import TINY_SCALE

        REGISTRY.reset("opt.")
        plan = query_plan(6, scale=TINY_SCALE)
        compiled = LB2Compiler(
            tpch_db.catalog, tpch_db, Config(opt_level=2)
        ).compile(plan)
        stats = compiled.codegen_stats["opt"]
        assert stats["stmts_after"] < stats["stmts_before"]
        assert REGISTRY.get_counter("opt.stmts_removed") == stats["stmts_removed"]

    def test_opt_error_is_taxonomy_member(self):
        from repro.errors import ERROR_CODES, PHASES, ReproError

        assert issubclass(OptError, ReproError)
        assert OptError.code == "E_OPT"
        assert OptError.phase in PHASES
        assert ERROR_CODES["E_OPT"] is OptError


# ---------------------------------------------------------------------------
# Parity + golden gates
# ---------------------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden" / "scalar_sources.json"


class TestParity:
    @pytest.mark.parametrize("q", sorted(range(1, 23)))
    def test_opt2_matches_opt0_under_both_codegens(self, q, tpch_db):
        """The behavioural half of translation validation: the optimized
        program answers exactly like the unoptimized one, at every level,
        for every query, under both lowerings."""
        from repro.compiler.driver import LB2Compiler
        from repro.compiler.lb2 import Config
        from repro.tpch import query_plan
        from tests.conftest import TINY_SCALE, normalize

        plan = query_plan(q, scale=TINY_SCALE)
        results = []
        for codegen in ("scalar", "vector"):
            for level in (0, 1, 2):
                compiled = LB2Compiler(
                    tpch_db.catalog, tpch_db,
                    Config(codegen=codegen, opt_level=level),
                ).compile(plan)
                results.append(normalize(compiled.run(tpch_db)))
        assert all(r == results[0] for r in results[1:])

    def test_opt_level_0_is_byte_identical_to_goldens(self, tpch_db):
        """The golden gate: an explicit ``opt_level=0`` config produces
        exactly the checked-in golden source bytes -- the optimizer is
        opt-in, and level 0 does not even import it."""
        import hashlib

        from repro.compiler.driver import LB2Compiler
        from repro.compiler.lb2 import Config
        from repro.tpch import query_plan
        from tests.conftest import TINY_SCALE

        golden = json.loads(GOLDEN.read_text())
        for q in (1, 6, 13):
            plan = query_plan(q, scale=TINY_SCALE)
            compiled = LB2Compiler(
                tpch_db.catalog, tpch_db, Config(opt_level=0)
            ).compile(plan)
            digest = hashlib.sha256(compiled.source.encode()).hexdigest()
            assert digest == golden[f"q{q}:compliant:default"], (
                f"Q{q}: opt_level=0 changed the residual source"
            )


# ---------------------------------------------------------------------------
# repro-lint machine-readable reports
# ---------------------------------------------------------------------------


class TestLintJson:
    def test_json_report_validates_and_round_trips(self, tmp_path, capsys):
        from repro.analysis.cli import main, validate_report

        out = tmp_path / "lint.json"
        rc = main([
            "--query", "6", "--fast", "--opt-level", "2",
            "--json", "--check", "--out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_report(doc) == []
        assert doc["schema"] == "repro-lint/v1"
        assert doc["opt_level"] == 2
        assert doc["findings"] == []
        assert doc["programs_checked"] > 0
        assert any(
            k.startswith("opt.") for k in doc["metrics"]["counters"]
        )

    def test_opt_report_mode_tabulates_levels(self, capsys):
        from repro.analysis.cli import main, validate_report

        rc = main(["--query", "6", "--report", "opt", "--json"])
        captured = capsys.readouterr()
        assert rc == 0
        doc = json.loads(captured.out)
        assert validate_report(doc) == []
        assert doc["mode"] == "opt"
        rows = doc["opt"]
        assert {r["codegen"] for r in rows} == {"scalar", "vector"}
        for row in rows:
            for lv in ("1", "2"):
                stats = row["levels"][lv]
                assert stats["stmts_after"] <= stats["stmts_before"]

    def test_validate_report_flags_broken_documents(self):
        from repro.analysis.cli import validate_report

        assert validate_report("not a dict")
        assert validate_report({"schema": "other/v9"})
        good = {
            "schema": "repro-lint/v1", "mode": "lint", "scale": 0.002,
            "fast": True, "opt_level": 0, "queries": [6],
            "programs_checked": 1, "findings": [],
            "violations_by_rule": {}, "opt": [],
            "metrics": {"counters": {}},
        }
        assert validate_report(good) == []
        bad = dict(good, findings=[{"label": "x"}])  # missing rule fields
        assert validate_report(bad)
        assert validate_report(dict(good, programs_checked="many"))
