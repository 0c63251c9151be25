"""Lint gate: statically analyze the generated IR of every TPC-H query.

Usage::

    python -m repro.analysis.cli                 # full matrix, exit 1 on findings
    python -m repro.analysis.cli --query 6 -v    # one query, show every program
    python -m repro.analysis.cli --fast          # default + served configs (CI smoke)
    python -m repro.analysis.cli --json --check  # machine-readable, validated

For each of the 22 TPC-H queries this compiles the residual program under
every :class:`repro.compiler.lb2.Config` combination (codegen backend x
hash map implementation x sort layout x allocation hoisting x dictionaries
x instrumentation), every one in the Section-4.4 ``prepare``/``run``
form the driver emits, plus the rewritten (index/date-index) plans, Q13's
GroupJoin variant (plain and rewritten) and the Section-4.5 parallel
partials -- and runs the verifier, the type checker
and all lint passes over each.
Any diagnostic fails the gate: the residual program is supposed to be a
*checked* contract, not just one that happens to run.

``--json`` emits one ``repro-lint/v2`` document; ``--check`` validates it
against :data:`REPORT` with :func:`repro.obs.artifacts.check`.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from functools import partial
from typing import Iterator, Optional, Sequence

from repro.analysis.walker import Diagnostic, analyze
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.compiler.parallel import ParallelError, ParallelQuery
from repro.compiler.runtime import have_numpy
from repro.obs.artifacts import (
    Const, ListOf, MapOf, add_report_flags, check, finish_report,
)
from repro.obs.metrics import REGISTRY
from repro.plan.rewrite import optimize_for_level
from repro.storage.database import Database, OptimizationLevel
from repro.tpch.dbgen import generate_database
from repro.tpch.queries import QUERIES, q13_groupjoin, query_plan

SCHEMA = "repro-lint/v2"


def iter_configs(fast: bool = False) -> Iterator[Config]:
    """Every compilation-knob combination (or just the two codegen
    backends at defaults for --fast), plus the two programs the service
    runs under a deadline.  The vector backend requires NumPy: without it
    only scalar configs are yielded."""
    codegens = ("scalar", "vector") if have_numpy() else ("scalar",)
    # Served programs are budget-checked builds over an undictionaried
    # database; without dictionaries this database compiles the same ones.
    for codegen in codegens:
        yield Config(codegen=codegen, budget_checks=True, use_dictionaries=False)
    if fast:
        for codegen in codegens:
            yield Config(codegen=codegen)
        return
    for codegen, hashmap, sort_layout, hoist, use_dicts, instrument in (
        itertools.product(
            codegens, ("native", "open"), ("row", "column"),
            (True, False), (True, False), (False, True),
        )
    ):
        yield Config(
            codegen=codegen,
            hashmap=hashmap,
            sort_layout=sort_layout,
            hoist=hoist,
            use_dictionaries=use_dicts,
            instrument=instrument,
        )


def config_label(config: Config) -> str:
    parts = [
        config.codegen,
        config.hashmap,
        config.sort_layout,
        "hoist" if config.hoist else "nohoist",
        "dict" if config.use_dictionaries else "nodict",
    ]
    if config.instrument:
        parts.append("instr")
    if config.budget_checks:
        parts.append("budget")
    return "+".join(parts)


def _analyze_program(
    label: str,
    functions,
    findings: list[tuple[str, Diagnostic]],
) -> int:
    diags = analyze(functions)
    for d in diags:
        findings.append((label, d))
        REGISTRY.counter(f"analysis.violations.{d.pass_name}/{d.rule}")
    return len(diags)


def lint_query(
    q: int,
    db: Database,
    scale: float,
    fast: bool,
    findings: list[tuple[str, Diagnostic]],
) -> int:
    """Compile and analyze every program variant of one query; returns the
    number of programs checked."""
    checked = 0
    plans = {"": query_plan(q, scale=scale)}
    if q == 13:  # the GroupJoin operator's plan is a variant of Q13's
        plans["groupjoin:"] = q13_groupjoin(scale)
    if not fast:
        for tag, plan in list(plans.items()):
            plans[f"rewritten:{tag}"] = optimize_for_level(plan, db, db.catalog)
    # The parameterized residual program's ``run`` closure takes a runtime
    # parameter vector; hold it to the same verifier/type-checker bar
    # across the config matrix.
    # Built from the auto-parameterized shape of the query's SQL text, so
    # the lint gate covers exactly what the session cache compiles.
    from repro.sql import sql_to_plan
    from repro.sql.shape import statement_shape
    from repro.tpch.sql_queries import SQL_QUERIES

    if q in SQL_QUERIES:
        shape = statement_shape(SQL_QUERIES[q])
        if shape.param_count:
            plans["param:"] = sql_to_plan(shape.text, db)
    for plan_tag, plan in plans.items():
        for config in iter_configs(fast):
            compiler = LB2Compiler(db.catalog, db, config)
            label = f"Q{q} {plan_tag}{config_label(config)}"
            compiled = compiler.compile(plan, verify=False)
            _analyze_program(label, compiled.functions, findings)
            checked += 1
    # Section 4.5: the parallel partial is its own residual program.
    for hoist in (True,) if fast else (True, False):
        try:
            pq = ParallelQuery(
                plans[""], db, db.catalog, Config(hoist=hoist), verify=False
            )
        except ParallelError:
            break  # plan shape not partitionable; same for both hoist modes
        _analyze_program(
            f"Q{q} parallel+{'hoist' if hoist else 'nohoist'}",
            pq.functions,
            findings,
        )
        checked += 1
    return checked


# -- schema validation --------------------------------------------------------

REPORT = {
    "schema": Const(SCHEMA),
    "scale": float,
    "queries": ListOf(int, non_empty=True),
    "programs_checked": int,
    "findings": ListOf(dict.fromkeys(
        ("label", "pass", "rule", "severity", "message", "function"), str
    )),
    "violations_by_rule": MapOf(int),
    "metrics": {"counters": dict},
}

validate_report = partial(check, REPORT, what="report")


# -- entry point --------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.analysis", description=__doc__)
    parser.add_argument("--scale", type=float, default=0.002,
                        help="TPC-H scale factor for the catalog/dictionaries")
    parser.add_argument("--query", type=int, default=None,
                        choices=sorted(QUERIES), help="lint a single query")
    parser.add_argument("--fast", action="store_true",
                        help="default and served configs only (CI smoke mode)")
    add_report_flags(parser, SCHEMA)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print every program checked")
    args = parser.parse_args(argv)

    db = generate_database(args.scale, level=OptimizationLevel.IDX_DATE_STR)
    queries = [args.query] if args.query is not None else sorted(QUERIES)
    findings: list[tuple[str, Diagnostic]] = []
    programs = 0
    for q in queries:
        before = len(findings)
        count = lint_query(q, db, args.scale, args.fast, findings)
        programs += count
        if args.verbose and not args.json:
            status = "clean" if len(findings) == before else "FINDINGS"
            print(f"Q{q:>2}: {count} programs, {status}")

    by_rule: dict[str, int] = {}
    for _, diag in findings:
        key = f"{diag.pass_name}/{diag.rule}"
        by_rule[key] = by_rule.get(key, 0) + 1

    report = {
        "schema": SCHEMA,
        "scale": args.scale,
        "fast": args.fast,
        "queries": queries,
        "programs_checked": programs,
        "findings": [
            {
                "label": label,
                "pass": diag.pass_name,
                "rule": diag.rule,
                "severity": str(diag.severity),
                "message": diag.message,
                "function": diag.function,
            }
            for label, diag in findings
        ],
        "violations_by_rule": by_rule,
        "metrics": {"counters": REGISTRY.snapshot()["counters"]},
    }

    def show(_report: dict) -> None:
        for label, diag in findings:
            print(f"{label}: {diag.render()}")

    invalid = finish_report(args, report, validate_report, show)
    summary = (
        f"{programs} residual programs analyzed across "
        f"{len(queries)} queries: "
        + ("clean" if not findings else f"{len(findings)} findings")
    )
    print(summary, file=sys.stderr)
    return 1 if invalid or findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
