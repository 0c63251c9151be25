"""``repro-obs``: run one TPC-H query and dump its trace + metrics.

The observability smoke surface: compiles and executes a query inside a
:class:`repro.obs.trace.Trace`, gathers the EXPLAIN ANALYZE operator tree
and the process-wide metrics snapshot, and prints everything as text or
as one JSON document (schema ``repro-obs/v1``)::

    repro-obs --query 6                 # pretty text
    repro-obs --query 6 --json          # machine-readable report
    repro-obs --query 6 --json --check  # validate against the schema (CI)

The JSON layout (documented in docs/OBSERVABILITY.md)::

    {
      "schema": "repro-obs/v1",
      "query": 6, "scale": 0.002, "engine": "compiled",
      "trace":   {name, start, end, seconds, meta, children: [...]},
      "explain": {engine, result_rows, operators: [...], kernels, codegen_stats},
      "metrics": {counters, gauges, histograms}
    }
"""

from __future__ import annotations

import argparse
from functools import partial
from typing import Optional, Sequence

from repro.obs.artifacts import (
    Const, ListOf, Where, add_report_flags, check, finish_report,
)

SCHEMA = "repro-obs/v1"


def build_report(query: int, scale: float, engine: str) -> dict:
    """Run one TPC-H query under tracing; returns the report dict.

    The compiled engine builds the program a default ``Session`` serves.
    """
    from repro.obs.explain import explain_analyze_plan
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import Trace, span
    from repro.session import served_config
    from repro.tpch.dbgen import generate_database, generate_tables
    from repro.tpch.queries import query_plan

    REGISTRY.reset()
    with Trace(f"q{query}", query=query, scale=scale, engine=engine) as trace:
        with span("dbgen"):
            db = generate_database(tables=dict(generate_tables(scale)))
        with span("plan"):
            plan = query_plan(query, scale=scale)
        ea = explain_analyze_plan(
            db, plan, engine=engine, config=served_config()
        )
    return {
        "schema": SCHEMA,
        "query": query,
        "scale": scale,
        "engine": engine,
        "trace": trace.to_dict(),
        "explain": ea.to_dict(),
        "metrics": REGISTRY.snapshot(),
    }


# -- schema validation --------------------------------------------------------

SPAN = Where(
    {"name": str, "start": float, "end": float, "seconds": float, "meta": dict},
    lambda sp: sp["end"] >= sp["start"],
    "end precedes start",
)
SPAN.spec["children"] = ListOf(SPAN)  # spans nest: tie the knot

REPORT = {
    "schema": Const(SCHEMA),
    "query": int,
    "scale": float,
    "engine": str,
    "trace": SPAN,
    "explain": {
        "result_rows": int,
        "operators": ListOf(
            {"label": str, "rows": int, "children": list}, non_empty=True
        ),
    },
    "metrics": {"counters": dict, "gauges": dict, "histograms": dict},
}

validate_report = partial(check, REPORT, what="report")


# -- entry point --------------------------------------------------------------


def _print_text(report: dict) -> None:
    from repro.obs.trace import Span

    def rebuild(d: dict) -> Span:
        sp = Span(name=d["name"], start=d["start"], end=d["end"], meta=d["meta"])
        sp.children = [rebuild(c) for c in d["children"]]
        return sp

    print(f"Q{report['query']} scale={report['scale']} engine={report['engine']}")
    print()
    print("trace:")
    print(rebuild(report["trace"]).render(indent=1))
    print()
    ea = report["explain"]
    by_label = {op["label"]: op for op in ea["operators"]}

    def emit(label: str, indent: int) -> None:
        op = by_label[label]
        parts = [f"rows={op['rows']}"]
        if op["seconds"] is not None:
            parts.append(f"time={op['seconds'] * 1e3:.3f}ms")
        if op["selectivity"] is not None:
            parts.append(f"sel={op['selectivity']:.3f}")
        print(f"{'  ' * indent}{label}  " + "  ".join(parts))
        for child in op["children"]:
            emit(child, indent + 1)

    print(f"explain analyze ({ea['engine']}): {ea['result_rows']} rows")
    emit(ea["operators"][-1]["label"], 1)
    if ea["kernels"]:
        print("kernels:")
        for name in sorted(ea["kernels"]):
            entry = ea["kernels"][name]
            print(f"  {name}: {entry['calls']} calls, {entry['rows']} rows")
    counters = report["metrics"]["counters"]
    if counters:
        print("counters:")
        for name in sorted(counters):
            print(f"  {name}: {counters[name]}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.obs.explain import ENGINES
    from repro.tpch.queries import QUERIES

    parser = argparse.ArgumentParser(prog="repro-obs", description=__doc__)
    parser.add_argument(
        "--query", type=int, default=6, choices=sorted(QUERIES),
        help="TPC-H query number (default: 6)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.002,
        help="TPC-H scale factor (default: 0.002)",
    )
    parser.add_argument(
        "--engine", default="compiled", choices=ENGINES,
        help="engine to analyze (default: compiled)",
    )
    add_report_flags(parser, SCHEMA)
    args = parser.parse_args(argv)

    report = build_report(args.query, args.scale, args.engine)
    return finish_report(args, report, validate_report, _print_text)


if __name__ == "__main__":
    raise SystemExit(main())
