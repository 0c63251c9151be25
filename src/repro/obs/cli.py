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
import json
import sys
from typing import Optional, Sequence

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


def _check_span(sp: object, path: str, problems: list[str]) -> None:
    if not isinstance(sp, dict):
        problems.append(f"{path}: span is not an object")
        return
    for key, kind in (
        ("name", str), ("meta", dict), ("children", list),
    ):
        if not isinstance(sp.get(key), kind):
            problems.append(f"{path}.{key}: expected {kind.__name__}")
    for key in ("start", "end", "seconds"):
        if not isinstance(sp.get(key), (int, float)):
            problems.append(f"{path}.{key}: expected number")
    if (
        isinstance(sp.get("start"), (int, float))
        and isinstance(sp.get("end"), (int, float))
        and sp["end"] < sp["start"]
    ):
        problems.append(f"{path}: end precedes start")
    for i, child in enumerate(sp.get("children") or []):
        _check_span(child, f"{path}.children[{i}]", problems)


def validate_report(doc: object) -> list[str]:
    """Problems that make ``doc`` invalid under ``repro-obs/v1`` (empty = ok)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["report is not an object"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema: expected {SCHEMA!r}, got {doc.get('schema')!r}")
    for key in ("query", "scale", "engine", "trace", "explain", "metrics"):
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    if "trace" in doc:
        _check_span(doc["trace"], "trace", problems)
    explain = doc.get("explain")
    if isinstance(explain, dict):
        if not isinstance(explain.get("result_rows"), int):
            problems.append("explain.result_rows: expected int")
        operators = explain.get("operators")
        if not isinstance(operators, list) or not operators:
            problems.append("explain.operators: expected non-empty list")
        else:
            for i, op in enumerate(operators):
                if not isinstance(op, dict):
                    problems.append(f"explain.operators[{i}]: not an object")
                    continue
                if not isinstance(op.get("label"), str):
                    problems.append(f"explain.operators[{i}].label: expected str")
                if not isinstance(op.get("rows"), int):
                    problems.append(f"explain.operators[{i}].rows: expected int")
                if not isinstance(op.get("children"), list):
                    problems.append(
                        f"explain.operators[{i}].children: expected list"
                    )
    elif "explain" in doc:
        problems.append("explain: expected object")
    metrics = doc.get("metrics")
    if isinstance(metrics, dict):
        for key in ("counters", "gauges", "histograms"):
            if not isinstance(metrics.get(key), dict):
                problems.append(f"metrics.{key}: expected object")
    elif "metrics" in doc:
        problems.append("metrics: expected object")
    return problems


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
    parser.add_argument(
        "--json", action="store_true", help="emit the JSON report to stdout"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="validate the report against the repro-obs/v1 schema; "
        "non-zero exit on problems",
    )
    parser.add_argument(
        "--out", default=None, help="also write the JSON report to a file"
    )
    args = parser.parse_args(argv)

    report = build_report(args.query, args.scale, args.engine)
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _print_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.check:
        problems = validate_report(report)
        if problems:
            for problem in problems:
                print(f"schema violation: {problem}", file=sys.stderr)
            return 1
        print("schema ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
