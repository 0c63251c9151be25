"""Compare two ledger result files: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians, the ratio B/A with
its base, each side's run-to-run spread (distance between the first and
third quartile as a share of the median), and a verdict against the bound
declared in ``BENCHMARK.json``:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- not regressed, but a side's spread is wider than the
  bound or unknown (fewer than two runs), so "no change" cannot be told
  from noise (lengthen the run or add repeats; never widen the bound);
* ``missing``    -- B does not have the workload or the metric;
* ``ok``         -- otherwise.

``failed_share`` has no bound: any increase is ``regressed``.  Exits 1 when
any row is not ``ok``.  Below the table, each workload's ``noise.spin_ms``
(the reference computation of ``reference.py`` as the clock timed it in the
traced run) on both sides: the metrics are already scaled by it, so it only
says how far each side's box was from nominal.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: List[float]) -> Optional[float]:
    """Interquartile distance over the median; None below two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else None


def declared_bounds() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: (m["bound"], m["better"]) for m in doc["end_to_end"]}


def verdict(a: dict, b: dict, bound: Optional[float], better: str) -> str:
    ma, mb = a["median"], b["median"]
    if bound is None:  # failed_share: any increase regresses
        return "regressed" if mb > ma else "ok"
    worse_by = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    if worse_by > bound:
        return "regressed"
    spreads = (spread(a["values"]), spread(b["values"]))
    if any(s is None or s > bound for s in spreads):
        return "unresolved"
    return "ok"


def compare(doc_a: dict, doc_b: dict) -> List[dict]:
    bounds = declared_bounds()
    rows = []
    for workload, entry_a in doc_a["workloads"].items():
        metrics_b = doc_b["workloads"].get(workload, {}).get("end_to_end", {})
        for metric, a in entry_a["end_to_end"].items():
            b = metrics_b.get(metric)
            bound, better = bounds.get(metric, (None, "lower"))
            row = {
                "workload": workload,
                "metric": metric,
                "unit": a["unit"],
                "a": a["median"],
                "b": None,
                "ratio": None,
                "spread_a": spread(a["values"]),
                "spread_b": None,
                "bound": bound,
                "verdict": "missing",
            }
            if b is not None:
                row.update(
                    b=b["median"],
                    ratio=b["median"] / a["median"] if a["median"] else None,
                    spread_b=spread(b["values"]),
                    verdict=verdict(a, b, bound, better),
                )
            rows.append(row)
    return rows


def _fmt(value: Optional[float], pattern: str = "{:.4g}") -> str:
    return "-" if value is None else pattern.format(value)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    with open(argv[0], encoding="utf-8") as fa, open(argv[1], encoding="utf-8") as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    rows = compare(doc_a, doc_b)
    print(f"{'workload.metric':40} {'A':>10} {'B':>10} {'B/A':>7} "
          f"{'spreadA':>8} {'spreadB':>8} {'bound':>6}  verdict")
    for r in rows:
        print(
            f"{r['workload'] + '.' + r['metric']:40} {_fmt(r['a']):>10} "
            f"{_fmt(r['b']):>10} {_fmt(r['ratio'], '{:.3f}'):>7} "
            f"{_fmt(r['spread_a'], '{:.1%}'):>8} {_fmt(r['spread_b'], '{:.1%}'):>8} "
            f"{_fmt(r['bound'], '{:.0%}'):>6}  {r['verdict']}  (base A, {r['unit']})"
        )
    for workload, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(workload, {})
        spin_a = entry_a.get("per_layer", {}).get("noise.spin_ms")
        spin_b = entry_b.get("per_layer", {}).get("noise.spin_ms")
        if spin_a and spin_b:
            print(f"{workload}.noise.spin_ms: A {spin_a['value']:.2f} ms, "
                  f"B {spin_b['value']:.2f} ms, B/A {spin_b['value'] / spin_a['value']:.3f}")
    return 0 if all(r["verdict"] == "ok" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
