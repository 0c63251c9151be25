"""``repro-doctor``: read the request stream into a diagnosis.

The serve tier's event log is its one per-request stream: every
submitted request ends in exactly one ``request`` line whose body is the
request's record (outcome, latency with its queued/exec split, engine
trail, rows; the span tree and per-operator times when the tail sampler
kept it), beside the ``admit``/``compile``/``fallback``/``slo_burn``
lines.  Lines name their plan shape by digest; the shape's text is on
the ``compile`` line that built it, and the doctor joins the two on the
digest.  The doctor reads that stream -- the log at ``--events`` and its
rotated backups, oldest first -- and produces one schema-versioned
report (``repro-doctor/v2``):

* **summary** -- request count, error codes by outcome, degraded count,
  exact p50/p95/p99 latency and the ``slo_burn`` transitions;
* **tail** -- every request line at or over the stream's exact p90
  latency, plus every error line: wall-clock attribution (queueing vs
  compile vs execute vs other; from the span tree when the line has one,
  else from its queued/exec split) per plan shape and per tenant, with
  the hottest operators and exemplar request ids per shape;
* **compile** -- compile cost per plan shape, from the ``compile`` lines;
* **regression** -- a verdict of one ``repro-telemetry/v1`` snapshot
  against a baseline snapshot: shapes whose mean execution or compile
  cost moved beyond a noise threshold, or whose engine mix shifted (e.g.
  a breaker quietly parking a shape on the interpreters), are flagged;
  below-noise drift is not.

Each input is checked against the schema it declares (a bad one is a
:data:`DoctorInputError`).  Like the other CLIs, the report has a spec
(:data:`REPORT`, checked by ``validate_report``) and ``--json`` /
``--check`` / ``--out`` flags, so CI can gate on schema validity (and,
with ``--fail-on-regression``, on the verdict itself).

    repro-doctor --events events.jsonl --json --check --out doctor.json
    repro-doctor --baseline telemetry-before.json --current telemetry-after.json
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.obs.artifacts import (
    ArtifactError, Const, ListOf, MapOf, Maybe, OneOf, Where, add_report_flags,
    check, finish_report, read_json,
)
from repro.obs.events import read_log
from repro.obs.metrics import percentile
from repro.obs.telemetry import SNAPSHOT

SCHEMA = "repro-doctor/v2"

#: The stream latency quantile at or over which a request is in the tail.
TAIL_QUANTILE = 0.9

#: Total-variation distance beyond which an engine-mix shift is flagged
#: (0.25 = a quarter of traffic answered by different engines).
ENGINE_MIX_TOLERANCE = 0.25

_VERDICTS = ("ok", "regressed", "skipped")

#: What the doctor raises for an artifact it cannot read or that does
#: not match the schema it declares.
DoctorInputError = ArtifactError


# -- tail attribution ---------------------------------------------------------


def _span_seconds(node: Optional[dict], name: str) -> float:
    """Total seconds of spans called ``name`` in a trace tree; a matched
    span's subtree is not descended (nested stages count once)."""
    if not isinstance(node, dict):
        return 0.0
    if node.get("name") == name:
        return float(node.get("seconds", 0.0))
    return sum(_span_seconds(c, name) for c in node.get("children", ()))


def attribute_profile(profile: dict) -> Dict[str, float]:
    """Where one request's wall clock went, in seconds.

    ``compile`` sums the session's ``compile`` spans, ``execute`` is the
    engine ``attempt`` time net of compilation (falling back to the
    worker wall clock when the profile carries no trace), ``queue`` is
    the wait from the pool hand-off after admission to worker pickup, and
    ``other`` the unattributed rest (admission, response shaping, context
    binding, scheduler noise).
    """
    latency = float(profile.get("latency_seconds", 0.0))
    queue = float(profile.get("queued_seconds", 0.0))
    trace = profile.get("trace")
    compile_s = _span_seconds(trace, "compile")
    if isinstance(trace, dict):
        attempt_s = _span_seconds(trace, "attempt")
        execute = max(0.0, attempt_s - compile_s)
    else:
        execute = max(0.0, float(profile.get("exec_seconds", 0.0)) - compile_s)
    other = max(0.0, latency - queue - compile_s - execute)
    return {
        "queue": queue,
        "compile": compile_s,
        "execute": execute,
        "other": other,
    }


def _aggregate(profiles: Sequence[dict]) -> dict:
    """Attribution totals + latency stats over one group of profiles."""
    parts = {"queue": 0.0, "compile": 0.0, "execute": 0.0, "other": 0.0}
    latencies: List[float] = []
    operators: Dict[str, float] = {}
    engines: Dict[str, int] = {}
    errors = 0
    exemplars: List[str] = []
    for p in profiles:
        att = attribute_profile(p)
        for k, v in att.items():
            parts[k] += v
        latencies.append(float(p.get("latency_seconds", 0.0)))
        for label, seconds in (p.get("operator_times") or {}).items():
            operators[label] = operators.get(label, 0.0) + float(seconds)
        engine = p.get("engine")
        if engine:
            engines[engine] = engines.get(engine, 0) + 1
        if p.get("outcome", "ok") != "ok":
            errors += 1
        if len(exemplars) < 3:
            exemplars.append(p["request_id"])
    latencies.sort()
    attributed = sum(parts.values()) or 1.0
    top_operators = [
        {"operator": label, "seconds": seconds, "share": seconds / attributed}
        for label, seconds in sorted(
            operators.items(), key=lambda kv: kv[1], reverse=True
        )[:5]
    ]
    return {
        "count": len(profiles),
        "errors": errors,
        "mean_ms": (sum(latencies) / len(latencies) * 1e3) if latencies else 0.0,
        "p95_ms": percentile(latencies, 0.95) * 1e3,
        "attribution_ms": {k: v * 1e3 for k, v in parts.items()},
        "attribution_share": {k: v / attributed for k, v in parts.items()},
        "engines": engines,
        "top_operators": top_operators,
        "exemplars": exemplars,
    }


def tail_report(lines: Sequence[dict], texts: Optional[Dict[str, str]] = None) -> dict:
    """The tail attribution section over a stream's ``request`` lines:
    every line at or over the exact p90 latency, plus every error.  Lines
    name their shape by ``shape_digest``; ``texts`` (digest -> shape text,
    from the stream's ``compile`` lines) puts the text beside it."""
    threshold = percentile(
        sorted(line["latency_seconds"] for line in lines), TAIL_QUANTILE
    )
    slow = [
        line for line in lines
        if line["latency_seconds"] >= threshold or line["outcome"] != "ok"
    ]
    by_shape: Dict[str, List[dict]] = {}
    by_tenant: Dict[str, List[dict]] = {}
    for line in slow:
        by_shape.setdefault(line.get("shape_digest", "none"), []).append(line)
        by_tenant.setdefault(line["tenant"], []).append(line)

    def named(groups: Dict[str, List[dict]], key: str) -> List[dict]:
        out = []
        for name, members in groups.items():
            entry = _aggregate(members)
            entry[key] = name
            text = (texts or {}).get(name) if key == "shape" else None
            if text:
                entry["shape_text"] = text[:120]
            out.append(entry)
        out.sort(key=lambda e: e["attribution_ms"]["execute"], reverse=True)
        return out

    overall = _aggregate(slow)
    return {
        "threshold_ms": threshold * 1e3,
        "lines": len(lines),
        "slow_count": len(slow),
        "attribution_ms": overall["attribution_ms"],
        "attribution_share": overall["attribution_share"],
        "by_shape": named(by_shape, "shape"),
        "by_tenant": named(by_tenant, "tenant"),
    }


# -- summary and compile cost from the stream ---------------------------------


def stream_summary(docs: Sequence[dict], lines: Sequence[dict]) -> dict:
    """Counts and exact latency quantiles over one stream."""
    kinds = dict(Counter(doc["event"] for doc in docs))
    codes = dict(Counter(line["outcome"] for line in lines if line["outcome"] != "ok"))
    latencies = sorted(line["latency_seconds"] for line in lines)
    return {
        "requests": len(lines),
        "events": kinds,
        "error_codes": codes,
        "degraded": sum(1 for line in lines if line.get("degraded")),
        "latency_ms": {
            f"p{round(q * 100)}": percentile(latencies, q) * 1e3
            for q in (0.5, 0.95, 0.99)
        },
        "slo_burns": kinds.get("slo_burn", 0),
    }


def shape_texts(docs: Sequence[dict]) -> Dict[str, str]:
    """Each shape digest's text, from the ``compile`` lines: the one
    place the stream writes it."""
    return {
        doc["shape_digest"]: doc["shape"]
        for doc in docs
        if doc["event"] == "compile" and "shape" in doc
    }


def compile_report(docs: Sequence[dict]) -> Dict[str, dict]:
    """Compile count and mean cost per plan-shape digest."""
    out: Dict[str, dict] = {}
    for doc in docs:
        if doc["event"] == "compile":
            entry = out.setdefault(
                doc.get("shape_digest", "none"), {"count": 0, "total_ms": 0.0}
            )
            entry["count"] += 1
            entry["total_ms"] += float(doc.get("seconds", 0.0)) * 1e3
    for entry in out.values():
        entry["mean_ms"] = entry["total_ms"] / entry["count"]
    return out


# -- regression analysis ------------------------------------------------------


def _normalize_telemetry(doc: dict) -> Dict[str, dict]:
    """Per-shape records from a ``repro-telemetry/v1`` snapshot."""
    out: Dict[str, dict] = {}
    for entry in (doc.get("shapes") or {}).values():
        if not isinstance(entry, dict) or "digest" not in entry:
            continue
        execs = entry.get("executions") or {}
        comp = entry.get("compile") or {}
        n = execs.get("count", 0)
        record: dict = {
            "count": n,
            "engines": dict(entry.get("engines") or {}),
            "mean_ms": (execs.get("total_seconds", 0.0) / n * 1e3) if n else None,
        }
        if comp.get("count"):
            record["compile_ms"] = (
                comp.get("total_seconds", 0.0) / comp["count"] * 1e3
            )
        out[entry["digest"]] = record
    return out


def _mix_distance(a: Dict[str, int], b: Dict[str, int]) -> float:
    """Total-variation distance between two engine-count distributions."""
    ta, tb = sum(a.values()), sum(b.values())
    if ta == 0 or tb == 0:
        return 0.0
    engines = set(a) | set(b)
    return 0.5 * sum(
        abs(a.get(e, 0) / ta - b.get(e, 0) / tb) for e in engines
    )


def regression_report(
    baseline_doc: dict,
    current_doc: dict,
    threshold: float = 1.3,
    min_samples: int = 5,
    noise_floor_ms: float = 2.0,
) -> dict:
    """Compare two telemetry snapshots per shape; flag movement beyond
    the noise.

    A mean execution or compile time is flagged when current exceeds
    baseline by both the relative ``threshold`` *and* the absolute
    ``noise_floor_ms`` (tiny shapes jitter by whole ratios inside a
    millisecond); an engine mix is flagged past
    :data:`ENGINE_MIX_TOLERANCE` total variation.
    """
    base = _normalize_telemetry(baseline_doc)
    cur = _normalize_telemetry(current_doc)
    flagged: List[dict] = []
    compared = skipped = 0
    for digest in sorted(set(base) & set(cur)):
        b, c = base[digest], cur[digest]
        if b["count"] < min_samples or c["count"] < min_samples:
            skipped += 1
            continue
        compared += 1
        for metric in ("mean_ms", "compile_ms"):
            bv, cv = b.get(metric), c.get(metric)
            if bv is None or cv is None or bv <= 0:
                continue
            ratio = cv / bv
            if ratio > threshold and cv - bv > noise_floor_ms:
                flagged.append(
                    {
                        "shape": digest,
                        "metric": metric,
                        "baseline": round(bv, 3),
                        "current": round(cv, 3),
                        "ratio": round(ratio, 3),
                    }
                )
        distance = _mix_distance(b.get("engines") or {}, c.get("engines") or {})
        if distance > ENGINE_MIX_TOLERANCE:
            flagged.append(
                {
                    "shape": digest,
                    "metric": "engine_mix",
                    "baseline": b.get("engines"),
                    "current": c.get("engines"),
                    "ratio": round(distance, 3),
                }
            )
    if compared == 0:
        verdict = "skipped"
    elif flagged:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {
        "verdict": verdict,
        "threshold": threshold,
        "min_samples": min_samples,
        "noise_floor_ms": noise_floor_ms,
        "compared_shapes": compared,
        "skipped_shapes": skipped,
        "flagged": flagged,
    }


# -- the report ---------------------------------------------------------------


def build_report(
    events_path: Optional[str] = None,
    baseline_path: Optional[str] = None,
    current_path: Optional[str] = None,
    threshold: float = 1.3,
    min_samples: int = 5,
    noise_floor_ms: float = 2.0,
) -> dict:
    """One ``repro-doctor/v2`` report from the stream at ``events_path``
    and, given both, a baseline/current pair of telemetry snapshots."""
    report: dict = {
        "schema": SCHEMA,
        "generated_unix": time.time(),
        "inputs": {
            "events": events_path,
            "baseline": baseline_path,
            "current": current_path,
        },
        "summary": {},
    }
    if events_path is not None:
        docs = read_log(events_path)
        lines = [doc for doc in docs if doc["event"] == "request"]
        report["summary"] = stream_summary(docs, lines)
        report["slo"] = {
            "burn_events": [
                {k: doc.get(k) for k in ("scope", "state", "burn_short", "ts")}
                for doc in docs
                if doc["event"] == "slo_burn"
            ]
        }
        report["tail"] = tail_report(lines, shape_texts(docs))
        report["compile"] = compile_report(docs)
    if baseline_path is not None and current_path is not None:
        report["regression"] = regression_report(
            read_json(baseline_path, SNAPSHOT, "baseline"),
            read_json(current_path, SNAPSHOT, "current"),
            threshold=threshold,
            min_samples=min_samples,
            noise_floor_ms=noise_floor_ms,
        )
    return report


# -- schema validation --------------------------------------------------------


_NON_NEGATIVE = Where(float, lambda x: x >= 0, "expected non-negative number")

REPORT = {
    "schema": Const(SCHEMA),
    "inputs": dict,
    "summary": {
        **dict.fromkeys(("requests", "degraded", "slo_burns"), Maybe(int, null=False)),
        "latency_ms": Maybe(
            dict.fromkeys(("p50", "p95", "p99"), _NON_NEGATIVE), null=False
        ),
    },
    "tail": Maybe({
        "threshold_ms": float,
        "slow_count": int,
        "attribution_ms": dict.fromkeys(
            ("queue", "compile", "execute", "other"), _NON_NEGATIVE
        ),
        "by_shape": ListOf({"shape": str, "count": int}),
        "by_tenant": ListOf({"tenant": str, "count": int}),
    }),
    "compile": Maybe(MapOf({"count": int, "mean_ms": _NON_NEGATIVE})),
    "regression": Maybe({"verdict": OneOf(_VERDICTS), "flagged": list}),
}

validate_report = partial(check, REPORT, what="report")


# -- rendering ----------------------------------------------------------------


def render_text(report: dict) -> str:
    lines: List[str] = ["repro-doctor report"]
    summary = report.get("summary") or {}
    if summary:
        codes = summary.get("error_codes") or {}
        latency = summary.get("latency_ms") or {}
        lines.append(
            f"  requests={summary.get('requests', 0)} "
            f"errors={sum(codes.values())} degraded={summary.get('degraded', 0)} "
            f"slo_burns={summary.get('slo_burns', 0)}  "
            + " ".join(f"{q}={v:.1f}ms" for q, v in latency.items())
        )
    tail = report.get("tail")
    if tail:
        att = tail["attribution_ms"]
        share = tail["attribution_share"]
        lines.append(
            f"  tail: {tail['slow_count']}/{tail['lines']} requests at/over "
            f"{tail['threshold_ms']:.1f}ms (p90) or failed"
        )
        lines.append(
            "    attribution: "
            + "  ".join(
                f"{k}={att[k]:.1f}ms ({share[k] * 100:.0f}%)"
                for k in ("queue", "compile", "execute", "other")
            )
        )
        for entry in tail["by_shape"][:5]:
            ops = ", ".join(
                f"{o['operator']}={o['seconds'] * 1e3:.1f}ms"
                for o in entry["top_operators"][:2]
            )
            lines.append(
                f"    shape {entry['shape']}: n={entry['count']} "
                f"p95={entry['p95_ms']:.1f}ms exec="
                f"{entry['attribution_ms']['execute']:.1f}ms"
                + (f" [{ops}]" if ops else "")
            )
    regression = report.get("regression")
    if regression:
        lines.append(
            f"  regression: {regression['verdict']} "
            f"({regression['compared_shapes']} shapes compared, "
            f"{len(regression['flagged'])} flagged)"
        )
        for flag in regression["flagged"][:10]:
            lines.append(
                f"    shape {flag['shape']}: {flag['metric']} "
                f"{flag['baseline']} -> {flag['current']} (x{flag['ratio']})"
            )
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-doctor", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--events", default=None, metavar="PATH",
                        help="repro-events/v3 log (its rotated PATH.N "
                             "backups are read too, oldest first)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="repro-telemetry/v1 snapshot to compare against")
    parser.add_argument("--current", default=None, metavar="PATH",
                        help="repro-telemetry/v1 snapshot for the current "
                             "side of the compare")
    parser.add_argument("--threshold", type=float, default=1.3,
                        help="relative regression threshold (default 1.3x)")
    parser.add_argument("--min-samples", type=int, default=5)
    parser.add_argument("--noise-floor-ms", type=float, default=2.0)
    add_report_flags(parser, SCHEMA)
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 3 when the regression verdict is 'regressed'")
    args = parser.parse_args(argv)
    if (args.baseline is None) != (args.current is None):
        parser.error("--baseline and --current go together")
    if args.events is None and args.baseline is None:
        parser.error("give --events, or --baseline with --current")
    try:
        report = build_report(
            events_path=args.events,
            baseline_path=args.baseline,
            current_path=args.current,
            threshold=args.threshold,
            min_samples=args.min_samples,
            noise_floor_ms=args.noise_floor_ms,
        )
    except DoctorInputError as exc:
        print(f"repro-doctor: {exc}", file=sys.stderr)
        return 1
    if finish_report(
        args, report, validate_report, lambda r: print(render_text(r))
    ):
        return 1
    if args.fail_on_regression:
        if (report.get("regression") or {}).get("verdict") == "regressed":
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
