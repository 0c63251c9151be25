"""The persistent workload-telemetry store: per-shape measurements.

Where the metrics registry answers "how is the *service* doing", this
store answers "how does each *plan shape* behave": compile cost, which
engines answered it, per-operator wall time and row cardinality (from
the staged instrumentation's ``last_times``/``last_stats``), and vector
kernel counts -- aggregated across every request that executed the
shape, and snapshotted to disk as one JSON document (schema
``repro-telemetry/v1``).

This is the feedback substrate the ROADMAP's cost-driven work items
consume: "Automatic Generation of a Hybrid Query Execution Engine"
(PAPERS.md) chooses lowerings from measured operator behavior, and
"Compiling Database Application Programs" amortizes compile cost across
executions -- both need exactly the per-shape compile-time and
per-operator profiles accumulated here.

The module-level :data:`TELEMETRY` store is *disabled* by default and
every ``record_*`` call is then a single attribute check -- the same
"off means off" contract as tracing; with it off the serve tier builds
uninstrumented residual programs and the scalar codegen goldens stay
byte-identical.  Stdlib-only leaf.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from functools import lru_cache, partial
from typing import Dict, Optional

from repro.obs.artifacts import (
    Const, MapOf, check, read_json, write_json_atomic,
)

SCHEMA = "repro-telemetry/v1"


@lru_cache(maxsize=256)
def shape_digest(shape: str) -> str:
    """A short stable digest for metric labels and event-log lines (full
    shapes are long SQL); a service has few shapes, so each is hashed
    once."""
    return hashlib.sha1(shape.encode("utf-8")).hexdigest()[:8]


class TelemetryStore:
    """Thread-safe per-plan-shape aggregation with disk snapshots.

    All ``record_*`` methods are no-ops while the store is disabled, so
    instrumentation sites can call unconditionally.  ``path`` (set via
    :meth:`enable` or the constructor) is where :meth:`save` writes by
    default; :meth:`load` merges a previous snapshot back in, so compile
    economics and operator profiles survive process restarts.
    """

    def __init__(self, path: Optional[str] = None, enabled: bool = False) -> None:
        self._lock = threading.Lock()
        self.path = path
        self.enabled = enabled
        self._shapes: Dict[str, dict] = {}
        self._started = time.time()

    # -- lifecycle ----------------------------------------------------------

    def enable(self, path: Optional[str] = None) -> "TelemetryStore":
        with self._lock:
            self.enabled = True
            if path is not None:
                self.path = path
        return self

    def disable(self) -> None:
        with self._lock:
            self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._shapes.clear()
            self._started = time.time()

    # -- recording ----------------------------------------------------------

    def _entry(self, shape: str) -> dict:
        entry = self._shapes.get(shape)
        if entry is None:
            entry = self._shapes[shape] = {
                "digest": shape_digest(shape),
                "compile": {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0},
                "executions": {"count": 0, "rows_total": 0, "total_seconds": 0.0},
                "engines": {},
                "operators": {},
                "kernels": {},
            }
        return entry

    def record_compile(
        self,
        shape: str,
        seconds: float,
        generation_seconds: Optional[float] = None,
        host_seconds: Optional[float] = None,
    ) -> None:
        """One compilation of ``shape`` took ``seconds`` wall-clock."""
        if not self.enabled:
            return
        with self._lock:
            c = self._entry(shape)["compile"]
            c["count"] += 1
            c["total_seconds"] += seconds
            if seconds > c["max_seconds"]:
                c["max_seconds"] = seconds
            if generation_seconds is not None:
                c["generation_seconds"] = (
                    c.get("generation_seconds", 0.0) + generation_seconds
                )
            if host_seconds is not None:
                c["host_seconds"] = c.get("host_seconds", 0.0) + host_seconds

    def record_execution(self, rec) -> None:
        """Fold in one finished request (a :class:`~repro.obs.sampler.
        RequestRecord`); only answered requests count as executions.

        ``operator_times``/``operator_rows`` are the per-operator label
        maps from the staged instrumentation (``CompiledQuery.last_times``
        / ``last_stats``); ``kernels`` is the vector backend's
        ``{name: {calls, rows}}``.
        """
        if not self.enabled or not rec.ok:
            return
        with self._lock:
            entry = self._entry(rec.shape)
            ex = entry["executions"]
            ex["count"] += 1
            ex["rows_total"] += rec.rows
            ex["total_seconds"] += rec.attempt_seconds
            engine = rec.engine or "unknown"
            entry["engines"][engine] = entry["engines"].get(engine, 0) + 1
            for label, t in (rec.operator_times or {}).items():
                op = entry["operators"].setdefault(
                    label, {"count": 0, "total_seconds": 0.0, "rows_total": 0}
                )
                op["count"] += 1
                op["total_seconds"] += float(t)
            for label, n in (rec.operator_rows or {}).items():
                op = entry["operators"].setdefault(
                    label, {"count": 0, "total_seconds": 0.0, "rows_total": 0}
                )
                op["rows_total"] += int(n)
            for name, k in (rec.kernels or {}).items():
                agg = entry["kernels"].setdefault(name, {"calls": 0, "rows": 0})
                agg["calls"] += int(k.get("calls", 0))
                agg["rows"] += int(k.get("rows", 0))

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict:
        """A detached, JSON-ready view of everything aggregated so far."""
        with self._lock:
            return {
                "schema": SCHEMA,
                "started": self._started,
                "written": time.time(),
                "shapes": json.loads(json.dumps(self._shapes)),
            }

    def save(self, path: Optional[str] = None) -> str:
        """Write the snapshot to ``path`` (default: the enabled path).

        The write is atomic (temp file + rename) so a scrape never sees
        a half-written document.  Returns the path written.
        """
        target = path or self.path
        if target is None:
            raise ValueError("no path: pass one or enable(path=...)")
        return write_json_atomic(target, self.snapshot())

    def load(self, path: Optional[str] = None) -> int:
        """Merge a previous snapshot back in; returns shapes merged.

        Counts and totals add; ``max_seconds`` takes the max -- loading
        the same snapshot twice double-counts, by design (the store
        aggregates, it does not deduplicate runs).  A snapshot that does
        not parse or match :data:`SNAPSHOT` raises
        :class:`~repro.obs.artifacts.ArtifactError` (a ``ValueError``).
        """
        target = path or self.path
        if target is None or not os.path.exists(target):
            return 0
        doc = read_json(target, SNAPSHOT, "telemetry snapshot")
        merged = 0
        with self._lock:
            for shape, incoming in doc["shapes"].items():
                merged += 1
                entry = self._entry(shape)
                c, ic = entry["compile"], incoming["compile"]
                c["count"] += ic["count"]
                c["total_seconds"] += ic["total_seconds"]
                c["max_seconds"] = max(c["max_seconds"], ic["max_seconds"])
                ex, iex = entry["executions"], incoming["executions"]
                ex["count"] += iex["count"]
                ex["rows_total"] += iex["rows_total"]
                ex["total_seconds"] += iex["total_seconds"]
                for engine, n in incoming["engines"].items():
                    entry["engines"][engine] = entry["engines"].get(engine, 0) + n
                for label, iop in incoming["operators"].items():
                    op = entry["operators"].setdefault(
                        label, {"count": 0, "total_seconds": 0.0, "rows_total": 0}
                    )
                    op["count"] += iop["count"]
                    op["total_seconds"] += iop["total_seconds"]
                    op["rows_total"] += iop["rows_total"]
                for name, ik in incoming["kernels"].items():
                    agg = entry["kernels"].setdefault(name, {"calls": 0, "rows": 0})
                    agg["calls"] += ik["calls"]
                    agg["rows"] += ik["rows"]
        return merged


SNAPSHOT = {
    "schema": Const(SCHEMA),
    "shapes": MapOf({
        "compile": {"count": int, "total_seconds": float, "max_seconds": float},
        "executions": {"count": int, "rows_total": int, "total_seconds": float},
        "engines": MapOf(int),
        "operators": MapOf(
            {"count": int, "total_seconds": float, "rows_total": int}
        ),
        "kernels": MapOf({"calls": int, "rows": int}),
    }),
}

validate_snapshot = partial(check, SNAPSHOT, what="snapshot")


#: The process-wide store; disabled until someone calls ``enable()``.
TELEMETRY = TelemetryStore()
