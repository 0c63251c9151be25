"""Tail-based request sampling: keep complete profiles of the requests
that matter.

Head sampling (decide at request start) cannot know which requests will
turn out interesting; *tail* sampling decides at request **end**, when
the outcome is known.  The serve tier builds a :class:`RequestRecord`
for every finished request -- latency, outcome, engine trail, the full
trace span tree, per-operator timings -- and offers it to the process's
:class:`TailSampler`, which keeps it only when the request is worth a
deep look:

* it **errored** (any ``E_*`` outcome),
* it ran **degraded** or while its shape's **breaker** was open/probing,
* it landed in the **slowest decile** of recent traffic (an adaptive
  threshold over a fixed-bucket latency histogram -- the lower edge of
  the bucket holding the nearest-rank p90 sample, so everything sharing
  the p90 bucket qualifies), or
* the sampler is still in **warmup** and has no threshold yet.

Kept profiles live in a bounded reservoir (eviction prefers the fastest
ok-profile, so errors and genuine tail latencies survive) and the kept
request's id is attached as an **exemplar** to the matching latency
histogram bucket.  The record's one document, :meth:`RequestRecord.
to_dict`, is both a snapshot profile and the body of the request's
``request`` line in the event log, so a p99 bucket's exemplar resolves
to a kept line ``repro-doctor`` can open.

The module also carries the W3C-style ``traceparent`` helpers
(``00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>``) the
:class:`~repro.serve.client.ServiceClient` uses to mint a distributed
trace context that rides the wire into the worker's request context.

Stdlib-only leaf (imports only :mod:`repro.obs.metrics` and
:mod:`repro.obs.artifacts`), like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import os
import re
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Tuple

from repro.obs.artifacts import Const, ListOf, Maybe, OneOf, Where, check
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, nearest_rank_index

SCHEMA = "repro-profiles/v2"

#: Reasons a profile was retained, in keep-priority order.
KEEP_REASONS = ("error", "breaker", "degraded", "warmup", "slow")

#: The latency quantile above which an ok request counts as slow.
SLOW_QUANTILE = 0.9


# -- traceparent propagation --------------------------------------------------

_TRACEPARENT = re.compile(r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")


def make_traceparent(
    trace_id: Optional[str] = None, span_id: Optional[str] = None
) -> str:
    """A fresh W3C-style traceparent header value (version 00, sampled);
    the ids not given are random hex (32 and 16 digits)."""
    if not (trace_id and span_id):
        fresh = os.urandom(24).hex()
        trace_id = trace_id or fresh[:32]
        span_id = span_id or fresh[32:]
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(value: object) -> Optional[Tuple[str, str]]:
    """``(trace_id, parent_span_id)`` from a traceparent string, or None.

    Malformed values (wrong version, wrong widths, an all-zero trace id)
    parse to None: the service then runs the request without a
    distributed context rather than rejecting it -- trace propagation is
    an observability feature, never an admission gate.
    """
    if not isinstance(value, str):
        return None
    m = _TRACEPARENT.match(value.strip().lower())
    if m is None:
        return None
    trace_id, span_id = m.group(1), m.group(2)
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id


# -- the per-request record ---------------------------------------------------


@dataclass(slots=True)
class RequestRecord:
    """One finished request: built once by the serve tier when the request
    ends, then read by every sink -- the sampler keeps it as the request's
    profile, the telemetry store and the SLO monitor fold it in, the
    histograms and counters take their fields from it, and the event log
    writes it as the request's one ``request`` line.

    ``tenant``/``shape`` are the names the client and the planner gave;
    ``tenant_label``/``shape_label`` are their registry-safe, capped forms.
    Plain (not frozen) slots: a frozen build costs several times more per
    request, and the sampler stamps ``keep_reason`` on the records it keeps.
    """

    request_id: str
    tenant: str = "default"
    tenant_label: str = "default"
    shape: Optional[str] = None
    shape_label: Optional[str] = None
    outcome: str = "ok"  # "ok" or the E_* error code
    phase: Optional[str] = None  # the failing phase, for errors
    engine: Optional[str] = None
    engine_trail: Tuple[str, ...] = ()
    degraded: bool = False
    breaker: Optional[str] = None  # breaker decision, when one was made
    rows: int = 0
    latency_seconds: float = 0.0  # arrival at submit -> reply
    queued_seconds: float = 0.0  # pool hand-off after admission -> worker pickup
    exec_seconds: float = 0.0  # worker wall clock (queueing excluded)
    attempt_seconds: float = 0.0  # the answering engine attempt alone
    trace: Optional[dict] = None  # the full span tree (Trace.to_dict())
    trace_id: Optional[str] = None  # propagated traceparent trace id
    operator_times: Optional[Dict[str, float]] = None
    operator_rows: Optional[Dict[str, int]] = None
    kernels: Optional[Dict[str, dict]] = None
    ts: float = field(default_factory=time.time)
    keep_reason: Optional[str] = None  # stamped by the sampler

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def to_dict(self) -> dict:
        """The record's one document: a ``repro-profiles/v2`` profile and
        the body of its ``repro-events/v3`` ``request`` line (which
        writes ``shape`` as its ``shape_digest``).  The span
        tree and the per-operator views ride along only on a record the
        sampler kept (``keep_reason`` set)."""
        doc = {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "latency_seconds": self.latency_seconds,
            "outcome": self.outcome,
            "rows": self.rows,
            "queued_seconds": self.queued_seconds,
            "exec_seconds": self.exec_seconds,
            "ts": self.ts,
        }
        for key in ("shape", "phase", "engine", "breaker", "trace_id"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        if self.engine_trail:
            doc["engine_trail"] = list(self.engine_trail)
        if self.degraded:
            doc["degraded"] = True
        if self.keep_reason is not None:
            doc["keep_reason"] = self.keep_reason
            if self.trace is not None:
                doc["trace"] = self.trace
            for key in ("operator_times", "operator_rows", "kernels"):
                value = getattr(self, key)
                if value:
                    doc[key] = dict(value)
        return doc


# -- the sampler --------------------------------------------------------------


class TailSampler:
    """A bounded reservoir of interesting request profiles.

    Thread-safe: ``offer`` runs on the serve tier's caller threads.  The
    slow-decile threshold adapts as traffic flows -- it is the *lower*
    edge of the histogram bucket holding the nearest-rank
    :data:`SLOW_QUANTILE` sample, so every request in the same latency
    bucket as the current p90 qualifies (generous by one bucket rather
    than missing the decile by one).
    """

    def __init__(
        self,
        capacity: int = 512,
        warmup: int = 32,
        buckets=DEFAULT_BUCKETS,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        self.capacity = capacity
        self.warmup = warmup
        self._hist = Histogram(buckets)
        self._store: Dict[str, RequestRecord] = {}  # rid -> profile (FIFO)
        self._lock = threading.Lock()
        self.offered = 0
        self.kept = 0
        self.evicted = 0

    # -- the decision --------------------------------------------------------

    def _threshold_locked(self) -> float:
        h = self._hist
        if h.count < max(1, self.warmup):
            return 0.0  # warmup: everything qualifies
        rank = nearest_rank_index(h.count, SLOW_QUANTILE)
        seen = 0
        for i, n in enumerate(h.bucket_counts):
            seen += n
            if rank < seen:
                return h.bounds[i - 1] if i > 0 else 0.0
        return h.bounds[-1]  # pragma: no cover - rank < count always hits

    def threshold(self) -> float:
        """The current keep-if-slower-than threshold, in seconds."""
        with self._lock:
            return self._threshold_locked()

    def _keep_reason_locked(self, rec: RequestRecord) -> Optional[str]:
        if not rec.ok:
            return "error"
        if rec.breaker in ("open", "probe"):
            return "breaker"
        if rec.degraded:
            return "degraded"
        if self._hist.count <= max(1, self.warmup):
            return "warmup"
        if rec.latency_seconds >= self._threshold_locked():
            return "slow"
        return None

    def offer(self, rec: RequestRecord) -> bool:
        """Feed one finished request; True when its record was kept.

        The caller attaches the request id as a histogram exemplar only
        on True, so every exemplar points at a stored profile (modulo
        later eviction under memory pressure).
        """
        with self._lock:
            self.offered += 1
            self._hist.observe(rec.latency_seconds)
            reason = self._keep_reason_locked(rec)
            if reason is None:
                return False
            rec.keep_reason = reason
            # Re-offered ids (a client may reuse its request ids) replace
            # their previous profile instead of growing the reservoir.
            self._store.pop(rec.request_id, None)
            self._store[rec.request_id] = rec
            self.kept += 1
            while len(self._store) > self.capacity:
                self._evict_locked()
            return True

    def _evict_locked(self) -> None:
        """Drop the least interesting profile: the fastest one kept only
        for being slow/warmup; if every profile is an error/breaker/
        degraded capture, the oldest goes."""
        victim: Optional[str] = None
        fastest = float("inf")
        for rid, p in self._store.items():
            if p.keep_reason in ("slow", "warmup") and p.latency_seconds < fastest:
                victim, fastest = rid, p.latency_seconds
        if victim is None:
            victim = next(iter(self._store))
        del self._store[victim]
        self.evicted += 1

    # -- introspection -------------------------------------------------------

    def get(self, request_id: str) -> Optional[RequestRecord]:
        with self._lock:
            return self._store.get(request_id)

    def stats(self) -> dict:
        with self._lock:
            return {
                "offered": self.offered,
                "kept": self.kept,
                "evicted": self.evicted,
                "stored": len(self._store),
                "capacity": self.capacity,
                "threshold_seconds": self._threshold_locked(),
            }

    def snapshot(self) -> dict:
        """JSON-ready: schema header, sampler stats, every kept profile."""
        with self._lock:
            return {
                "schema": SCHEMA,
                "written_unix": time.time(),
                "capacity": self.capacity,
                "slow_quantile": SLOW_QUANTILE,
                "threshold_seconds": self._threshold_locked(),
                "offered": self.offered,
                "kept": self.kept,
                "evicted": self.evicted,
                "profiles": [p.to_dict() for p in self._store.values()],
            }


# -- schema validation --------------------------------------------------------

_COUNT = Where(int, lambda n: n >= 0, "expected non-negative int")

#: One finished request's document: a ``request`` line in the event log
#: (``keep_reason`` only when the sampler kept it) or, wrapped in
#: :data:`PROFILES`, a snapshot profile (``keep_reason`` required).
RECORD = {
    "request_id": Where(str, bool, "expected non-empty str"),
    "tenant": str,
    **dict.fromkeys(("latency_seconds", "queued_seconds", "exec_seconds", "ts"), float),
    "outcome": Where(str, lambda o: o == "ok" or o.startswith("E_"),
                     "expected 'ok' or an E_* code"),
    "rows": _COUNT,
    **dict.fromkeys(("shape", "phase", "engine", "breaker", "trace_id"),
                    Maybe(str, null=False)),
    "keep_reason": Maybe(OneOf(KEEP_REASONS), null=False),
    "trace": Maybe(dict, null=False),
}

PROFILES = {
    "schema": Const(SCHEMA),
    **dict.fromkeys(("offered", "kept", "evicted", "capacity"), _COUNT),
    "threshold_seconds": float,
    "profiles": ListOf(Where(RECORD, lambda p: "keep_reason" in p,
                             "expected a kept profile (keep_reason)")),
}

validate_profiles = partial(check, PROFILES, what="profiles snapshot")
