"""Process-wide metrics registry: counters, gauges, bucketed histograms.

This module is a *leaf*: it imports nothing from :mod:`repro`, so any
layer (resilience, session, compiler driver, bench, serve) can feed it
without creating an import cycle.  The registry is deliberately tiny --
the point is not to reimplement Prometheus but to give the repo one
shared place where cache hits, fault firings, budget trips, engine
selections and latencies accumulate, with a ``snapshot()``/``reset()``
API the bench harness, the ``repro-obs`` CLI and the serve tier's
``metrics`` wire op can attach to their JSON artifacts.

Histograms are *fixed-bucket*: every ``observe`` lands the value in one
of a small set of pre-declared buckets (:data:`DEFAULT_BUCKETS`, a
latency-flavored geometric series from 0.5 ms to 60 s, plus +Inf), so
``quantile(q)`` answers "what is p95 right now" in O(buckets) with no
per-observation allocation -- the live counterpart of the bench
harness's exact nearest-rank :func:`percentile` over retained samples.
Both share one rank rule (:func:`nearest_rank_index`).

Buckets can carry **exemplars**: an ``observe(value, exemplar=rid)``
remembers the last few correlation ids per bucket, so a p99 bucket in a
snapshot links directly to the deep per-request profiles the tail
sampler (:mod:`repro.obs.sampler`) retained for those ids.  Exemplars
live only in the JSON snapshot; the Prometheus text exposition is
unchanged.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (inclusive), in seconds.  A
#: geometric-ish 1-2.5-5 ladder wide enough for compile times and
#: request latencies alike; values beyond the last edge land in the
#: implicit +Inf overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: The quantiles every histogram snapshot reports.
SNAPSHOT_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99),
)

#: How many exemplar ids each histogram bucket retains (newest win).
MAX_EXEMPLARS_PER_BUCKET = 2


def nearest_rank_index(n: int, q: float) -> int:
    """The nearest-rank index for quantile ``q`` over ``n`` ordered items.

    The one rank rule shared by the exact :func:`percentile` (bench
    harness, over retained samples) and the live bucketed
    :meth:`Histogram.quantile` (over cumulative bucket counts), so the
    two report the same statistic for the same data.
    """
    if n <= 0:
        return 0
    return min(n - 1, max(0, round(q * (n - 1))))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values (q in [0, 1])."""
    if not sorted_values:
        return 0.0
    return sorted_values[nearest_rank_index(len(sorted_values), q)]


class Histogram:
    """A fixed-bucket histogram supporting live quantile estimation.

    Not thread-safe on its own; :class:`MetricsRegistry` serializes all
    access under its lock.  Tracks count/total/min/max exactly and the
    distribution at bucket granularity; :meth:`quantile` returns the
    upper edge of the bucket holding the nearest-rank sample, clamped to
    the exactly-tracked ``[min, max]`` envelope (so a histogram fed one
    repeated value reports that value at every quantile).
    """

    __slots__ = (
        "bounds", "bucket_counts", "count", "total", "min", "max", "exemplars",
    )

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)  # last = +Inf
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        # bucket index -> [{"id": ..., "value": ...}, ...], newest last,
        # at most MAX_EXEMPLARS_PER_BUCKET per bucket.  Lazily populated:
        # a histogram that never sees an exemplar pays one empty dict.
        self.exemplars: Dict[int, List[dict]] = {}

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = self._bucket_index(value)
        self.bucket_counts[index] += 1
        if exemplar is not None:
            cell = self.exemplars.setdefault(index, [])
            cell.append({"id": str(exemplar), "value": value})
            while len(cell) > MAX_EXEMPLARS_PER_BUCKET:
                cell.pop(0)

    def _bucket_index(self, value: float) -> int:
        # Buckets are few (default 16); a linear scan beats bisect's
        # call overhead at this size and keeps the module stdlib-free.
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                return i
        return len(self.bounds)

    def quantile(self, q: float) -> float:
        """The live quantile estimate for ``q`` in [0, 1] (0.0 if empty)."""
        if self.count == 0:
            return 0.0
        rank = nearest_rank_index(self.count, q)
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if rank < seen:
                if i >= len(self.bounds):  # overflow bucket: max is exact
                    return float(self.max)
                estimate = self.bounds[i]
                return max(float(self.min), min(estimate, float(self.max)))
        return float(self.max)  # pragma: no cover - rank < count always hits

    def to_dict(self) -> dict:
        """JSON-ready summary: exact stats, quantiles, cumulative buckets."""
        cumulative = 0
        buckets: List[List[object]] = []
        for bound, n in zip(self.bounds, self.bucket_counts):
            cumulative += n
            buckets.append([bound, cumulative])
        buckets.append(["+Inf", cumulative + self.bucket_counts[-1]])
        doc = {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.total / self.count if self.count else 0.0,
            "quantiles": {
                name: self.quantile(q) for name, q in SNAPSHOT_QUANTILES
            },
            "buckets": buckets,
        }
        if self.exemplars:
            # Keyed by the bucket's upper edge ("+Inf" for the overflow),
            # matching the cumulative bucket labels above.
            doc["exemplars"] = {
                ("+Inf" if i >= len(self.bounds) else str(self.bounds[i])): [
                    dict(e) for e in cell
                ]
                for i, cell in sorted(self.exemplars.items())
                if cell
            }
        return doc


class MetricsRegistry:
    """Counters (monotonic), gauges (last value), histograms (bucketed).

    All operations are thread-safe; parallel workers run in separate
    processes, so cross-process aggregation is out of scope by design.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, delta: int = 1) -> int:
        """Increment counter ``name`` by ``delta``; returns the new value."""
        with self._lock:
            value = self._counters.get(name, 0) + delta
            self._counters[name] = value
            return value

    def bump(self, *names: str) -> None:
        """Increment every counter in ``names`` by one, under one lock
        take (a request's several counters)."""
        counters = self._counters
        with self._lock:
            for name in names:
                counters[name] = counters.get(name, 0) + 1

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Sequence[float]] = None,
        exemplar: Optional[str] = None,
    ) -> None:
        """Record ``value`` into histogram ``name``.

        ``buckets`` sets the bounds if this observation *creates* the
        histogram; an existing histogram keeps its original bounds.
        ``exemplar`` attaches a correlation id to the bucket the value
        lands in (the tail sampler passes the kept request's id).
        """
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(
                    buckets if buckets is not None else DEFAULT_BUCKETS
                )
            h.observe(value, exemplar=exemplar)

    def observe_all(
        self, names: Sequence[str], value: float, exemplar: Optional[str] = None
    ) -> None:
        """:meth:`observe` ``value`` into every histogram in ``names``
        (default buckets when one is created), under one lock take."""
        histograms = self._histograms
        with self._lock:
            for name in names:
                h = histograms.get(name)
                if h is None:
                    h = histograms[name] = Histogram(DEFAULT_BUCKETS)
                h.observe(value, exemplar=exemplar)

    def quantile(self, name: str, q: float) -> float:
        """The live quantile of histogram ``name`` (0.0 when absent)."""
        with self._lock:
            h = self._histograms.get(name)
            return h.quantile(q) if h is not None else 0.0

    def histogram(self, name: str) -> Optional[dict]:
        """A detached snapshot of one histogram, or None."""
        with self._lock:
            h = self._histograms.get(name)
            return h.to_dict() if h is not None else None

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """A detached copy of every counter whose name starts with ``prefix``."""
        with self._lock:
            return {
                name: value
                for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    def get_counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """A JSON-ready copy of everything recorded so far.

        Histograms carry exact count/total/min/max/mean plus live
        quantiles and cumulative bucket counts; the returned structure
        is detached from the registry (mutating it cannot corrupt
        state).
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: h.to_dict() for name, h in self._histograms.items()
                },
            }

    def reset(self, prefix: Optional[str] = None) -> None:
        """Drop all recorded values (or only names under ``prefix``)."""
        with self._lock:
            if prefix is None:
                self._counters.clear()
                self._gauges.clear()
                self._histograms.clear()
                return
            for store in (self._counters, self._gauges, self._histograms):
                for name in [n for n in store if n.startswith(prefix)]:
                    del store[name]


#: The process-wide registry every layer feeds.
REGISTRY = MetricsRegistry()
