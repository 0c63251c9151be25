"""Observability: tracing, metrics, events, sampling, SLOs, EXPLAIN ANALYZE.

Only the stdlib-leaf submodules are re-exported here;
:mod:`repro.obs.explain` imports the compiler and the interpreters, so
its consumers import it directly to keep this package cycle-free.
"""

from repro.obs.events import EventLog, request_context
from repro.obs.export import render_prometheus, validate_exposition
from repro.obs.metrics import (
    REGISTRY,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.sampler import (
    RequestRecord,
    TailSampler,
    make_traceparent,
    parse_traceparent,
    validate_profiles,
)
from repro.obs.slo import SLOConfig, SLOMonitor
from repro.obs.trace import Span, Trace, active_trace, span

__all__ = [
    "EventLog",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "RequestRecord",
    "SLOConfig",
    "SLOMonitor",
    "Span",
    "TailSampler",
    "Trace",
    "active_trace",
    "make_traceparent",
    "parse_traceparent",
    "percentile",
    "render_prometheus",
    "request_context",
    "span",
    "validate_exposition",
    "validate_profiles",
]
