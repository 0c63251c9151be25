"""Prometheus-style text exposition over a metrics snapshot.

A scrape endpoint without the HTTP server: :func:`render_prometheus`
turns a :meth:`repro.obs.metrics.MetricsRegistry.snapshot` into the
``# TYPE``-annotated text format, and the serve tier exposes it through
the wire ``{"op": "metrics"}`` alongside the raw snapshot.  Stdlib-only
leaf, like the registry it renders.

Dotted registry names become legal Prometheus metric names by mapping
every character outside ``[a-zA-Z0-9_:]`` to ``_`` and prefixing
``repro_``; histograms render as the classic cumulative
``_bucket{le="..."}`` / ``_sum`` / ``_count`` triple.

:func:`validate_exposition` is the line-format checker the serving tests
run over a live scrape -- deliberately strict about shape (every sample line
must parse as ``name[{labels}] value``, every metric must be typed), not
a full Prometheus parser.
"""

from __future__ import annotations

import math
import re
from typing import List

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)$"
)


def sanitize_metric_name(name: str, prefix: str = "repro_") -> str:
    """A legal Prometheus metric name for a dotted registry name."""
    cleaned = _BAD_CHARS.sub("_", name)
    if not cleaned or not cleaned[0].isalpha() and cleaned[0] not in "_:":
        cleaned = "_" + cleaned
    return prefix + cleaned


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: dict, prefix: str = "repro_") -> str:
    """The text exposition of one registry snapshot.

    Counters and gauges are one sample each; histograms expand to the
    cumulative bucket series plus ``_sum``/``_count``.  Output is
    deterministic (names sorted) so scrapes diff cleanly.
    """
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(snapshot['gauges'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        h = snapshot["histograms"][name]
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        for bound, cumulative in h.get("buckets", []):
            le = "+Inf" if bound == "+Inf" else _fmt(float(bound))
            lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{metric}_sum {_fmt(h['total'])}")
        lines.append(f"{metric}_count {h['count']}")
    return "\n".join(lines) + "\n"


def validate_exposition(text: str) -> List[str]:
    """Problems that make ``text`` malformed exposition (empty = ok).

    Checks: every non-comment line parses as a sample, every sample's
    metric family was declared by a ``# TYPE`` line, histogram bucket
    series are cumulative and end at ``+Inf``, and ``_count`` agrees
    with the ``+Inf`` bucket.
    """
    problems: List[str] = []
    typed: dict = {}
    bucket_state: dict = {}  # family -> (last_cumulative, saw_inf)
    counts: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                if not _NAME_OK.match(parts[2]):
                    problems.append(f"line {lineno}: bad metric name {parts[2]!r}")
                typed[parts[2]] = parts[3]
            continue
        m = _SAMPLE.match(line)
        if m is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name, value = m.group("name"), m.group("value")
        if value != "+Inf":
            try:
                float(value)
            except ValueError:
                problems.append(f"line {lineno}: non-numeric value {value!r}")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and typed.get(name[: -len(suffix)]) == "histogram":
                family = name[: -len(suffix)]
                break
        if family not in typed:
            problems.append(f"line {lineno}: sample {name!r} has no # TYPE line")
            continue
        if typed[family] == "histogram" and name.endswith("_bucket"):
            last, saw_inf = bucket_state.get(family, (-1.0, False))
            cumulative = float(m.group("value"))
            if cumulative < last:
                problems.append(
                    f"line {lineno}: {family} bucket series not cumulative"
                )
            bucket_state[family] = (
                cumulative,
                saw_inf or 'le="+Inf"' in (m.group("labels") or ""),
            )
        if typed[family] == "histogram" and name.endswith("_count"):
            counts[family] = float(m.group("value"))
    for family, (last, saw_inf) in bucket_state.items():
        if not saw_inf:
            problems.append(f"{family}: bucket series missing le=\"+Inf\"")
        if family in counts and counts[family] != last:
            problems.append(
                f"{family}: _count {counts[family]} != +Inf bucket {last}"
            )
    return problems
