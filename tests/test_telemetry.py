"""Observability-tier tests: live quantile histograms, the Prometheus
exposition, the structured event log, and request-id correlation through
the error taxonomy.

The concurrency test (satellite of the telemetry PR) hammers one
:class:`MetricsRegistry` from many threads -- counters, observations,
snapshots and prefix resets racing -- and asserts nothing is lost,
double-counted, or torn.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import (
    DeadlineExceeded,
    ReproError,
    error_from_dict,
    error_to_dict,
)
from repro.obs import events
from repro.obs.events import (
    EVENT_KINDS,
    EventLog,
    read_events,
    request_context,
    validate_event,
    validate_log,
)
from repro.obs.export import (
    render_prometheus,
    sanitize_metric_name,
    validate_exposition,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MAX_EXEMPLARS_PER_BUCKET,
    Histogram,
    MetricsRegistry,
    nearest_rank_index,
    percentile,
)
from repro.obs.sampler import RequestRecord

# -- histograms and quantiles -------------------------------------------------


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 1.0) == 5.0
    assert percentile([], 0.5) == 0.0


def test_histogram_and_percentile_share_the_rank_rule():
    # The live bucketed quantile and the exact percentile answer with the
    # same rank; the histogram just rounds up to its bucket edge.
    values = sorted(0.001 * (i + 1) for i in range(100))
    h = Histogram()
    for v in values:
        h.observe(v)
    for q in (0.5, 0.9, 0.95, 0.99):
        exact = percentile(values, q)
        estimate = h.quantile(q)
        assert estimate >= exact  # bucket upper edge
        # and within one bucket of the truth
        edges = [b for b in DEFAULT_BUCKETS if b >= exact]
        assert estimate <= edges[0] if edges else h.max


def test_histogram_quantile_clamps_to_exact_envelope():
    h = Histogram()
    for _ in range(10):
        h.observe(0.0042)  # lands in the 0.005 bucket
    # One repeated value reports that value at every quantile, not the
    # bucket edge: min/max are tracked exactly.
    assert h.quantile(0.5) == pytest.approx(0.0042)
    assert h.quantile(0.99) == pytest.approx(0.0042)
    h.observe(500.0)  # beyond the last bound: the +Inf overflow bucket
    assert h.quantile(1.0) == 500.0  # overflow reports the exact max


def test_histogram_empty_and_snapshot_shape():
    h = Histogram(buckets=(0.1, 1.0))
    assert h.quantile(0.5) == 0.0
    h.observe(0.05)
    h.observe(5.0)
    doc = h.to_dict()
    assert doc["count"] == 2
    assert doc["buckets"] == [[0.1, 1], [1.0, 1], ["+Inf", 2]]
    assert doc["min"] == 0.05 and doc["max"] == 5.0


def test_histogram_quantile_empty_single_and_overflow_only():
    # Empty: every quantile is 0.0 -- there is nothing to rank.
    h = Histogram(buckets=(0.1, 1.0))
    for q in (0.0, 0.5, 0.99, 1.0):
        assert h.quantile(q) == 0.0
    # Single observation: every quantile is that observation, exactly
    # (min/max clamping beats the bucket edge).
    h.observe(0.25)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert h.quantile(q) == pytest.approx(0.25)
    # Everything in the +Inf overflow bucket: quantiles report the exact
    # tracked max, never an infinite (or fabricated) edge.
    h2 = Histogram(buckets=(0.1,))
    for v in (5.0, 7.0, 9.0):
        h2.observe(v)
    assert h2.quantile(0.5) == 9.0
    assert h2.quantile(1.0) == 9.0


def test_histogram_exemplar_attachment():
    h = Histogram(buckets=(0.1, 1.0))
    h.observe(0.05, exemplar="rid-a")
    h.observe(0.5)  # no exemplar: that bucket stays clean
    doc = h.to_dict()
    assert doc["exemplars"] == {"0.1": [{"id": "rid-a", "value": 0.05}]}
    # The serialized bucket counts are unaffected by exemplar presence.
    assert doc["buckets"] == [[0.1, 1], [1.0, 2], ["+Inf", 2]]


def test_histogram_exemplar_eviction_under_the_per_bucket_cap():
    h = Histogram(buckets=(0.1,))
    n = MAX_EXEMPLARS_PER_BUCKET + 3
    for i in range(n):
        h.observe(5.0, exemplar=f"rid-{i}")  # all land in +Inf
    exs = h.to_dict()["exemplars"]["+Inf"]
    assert len(exs) == MAX_EXEMPLARS_PER_BUCKET
    # Oldest evicted first: the newest ids survive, in arrival order.
    assert [e["id"] for e in exs] == [
        f"rid-{i}" for i in range(n - MAX_EXEMPLARS_PER_BUCKET, n)
    ]


def test_histogram_snapshot_has_no_exemplars_key_when_none_attached():
    # "Off means off": a histogram that never saw an exemplar serializes
    # exactly as before the feature existed.
    h = Histogram(buckets=(0.1, 1.0))
    h.observe(0.05)
    assert "exemplars" not in h.to_dict()


def test_registry_exemplar_passthrough_and_exposition_unchanged():
    reg = MetricsRegistry()
    reg.observe("lat", 0.01, exemplar="req-1")
    exemplars = reg.histogram("lat")["exemplars"]
    assert [e["id"] for exs in exemplars.values() for e in exs] == ["req-1"]
    # Exemplars ride the JSON snapshot only; the text exposition stays
    # schema-valid and never mentions them.
    text = render_prometheus(reg.snapshot())
    assert validate_exposition(text) == []
    assert "req-1" not in text


def test_nearest_rank_index_bounds():
    assert nearest_rank_index(0, 0.5) == 0
    assert nearest_rank_index(1, 0.99) == 0
    assert nearest_rank_index(100, 0.0) == 0
    assert nearest_rank_index(100, 1.0) == 99


def test_registry_quantile_and_histogram_api():
    reg = MetricsRegistry()
    assert reg.quantile("missing", 0.5) == 0.0
    assert reg.histogram("missing") is None
    for v in (0.001, 0.002, 0.2):
        reg.observe("lat", v)
    assert reg.quantile("lat", 0.0) == pytest.approx(0.001)
    assert reg.histogram("lat")["count"] == 3
    # custom bounds apply only at creation
    reg.observe("tiny", 0.5, buckets=(1.0,))
    reg.observe("tiny", 2.0, buckets=(9.9,))  # ignored: histogram exists
    assert reg.histogram("tiny")["buckets"] == [[1.0, 1], ["+Inf", 2]]


def test_registry_concurrent_hammer():
    # N writer threads increment counters and observe latencies while a
    # reader thread snapshots and a resetter clears an unrelated prefix.
    # Writers' counts must all land; the snapshot must never be torn.
    reg = MetricsRegistry()
    writers, per_writer = 8, 500
    start = threading.Barrier(writers + 2)
    stop = threading.Event()

    def write(idx: int) -> None:
        start.wait()
        for i in range(per_writer):
            reg.counter("hammer.count")
            reg.observe("hammer.latency", 0.001 * (i % 7))
            reg.counter(f"hammer.w{idx}.own")

    def snapshot_loop() -> None:
        start.wait()
        while not stop.is_set():
            snap = reg.snapshot()
            h = snap["histograms"].get("hammer.latency")
            if h is not None:
                # count/total never torn: total of k observations of
                # bounded values can't exceed k * max_value
                assert h["total"] <= h["count"] * 0.006 + 1e-9

    def reset_loop() -> None:
        start.wait()
        while not stop.is_set():
            reg.reset("unrelated.")

    threads = [
        threading.Thread(target=write, args=(i,), daemon=True)
        for i in range(writers)
    ]
    threads.append(threading.Thread(target=snapshot_loop, daemon=True))
    threads.append(threading.Thread(target=reset_loop, daemon=True))
    for t in threads:
        t.start()
    for t in threads[:writers]:
        t.join(timeout=60.0)
    stop.set()
    for t in threads[writers:]:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads)
    assert reg.get_counter("hammer.count") == writers * per_writer
    assert reg.histogram("hammer.latency")["count"] == writers * per_writer
    for i in range(writers):
        assert reg.get_counter(f"hammer.w{i}.own") == per_writer


# -- exposition ---------------------------------------------------------------


def test_sanitize_metric_name():
    assert sanitize_metric_name("serve.latency_seconds") == (
        "repro_serve_latency_seconds"
    )
    assert sanitize_metric_name("a b/c{d}") == "repro_a_b_c_d_"


def test_render_prometheus_round_trips_the_validator():
    reg = MetricsRegistry()
    reg.counter("serve.requests", 7)
    reg.gauge("pool.depth", 3.0)
    for v in (0.002, 0.004, 2.0):
        reg.observe("serve.latency_seconds", v)
    text = render_prometheus(reg.snapshot())
    assert validate_exposition(text) == []
    assert "# TYPE repro_serve_requests counter" in text
    assert "repro_serve_requests 7" in text
    assert 'repro_serve_latency_seconds_bucket{le="+Inf"} 3' in text
    assert "repro_serve_latency_seconds_count 3" in text


def test_validate_exposition_catches_malformations():
    assert validate_exposition("not a metric line at all!\n")
    # sample without a TYPE declaration
    assert any(
        "no # TYPE" in p for p in validate_exposition("orphan_metric 1\n")
    )
    # non-cumulative bucket series
    bad = (
        "# TYPE h histogram\n"
        'h_bucket{le="0.1"} 5\n'
        'h_bucket{le="1"} 3\n'
        'h_bucket{le="+Inf"} 3\n'
        "h_sum 1.0\nh_count 3\n"
    )
    assert any("not cumulative" in p for p in validate_exposition(bad))
    # count disagrees with the +Inf bucket
    bad = (
        "# TYPE h histogram\n"
        'h_bucket{le="+Inf"} 3\n'
        "h_sum 1.0\nh_count 4\n"
    )
    assert any("_count" in p for p in validate_exposition(bad))


# -- the event log ------------------------------------------------------------


def test_event_log_emits_schema_valid_lines(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with EventLog(path) as log:
        doc = log.emit("admit", request_id="r1", tenant="t", shape="sql:q")
        assert validate_event(doc) == []
        line = log.emit("request", **RequestRecord("r1", rows=3).to_dict())
        assert validate_event(line) == []
        # A request line is checked against the record spec too.
        assert validate_event(dict(line, rows=-1))
        assert validate_event({k: v for k, v in line.items() if k != "tenant"})
    assert validate_log(path) == []
    kinds = [d["event"] for d in read_events(path)]
    assert kinds == ["admit", "request"]


def test_event_log_rejects_unknown_kinds(tmp_path):
    with EventLog(str(tmp_path / "e.jsonl")) as log:
        with pytest.raises(ValueError):
            log.emit("explode", request_id="r1")


def test_event_log_drops_none_fields(tmp_path):
    with EventLog(str(tmp_path / "e.jsonl")) as log:
        doc = log.emit("fallback", request_id="r1", shape=None, code="E_COMPILE")
    assert "shape" not in doc
    assert validate_event(doc) == []


def test_event_context_supplies_defaults(tmp_path):
    with EventLog(str(tmp_path / "e.jsonl")) as log:
        with request_context("rid-9", shape="tpch:6", tenant="acme"):
            doc = log.emit("compile", seconds=0.1)
        after = log.emit("admit", request_id="r2")
    assert doc["request_id"] == "rid-9"
    assert doc["shape"] == "tpch:6"
    assert doc["tenant"] == "acme"
    assert "shape" not in after  # context restored on exit


def test_event_context_nests_and_restores():
    assert events.current_request_id() is None
    with request_context("outer"):
        with request_context("inner", shape="s"):
            assert events.current_request_id() == "inner"
            assert events.current_shape() == "s"
        assert events.current_request_id() == "outer"
        assert events.current_shape() is None
    assert events.current_request_id() is None


def test_module_emit_is_noop_without_installed_log():
    assert events.installed() is None
    assert events.emit("admit", request_id="nobody-listening") is None


def test_installed_log_receives_module_emits(tmp_path):
    log = EventLog(str(tmp_path / "e.jsonl"))
    previous = events.install(log)
    try:
        events.emit("admit", request_id="r1")
    finally:
        events.install(previous)
        log.close()
    assert [d["request_id"] for d in read_events(log.path)] == ["r1"]


def test_event_log_rotates_by_size(tmp_path):
    path = str(tmp_path / "e.jsonl")
    with EventLog(path, max_bytes=512, backups=2) as log:
        for i in range(50):
            log.emit("admit", request_id=f"r{i}", tenant="t" * 20)
    assert os.path.exists(path)
    assert os.path.exists(path + ".1")
    assert validate_log(path) == []
    assert validate_log(path + ".1") == []
    # every retained file is under the cap (plus one line of slack)
    assert os.path.getsize(path + ".1") <= 512 + 200


def test_event_kinds_cover_the_request_lifecycle():
    assert set(EVENT_KINDS) == {
        "admit", "compile", "fallback", "request", "slo_burn",
    }


# -- request-id correlation through the taxonomy ------------------------------


def test_error_request_id_round_trips_the_wire():
    exc = DeadlineExceeded("too slow").with_request("rid-42")
    doc = error_to_dict(exc)
    assert doc["request_id"] == "rid-42"
    back = error_from_dict(doc)
    assert isinstance(back, DeadlineExceeded)
    assert back.request_id == "rid-42"


def test_error_without_request_id_omits_the_key():
    doc = error_to_dict(ReproError("plain"))
    assert "request_id" not in doc
    assert error_from_dict(doc).request_id is None
