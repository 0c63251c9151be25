"""Diagnosis-tier tests: tail-based sampling, traceparent propagation,
SLO burn-rate windows, and the ``repro-doctor`` attribution/regression
report over the request stream (the event log's ``request`` lines).

The regression tests are the acceptance gate for the doctor: a synthetic
per-shape slowdown injected into a telemetry snapshot must be flagged
against the unperturbed baseline, while comparing the baseline against
itself must report a clean verdict -- same artifacts, same thresholds,
opposite answers.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.obs import events
from repro.obs.artifacts import check
from repro.obs.events import EventLog, read_log
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import (
    RECORD,
    SCHEMA as PROFILES_SCHEMA,
    RequestRecord,
    TailSampler,
    make_traceparent,
    parse_traceparent,
    validate_profiles,
)
from repro.obs.slo import SLOConfig, SLOMonitor
from repro.obs.telemetry import SCHEMA as TELEMETRY_SCHEMA, shape_digest
from repro.obs.doctor import (
    DoctorInputError,
    attribute_profile,
    build_report,
    main as doctor_main,
    regression_report,
    render_text,
    tail_report,
    validate_report,
)


class FakeClock:
    def __init__(self, now: float = 1_000_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- traceparent --------------------------------------------------------------


def test_traceparent_round_trip():
    tp = make_traceparent()
    parsed = parse_traceparent(tp)
    assert parsed is not None
    trace_id, span_id = parsed
    assert tp == f"00-{trace_id}-{span_id}-01"
    assert len(trace_id) == 32 and len(span_id) == 16


def test_traceparent_accepts_explicit_ids_and_whitespace():
    tp = make_traceparent(trace_id="ab" * 16, span_id="cd" * 8)
    assert parse_traceparent(f"  {tp.upper()}  ") == ("ab" * 16, "cd" * 8)


@pytest.mark.parametrize(
    "bad",
    [
        None,
        42,
        "",
        "not-a-traceparent",
        "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # wrong version
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
        "00-" + "a" * 32 + "-" + "b" * 15 + "-01",  # short span id
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
        "00-" + "g" * 32 + "-" + "b" * 16 + "-01",  # non-hex
    ],
)
def test_traceparent_malformed_parses_to_none(bad):
    assert parse_traceparent(bad) is None


# -- the tail sampler ---------------------------------------------------------


def _profile(rid, latency=0.01, outcome="ok", **kw):
    return RequestRecord(
        request_id=rid, latency_seconds=latency, outcome=outcome, **kw
    )


def test_sampler_keeps_everything_during_warmup():
    s = TailSampler(capacity=8, warmup=4)
    assert s.offer(_profile("a", 0.001))
    assert s.get("a").keep_reason == "warmup"
    assert s.threshold() == 0.0


def test_sampler_always_keeps_errors_breaker_and_degraded():
    s = TailSampler(capacity=256, warmup=2)
    # Train a threshold with two distinct latency bands, so the fast band
    # sits strictly below the p90 bucket's lower edge.
    for i in range(90):
        s.offer(_profile(f"warm-fast-{i}", 0.001))
    for i in range(30):
        s.offer(_profile(f"warm-slow-{i}", 0.09))
    assert not s.offer(_profile("fast", 0.001))  # plain fast: dropped
    assert s.offer(_profile("err", 0.001, outcome="E_PLAN"))
    assert s.get("err").keep_reason == "error"
    assert s.offer(_profile("brk", 0.001, breaker="open"))
    assert s.get("brk").keep_reason == "breaker"
    assert s.offer(_profile("prb", 0.001, breaker="probe"))
    assert s.get("prb").keep_reason == "breaker"
    assert s.offer(_profile("deg", 0.001, degraded=True))
    assert s.get("deg").keep_reason == "degraded"
    assert not s.offer(_profile("closed", 0.001, breaker="closed"))


def test_sampler_slow_decile_threshold_is_a_generous_bucket_edge():
    # 85 fast (1ms band) + 15 slow (90ms band): the p90 sample sits in
    # the slow bucket, so the threshold is that bucket's *lower* edge
    # and every one of the slow requests qualifies.
    s = TailSampler(capacity=256, warmup=4)
    for i in range(85):
        s.offer(_profile(f"fast-{i}", 0.001))
    kept = sum(1 for i in range(15) if s.offer(_profile(f"slow-{i}", 0.09)))
    assert kept == 15
    assert 0.0 < s.threshold() <= 0.09
    assert s.get("slow-0").keep_reason == "slow"
    assert not s.offer(_profile("still-fast", 0.001))


def test_sampler_reoffered_id_replaces_instead_of_growing():
    s = TailSampler(capacity=8, warmup=1)
    s.offer(_profile("rid", 0.001, outcome="E_PLAN"))
    s.offer(_profile("rid", 0.002, outcome="E_PARAM"))
    assert s.stats()["stored"] == 1
    assert s.get("rid").outcome == "E_PARAM"


def test_sampler_eviction_prefers_fast_ok_profiles_over_errors():
    s = TailSampler(capacity=4, warmup=100)  # warmup: everything kept
    s.offer(_profile("err", 0.5, outcome="E_PLAN"))
    for i, latency in enumerate((0.01, 0.02, 0.03)):
        s.offer(_profile(f"ok-{i}", latency))
    s.offer(_profile("ok-3", 0.04))  # over capacity: evict fastest warmup
    stats = s.stats()
    assert stats["stored"] == 4 and stats["evicted"] == 1
    assert s.get("err") is not None  # the error capture survived
    assert s.get("ok-0") is None  # the fastest ok profile went


def test_sampler_eviction_falls_back_to_oldest_when_all_are_errors():
    s = TailSampler(capacity=2, warmup=1)
    s.offer(_profile("e1", 0.1, outcome="E_PLAN"))
    s.offer(_profile("e2", 0.2, outcome="E_PLAN"))
    s.offer(_profile("e3", 0.3, outcome="E_PLAN"))
    assert s.get("e1") is None
    assert s.get("e2") is not None and s.get("e3") is not None


def test_sampler_snapshot_validates_and_round_trips():
    s = TailSampler(capacity=8, warmup=2)
    s.offer(_profile("a", 0.01, shape="select 1", trace={"name": "serve.request"}))
    s.offer(_profile("b", 0.02, outcome="E_PLAN", phase="parse"))
    snap = s.snapshot()
    assert snap["schema"] == PROFILES_SCHEMA
    assert validate_profiles(snap) == []
    loaded = json.loads(json.dumps(snap))
    assert validate_profiles(loaded) == []
    profiles = {p["request_id"]: p for p in loaded["profiles"]}
    assert set(profiles) == {"a", "b"}
    assert profiles["a"]["trace"] == {"name": "serve.request"}
    assert profiles["b"]["phase"] == "parse" and profiles["b"]["rows"] == 0


def test_record_document_carries_the_trace_only_when_kept():
    """One serializer: a kept record's document is its snapshot profile
    and its full log line; an unkept one leaves the trace and the
    per-operator views out."""
    heavy = dict(
        trace={"name": "serve.request"}, operator_times={"Scan#0": 0.1},
        operator_rows={"Scan#0": 5}, kernels={"v_eq": {"calls": 1, "rows": 5}},
    )
    rec = _profile("r", 0.01, rows=5, **heavy)
    assert not set(heavy) & set(rec.to_dict())
    assert check(RECORD, rec.to_dict(), "line") == []
    rec.keep_reason = "slow"
    doc = rec.to_dict()
    assert {k: doc[k] for k in heavy} == heavy and doc["rows"] == 5
    assert check(RECORD, doc, "line") == []


def test_validate_profiles_rejects_malformed_documents():
    assert validate_profiles([]) == ["profiles snapshot is not an object"]
    assert any("schema" in p for p in validate_profiles({"schema": "nope"}))
    doc = {
        "schema": PROFILES_SCHEMA,
        "offered": 1, "kept": 1, "evicted": 0, "capacity": 8,
        "threshold_seconds": 0.0,
        "profiles": [{"request_id": "", "outcome": "weird"}],
    }
    problems = validate_profiles(doc)
    assert any("request_id" in p for p in problems)
    assert any("outcome" in p for p in problems)
    counts = validate_profiles(
        dict(doc, offered=True, threshold_seconds=False, profiles=[])
    )
    assert any("offered" in p for p in counts)
    assert any("threshold_seconds" in p for p in counts)
    # A valid record is a snapshot profile only with its keep reason.
    unkept = _profile("u", 0.01).to_dict()
    assert check(RECORD, unkept, "line") == []
    assert any("keep_reason" in p
               for p in validate_profiles(dict(doc, profiles=[unkept])))


# -- SLO burn-rate monitoring -------------------------------------------------


def _rec(latency, ok, tenant=None, shape=None):
    return RequestRecord(
        request_id="r",
        latency_seconds=latency,
        outcome="ok" if ok else "E_RUNTIME",
        tenant_label=tenant,
        shape_label=shape,
    )


def _slo_config(**kw):
    base = dict(
        latency_threshold_seconds=0.1,
        objective=0.9,  # 10% error budget: burn = bad_fraction / 0.1
        window_seconds=30.0,
        long_window_seconds=60.0,
        burn_threshold=2.0,
        min_requests=10,
    )
    base.update(kw)
    return SLOConfig(**base)


def test_slo_burn_fires_once_and_resolves(tmp_path):
    log_path = tmp_path / "events.jsonl"
    log = EventLog(str(log_path))
    events.install(log)
    try:
        clock = FakeClock()
        reg = MetricsRegistry()
        mon = SLOMonitor(_slo_config(), clock=clock, registry=reg)
        # Ten bad requests: bad_fraction 1.0 -> burn 10 in both windows,
        # at the min_requests floor -> one firing transition.
        for _ in range(10):
            mon.record(_rec(1.0, ok=True))  # slow counts as bad
            clock.advance(0.5)
        snap = mon.snapshot()
        assert snap["service"]["alerting"]
        assert snap["service"]["burn_short"] == pytest.approx(10.0)
        assert reg.get_counter("slo.alerts") == 1
        mon.record(_rec(1.0, ok=False))  # still burning: no second alert
        assert reg.get_counter("slo.alerts") == 1
        # March past the short window; one good request re-evaluates the
        # now-clean window and resolves the alert.
        clock.advance(35.0)
        mon.record(_rec(0.01, ok=True))
        assert not mon.snapshot()["service"]["alerting"]
    finally:
        events.install(None)
        log.close()
    lines = [json.loads(l) for l in log_path.read_text().splitlines()]
    burn = [d for d in lines if d["event"] == "slo_burn"]
    assert [d["state"] for d in burn] == ["firing", "resolved"]
    assert burn[0]["scope"] == "service"
    assert burn[0]["burn_short"] >= 2.0


def test_slo_windows_ignore_wall_clock_steps(monkeypatch):
    """The default clock is monotonic: stepping the wall clock an hour
    back between records, then two hours forward, moves no burn rate;
    the monotonic clock passing the long window empties both."""
    elapsed = [time.monotonic()]
    monkeypatch.setattr(time, "monotonic", lambda: elapsed[0])
    mon = SLOMonitor(_slo_config(), registry=MetricsRegistry())

    def burns():
        snap = mon.snapshot()["service"]
        return snap["burn_short"], snap["burn_long"]

    def record_mix():
        for ok in (False, True, True, True):
            mon.record(_rec(0.01, ok=ok))

    record_mix()
    before = burns()
    assert before[0] > 0
    wall = time.time()
    monkeypatch.setattr(time, "time", lambda: wall - 3600.0)
    record_mix()
    assert burns() == before
    monkeypatch.setattr(time, "time", lambda: wall + 3600.0)
    assert burns() == before
    assert mon.snapshot()["service"]["bad"] == 2
    # what does move the windows is elapsed time
    elapsed[0] += _slo_config().long_window_seconds + 1.0
    assert burns() == (0.0, 0.0)


def test_slo_min_requests_floor_prevents_spike_paging():
    clock = FakeClock()
    reg = MetricsRegistry()
    mon = SLOMonitor(_slo_config(min_requests=10), clock=clock, registry=reg)
    for _ in range(9):  # all bad, but under the traffic floor
        mon.record(_rec(1.0, ok=False))
    assert not mon.snapshot()["service"]["alerting"]
    assert reg.get_counter("slo.alerts") == 0


def test_slo_long_window_confirms_before_firing():
    # A burst that fills the short window but not the long one must not
    # page: the long window still remembers the good traffic.
    clock = FakeClock()
    reg = MetricsRegistry()
    mon = SLOMonitor(_slo_config(), clock=clock, registry=reg)
    for _ in range(200):  # a long healthy stretch
        mon.record(_rec(0.01, ok=True))
        clock.advance(0.25)
    # Step past the short window (still inside the long one), then burst:
    # the short window sees only the burst, the long window remembers
    # the healthy stretch and refuses to confirm.
    clock.advance(31.0)
    for _ in range(12):
        mon.record(_rec(1.0, ok=False))
    snap = mon.snapshot()
    assert snap["service"]["burn_short"] >= 2.0
    assert snap["service"]["burn_long"] < 2.0
    assert not snap["service"]["alerting"]


def test_slo_scopes_tenants_and_shapes():
    clock = FakeClock()
    reg = MetricsRegistry()
    mon = SLOMonitor(_slo_config(), clock=clock, registry=reg)
    for tenant in ("a", "b", "c"):
        mon.record(_rec(0.01, ok=True, tenant=tenant, shape="s1"))
    snap = mon.snapshot()
    # Scopes are the record's labels, which the service has already capped.
    assert set(snap["tenants"]) == {"a", "b", "c"}
    assert set(snap["shapes"]) == {"s1"}
    assert snap["service"]["good"] == 3
    gauges = reg.snapshot()["gauges"]
    assert gauges.get("slo.burn.service") == 0.0
    assert "slo.burn.tenant.a" in gauges and "slo.burn.shape.s1" in gauges


def test_slo_windows_expire_with_the_clock():
    clock = FakeClock()
    mon = SLOMonitor(_slo_config(), clock=clock, registry=MetricsRegistry())
    for _ in range(5):
        mon.record(_rec(1.0, ok=False))
    assert mon.snapshot()["service"]["bad"] == 5
    clock.advance(90.0)  # past both windows
    snap = mon.snapshot()
    assert snap["service"]["bad"] == 0 and snap["service"]["good"] == 0
    assert snap["service"]["burn_short"] == 0.0


# -- doctor: attribution ------------------------------------------------------


def _traced_profile(
    rid="r1",
    latency=1.0,
    queue=0.1,
    compile_s=0.2,
    execute=0.5,
    shape="select count(*) from lineitem",
    tenant="t0",
    outcome="ok",
    operator_times=None,
):
    trace = {
        "name": "serve.request",
        "seconds": latency - queue,
        "children": [
            {
                "name": "attempt",
                "seconds": compile_s + execute,
                "children": [
                    {
                        "name": "compile",
                        "seconds": compile_s,
                        # nested compile stages must not double-count
                        "children": [
                            {"name": "codegen", "seconds": compile_s / 2}
                        ],
                    }
                ],
            }
        ],
    }
    return {
        "request_id": rid,
        "shape_digest": shape_digest(shape),
        "tenant": tenant,
        "latency_seconds": latency,
        "outcome": outcome,
        "queued_seconds": queue,
        "exec_seconds": latency - queue,
        "trace": trace,
        "operator_times": operator_times or {},
        "ts": 0.0,
        "keep_reason": "slow",
    }


def test_attribute_profile_from_trace_spans():
    att = attribute_profile(_traced_profile())
    assert att["queue"] == pytest.approx(0.1)
    assert att["compile"] == pytest.approx(0.2)  # codegen child not added
    assert att["execute"] == pytest.approx(0.5)
    assert att["other"] == pytest.approx(0.2)


def test_attribute_profile_without_trace_falls_back_to_exec_seconds():
    att = attribute_profile(
        {
            "request_id": "r",
            "latency_seconds": 1.0,
            "queued_seconds": 0.3,
            "exec_seconds": 0.6,
        }
    )
    assert att == {
        "queue": pytest.approx(0.3),
        "compile": 0.0,
        "execute": pytest.approx(0.6),
        "other": pytest.approx(0.1),
    }


def test_attribute_profile_never_goes_negative():
    att = attribute_profile(
        {"request_id": "r", "latency_seconds": 0.1, "queued_seconds": 0.5}
    )
    assert att["other"] == 0.0 and att["queue"] == 0.5


def test_tail_report_groups_slow_and_errored_by_shape_and_tenant():
    slow_shape = "select * from orders"
    lines = [
        _traced_profile("slow-1", latency=1.0, shape=slow_shape),
        _traced_profile(
            "slow-2", latency=2.0, shape=slow_shape, tenant="t1",
            operator_times={"Sort#1": 0.9, "Scan#0": 0.3},
        ),
        # fast but errored: always part of the tail report
        _traced_profile("err-1", latency=0.01, outcome="E_PLAN"),
        # fast and ok: excluded (eight of them put the exact p90 of the
        # eleven latencies at 1.0 s, so both slow lines are in the tail)
        *(_traced_profile(f"fast-{i}", latency=0.01) for i in range(1, 9)),
    ]
    tail = tail_report(lines, {shape_digest(slow_shape): slow_shape})
    assert tail["threshold_ms"] == pytest.approx(1000.0)
    assert tail["slow_count"] == 3 and tail["lines"] == 11
    digest = shape_digest(slow_shape)
    by_shape = {e["shape"]: e for e in tail["by_shape"]}
    assert by_shape[digest]["count"] == 2
    assert by_shape[digest]["shape_text"].startswith("select * from orders")
    assert by_shape[digest]["top_operators"][0]["operator"] == "Sort#1"
    assert by_shape[digest]["exemplars"] == ["slow-1", "slow-2"]
    # the slowest-execute shape sorts first
    assert tail["by_shape"][0]["shape"] == digest
    by_tenant = {e["tenant"]: e for e in tail["by_tenant"]}
    assert by_tenant["t1"]["count"] == 1
    assert by_tenant["t0"]["errors"] == 1


# -- doctor: regression verdicts ----------------------------------------------


_BASE_MS = {"shape-a": 10.0, "shape-b": 40.0}


def _telemetry_doc(ms=None, engine="compiled", count=8, compile_ms=5.0):
    """A ``repro-telemetry/v1`` snapshot: ``count`` executions of each
    shape in ``ms`` (digest -> mean execution milliseconds)."""
    shapes = {}
    for digest, mean_ms in (ms or _BASE_MS).items():
        shapes[f"sql:{digest}"] = {
            "digest": digest,
            "compile": {
                "count": 1,
                "total_seconds": compile_ms / 1e3,
                "max_seconds": compile_ms / 1e3,
            },
            "executions": {
                "count": count,
                "rows_total": count,
                "total_seconds": count * mean_ms / 1e3,
            },
            "engines": {engine: count},
            "operators": {},
            "kernels": {},
        }
    return {"schema": TELEMETRY_SCHEMA, "shapes": shapes}


def test_regression_flags_an_injected_per_shape_slowdown():
    baseline = _telemetry_doc()
    current = _telemetry_doc({**_BASE_MS, "shape-b": 120.0})
    rep = regression_report(baseline, current)
    assert rep["verdict"] == "regressed"
    assert rep["compared_shapes"] == 2
    flagged_shapes = {f["shape"] for f in rep["flagged"]}
    assert flagged_shapes == {"shape-b"}  # the unperturbed shape is quiet
    assert {f["metric"] for f in rep["flagged"]} == {"mean_ms"}
    assert all(f["ratio"] > 2.5 for f in rep["flagged"])


def test_regression_unperturbed_rerun_reports_ok():
    rep = regression_report(_telemetry_doc(), _telemetry_doc())
    assert rep["verdict"] == "ok"
    assert rep["flagged"] == [] and rep["compared_shapes"] == 2


def test_regression_below_noise_floor_is_not_flagged():
    # 3x ratio but sub-millisecond absolute movement: jitter, not news.
    base = _telemetry_doc({"tiny": 0.2}, count=6)
    cur = _telemetry_doc({"tiny": 0.6}, count=6)
    assert regression_report(base, cur)["verdict"] == "ok"


def test_regression_engine_mix_shift_is_flagged():
    baseline = _telemetry_doc(engine="compiled")
    current = _telemetry_doc(engine="push")
    rep = regression_report(baseline, current)
    assert rep["verdict"] == "regressed"
    assert {f["metric"] for f in rep["flagged"]} == {"engine_mix"}


def test_regression_skips_undersampled_shapes():
    thin = _telemetry_doc({"rare": 5.0}, count=1)
    rep = regression_report(thin, thin, min_samples=5)
    assert rep["verdict"] == "skipped"
    assert rep["compared_shapes"] == 0 and rep["skipped_shapes"] == 1


def test_regression_accepts_a_telemetry_baseline():
    # Compile cost is compared per compile, apart from execution time.
    rep = regression_report(_telemetry_doc(), _telemetry_doc(compile_ms=50.0))
    assert rep["verdict"] == "regressed"
    assert {f["metric"] for f in rep["flagged"]} == {"compile_ms"}
    assert {f["shape"] for f in rep["flagged"]} == set(_BASE_MS)


# -- doctor: report + CLI -----------------------------------------------------


def _write_stream(path, records, **log_args):
    """An event log holding one ``request`` line per record."""
    with EventLog(str(path), **log_args) as log:
        for rec in records:
            log.emit("request", **rec.to_dict())
    return str(path)


@pytest.fixture()
def artifact_dir(tmp_path):
    """A request stream + baseline/current telemetry snapshots on disk."""
    sampler = TailSampler(capacity=16, warmup=2)
    records = [
        _profile("slow-a", 0.8, shape="select count(*) from lineitem"),
        _profile("err-b", 0.01, outcome="E_PLAN"),
    ]
    for rec in records:
        sampler.offer(rec)
    _write_stream(tmp_path / "events.jsonl", records)
    (tmp_path / "baseline.json").write_text(json.dumps(_telemetry_doc()))
    (tmp_path / "regressed.json").write_text(
        json.dumps(_telemetry_doc({**_BASE_MS, "shape-b": 120.0}))
    )
    return tmp_path


def test_build_report_joins_artifacts_and_validates(artifact_dir):
    report = build_report(
        events_path=str(artifact_dir / "events.jsonl"),
        baseline_path=str(artifact_dir / "baseline.json"),
        current_path=str(artifact_dir / "regressed.json"),
    )
    assert validate_report(report) == []
    summary = report["summary"]
    assert summary["requests"] == 2  # one request line each
    assert summary["error_codes"] == {"E_PLAN": 1}
    assert summary["latency_ms"]["p99"] == pytest.approx(800.0)
    assert report["tail"]["slow_count"] == 2  # the p90 line and the error
    assert report["regression"]["verdict"] == "regressed"
    text = render_text(report)
    assert "repro-doctor report" in text and "regressed" in text


def test_build_report_rejects_a_mislabeled_profiles_artifact(tmp_path):
    # A profiles snapshot is not a request stream, even on one line.
    sampler = TailSampler(capacity=4, warmup=2)
    sampler.offer(_profile("a", 0.01))
    path = tmp_path / "profiles.jsonl"
    path.write_text(json.dumps(sampler.snapshot()) + "\n")
    with pytest.raises(DoctorInputError):
        build_report(events_path=str(path))
    path.write_text(json.dumps({"schema": "something-else/v9"}) + "\n")
    with pytest.raises(DoctorInputError):
        build_report(events_path=str(path))


def test_doctor_reads_the_rotated_backups_oldest_first(tmp_path):
    records = [_profile(f"r{i:02d}", 0.001 * (i + 1)) for i in range(40)]
    path = _write_stream(
        tmp_path / "events.jsonl", records, max_bytes=2048, backups=50
    )
    assert os.path.exists(path + ".2")  # the log did rotate
    assert [d["request_id"] for d in read_log(path)] == [
        r.request_id for r in records
    ]
    summary = build_report(events_path=path)["summary"]
    assert summary["requests"] == 40
    assert summary["latency_ms"]["p50"] == pytest.approx(21.0)  # nearest rank


def test_compile_cost_per_shape_comes_from_the_compile_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(str(path)) as log:
        for seconds in (0.010, 0.030):
            log.emit("compile", request_id="c", shape="tpch:1", seconds=seconds)
        log.emit("request", **_profile("c", 0.05, shape="tpch:1").to_dict())
    report = build_report(events_path=str(path))
    assert validate_report(report) == []
    entry = report["compile"][shape_digest("tpch:1")]
    assert entry["count"] == 2
    assert entry["mean_ms"] == pytest.approx(20.0)


def test_doctor_cli_check_and_regression_exit_codes(artifact_dir, capsys):
    stream = str(artifact_dir / "events.jsonl")
    baseline = str(artifact_dir / "baseline.json")
    regressed = str(artifact_dir / "regressed.json")
    out = str(artifact_dir / "doctor.json")

    assert doctor_main(["--events", stream, "--check", "--out", out]) == 0
    written = json.loads((artifact_dir / "doctor.json").read_text())
    assert validate_report(written) == []

    # Unperturbed compare: clean verdict, exit 0 even when gating.
    assert doctor_main(
        ["--baseline", baseline, "--current", baseline,
         "--fail-on-regression", "--json"]
    ) == 0
    # Injected slowdown: the gate trips with the dedicated exit code.
    assert doctor_main(
        ["--baseline", baseline, "--current", regressed,
         "--fail-on-regression", "--json"]
    ) == 3
    capsys.readouterr()  # drain the JSON blobs; exit codes are the contract

    # A corrupt artifact is a typed failure, not a traceback.
    bad = artifact_dir / "corrupt.jsonl"
    bad.write_text("{not json")
    assert doctor_main(["--events", str(bad)]) == 1
    # Well-formed JSON that does not match the schema it declares: a
    # request line without its record.
    bare = artifact_dir / "bare.jsonl"
    bare.write_text(json.dumps({
        "schema": events.SCHEMA, "ts": 0.0, "event": "request",
        "request_id": "a", "outcome": "ok",
    }) + "\n")
    assert doctor_main(["--events", str(bare)]) == 1
    shapeless = artifact_dir / "bad-telemetry.json"
    shapeless.write_text(json.dumps(
        {"schema": TELEMETRY_SCHEMA, "shapes": {"s": {"compile": "x"}}}
    ))
    assert doctor_main(["--baseline", str(shapeless), "--current", baseline]) == 1
    assert doctor_main(["--baseline", baseline, "--current", str(shapeless)]) == 1
    # A compare side is a telemetry snapshot; an unversioned document of
    # per-request samples is not one.
    samples = artifact_dir / "samples.json"
    samples.write_text(json.dumps({"samples": [{"shape": "s", "latency_ms": 1.0}]}))
    assert doctor_main(["--baseline", str(samples), "--current", baseline]) == 1


def test_validate_report_catches_broken_sections():
    assert validate_report("nope") == ["report is not an object"]
    problems = validate_report(
        {
            "schema": "repro-doctor/v2",
            "inputs": {},
            "summary": {"requests": "many", "latency_ms": {"p50": -1.0}},
            "tail": {"threshold_ms": "slow", "attribution_ms": {},
                     "by_shape": [{}], "by_tenant": []},
            "regression": {"verdict": "maybe", "flagged": None},
        }
    )
    assert any("summary.requests" in p for p in problems)
    assert any("latency_ms.p50" in p for p in problems)
    assert any("latency_ms.p99" in p for p in problems)
    assert any("tail.threshold_ms" in p for p in problems)
    assert any("attribution_ms" in p for p in problems)
    assert any("by_shape[0]" in p for p in problems)
    assert any("verdict" in p for p in problems)
    assert any("flagged" in p for p in problems)
