"""``repro-serve``: run the query service, or smoke-test it end to end.

Serve mode (the default) generates a TPC-H database and listens until
interrupted::

    repro-serve --port 7433 --scale 0.01 --workers 8

Smoke mode is the CI job: it starts the full stack (database, session,
service, TCP server) in one process, drives the mixed 22-query workload
over real sockets from concurrent clients -- optionally with fault
injection at the codegen and host-compile sites -- and asserts the
serving-tier invariants:

* every reply is rows or a *typed* error (an ``E_*`` taxonomy code;
  ``E_RUNTIME`` would mean a raw exception leaked);
* under compile faults, affected requests degrade to the interpreters
  (answers stay correct) instead of failing;
* literal-varying statements share one shape-keyed compile (a cache
  hit-rate floor over the ``session.cache.shape_*`` counters), wire
  ``prepare``/``execute`` reuses one compiled shape across tenants, and
  hostile bindings fail as typed ``E_PARAM`` errors;
* the compile-path circuit breaker opens under sustained compile failure
  and closes again after a successful half-open probe;
* every reply echoes the client-sent ``request_id`` (errors included),
  the structured JSONL event log is schema-valid and joins on those ids
  (one ``admit``, exactly one terminal ``complete``/``reject`` each);
* the ``metrics`` wire op serves a schema-valid Prometheus exposition
  with live per-tenant latency quantiles;
* the workload-telemetry snapshot is schema-valid and carries
  per-operator timings for every executed plan shape;
* the tail sampler kept a *complete* profile (trace spans, operator
  timings, engine trail) for every errored / breaker-affected request
  and for the slowest decile, every exemplar request id attached to a
  latency histogram resolves to a stored profile, client-minted
  ``traceparent`` ids come back as the reply's ``trace_id``, and the
  SLO monitor exports live burn-rate gauges;
* the server shuts down cleanly via the in-band ``shutdown`` op.

Exit code 0 on success, 1 with a diagnostic on any violation.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import time
from typing import List, Optional, Sequence

from repro.obs import events as obs_events
from repro.obs.artifacts import ArtifactError, read_json
from repro.obs.events import EventLog, read_events, validate_log
from repro.obs.export import validate_exposition
from repro.obs.metrics import REGISTRY, percentile
from repro.obs.sampler import make_traceparent, validate_profiles
from repro.obs.slo import SLOConfig
from repro.obs.telemetry import SNAPSHOT, TELEMETRY
from repro.serve.admission import TenantQuota
from repro.serve.client import ServiceClient
from repro.serve.server import QueryServer
from repro.serve.service import QueryService, ServiceConfig
from repro.serve.workload import wire_workload
from repro.session import Session
from repro.storage import OptimizationLevel
from repro.tpch.dbgen import generate_database, generate_tables


def build_service(args: argparse.Namespace) -> QueryService:
    db = generate_database(
        tables=dict(generate_tables(args.scale)),
        level=OptimizationLevel.COMPLIANT,
    )
    session = Session(db, max_cache_size=args.cache_size)
    slo_config = None
    if args.slo_latency is not None or args.smoke:
        # The smoke arms the monitor with a generous threshold: gauges
        # and windows must be live, but a healthy run should not fire.
        slo_config = SLOConfig(
            latency_threshold_seconds=(
                args.slo_latency if args.slo_latency is not None else 30.0
            ),
            objective=args.slo_objective,
        )
    config = ServiceConfig(
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        default_deadline_seconds=args.deadline,
        rate_limit=args.rate,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_seconds=args.breaker_cooldown,
        default_quota=TenantQuota(max_rows=args.max_rows),
        query_scale=args.scale,
        trace_requests=args.trace,
        telemetry=args.telemetry is not None or args.smoke,
        sampling=args.sampling or args.profiles is not None or args.smoke,
        sampler_capacity=args.sampler_capacity,
        slo=slo_config,
    )
    return QueryService(session, config)


def _setup_observability(args: argparse.Namespace) -> tuple:
    """Install the event log / telemetry store the flags (or smoke) ask
    for; returns ``(event_log, events_path, telemetry_path,
    profiles_path)``."""
    events_path, telemetry_path = args.events, args.telemetry
    profiles_path = args.profiles
    if args.smoke:
        workdir = tempfile.mkdtemp(prefix="repro-smoke-")
        events_path = events_path or os.path.join(workdir, "events.jsonl")
        telemetry_path = telemetry_path or os.path.join(workdir, "telemetry.json")
        profiles_path = profiles_path or os.path.join(workdir, "profiles.json")
    log = None
    if events_path is not None:
        log = EventLog(events_path)
        obs_events.install(log)
    if telemetry_path is not None:
        TELEMETRY.enable(telemetry_path)
    return log, events_path, telemetry_path, profiles_path


def cmd_serve(args: argparse.Namespace) -> int:
    log, events_path, telemetry_path, profiles_path = _setup_observability(args)
    service = build_service(args)
    server = QueryServer(service, host=args.host, port=args.port).start()
    host, port = server.address
    print(f"repro-serve listening on {host}:{port} "
          f"(scale={args.scale}, workers={args.workers})", file=sys.stderr)
    if events_path:
        print(f"repro-serve event log: {events_path}", file=sys.stderr)
    try:
        while not server._shutdown_started.wait(timeout=0.5):
            pass
    except KeyboardInterrupt:
        print("interrupt: shutting down", file=sys.stderr)
    finally:
        server.close()
        if telemetry_path is not None:
            TELEMETRY.save()
            print(f"repro-serve telemetry snapshot: {telemetry_path}",
                  file=sys.stderr)
        if profiles_path is not None and service.sampler is not None:
            service.sampler.save(profiles_path)
            print(f"repro-serve sampled profiles: {profiles_path}",
                  file=sys.stderr)
        if log is not None:
            obs_events.install(None)
            log.close()
    return 0


# -- smoke mode ---------------------------------------------------------------


class _SmokeFailure(Exception):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise _SmokeFailure(message)


def _drive_clients(
    host: str, port: int, clients: int, rounds: int, replies: List[dict]
) -> None:
    """``clients`` threads, each its own socket, each the full workload."""
    lock = threading.Lock()
    errors: List[BaseException] = []

    def one_client(idx: int) -> None:
        try:
            with ServiceClient(host, port) as client:
                for doc in wire_workload(rounds, tenant=f"smoke-{idx}"):
                    reply = client.request(doc)
                    _check(
                        reply.get("request_id") == doc["request_id"],
                        f"request_id did not round-trip: sent "
                        f"{doc['request_id']!r}, got {reply.get('request_id')!r}",
                    )
                    with lock:
                        replies.append(reply)
        except BaseException as exc:  # noqa: BLE001 - reported below
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=one_client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300.0)
    _check(not any(t.is_alive() for t in threads), "client thread hung")
    _check(not errors, f"client transport errors: {errors[:3]}")


def _assert_all_typed(replies: Sequence[dict]) -> dict:
    """Every reply is rows or a typed error; returns outcome counts."""
    outcomes: dict = {"ok": 0, "degraded": 0}
    for reply in replies:
        if reply.get("ok"):
            outcomes["ok"] += 1
            if reply.get("degraded"):
                outcomes["degraded"] += 1
            continue
        err = reply.get("error") or {}
        code = err.get("code", "")
        _check(
            isinstance(code, str) and code.startswith("E_"),
            f"untyped error leaked: {reply}",
        )
        _check(
            code != "E_RUNTIME",
            f"raw exception crossed the service boundary: {reply}",
        )
        outcomes[code] = outcomes.get(code, 0) + 1
    return outcomes


def _assert_metrics_scrape(host: str, port: int, tenants: Sequence[str]) -> None:
    """The ``metrics`` op serves valid exposition with live per-tenant
    latency quantiles from the bucketed histograms."""
    with ServiceClient(host, port) as client:
        metrics = client.metrics()
    problems = validate_exposition(metrics["exposition"])
    _check(not problems, f"malformed exposition: {problems[:3]}")
    histograms = metrics["snapshot"].get("histograms", {})
    _check(
        "serve.latency_seconds" in histograms,
        f"no service latency histogram in scrape: {sorted(histograms)[:5]}",
    )
    for tenant in tenants:
        name = f"serve.tenant.{tenant}.latency_seconds"
        h = histograms.get(name)
        _check(h is not None, f"no per-tenant histogram {name!r}")
        _check(h["count"] > 0, f"{name}: empty histogram")
        for q in ("p50", "p95", "p99"):
            _check(
                isinstance(h["quantiles"].get(q), (int, float)),
                f"{name}: missing live quantile {q}",
            )
    print(
        f"smoke: metrics scrape ok ({len(histograms)} histograms)",
        file=sys.stderr,
    )


def _assert_event_log(events_path: str, replies: Sequence[dict]) -> None:
    """The event log is schema-valid and joins on every reply's id: one
    ``admit`` and exactly one terminal ``complete``/``reject`` per
    submission (the smoke reuses ids across its phases, so the counts
    scale with how often each id was sent)."""
    problems = validate_log(events_path)
    _check(not problems, f"invalid event log: {problems[:3]}")
    by_rid: dict = {}
    for doc in read_events(events_path):
        by_rid.setdefault(doc.get("request_id"), []).append(doc["event"])
    submissions: dict = {}
    for reply in replies:
        rid = reply.get("request_id")
        submissions[rid] = submissions.get(rid, 0) + 1
    for rid, n in submissions.items():
        kinds = by_rid.get(rid)
        _check(kinds is not None, f"no events for request {rid!r}")
        admits = kinds.count("admit")
        _check(
            admits == n,
            f"request {rid!r}: {admits} admit events for {n} submissions",
        )
        terminal = sum(1 for k in kinds if k in ("complete", "reject"))
        _check(
            terminal == n,
            f"request {rid!r}: {terminal} terminal events for {n} "
            f"submissions: {kinds}",
        )
    print(
        f"smoke: event log ok ({sum(len(v) for v in by_rid.values())} events, "
        f"{len(by_rid)} requests)",
        file=sys.stderr,
    )


def _assert_telemetry(telemetry_path: str) -> None:
    """The telemetry snapshot is schema-valid and every executed shape
    carries per-operator timings (the service runs instrumented builds)."""
    TELEMETRY.save()
    doc = read_json(telemetry_path, SNAPSHOT, "telemetry snapshot")
    shapes = doc["shapes"]
    _check(len(shapes) >= 22, f"expected >= 22 shapes, got {len(shapes)}")
    for shape, entry in shapes.items():
        _check(
            entry["executions"]["count"] > 0,
            f"shape {shape!r}: recorded but never executed",
        )
        _check(
            bool(entry["operators"]),
            f"shape {shape!r}: no per-operator timings",
        )
        for label, op in entry["operators"].items():
            _check(
                op["total_seconds"] >= 0.0 and op["count"] >= 0,
                f"shape {shape!r} operator {label!r}: bad timing {op}",
            )
    print(f"smoke: telemetry ok ({len(shapes)} shapes)", file=sys.stderr)


def _assert_sampling(
    host: str,
    port: int,
    service: QueryService,
    all_replies: Sequence[dict],
    error_replies: Sequence[dict],
    breaker_replies: Sequence[dict],
    profiles_path: Optional[str],
) -> None:
    """Tail-sampling invariants.

    The sampler must have kept a complete profile for *every* errored or
    breaker-affected request (those keeps are deterministic, never
    quantile-dependent) and for the bulk of the run's slowest decile;
    every exemplar request id attached to a ``serve.*`` latency
    histogram must resolve to a stored profile; and the armed SLO
    monitor must be exporting live burn-rate gauges without firing on a
    healthy run.
    """
    _check(service.sampler is not None, "smoke expects tail sampling enabled")
    with ServiceClient(host, port) as client:
        snap = client.profiles()
        metrics = client.metrics()
    problems = validate_profiles(snap)
    _check(not problems, f"invalid profiles snapshot: {problems[:3]}")
    profiles = {p["request_id"]: p for p in snap["profiles"]}

    # Deterministic keeps: errors and breaker-phase requests.
    for reply in list(error_replies) + list(breaker_replies):
        rid = reply.get("request_id")
        prof = profiles.get(rid)
        _check(prof is not None, f"no sampled profile for request {rid!r}")
        if not reply.get("ok"):
            _check(
                str(prof.get("outcome", "")).startswith("E_"),
                f"profile for failed request {rid!r} reports "
                f"outcome {prof.get('outcome')!r}",
            )
    # Breaker-phase profiles are *complete*: trace spans for attribution.
    for reply in breaker_replies:
        prof = profiles[reply["request_id"]]
        _check(
            bool((prof.get("trace") or {}).get("children")),
            f"breaker profile {reply['request_id']!r} has no trace spans",
        )

    # Slow-decile coverage over the whole run, by the service's own
    # elapsed_ms.  The threshold adapts to the live stream, so a few
    # misses right at the moving cut line are tolerated -- but the bulk
    # of the final top decile must be stored.
    timed = sorted(
        (r["elapsed_ms"], r.get("request_id"))
        for r in all_replies
        if r.get("ok") and isinstance(r.get("elapsed_ms"), (int, float))
    )
    _check(len(timed) >= 20, f"too few timed replies to check: {len(timed)}")
    cut = percentile([t for t, _ in timed], 0.9)
    top = [rid for t, rid in timed if t >= cut]
    covered = sum(1 for rid in top if rid in profiles)
    _check(
        covered >= 0.7 * len(top),
        f"slow decile under-sampled: {covered}/{len(top)} profiles stored "
        f"(cut={cut:.1f}ms, sampler threshold="
        f"{snap['threshold_seconds'] * 1e3:.1f}ms)",
    )
    stats = service.sampler.stats()
    _check(
        stats["kept"] * 10 >= stats["offered"],
        f"sampler kept less than a decile of traffic: {stats}",
    )

    # Exemplars: every request id attached to a latency bucket must
    # resolve to a stored profile (no dangling diagnostics pointers).
    exemplar_ids: List[str] = []
    for name, h in metrics["snapshot"].get("histograms", {}).items():
        if not name.startswith("serve."):
            continue
        for bucket_exemplars in (h.get("exemplars") or {}).values():
            exemplar_ids.extend(e["id"] for e in bucket_exemplars)
    _check(bool(exemplar_ids), "no exemplars attached to any serve.* histogram")
    dangling = [rid for rid in exemplar_ids if rid not in profiles]
    _check(
        not dangling,
        f"exemplar ids with no stored profile: {dangling[:3]}",
    )

    # SLO monitor: armed, counting, gauges exported, and its alert
    # bookkeeping consistent.  The smoke's deliberate failures (hostile
    # bindings, the bad-SQL probe) can legitimately push the short-window
    # burn over threshold, so we do not demand "no alert" -- we demand
    # that the latched state, the burn level, and the slo.alerts counter
    # all tell the same story.
    gauges = metrics["snapshot"].get("gauges", {})
    _check("slo.burn.service" in gauges, "slo.burn.service gauge missing")
    _check(
        "serve.inflight" in gauges and "serve.inflight.limit" in gauges,
        "serve.inflight gauges missing from the scrape",
    )
    service_stats = service.stats()
    slo = service_stats.get("slo") or {}
    svc_window = slo.get("service") or {}
    _check(
        svc_window.get("good", 0) + svc_window.get("bad", 0) > 0,
        f"SLO monitor recorded nothing: {slo}",
    )
    alerts = REGISTRY.get_counter("slo.alerts")
    if svc_window.get("alerting", False):
        _check(alerts > 0, "SLO alert latched without a slo.alerts increment")
        _check(
            svc_window.get("burn_short", 0.0)
            >= service.slo.config.burn_threshold,
            f"SLO alert latched below the burn threshold: {svc_window}",
        )

    if profiles_path is not None:
        service.sampler.save(profiles_path)
    print(
        f"smoke: sampling ok ({len(profiles)} profiles, "
        f"{len(exemplar_ids)} exemplars, slow-decile {covered}/{len(top)}, "
        f"threshold={snap['threshold_seconds'] * 1e3:.1f}ms)",
        file=sys.stderr,
    )


def _param_phase(
    host: str, port: int, service: QueryService, args: argparse.Namespace
) -> tuple:
    """Parameterized serving invariants; returns ``(joinable_replies,
    hostile_replies)`` -- the hostile ones fail before admission, so
    they never reach the event log, but the tail sampler must still
    hold a profile for each.

    Drives the literal-varying workload (same shapes, different literal
    text every round) and asserts the shape-keyed cache absorbed it: at
    most one compile per statement shape, a hit-rate floor of
    ``(rounds - 1) / rounds``, tracked by the ``session.cache.shape_*``
    counters.  Then exercises the wire ``prepare``/``execute`` ops across
    two tenants (one compiled shape serves both) and checks that hostile
    bindings come back as typed ``E_PARAM`` errors, never tracebacks.
    """
    from repro.serve.workload import parameterized_workload

    session = service.session
    rounds = max(3, args.rounds)
    before = session.cache_info()
    replies: List[dict] = []
    with ServiceClient(host, port) as client:
        for req in parameterized_workload(rounds, tenant="smoke-params"):
            doc: dict = {
                "tenant": req.tenant,
                "id": req.id,
                "request_id": req.request_id,
            }
            if req.sql is not None:
                doc["sql"] = req.sql
                if req.params is not None:
                    doc["params"] = req.params
            else:
                doc["tpch"] = req.tpch
            reply = client.request(doc)
            _check(
                reply.get("ok", False), f"parameterized request failed: {reply}"
            )
            replies.append(reply)
    after = session.cache_info()
    misses = after["shape_misses"] - before["shape_misses"]
    hits = after["shape_hits"] - before["shape_hits"]
    _check(
        misses <= 14,
        f"literal variants fragmented the shape cache: {misses} shape compiles",
    )
    _check(hits + misses > 0, "no requests went through the shape-keyed cache")
    hit_rate = hits / (hits + misses)
    floor = (rounds - 1) / rounds  # cold cache: one compile per shape
    _check(
        hit_rate >= floor,
        f"shape cache hit rate {hit_rate:.2f} below floor {floor:.2f} "
        f"(shape_hits={hits}, shape_misses={misses})",
    )
    _check(
        REGISTRY.get_counter("session.cache.shape_hits") > 0,
        "session.cache.shape_hits counter never advanced",
    )

    # Wire-level prepare/execute: one prepare, three executions from two
    # tenants, no shape compile among them (prepare built the entry the
    # executions look up).
    sql_p = "select count(*) from lineitem where l_quantity > ? and l_discount < ?"
    with ServiceClient(host, port) as client:
        prep = client.prepare(sql_p)
        _check(prep.get("ok", False), f"prepare failed: {prep}")
        _check(
            [s["type"] for s in prep.get("signature", [])] == ["float", "float"],
            f"prepare returned a wrong signature: {prep.get('signature')}",
        )
        mid = session.cache_info()
        bindings = (("smoke-pa", 10.0), ("smoke-pb", 20.0), ("smoke-pa", 30.0))
        for i, (tenant, qty) in enumerate(bindings):
            reply = client.execute(
                sql_p,
                [qty, 0.07],
                tenant=tenant,
                request_id=f"smoke-exec-{i}",
            )
            _check(reply.get("ok", False), f"execute failed: {reply}")
            replies.append(reply)
    after = session.cache_info()
    _check(
        after["shape_misses"] == mid["shape_misses"],
        "executions across tenants recompiled the prepared shape",
    )
    _check(
        after["shape_hits"] - mid["shape_hits"] >= 2,
        "cross-tenant executions did not share the compiled shape",
    )

    # Hostile bindings: every failure is a typed E_PARAM document.
    hostile = [
        ("wrong arity", {"op": "execute", "sql": sql_p, "params": [10.0]}),
        ("wrong type", {"op": "execute", "sql": sql_p, "params": [10.0, "x"]}),
        (
            "param as table name",
            {"sql": "select count(*) from ? where l_quantity > 1.0",
             "params": ["lineitem"]},
        ),
        (
            "mixed styles",
            {"sql": "select count(*) from lineitem where l_quantity > ? "
                    "and l_discount < :d",
             "params": [10.0]},
        ),
    ]
    hostile_replies: List[dict] = []
    with ServiceClient(host, port) as client:
        for label, doc in hostile:
            reply = client.request(doc)
            code = (reply.get("error") or {}).get("code")
            _check(
                not reply.get("ok") and code == "E_PARAM",
                f"hostile binding ({label}) did not fail typed: {reply}",
            )
            hostile_replies.append(reply)
        reply = client.request({"sql": sql_p, "params": "10.0,0.07"})
        _check(
            (reply.get("error") or {}).get("code") == "E_PROTOCOL",
            f"non-structured params were not rejected at the protocol: {reply}",
        )
        hostile_replies.append(reply)
    print(
        f"smoke: parameterized ok (shape_hits={hits}, shape_misses={misses}, "
        f"hit_rate={hit_rate:.2f})",
        file=sys.stderr,
    )
    return replies, hostile_replies


def cmd_smoke(args: argparse.Namespace) -> int:
    from repro.resilience.faults import FaultInjector, FaultSpec

    t0 = time.monotonic()
    log, events_path, telemetry_path, profiles_path = _setup_observability(args)
    service = build_service(args)
    server = QueryServer(service, host=args.host, port=args.port).start()
    host, port = server.address
    print(f"smoke: service on {host}:{port} scale={args.scale}", file=sys.stderr)
    try:
        # Phase 1: clean concurrent workload over real sockets.
        replies: List[dict] = []
        _drive_clients(host, port, args.clients, args.rounds, replies)
        expected = args.clients * args.rounds * 22
        _check(len(replies) == expected, f"lost replies: {len(replies)}/{expected}")
        outcomes = _assert_all_typed(replies)
        _check(outcomes["ok"] == expected, f"clean run had failures: {outcomes}")
        print(f"smoke: baseline {outcomes}", file=sys.stderr)
        all_replies = list(replies)

        # A failing request must still echo its id on the error payload.
        with ServiceClient(host, port) as client:
            bad = client.request(
                {"sql": "SELECT FROM", "request_id": "smoke-bad-request"}
            )
        _check(not bad.get("ok"), f"malformed SQL unexpectedly succeeded: {bad}")
        _check(
            bad.get("request_id") == "smoke-bad-request"
            and (bad.get("error") or {}).get("request_id") == "smoke-bad-request",
            f"error reply lost its request_id: {bad}",
        )
        all_replies.append(bad)
        error_replies: List[dict] = [bad]

        # A client-minted traceparent must come back as the reply's
        # trace_id (and land on the trace / event log / profile).
        tp = make_traceparent()
        with ServiceClient(host, port) as client:
            traced = client.request(
                {"tpch": 6, "traceparent": tp, "request_id": "smoke-traceparent"}
            )
        _check(traced.get("ok", False), f"traceparent request failed: {traced}")
        _check(
            traced.get("trace_id") == tp.split("-")[1],
            f"traceparent {tp!r} did not round-trip as trace_id: "
            f"{traced.get('trace_id')!r}",
        )
        all_replies.append(traced)

        # Phase 2: parameterized serving -- literal-varying workload,
        # wire prepare/execute, hostile bindings.
        param_replies, hostile_replies = _param_phase(host, port, service, args)
        all_replies.extend(param_replies)
        error_replies.extend(hostile_replies)

        breaker_replies: List[dict] = []
        if args.faults:
            breaker_replies = shape_probe(host, port, service, args)
            all_replies.extend(breaker_replies)
            # Sustained mixed workload with compile faults firing.  The
            # compiled-query cache is cleared first: cached shapes never
            # recompile, and a fault site nothing visits proves nothing.
            service.session.clear_cache()
            every = 3
            with FaultInjector(
                FaultSpec("codegen", at=frozenset(range(0, 4096, every)), times=None),
                FaultSpec(
                    "host-compile", at=frozenset(range(1, 4096, every)), times=None
                ),
            ):
                faulted: List[dict] = []
                _drive_clients(host, port, args.clients, args.rounds, faulted)
            outcomes = _assert_all_typed(faulted)
            _check(
                outcomes["ok"] == len(faulted),
                f"faulted run surfaced failures instead of degrading: {outcomes}",
            )
            _check(
                outcomes["degraded"] > 0,
                "fault injection fired but nothing degraded",
            )
            print(f"smoke: faulted {outcomes}", file=sys.stderr)
            all_replies.extend(faulted)

        # Observability invariants: live scrape, joinable event log,
        # per-shape telemetry.
        _assert_metrics_scrape(
            host, port, [f"smoke-{i}" for i in range(args.clients)]
        )
        if log is not None:
            _assert_event_log(events_path, all_replies)
        if telemetry_path is not None:
            _assert_telemetry(telemetry_path)
        _assert_sampling(
            host,
            port,
            service,
            all_replies,
            error_replies,
            breaker_replies,
            profiles_path,
        )

        # Clean shutdown through the wire.
        with ServiceClient(host, port) as client:
            _check(client.ping(), "ping failed")
            _check(client.shutdown(), "shutdown op not acknowledged")
        deadline = time.monotonic() + 10.0
        while not server._shutdown_started.is_set():
            _check(time.monotonic() < deadline, "server did not begin shutdown")
            time.sleep(0.05)
        server.close()  # idempotent; waits for the accept thread
        print(
            f"smoke: ok in {time.monotonic() - t0:.1f}s "
            f"(faults={'on' if args.faults else 'off'})",
            file=sys.stderr,
        )
        return 0
    except (_SmokeFailure, ArtifactError) as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        server.close()
        obs_events.install(None)
        if log is not None:
            log.close()
        TELEMETRY.disable()


def shape_probe(
    host: str, port: int, service: QueryService, args: argparse.Namespace
) -> List[dict]:
    """Open the breaker on one shape under sustained compile faults, then
    watch it recover through a half-open probe; returns the replies so
    the sampler assertions can demand a profile for each."""
    from repro.resilience.faults import FaultInjector, FaultSpec
    from repro.serve.service import ServiceRequest
    from repro.tpch.sql_queries import SQL_QUERIES

    sql = SQL_QUERIES[6]
    # The breaker keys on the request's shape -- canonical text with
    # literals lifted -- which must match what the session cache keys on.
    shape = ServiceRequest(sql=sql).shape()
    service.session.clear_cache()  # force every request through the compiler
    opened_before = REGISTRY.get_counter("serve.breaker.opened")
    replies: List[dict] = []
    with FaultInjector(FaultSpec("codegen", at=None, times=None)):
        with ServiceClient(host, port) as client:
            for _ in range(args.breaker_threshold + 2):
                reply = client.sql(sql, tenant="breaker-smoke")
                _check(reply.get("ok", False), f"degradation failed: {reply}")
                replies.append(reply)
    _check(
        service.breaker.state(shape) == "open",
        f"breaker did not open (state={service.breaker.state(shape)})",
    )
    _check(
        REGISTRY.get_counter("serve.breaker.opened") > opened_before,
        "serve.breaker.opened did not advance",
    )
    time.sleep(args.breaker_cooldown * 1.1)  # let the cooldown lapse
    with ServiceClient(host, port) as client:
        reply = client.sql(sql, tenant="breaker-smoke")
        _check(reply.get("ok", False), f"probe request failed: {reply}")
        replies.append(reply)
    _check(
        service.breaker.state(shape) == "closed",
        f"breaker did not recover (state={service.breaker.state(shape)})",
    )
    print("smoke: breaker opened and recovered", file=sys.stderr)
    return replies


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument("--scale", type=float, default=0.005)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--deadline", type=float, default=10.0,
                        help="default per-request deadline (seconds)")
    parser.add_argument("--rate", type=float, default=None,
                        help="global rate limit (requests/second)")
    parser.add_argument("--max-rows", type=int, default=None,
                        help="default per-request scanned-row budget")
    parser.add_argument("--cache-size", type=int, default=256)
    parser.add_argument("--breaker-threshold", type=int, default=3)
    parser.add_argument("--breaker-cooldown", type=float, default=0.3)
    parser.add_argument("--trace", action="store_true",
                        help="attach a per-request trace to every response")
    parser.add_argument("--events", default=None, metavar="PATH",
                        help="write the structured JSONL event log to PATH "
                             "(smoke mode defaults to a temp dir)")
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="enable the workload-telemetry store and "
                             "snapshot it to PATH on shutdown "
                             "(smoke mode defaults to a temp dir)")
    parser.add_argument("--sampling", action="store_true",
                        help="enable tail-based profile sampling (always on "
                             "in smoke mode)")
    parser.add_argument("--profiles", default=None, metavar="PATH",
                        help="write the repro-profiles/v1 snapshot to PATH "
                             "on shutdown (implies --sampling; smoke mode "
                             "defaults to a temp dir)")
    parser.add_argument("--sampler-capacity", type=int, default=1024,
                        help="bounded profile store size for the tail sampler")
    parser.add_argument("--slo-latency", type=float, default=None,
                        metavar="SECONDS",
                        help="arm the SLO monitor with this latency "
                             "threshold (smoke mode arms a generous 30s)")
    parser.add_argument("--slo-objective", type=float, default=0.99,
                        help="SLO success objective (fraction of good "
                             "requests, default 0.99)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the self-contained CI smoke and exit")
    parser.add_argument("--faults", action="store_true",
                        help="smoke: also run with compile-site fault injection")
    parser.add_argument("--clients", type=int, default=4,
                        help="smoke: concurrent client connections")
    parser.add_argument("--rounds", type=int, default=2,
                        help="smoke: workload rounds per client")
    args = parser.parse_args(argv)
    if args.smoke:
        return cmd_smoke(args)
    return cmd_serve(args)


if __name__ == "__main__":
    sys.exit(main())
