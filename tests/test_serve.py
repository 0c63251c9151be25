"""Serving-tier tests: admission, breaker, deadlines, wire protocol, the
concurrency hammer against one shared Session, and one end-to-end run of
the ``repro-serve`` entry point.

The hammer (satellite of the serve PR) is the load-bearing test: N client
threads drive all 22 TPC-H queries through one :class:`QueryService` and
we assert (a) every answer equals the single-threaded golden, (b) each
distinct cache key was compiled exactly once (single-flight), and (c) the
session's cache counters account for every prepare call with no drift.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.errors import (
    CircuitOpenError,
    InjectedFault,
    RateLimitError,
    ServiceOverloadError,
)
from repro.obs.metrics import REGISTRY
from repro.resilience import BudgetGuard, ResilientExecutor
from repro.resilience.faults import FaultInjector, FaultSpec, fault_point
from repro.serve import (
    CircuitBreaker,
    QueryServer,
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceRequest,
    TenantQuota,
    TokenBucket,
    mixed_workload,
)
from repro.serve.admission import AdmissionGate, TenantRegistry, TenantState
from repro.session import Session
from repro.tpch import query_plan
from repro.tpch.sql_queries import SQL_QUERIES
from tests.conftest import TINY_SCALE, normalize


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- admission primitives -----------------------------------------------------


def test_token_bucket_spends_burst_then_refills():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
    assert [bucket.try_acquire() for _ in range(3)] == [True, True, True]
    assert not bucket.try_acquire()  # burst exhausted, no time has passed
    clock.advance(0.5)  # refills one token at 2/s
    assert bucket.try_acquire()
    assert not bucket.try_acquire()
    clock.advance(10.0)  # refill is capped at burst
    assert bucket.tokens == pytest.approx(3.0)


def test_admission_gate_sheds_at_limit():
    gate = AdmissionGate(2)
    gate.enter()
    gate.enter()
    with pytest.raises(ServiceOverloadError) as excinfo:
        gate.enter()
    assert excinfo.value.code == "E_ADMIT"
    assert excinfo.value.depth == 2
    gate.leave()
    gate.enter()  # a freed slot is reusable
    assert gate.depth == 2


def test_tenant_concurrency_and_rate_quotas():
    state = TenantState("t", TenantQuota(max_concurrent=1))
    state.admit("t")
    with pytest.raises(ServiceOverloadError):
        state.admit("t")
    state.release()
    state.admit("t")  # slot came back

    limited = TenantState("slow", TenantQuota(rate=0.001, burst=1))
    limited.admit("slow")  # spends the single burst token
    with pytest.raises(RateLimitError) as excinfo:
        limited.admit("slow")
    assert excinfo.value.code == "E_RATELIMIT"
    assert excinfo.value.tenant == "slow"


def test_tenant_buckets_refill_by_the_registry_clock():
    """A stepped clock, not a rate too slow to refill: one token a second,
    burst 1, for a configured tenant and for the default quota."""
    clock = FakeClock()
    quota = TenantQuota(rate=1.0, burst=1)
    registry = TenantRegistry({"paid": quota}, default=quota, clock=clock)
    for tenant in ("paid", "walk-in"):
        state = registry.state(tenant, tenant)
        state.admit(tenant)  # the burst token
        state.release()
        clock.advance(0.5)  # half a token back: still over the rate
        with pytest.raises(RateLimitError) as excinfo:
            state.admit(tenant)
        assert excinfo.value.code == "E_RATELIMIT"
        clock.advance(0.5)  # a whole token
        state.admit(tenant)
        state.release()


# -- circuit breaker ----------------------------------------------------------


def test_breaker_opens_probes_and_recovers():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=3, cooldown_seconds=5.0, clock=clock)
    shape = "sql:select 1"
    assert breaker.decide(shape) == "closed"
    for _ in range(2):
        breaker.on_compile_failure(shape)
    assert breaker.state(shape) == "closed"  # below threshold
    assert breaker.on_compile_failure(shape)  # third consecutive: opens
    assert breaker.state(shape) == "open"
    assert breaker.decide(shape) == "open"  # cooldown not yet lapsed
    clock.advance(5.0)
    assert breaker.decide(shape) == "probe"  # half-open: one probe slot
    assert breaker.decide(shape) == "open"  # ...and only one
    breaker.on_success(shape)
    assert breaker.state(shape) == "closed"
    assert breaker.decide(shape) == "closed"


def test_breaker_failed_probe_reopens_and_abort_returns_slot():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=1, cooldown_seconds=5.0, clock=clock)
    breaker.on_compile_failure("s")
    clock.advance(5.0)
    assert breaker.decide("s") == "probe"
    breaker.on_compile_failure("s")  # probe failed
    assert breaker.state("s") == "open"
    assert breaker.decide("s") == "open"  # fresh cooldown
    clock.advance(5.0)
    assert breaker.decide("s") == "probe"
    breaker.abort_probe("s")  # probe never reached the compiler
    assert breaker.decide("s") == "probe"  # slot is available again


def test_consecutive_means_consecutive():
    breaker = CircuitBreaker(threshold=3, cooldown_seconds=5.0)
    breaker.on_compile_failure("s")
    breaker.on_compile_failure("s")
    breaker.on_success("s")  # resets the run
    breaker.on_compile_failure("s")
    breaker.on_compile_failure("s")
    assert breaker.state("s") == "closed"


# -- fault injector under races (satellite: deterministic trigger counting) ---


def test_fault_injector_exactly_once_under_racing_threads():
    injector = FaultInjector(FaultSpec("codegen", at=None, times=5))
    threads, fired, clean = 8, [], []
    lock = threading.Lock()
    start = threading.Barrier(threads)
    before = REGISTRY.get_counter("faults.injected")

    def hammer() -> None:
        start.wait()
        for _ in range(25):
            try:
                with_fault = injector.hit("codegen", key=None)
            except Exception:  # pragma: no cover - hit() must not raise
                raise
            with lock:
                (fired if with_fault is not None else clean).append(1)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    # A times=5 spec fires exactly five times no matter the interleaving.
    assert len(fired) == 5
    assert len(clean) == threads * 25 - 5
    assert REGISTRY.get_counter("faults.injected") == before + 5
    # Every arrival drew a distinct ordinal.
    assert injector.counters[("codegen", None)] == threads * 25
    assert sorted(o for _, o in injector.fired) == list(range(5))


# -- the service over a real database ----------------------------------------


@pytest.fixture(scope="module")
def serve_session(tpch_db):
    return Session(tpch_db, max_cache_size=256)


@pytest.fixture(scope="module")
def service(serve_session):
    config = ServiceConfig(
        workers=4,
        max_queue_depth=64,
        default_deadline_seconds=60.0,
        breaker_threshold=3,
        breaker_cooldown_seconds=0.2,
        tenants={
            "capped": TenantQuota(max_rows=10),
            "hurried": TenantQuota(max_deadline_seconds=0.001),
        },
        query_scale=TINY_SCALE,
    )
    with QueryService(serve_session, config) as svc:
        yield svc


def test_a_database_is_refused_at_construction(tpch_db):
    """A service over a bare ``Database`` would fail every request with an
    untyped error; it is refused before any worker starts."""
    with pytest.raises(TypeError, match=r"Session\(db\)"):
        QueryService(tpch_db, ServiceConfig(workers=1, query_scale=TINY_SCALE))


def test_simple_sql_roundtrip(service, serve_session):
    response = service.submit(ServiceRequest(sql=SQL_QUERIES[6], id="q6"))
    assert response.ok and response.id == "q6"
    assert response.engine == "compiled" and not response.degraded
    assert normalize(response.rows) == normalize(serve_session.query(SQL_QUERIES[6]))


def test_protocol_violations_are_typed(service):
    both = service.submit(ServiceRequest(sql="select 1", tpch=1))
    neither = service.submit(ServiceRequest())
    bad_engine = service.submit(ServiceRequest(tpch=1, engine="gpu"))
    bad_number = service.submit(ServiceRequest(tpch=99))
    # Bindings travel as a list or an object, and only with SQL.
    string_params = service.submit(
        ServiceRequest(sql=SQL_QUERIES[6], params="10.0,0.07")
    )
    plan_params = service.submit(ServiceRequest(tpch=6, params=[1]))
    for response in (
        both, neither, bad_engine, bad_number, string_params, plan_params
    ):
        assert not response.ok
        assert response.code == "E_PROTOCOL"


def test_bad_sql_is_typed_not_raw(service):
    response = service.submit(ServiceRequest(sql="selekt frobnicate"))
    assert not response.ok
    assert response.code.startswith("E_")
    assert response.code != "E_RUNTIME"


def test_deadline_maps_to_e_deadline(service):
    response = service.submit(
        ServiceRequest(sql=SQL_QUERIES[1], deadline_seconds=0.002)
    )
    assert not response.ok
    assert response.code == "E_DEADLINE"


def test_deadline_trips_inside_a_vectorized_scan(tpch_db, monkeypatch):
    """The served program is the vector lowering, and a deadline passing
    mid-scan trips at the next batch checkpoint as ``E_DEADLINE``."""
    from repro.compiler import runtime, vec

    if not runtime.have_numpy():
        pytest.skip("without NumPy a default session serves scalar code")
    # 8 192-row batches split this scale's lineitem (12 005 rows) in two.
    # The batch size is not part of the cache key, so the program is
    # compiled by a fresh session rather than the module's shared one.
    monkeypatch.setattr(vec, "BATCH_ROWS", 8192)
    sql = SQL_QUERIES[6]  # lineitem: two batches
    config = ServiceConfig(workers=1, query_scale=TINY_SCALE)
    with QueryService(Session(tpch_db), config) as service:
        assert service.submit(ServiceRequest(sql=sql)).ok  # warm the shape
        kernel = runtime.v_mask_index
        calls = []

        def slow_mask_index(mask):
            calls.append(len(mask))
            time.sleep(0.2)
            return kernel(mask)

        monkeypatch.setattr(runtime, "v_mask_index", slow_mask_index)
        response = service.submit(ServiceRequest(sql=sql, deadline_seconds=0.1))
    assert not response.ok and response.code == "E_DEADLINE"
    assert response.error["message"].startswith("wall-clock budget exceeded")
    assert response.error["engine_trail"] == ["compiled"]
    assert len(calls) == 1  # the first batch ran; the second never started


def test_serving_without_numpy_stays_scalar(monkeypatch):
    """The no-NumPy leg: a default session keeps the scalar lowering, and
    serving it raises no RuntimeWarning about slow vector kernels."""
    import warnings

    from repro.compiler import runtime
    from repro.storage import buffer
    from tests.conftest import make_tiny_db

    monkeypatch.setattr(runtime, "_np", None)
    monkeypatch.setattr(buffer, "_np", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        session = Session(make_tiny_db())
        assert session.config is None
        with QueryService(session, ServiceConfig(workers=1)) as svc:
            response = svc.submit(
                ServiceRequest(sql="select count(*) from Emp where eid < 4")
            )
    assert response.ok and response.rows == [(3,)]


def step_budget_clock(monkeypatch, step: float = 0.01) -> None:
    """Every budget guard's clock moves ``step`` seconds per reading, so a
    deadline shorter than ``step`` is crossed at the first checkpoint --
    however fast the query runs."""
    now = [0.0]

    def clock() -> float:
        now[0] += step
        return now[0]

    monkeypatch.setattr(BudgetGuard, "clock", staticmethod(clock))


def test_tenant_deadline_cap_clamps_requests(service, monkeypatch):
    # The "hurried" tenant's max_deadline_seconds overrides the generous ask.
    step_budget_clock(monkeypatch)
    response = service.submit(
        ServiceRequest(sql=SQL_QUERIES[1], tenant="hurried", deadline_seconds=60.0)
    )
    assert not response.ok and response.code == "E_DEADLINE"


def test_unlexable_sql_is_a_typed_reply(service):
    response = service.submit(
        ServiceRequest(sql="select count(*) from nation where n_nationkey < ²")
    )
    assert not response.ok and response.code == "E_SQL_LEX"


def test_tenant_row_quota_stays_e_budget(service):
    response = service.submit(ServiceRequest(sql=SQL_QUERIES[1], tenant="capped"))
    assert not response.ok
    assert response.code == "E_BUDGET"  # operator-set quota, not a deadline


def test_full_gate_sheds_with_e_admit(service):
    limit = service._gate.limit
    for _ in range(limit - service._gate.depth):
        service._gate.enter()
    try:
        response = service.submit(ServiceRequest(tpch=1))
        assert not response.ok and response.code == "E_ADMIT"
    finally:
        while service._gate.depth:
            service._gate.leave()


def test_breaker_opens_degrades_and_recovers(service, serve_session, monkeypatch):
    # The breaker reads time through its clock; step it by hand so a slow
    # moment cannot end the cooldown before the bypass below.
    now = [0.0]
    monkeypatch.setattr(service.breaker, "_clock", lambda: now[0])
    sql = SQL_QUERIES[14]
    # Breaker keys are statement *shapes* (literals lifted), so every
    # literal variant of this query shares the same circuit.
    shape = ServiceRequest(sql=sql).shape()
    golden = normalize(
        ResilientExecutor(serve_session, engines=("volcano",)).query(sql).rows
    )
    serve_session.clear_cache()  # force every request through the compiler
    opened = REGISTRY.get_counter("serve.breaker.opened")
    with FaultInjector(FaultSpec("codegen", at=None, times=None)):
        for _ in range(service.config.breaker_threshold + 1):
            response = service.submit(ServiceRequest(sql=sql))
            # Affected requests degrade to the interpreters, answers intact.
            assert response.ok and response.degraded
            assert normalize(response.rows) == golden
    assert service.breaker.state(shape) == "open"
    assert REGISTRY.get_counter("serve.breaker.opened") == opened + 1

    # While open, a request that pins a compiled engine is rejected typed...
    pinned = service.submit(ServiceRequest(sql=sql, engine="compiled"))
    assert not pinned.ok and pinned.code == "E_BREAKER"
    # ...and an unpinned one bypasses the compiler entirely (no probe yet).
    bypassed = service.submit(ServiceRequest(sql=sql))
    assert bypassed.ok and bypassed.degraded
    assert bypassed.engine in ("push", "volcano")

    now[0] += service.config.breaker_cooldown_seconds * 1.5
    probe = service.submit(ServiceRequest(sql=sql))  # half-open probe compiles
    assert probe.ok and probe.engine == "compiled"
    assert service.breaker.state(shape) == "closed"


def test_circuit_open_error_carries_shape():
    exc = CircuitOpenError("open", shape="sql:select 1")
    assert exc.code == "E_BREAKER" and exc.shape == "sql:select 1"


def test_stats_surface(service):
    service.submit(ServiceRequest(tpch=1))
    stats = service.stats()
    assert stats["queue_depth"] == 0
    assert stats["workers"] == service.config.workers
    assert "breakers" in stats and "tenants" in stats
    assert stats["cache"]["size"] >= 1
    assert stats["counters"].get("serve.requests", 0) >= 1


# -- the concurrency hammer (satellite: one Session, N threads, goldens) ------


def test_hammer_shared_session_matches_goldens(tpch_db):
    clients, rounds = 6, 2
    goldens = {
        q: normalize(
            ResilientExecutor(Session(tpch_db), engines=("volcano",))
            .execute_plan(query_plan(q, scale=TINY_SCALE))
            .rows
        )
        for q in range(1, 23)
    }

    session = Session(tpch_db, max_cache_size=256)
    config = ServiceConfig(
        workers=4,
        max_queue_depth=clients * rounds * 22,
        default_deadline_seconds=120.0,
        query_scale=TINY_SCALE,
    )
    compiles_before = REGISTRY.get_counter("compile.count")
    responses, errors = [], []
    lock = threading.Lock()
    start = threading.Barrier(clients)

    def one_client(idx: int) -> None:
        try:
            start.wait()
            for request in mixed_workload(rounds, tenant=f"hammer-{idx}"):
                response = service.submit(request)
                with lock:
                    responses.append((request, response))
        except BaseException as exc:  # pragma: no cover - reported below
            with lock:
                errors.append(exc)

    with QueryService(session, config) as service:
        threads = [
            threading.Thread(target=one_client, args=(i,), daemon=True)
            for i in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
        assert not any(t.is_alive() for t in threads), "hammer thread hung"
    assert not errors, errors[:3]
    assert len(responses) == clients * rounds * 22

    # (a) Every concurrent answer equals the single-threaded golden.
    for request, response in responses:
        assert response.ok, (request.id, response.error)
        assert not response.degraded
        number = request.tpch or int(request.id.split("-q")[1])
        assert normalize(response.rows) == goldens[number], request.id

    # (b) Single-flight: each distinct cache key compiled exactly once.
    info = session.cache_info()
    compiled = REGISTRY.get_counter("compile.count") - compiles_before
    assert info["misses"] == len(info["statements"]) == compiled == 22

    # (c) No counter drift: every prepare call is a hit, a miss, or a
    # single-flight wait -- nothing double-counted, nothing lost.
    total_prepares = clients * rounds * 22
    assert info["hits"] + info["misses"] + info["single_flight_waits"] == total_prepares
    assert info["evictions"] == 0


# -- the TCP front end --------------------------------------------------------


@pytest.fixture()
def server(service):
    with QueryServer(service, port=0, own_service=False) as srv:
        yield srv


def test_wire_roundtrip_ping_query_stats(server, serve_session):
    host, port = server.address
    with ServiceClient(host, port) as client:
        assert client.ping()
        reply = client.sql(SQL_QUERIES[6], id="wire-q6")
        assert reply["ok"] and reply["id"] == "wire-q6"
        golden = serve_session.query(SQL_QUERIES[6])
        assert normalize([tuple(r) for r in reply["rows"]]) == normalize(golden)
        stats = client.stats()
        assert stats["counters"]["serve.requests"] >= 1


def test_wire_malformed_lines_get_e_protocol(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=10.0) as sock:
        rfile = sock.makefile("rb")
        for payload in (b"this is not json\n", b"[1, 2, 3]\n", b'{"op": "dance"}\n'):
            sock.sendall(payload)
            reply = json.loads(rfile.readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == "E_PROTOCOL"
        # The connection survives protocol errors.
        sock.sendall(b'{"op": "ping"}\n')
        assert json.loads(rfile.readline())["pong"] is True


def test_wire_error_replies_reconstruct(server):
    from repro.errors import ServiceProtocolError
    from repro.serve import raise_for_error

    host, port = server.address
    with ServiceClient(host, port) as client:
        reply = client.request({"sql": "x", "tpch": 1})
        with pytest.raises(ServiceProtocolError):
            raise_for_error(reply)


def test_wire_prepare_compiles_what_execute_runs(server):
    """The prepare op builds the very entry served executions look up (the
    budget-checked key), so executions from other tenants compile nothing."""
    sql = "select count(*) from lineitem where l_tax > ? and l_quantity < ?"
    host, port = server.address
    with ServiceClient(host, port) as client:
        prep = client.prepare(sql)
        assert prep["ok"], prep
        assert [s["type"] for s in prep["signature"]] == ["float", "float"]
        before = REGISTRY.get_counter("compile.count")
        for tenant, qty in (("default", 10.0), ("mixed", 30.0)):
            reply = client.execute(sql, [0.02, qty], tenant=tenant)
            assert reply["ok"] and reply["engine"] == "compiled", reply
    assert REGISTRY.get_counter("compile.count") - before == 0


def test_vector_is_a_lowering_not_an_engine(service, tiny_db):
    """Pinning the retired "vector" engine is a typed protocol error; the
    lowering itself is ``Config(codegen="vector")`` on the session."""
    reply = service.submit_dict({"tpch": 6, "engine": "vector"})
    assert not reply["ok"] and reply["error"]["code"] == "E_PROTOCOL"
    with pytest.raises(ValueError):
        ResilientExecutor(Session(tiny_db), engines=("vector",))
    with pytest.raises(ValueError):
        ServiceConfig(engines=("vector", "compiled"))


def test_wire_shutdown_is_clean(serve_session):
    config = ServiceConfig(workers=1, query_scale=TINY_SCALE)
    server = QueryServer(
        QueryService(serve_session, config), port=0, own_service=True
    ).start()
    host, port = server.address
    with ServiceClient(host, port) as client:
        assert client.shutdown()
    deadline = time.monotonic() + 10.0
    while not server._shutdown_started.is_set():
        assert time.monotonic() < deadline, "shutdown op did not stop the server"
        time.sleep(0.02)
    server.close()
    # The in-band shutdown closes the listening socket from its own thread;
    # poll until connects are refused.
    while time.monotonic() < deadline:
        try:
            socket.create_connection((host, port), timeout=0.2).close()
            time.sleep(0.05)
        except OSError:
            break
    else:
        pytest.fail("listening socket never closed")


# -- request correlation and telemetry ---------------------------------------


def test_request_id_minted_when_absent(service):
    response = service.submit(ServiceRequest(sql=SQL_QUERIES[6]))
    assert response.ok
    assert isinstance(response.request_id, str) and response.request_id


def test_request_id_echoed_and_stamped_on_errors(service):
    ok = service.submit(ServiceRequest(sql=SQL_QUERIES[6], request_id="mine-1"))
    assert ok.ok and ok.request_id == "mine-1"
    assert ok.to_dict()["request_id"] == "mine-1"
    bad = service.submit(ServiceRequest(sql="selekt nope", request_id="mine-2"))
    assert not bad.ok
    assert bad.request_id == "mine-2"
    assert bad.error["request_id"] == "mine-2"
    rejected = service.submit(ServiceRequest(request_id="mine-3"))
    assert rejected.code == "E_PROTOCOL"
    assert rejected.error["request_id"] == "mine-3"


def test_wire_request_id_round_trips(server):
    from repro.obs.sampler import make_traceparent

    host, port = server.address
    tp = make_traceparent()
    with ServiceClient(host, port) as client:
        reply = client.sql(SQL_QUERIES[6], request_id="wire-rid-1", traceparent=tp)
        assert reply["ok"] and reply["request_id"] == "wire-rid-1"
        assert reply["trace_id"] == tp.split("-")[1]
        bad = client.request({"sql": "selekt", "request_id": "wire-rid-2"})
        assert not bad["ok"]
        assert bad["request_id"] == "wire-rid-2"
        assert bad["error"]["request_id"] == "wire-rid-2"


def test_wire_metrics_op_serves_valid_exposition(server):
    from repro.obs.export import validate_exposition

    host, port = server.address
    with ServiceClient(host, port) as client:
        client.sql(SQL_QUERIES[6], tenant="metrics-test")
        metrics = client.metrics()
    assert validate_exposition(metrics["exposition"]) == []
    histograms = metrics["snapshot"]["histograms"]
    assert "serve.latency_seconds" in histograms
    tenant_hist = histograms["serve.tenant.metrics-test.latency_seconds"]
    assert tenant_hist["count"] >= 1
    assert set(tenant_hist["quantiles"]) == {"p50", "p90", "p95", "p99"}


def test_hostile_tenant_labels_are_sanitized_and_capped(serve_session):
    config = ServiceConfig(
        workers=1, query_scale=TINY_SCALE, max_tenant_labels=3
    )
    with QueryService(serve_session, config) as svc:
        for name in ("good-1", "good-2", "good-3"):
            svc.submit(ServiceRequest(tenant=name))  # E_PROTOCOL, still counted
        for i in range(10):
            svc.submit(ServiceRequest(tenant=f'evil{i} {{injection}}//"x" ' * 9))
    counters = REGISTRY.counters_with_prefix("serve.tenant.")
    # hostile names never reach the registry raw...
    assert not any(" " in name or "{" in name or '"' in name for name in counters)
    # ...and past the cap they share one overflow family
    assert REGISTRY.get_counter("serve.tenant.other.requests") == 10
    for name in ("good-1", "good-2", "good-3"):
        assert REGISTRY.get_counter(f"serve.tenant.{name}.requests") == 1
    # the label cap also bounds the per-tenant histogram families
    labels = {
        n.split(".")[2]
        for n in REGISTRY.snapshot()["histograms"]
        if n.startswith("serve.tenant.")
    }
    assert labels <= {"good-1", "good-2", "good-3", "other", "default",
                      "capped", "hurried", "metrics-test", "mixed",
                      "breaker-test"} | {f"hammer-{i}" for i in range(8)}

    # Hostile tenants on *valid* SQL get past validation into admission,
    # whose per-tenant counters (and the SLO scopes) must use the same
    # capped label.
    from repro.obs.slo import SLOConfig

    config = ServiceConfig(
        workers=1, query_scale=TINY_SCALE, max_tenant_labels=2, slo=SLOConfig()
    )
    admitted_other = REGISTRY.get_counter("serve.tenant.other.admitted")
    with QueryService(serve_session, config) as svc:
        for i in range(5):
            tenant = f'evil{i} {{x}}"'
            assert svc.submit(ServiceRequest(sql=SQL_QUERIES[6], tenant=tenant)).ok
        slo_tenants = set(svc.slo.snapshot()["tenants"])
    assert slo_tenants == {"evil0__x__", "evil1__x__", "other"}
    counters = REGISTRY.counters_with_prefix("serve.tenant.")
    assert not any(" " in name or "{" in name or '"' in name for name in counters)
    assert REGISTRY.get_counter("serve.tenant.evil0__x__.admitted") >= 1
    assert REGISTRY.get_counter("serve.tenant.other.admitted") == admitted_other + 3


def test_service_telemetry_captures_operator_times(serve_session, tmp_path):
    from repro.obs.telemetry import TELEMETRY

    config = ServiceConfig(workers=2, query_scale=TINY_SCALE, telemetry=True)
    TELEMETRY.reset()
    TELEMETRY.enable(str(tmp_path / "telemetry.json"))
    try:
        with QueryService(serve_session, config) as svc:
            sql_resp = svc.submit(ServiceRequest(sql=SQL_QUERIES[6]))
            plan_resp = svc.submit(ServiceRequest(tpch=2))
        assert sql_resp.ok and plan_resp.ok
        snapshot = TELEMETRY.snapshot()
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    shapes = snapshot["shapes"]
    assert len(shapes) == 2
    for shape, entry in shapes.items():
        assert entry["executions"]["count"] == 1
        assert entry["operators"], f"no operator times for {shape}"
        assert any(op["total_seconds"] > 0 for op in entry["operators"].values())
        assert any(op["rows_total"] > 0 for op in entry["operators"].values())
    # instrumented builds answered, and correctly
    assert sql_resp.engine == "compiled"
    golden = serve_session.query(SQL_QUERIES[6])
    assert normalize(sql_resp.rows) == normalize(golden)


def test_service_emits_joinable_events(serve_session, tmp_path):
    from repro.obs import events
    from repro.obs.events import EventLog, read_events, validate_log

    path = str(tmp_path / "events.jsonl")
    config = ServiceConfig(workers=2, query_scale=TINY_SCALE)
    log = EventLog(path)
    previous = events.install(log)
    try:
        with QueryService(serve_session, config) as svc:
            svc.session.clear_cache()  # force a compile event
            ok = svc.submit(ServiceRequest(sql=SQL_QUERIES[6], request_id="ev-ok"))
            bad = svc.submit(ServiceRequest(request_id="ev-bad"))
    finally:
        events.install(previous)
        log.close()
    assert ok.ok and not bad.ok
    assert validate_log(path) == []
    by_rid: dict = {}
    for doc in read_events(path):
        by_rid.setdefault(doc["request_id"], []).append(doc)
    ok_kinds = [d["event"] for d in by_rid["ev-ok"]]
    assert ok_kinds[0] == "admit" and ok_kinds[-1] == "request"
    assert "compile" in ok_kinds
    line = by_rid["ev-ok"][-1]
    assert line["outcome"] == "ok"
    assert line["engine"] == "compiled" and line["rows"] == len(ok.rows)
    assert "trace" not in line  # no sampler kept it
    bad_kinds = [d["event"] for d in by_rid["ev-bad"]]
    assert bad_kinds == ["request"]  # never admitted: protocol violation
    assert by_rid["ev-bad"][0]["outcome"] == "E_PROTOCOL"


def test_deadline_reject_writes_one_request_line(serve_session, tmp_path, monkeypatch):
    from repro.obs import events
    from repro.obs.events import EventLog, read_events

    step_budget_clock(monkeypatch)
    path = str(tmp_path / "events.jsonl")
    config = ServiceConfig(
        workers=1,
        query_scale=TINY_SCALE,
        tenants={"hurried": TenantQuota(max_deadline_seconds=0.001)},
    )
    log = EventLog(path)
    previous = events.install(log)
    try:
        with QueryService(serve_session, config) as svc:
            response = svc.submit(
                ServiceRequest(tpch=1, tenant="hurried", request_id="ev-slow")
            )
    finally:
        events.install(previous)
        log.close()
    assert response.code == "E_DEADLINE"
    docs = [d for d in read_events(path) if d["request_id"] == "ev-slow"]
    kinds = [d["event"] for d in docs]
    assert kinds.count("request") == 1 and kinds[-1] == "request"
    assert docs[-1]["outcome"] == "E_DEADLINE" and docs[-1]["phase"]


@pytest.mark.parametrize("event_log", [False, True])
def test_queued_seconds_excludes_front_door_work(
    serve_session, tmp_path, monkeypatch, event_log
):
    """Queue wait is pool hand-off -> worker pickup.  A lex slowed by 20 ms
    (on the admitting thread when an event log wants the ``admit`` line's
    shape, else on the worker) counts in the latency, not the queue wait."""
    from repro.obs import events
    from repro.obs.events import EventLog, read_events
    from repro.serve import service as service_module
    from repro.sql.shape import statement_shape

    def slow_shape(sql: str):
        time.sleep(0.02)
        return statement_shape(sql)

    monkeypatch.setattr(service_module, "statement_shape", slow_shape)
    path = str(tmp_path / "events.jsonl")
    log = EventLog(path) if event_log else None
    previous = events.install(log)
    try:
        with QueryService(
            serve_session, ServiceConfig(workers=1, query_scale=TINY_SCALE)
        ) as svc:
            response = svc.submit(ServiceRequest(
                sql="select count(*) from nation where n_regionkey = 1",
                request_id="ev-queued",
            ))
    finally:
        events.install(previous)
        if log is not None:
            log.close()
    assert response.ok
    assert response.elapsed_seconds >= 0.02 > response.queued_seconds
    if event_log:
        line = [d for d in read_events(path) if d["event"] == "request"][-1]
        assert line["request_id"] == "ev-queued"
        assert line["latency_seconds"] >= 0.02 > line["queued_seconds"]


def test_every_request_writes_exactly_one_request_line(serve_session, tmp_path):
    """An answered request, a parse error, a row-quota trip, a
    pre-admission protocol reject and a deadline overrun (the worker
    still running when the client's wait ends) each end in exactly one
    ``request`` line, and each line passes the record spec."""
    from repro.obs import events
    from repro.obs.events import EventLog, read_log, validate_event

    path = str(tmp_path / "events.jsonl")
    config = ServiceConfig(
        workers=1,
        query_scale=TINY_SCALE,
        deadline_grace_seconds=0.0,
        tenants={"rows": TenantQuota(max_rows=1)},
    )
    requests = {
        "one-ok": (ServiceRequest(sql=SQL_QUERIES[6]), None),
        "one-parse": (ServiceRequest(sql="SELECT FROM nothing"), "E_SQL_PARSE"),
        "one-budget": (ServiceRequest(sql=SQL_QUERIES[1], tenant="rows"), "E_BUDGET"),
        "one-protocol": (ServiceRequest(), "E_PROTOCOL"),
        "one-overrun": (ServiceRequest(tpch=6, deadline_seconds=0.05), "E_DEADLINE"),
    }
    overruns = REGISTRY.get_counter("serve.deadline.overrun")
    log = EventLog(path)
    previous = events.install(log)
    try:
        with QueryService(serve_session, config) as svc:
            run_inner = svc._run_inner

            def slow_run_inner(request, *args):
                if request.request_id == "one-overrun":
                    time.sleep(0.3)  # past the deadline and its zero grace
                return run_inner(request, *args)

            svc._run_inner = slow_run_inner
            codes = {}
            for rid, (request, _) in requests.items():
                request.request_id = rid
                codes[rid] = svc.submit(request).code
        # close() waited for the overrun worker, so its late end is logged
        # if anything logs it.
    finally:
        events.install(previous)
        log.close()
    assert codes == {rid: code for rid, (_, code) in requests.items()}
    assert REGISTRY.get_counter("serve.deadline.overrun") == overruns + 1
    lines = [d for d in read_log(path) if d["event"] == "request"]
    assert sorted(d["request_id"] for d in lines) == sorted(requests)
    for line in lines:
        assert validate_event(line) == []
        assert line["outcome"] == (codes[line["request_id"]] or "ok")


def test_budget_trips_keep_the_shape_compiled(tpch_db):
    """A row-quota trip is the request's, not the build's: after one
    answered run, three trips leave the one cached build in place and
    compile nothing more."""
    config = ServiceConfig(
        workers=1,
        query_scale=TINY_SCALE,
        tenants={"one-row": TenantQuota(max_rows=1)},
    )
    session = Session(tpch_db)
    with QueryService(session, config) as svc:
        assert svc.submit(ServiceRequest(tpch=1)).ok
        for _ in range(3):
            trip = svc.submit(ServiceRequest(tpch=1, tenant="one-row"))
            assert trip.code == "E_BUDGET"
    info = session.cache_info()
    assert (info["size"], info["misses"]) == (1, 1)


def test_rotating_tenant_names_share_one_overflow_state(serve_session):
    """Tenant names past the label cap share the ``other`` state, so a
    client rotating names cannot mint fresh quotas; a configured tenant
    keeps its own state past the cap."""
    config = ServiceConfig(
        workers=1,
        query_scale=TINY_SCALE,
        max_tenant_labels=2,
        default_quota=TenantQuota(rate=1, burst=1),
        tenants={"vip": TenantQuota()},
    )
    with QueryService(serve_session, config) as svc:
        codes = [
            svc.submit(ServiceRequest(sql=SQL_QUERIES[6], tenant=f"rot-{i}")).code
            for i in range(1000)
        ]
        assert svc.submit(ServiceRequest(sql=SQL_QUERIES[6], tenant="vip")).ok
        tenants = svc.stats()["tenants"]
    # rot-0 and rot-1 own a label each; rot-2 spends the shared bucket's
    # one token and rot-3, a fresh name past the cap, is rate-limited.
    assert codes[:4] == [None, None, None, "E_RATELIMIT"]
    assert len(set(tenants) - {"vip"}) <= 3
    assert "vip" in tenants


def test_a_compile_fault_logs_exactly_one_fallback(serve_session, tmp_path):
    from repro.obs import events
    from repro.obs.events import EventLog, read_log

    path = str(tmp_path / "events.jsonl")
    log = EventLog(path)
    previous = events.install(log)
    try:
        with QueryService(
            serve_session, ServiceConfig(workers=1, query_scale=TINY_SCALE)
        ) as svc:
            svc.session.clear_cache()  # the compile runs, so the fault fires
            with FaultInjector(FaultSpec("codegen", times=1)):
                response = svc.submit(
                    ServiceRequest(sql=SQL_QUERIES[6], request_id="fault-1")
                )
    finally:
        events.install(previous)
        log.close()
    assert response.ok and response.engine_trail == ("compiled", "push")
    docs = [d for d in read_log(path) if d["request_id"] == "fault-1"]
    fallbacks = [d for d in docs if d["event"] == "fallback"]
    assert len(fallbacks) == 1 and fallbacks[0]["engine"] == "compiled"
    assert docs[-1]["event"] == "request" and docs[-1]["degraded"]


# -- tail sampling + SLO through the live service -----------------------------


def test_service_sampling_keeps_errors_and_attaches_exemplars(serve_session):
    from repro.obs.sampler import validate_profiles
    from repro.obs.slo import SLOConfig

    config = ServiceConfig(
        workers=2,
        query_scale=TINY_SCALE,
        sampling=True,
        sampler_warmup=4,
        slo=SLOConfig(latency_threshold_seconds=30.0),
    )
    with QueryService(serve_session, config) as svc:
        ok = svc.submit(ServiceRequest(sql=SQL_QUERIES[6], request_id="samp-ok"))
        bad = svc.submit(ServiceRequest(sql="SELECT FROM nothing", request_id="samp-bad"))
        assert ok.ok and not bad.ok

        # Errors are deterministic keeps with the typed code as the outcome.
        prof = svc.sampler.get("samp-bad")
        assert prof is not None
        assert prof.outcome == bad.code
        assert prof.keep_reason == "error"

        # Warmup keeps the ok request too, with the span tree and the
        # queue/exec split repro-doctor attributes with.
        okp = svc.sampler.get("samp-ok")
        assert okp is not None
        assert okp.outcome == "ok"
        assert okp.trace is not None and okp.trace.get("children")
        assert okp.exec_seconds > 0.0
        assert okp.queued_seconds >= 0.0
        assert okp.latency_seconds >= okp.exec_seconds

        # Kept requests pin exemplars onto the latency histogram, and every
        # exemplar id resolves back to a stored profile.
        hist = REGISTRY.histogram("serve.latency_seconds")
        ids = {
            ex["id"]
            for exs in hist.get("exemplars", {}).values()
            for ex in exs
        }
        assert "samp-ok" in ids or "samp-bad" in ids
        assert all(svc.sampler.get(rid) is not None for rid in ids)

        # Sampler and SLO surfaces ride along in stats(); the snapshot
        # round-trips through the schema validator.
        stats = svc.stats()
        assert stats["sampler"]["kept"] >= 2
        assert stats["slo"]["service"]["good"] >= 1
        assert validate_profiles(svc.sampler.snapshot()) == []


def test_service_traceparent_rides_to_response_and_profile(serve_session):
    from repro.obs.sampler import make_traceparent

    tp = make_traceparent()
    trace_id = tp.split("-")[1]
    config = ServiceConfig(workers=1, query_scale=TINY_SCALE, sampling=True)
    with QueryService(serve_session, config) as svc:
        reply = svc.submit_dict(
            {"sql": SQL_QUERIES[6], "request_id": "tp-1", "traceparent": tp}
        )
        assert reply["ok"]
        assert reply["trace_id"] == trace_id
        prof = svc.sampler.get("tp-1")
        assert prof is not None and prof.trace_id == trace_id

        # A malformed traceparent never gates admission -- the request runs,
        # it just goes untraced.
        garbled = svc.submit_dict(
            {"sql": SQL_QUERIES[6], "request_id": "tp-2", "traceparent": "junk"}
        )
        assert garbled["ok"]
        assert "trace_id" not in garbled


def test_service_rate_limit_and_request_traces(serve_session):
    # The service-wide bucket, ahead of every tenant's own.
    limited = ServiceConfig(
        workers=1, query_scale=TINY_SCALE, rate_limit=0.001, rate_burst=1
    )
    with QueryService(serve_session, limited) as svc:
        assert svc.submit(ServiceRequest(sql=SQL_QUERIES[6])).ok
        before = REGISTRY.get_counter("serve.rejected.ratelimit")
        shed = svc.submit(ServiceRequest(sql=SQL_QUERIES[6]))
        assert not shed.ok and shed.code == "E_RATELIMIT"
        assert REGISTRY.get_counter("serve.rejected.ratelimit") == before + 1

    # ``repro-serve --trace``: every reply carries its span tree.
    traced = ServiceConfig(workers=1, query_scale=TINY_SCALE, trace_requests=True)
    with QueryService(serve_session, traced) as svc:
        reply = svc.submit(ServiceRequest(sql=SQL_QUERIES[6])).to_dict()
    assert reply["ok"]
    assert "serve.request" in {c["name"] for c in reply["trace"]["children"]}


def test_hostile_bindings_reply_e_param_and_are_sampled(serve_session):
    """Bad bindings are typed ``E_PARAM`` replies, never tracebacks, and
    the tail sampler keeps each one's profile."""
    sql = "select count(*) from lineitem where l_quantity > ? and l_discount < ?"
    hostile = {
        "arity": {"sql": sql, "params": [10.0]},
        "type": {"sql": sql, "params": [10.0, "x"]},
        "table": {
            "sql": "select count(*) from ? where l_quantity > 1.0",
            "params": ["lineitem"],
        },
        "mixed": {
            "sql": "select count(*) from lineitem where l_quantity > ? "
                   "and l_discount < :d",
            "params": [10.0],
        },
    }
    config = ServiceConfig(workers=1, query_scale=TINY_SCALE, sampling=True)
    with QueryService(serve_session, config) as svc:
        for label, doc in hostile.items():
            reply = svc.submit_dict({**doc, "request_id": f"hostile-{label}"})
            assert not reply["ok"] and reply["error"]["code"] == "E_PARAM", reply
            profile = svc.sampler.get(f"hostile-{label}")
            assert profile is not None and profile.outcome == "E_PARAM"


def test_wire_profiles_op_serves_snapshot_and_typed_error(serve_session):
    from repro.obs.sampler import validate_profiles
    from repro.serve import raise_for_error

    sampling = QueryService(
        serve_session,
        ServiceConfig(workers=2, query_scale=TINY_SCALE, sampling=True),
    )
    with QueryServer(sampling, port=0) as srv:
        host, port = srv.address
        with ServiceClient(host, port) as client:
            client.sql(SQL_QUERIES[6], request_id="wire-prof-1")
            snap = client.profiles()
            assert snap["schema"] == "repro-profiles/v2"
            assert validate_profiles(snap) == []
            assert any(p["request_id"] == "wire-prof-1" for p in snap["profiles"])

    # Sampling off: the op answers with the typed protocol error, not a
    # hang or a raw traceback.
    plain = QueryService(
        serve_session, ServiceConfig(workers=1, query_scale=TINY_SCALE)
    )
    with QueryServer(plain, port=0) as srv:
        host, port = srv.address
        with ServiceClient(host, port) as client:
            reply = client.request({"op": "profiles"})
            assert not reply["ok"]
            assert reply["error"]["code"] == "E_PROTOCOL"
            with pytest.raises(Exception):
                raise_for_error(reply)


def test_wire_error_replies_count_and_echo_the_request_id(serve_session):
    """Every wire-level error reply (malformed line, non-object, sampling
    off, unknown op, failed prepare) is typed, counted under
    ``serve.errors.<code>``, and echoes the client's ``id`` and
    ``request_id`` whenever the line carried them."""
    plain = QueryService(
        serve_session, ServiceConfig(workers=1, query_scale=TINY_SCALE)
    )
    before = REGISTRY.get_counter("serve.errors.E_PROTOCOL")
    with QueryServer(plain, port=0) as srv:
        for line in ("this is not json", "[1, 2, 3]"):
            reply = srv.handle_line(line)
            assert not reply["ok"] and reply["error"]["code"] == "E_PROTOCOL"
        for op in ("profiles", "dance", "prepare"):
            doc = {"op": op, "id": 7, "request_id": f"rid-{op}"}
            reply = srv.handle_line(json.dumps(doc))
            assert not reply["ok"] and reply["error"]["code"] == "E_PROTOCOL"
            assert reply["id"] == 7
            assert reply["error"]["request_id"] == f"rid-{op}"
    assert REGISTRY.get_counter("serve.errors.E_PROTOCOL") == before + 5


def _served_round(session, tmp_path):
    """One served round with every sink on -- sampling, an armed SLO, the
    telemetry store and an event log: an answered request, a parse error
    and a tenant row-quota trip.  Returns the service's artifacts and the
    histogram counts each request added."""
    from repro.obs import events
    from repro.obs.events import EventLog, read_events
    from repro.obs.sampler import make_traceparent
    from repro.obs.slo import SLOConfig
    from repro.obs.telemetry import TELEMETRY, shape_digest

    config = ServiceConfig(
        workers=1,
        query_scale=TINY_SCALE,
        sampling=True,
        telemetry=True,
        slo=SLOConfig(latency_threshold_seconds=30.0),
        tenants={"rec-rows": TenantQuota(max_rows=1)},
    )
    requests = {
        "rec-ok": ServiceRequest(
            sql=SQL_QUERIES[6], tenant="rec-a", request_id="rec-ok",
            traceparent=make_traceparent(),
        ),
        "rec-parse": ServiceRequest(
            sql="SELECT FROM nothing", tenant="rec-b", request_id="rec-parse"
        ),
        "rec-budget": ServiceRequest(
            sql=SQL_QUERIES[1], tenant="rec-rows", request_id="rec-budget"
        ),
    }
    log = EventLog(str(tmp_path / "events.jsonl"))
    previous = events.install(log)
    TELEMETRY.reset()
    TELEMETRY.enable()
    added = {}
    try:
        with QueryService(session, config) as svc:
            svc.session.clear_cache()  # every shape compiles: compile keys
            responses = {}
            for rid, request in requests.items():
                names = [
                    "serve.latency_seconds",
                    f"serve.tenant.{request.tenant}.latency_seconds",
                    f"serve.shape.{shape_digest(request.shape())}.latency_seconds",
                ]
                counts = [
                    (REGISTRY.histogram(n) or {"count": 0})["count"] for n in names
                ]
                responses[rid] = svc.submit(request)
                added[rid] = {
                    n: REGISTRY.histogram(n)["count"] - c
                    for n, c in zip(names, counts)
                }
            profiles = svc.sampler.snapshot()
            slo = svc.slo.snapshot()
        telemetry = TELEMETRY.snapshot()
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
        events.install(previous)
        log.close()
    return {
        "responses": responses,
        "profiles": profiles,
        "events": list(read_events(str(tmp_path / "events.jsonl"))),
        "telemetry": telemetry,
        "slo": slo,
        "added": added,
    }


def test_every_sink_agrees_on_one_request(serve_session, tmp_path):
    from repro.obs.telemetry import shape_digest

    art = _served_round(serve_session, tmp_path)
    ok, parse, budget = (
        art["responses"][k] for k in ("rec-ok", "rec-parse", "rec-budget")
    )
    assert ok.ok and parse.code == "E_SQL_PARSE" and budget.code == "E_BUDGET"
    profiles = {p["request_id"]: p for p in art["profiles"]["profiles"]}
    for rid, response in art["responses"].items():
        profile = profiles[rid]  # warmup + errors: all three kept
        digest = shape_digest(profile["shape"])
        outcome = "ok" if response.ok else response.code
        assert profile["outcome"] == outcome
        assert profile["tenant"] == response.tenant
        assert profile["shape"] == response.shape
        # the three latency histograms each saw the request once, under
        # the same tenant label and shape digest
        assert art["added"][rid] == {
            "serve.latency_seconds": 1,
            f"serve.tenant.{response.tenant}.latency_seconds": 1,
            f"serve.shape.{digest}.latency_seconds": 1,
        }
        hist = REGISTRY.histogram(f"serve.shape.{digest}.latency_seconds")
        assert rid in {e["id"] for exs in hist["exemplars"].values() for e in exs}
        # the SLO monitor scored it under the same labels
        scope = art["slo"]["tenants"][response.tenant]
        assert (scope["good"], scope["bad"]) == (int(response.ok), int(not response.ok))
        assert digest in art["slo"]["shapes"]
        # the last event is its one request line, and says the same thing
        last = [e for e in art["events"] if e["request_id"] == rid][-1]
        assert last["event"] == "request"
        assert last["outcome"] == outcome
        assert last["tenant"] == response.tenant
        assert last["shape_digest"] == digest and "shape" not in last
        assert last["rows"] == len(response.rows or ())
        # telemetry counts answered executions only
        entry = art["telemetry"]["shapes"].get(response.shape)
        executions = entry["executions"]["count"] if entry else 0
        assert executions == int(response.ok)
        if response.ok:
            assert entry["digest"] == digest
            assert entry["executions"]["rows_total"] == len(response.rows)
            assert entry["engines"] == {response.engine: 1}
    budget_kinds = [e["event"] for e in art["events"] if e["request_id"] == "rec-budget"]
    assert budget_kinds == ["admit", "compile", "request"]  # nothing fell back
    assert REGISTRY.get_counter("serve.tenant.rec-rows.budget_trips") >= 1
    service = art["slo"]["service"]
    assert (service["good"], service["bad"]) == (1, 2)


def test_the_stream_carries_every_kept_profile(serve_session, tmp_path):
    """A kept request's line is its snapshot profile: the doctor's
    attribution of the kept lines equals the attribution of the sampler's
    profiles, so the stream lost nothing the profiles file had."""
    from repro.obs.doctor import attribute_profile
    from repro.obs.telemetry import shape_digest

    art = _served_round(serve_session, tmp_path)
    kept = {
        e["request_id"]: e for e in art["events"]
        if e["event"] == "request" and "keep_reason" in e
    }
    profiles = {p["request_id"]: p for p in art["profiles"]["profiles"]}
    assert set(kept) == set(profiles) == set(art["responses"])
    for rid, profile in profiles.items():
        assert attribute_profile(kept[rid]) == attribute_profile(profile)
        line = {k: v for k, v in kept[rid].items() if k not in ("schema", "event")}
        # the line names the profile's shape by its digest
        profile = dict(profile)
        assert line.pop("shape_digest") == shape_digest(profile.pop("shape"))
        assert line == profile


def test_artifact_keys_of_one_served_round(serve_session, tmp_path):
    """Pins the key sets of the ``repro-profiles/v2``, ``repro-events/v3``
    and ``repro-telemetry/v1`` documents one round writes, optional keys
    included, so no refactor of the accounting can drop one unnoticed.
    Event lines name the shape by ``shape_digest``; only a ``compile``
    line carries its text."""
    from repro.compiler.runtime import have_numpy

    art = _served_round(serve_session, tmp_path)
    snap = art["profiles"]
    assert set(snap) == {
        "schema", "written_unix", "capacity", "slow_quantile",
        "threshold_seconds", "offered", "kept", "evicted", "profiles",
    }
    common = {
        "request_id", "tenant", "latency_seconds", "outcome", "rows",
        "queued_seconds", "exec_seconds", "ts", "shape", "breaker", "trace",
        "keep_reason",
    }
    kernels = {"kernels"} if have_numpy() else set()
    profile_keys = {
        "rec-ok": common | {
            "engine", "engine_trail", "trace_id", "operator_times",
            "operator_rows",
        } | kernels,
        "rec-parse": common | {"phase"},
        "rec-budget": common | {"phase", "engine_trail"},
    }
    assert {p["request_id"]: set(p) for p in snap["profiles"]} == profile_keys
    keys = {}
    for e in art["events"]:
        keys.setdefault((e["request_id"], e["event"]), set()).update(e)
    base = {"schema", "ts", "event", "request_id", "shape_digest", "tenant"}
    compiled = base | {"shape", "seconds", "generation_seconds", "host_seconds"}

    def line(rid):
        return {"schema", "event", "shape_digest"} | profile_keys[rid] - {"shape"}

    assert keys == {
        ("rec-ok", "admit"): base,
        ("rec-ok", "compile"): compiled | {"trace_id"},
        ("rec-ok", "request"): line("rec-ok"),
        ("rec-parse", "admit"): base,
        ("rec-parse", "request"): line("rec-parse"),
        ("rec-budget", "admit"): base,
        ("rec-budget", "compile"): compiled,
        ("rec-budget", "request"): line("rec-budget"),
    }
    tel = art["telemetry"]
    assert set(tel) == {"schema", "started", "written", "shapes"}
    for entry in tel["shapes"].values():
        assert set(entry) == {
            "digest", "compile", "executions", "engines", "operators", "kernels",
        }
        assert set(entry["executions"]) == {"count", "rows_total", "total_seconds"}
        for op in entry["operators"].values():
            assert set(op) == {"count", "total_seconds", "rows_total"}
        for k in entry["kernels"].values():
            assert set(k) == {"calls", "rows"}
    compile_keys = {
        frozenset(e["compile"]) for e in tel["shapes"].values() if e["compile"]["count"]
    }
    assert compile_keys == {frozenset({
        "count", "total_seconds", "max_seconds", "generation_seconds",
        "host_seconds",
    })}


def test_admission_gate_exports_inflight_gauges():
    gate = AdmissionGate(7)
    gauges = REGISTRY.snapshot()["gauges"]
    assert gauges["serve.inflight.limit"] == 7
    assert gauges["serve.inflight"] == 0
    gate.enter()
    gauges = REGISTRY.snapshot()["gauges"]
    assert gauges["serve.inflight"] == 1
    assert gauges["serve.queue.depth"] == 1  # back-compat alias tracks it
    gate.leave()
    assert REGISTRY.snapshot()["gauges"]["serve.inflight"] == 0


# -- repro-serve end to end ---------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _connect(port: int, server: threading.Thread) -> ServiceClient:
    """A client of the ``repro-serve`` starting up in ``server``."""
    deadline = time.monotonic() + 60.0
    while True:
        try:
            return ServiceClient("127.0.0.1", port)
        except OSError:
            assert server.is_alive(), "repro-serve exited before listening"
            assert time.monotonic() < deadline, "repro-serve never listened"
            time.sleep(0.05)


def _mix_round(port: int, round_index: int, clients: int) -> list:
    """The 22-query mix once from each of ``clients`` concurrent
    connections; every submission gets its own request id."""
    replies, errors = [], []
    lock = threading.Lock()

    def one_client(idx: int) -> None:
        tenant = f"e2e-{idx}"
        try:
            with ServiceClient("127.0.0.1", port) as client:
                for q in range(1, 23):
                    rid = f"{tenant}-r{round_index}-q{q}"
                    if q in SQL_QUERIES:
                        reply = client.sql(SQL_QUERIES[q], tenant=tenant, request_id=rid)
                    else:
                        reply = client.tpch(q, tenant=tenant, request_id=rid)
                    with lock:
                        replies.append(reply)
        except BaseException as exc:  # pragma: no cover - reported below
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=one_client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not errors, errors[:3]
    assert len(replies) == clients * 22
    return replies


def test_repro_serve_end_to_end(tmp_path):
    """The product entry point over real sockets: a mix round from two
    clients while compile faults fire, a clean round, the in-band
    shutdown -- then the request stream and the telemetry snapshot
    ``repro-serve`` left behind must join up.  Checks only what the
    service-level tests above do not."""
    from repro.obs.artifacts import read_json
    from repro.obs.doctor import main as doctor_main
    from repro.obs.events import read_log
    from repro.obs.metrics import percentile
    from repro.obs.telemetry import SNAPSHOT, TELEMETRY
    from repro.serve import cli

    events, telemetry = (
        str(tmp_path / name) for name in ("events.jsonl", "telemetry.json")
    )
    port = _free_port()
    # Exemplars and SLO counters live in the process-wide registry.
    REGISTRY.reset("serve.")
    REGISTRY.reset("slo.")
    TELEMETRY.reset()
    exit_codes = []
    server = threading.Thread(
        target=lambda: exit_codes.append(cli.main([
            "--port", str(port), "--scale", str(TINY_SCALE), "--workers", "2",
            "--events", events, "--telemetry", telemetry, "--sampling",
            "--slo-latency", "30",
        ])),
        daemon=True,
    )
    server.start()
    try:
        _connect(port, server).close()
        # Shapes are still cold, so every compile visits the fault sites.
        every = 3
        with FaultInjector(
            FaultSpec("codegen", at=frozenset(range(0, 4096, every)), times=None),
            FaultSpec("host-compile", at=frozenset(range(1, 4096, every)), times=None),
        ):
            faulted = _mix_round(port, 0, clients=2)
        clean = _mix_round(port, 1, clients=2)
        with _connect(port, server) as client:
            metrics = client.metrics()["snapshot"]
            slo = client.stats()["slo"]
            assert client.shutdown()
        server.join(timeout=30.0)
        assert exit_codes == [0]
        assert not TELEMETRY.enabled
    finally:
        if server.is_alive():  # pragma: no cover - a failed run above
            with _connect(port, server) as client:
                client.shutdown()
            server.join(timeout=30.0)
        TELEMETRY.reset()
    replies = faulted + clean

    # Every reply is rows; the faulted round degraded instead of failing.
    assert all(r["ok"] for r in replies), [r for r in replies if not r["ok"]][:3]
    assert any(r.get("degraded") for r in faulted)

    # The stream joins per request: one admit, exactly one request line.
    stream = read_log(events)  # every line checked against its spec
    kinds: dict = {}
    lines: dict = {}
    for doc in stream:
        kinds.setdefault(doc.get("request_id"), []).append(doc["event"])
        if doc["event"] == "request":
            lines[doc["request_id"]] = doc
    for reply in replies:
        seen = kinds.get(reply["request_id"], [])
        assert seen.count("admit") == 1, (reply["request_id"], seen)
        assert seen.count("request") == 1, (reply["request_id"], seen)

    # The snapshot written on exit has operator timings per executed shape.
    shapes = read_json(telemetry, SNAPSHOT, "telemetry snapshot")["shapes"]
    executed = [e for e in shapes.values() if e["executions"]["count"]]
    assert len(executed) >= 22
    assert all(e["operators"] for e in executed)
    assert all(
        op["total_seconds"] >= 0.0 and op["count"] >= 0
        for e in executed
        for op in e["operators"].values()
    )

    # Kept lines cover the slow decile and every degraded reply (with its
    # span tree), and every serve.* exemplar id resolves to one.
    kept = {rid for rid, line in lines.items() if "keep_reason" in line}
    assert len(kept) * 10 >= len(lines)
    timed = sorted((r["elapsed_ms"], r["request_id"]) for r in replies)
    cut = percentile([t for t, _ in timed], 0.9)
    top = [rid for t, rid in timed if t >= cut]
    assert sum(rid in kept for rid in top) >= 0.7 * len(top)
    for reply in replies:
        if reply.get("degraded"):
            assert (lines[reply["request_id"]].get("trace") or {}).get("children")
    exemplars = [
        e["id"]
        for name, h in metrics["histograms"].items()
        if name.startswith("serve.")
        for cell in (h.get("exemplars") or {}).values()
        for e in cell
    ]
    assert exemplars and set(exemplars) <= kept

    # The SLO latch, the burn gauge and the alert counter agree: a healthy
    # run under a 30 s threshold burns nothing and never fired.
    service = slo["service"]
    alerts = metrics["counters"].get("slo.alerts", 0)
    assert service["good"] == len(replies) and service["bad"] == 0
    assert metrics["gauges"]["slo.burn.service"] == service["burn_short"] == 0.0
    assert not service["alerting"] and alerts == 0

    # repro-doctor's schema gate passes over the request stream, and the
    # snapshot compared with itself is no regression.
    assert doctor_main([
        "--events", events, "--baseline", telemetry, "--current", telemetry,
        "--fail-on-regression", "--json", "--check",
        "--out", str(tmp_path / "doctor.json"),
    ]) == 0
