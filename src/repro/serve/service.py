"""The query service: concurrent SQL over one thread-safe Session.

:class:`QueryService` is the long-lived object a front end (TCP server,
bench harness, test) submits :class:`ServiceRequest`\\ s to.  Each request
flows through, in order:

1. **admission** on the caller's thread -- global token bucket, tenant
   token bucket + concurrency quota, bounded in-flight gate; every
   rejection is an immediate typed error (``E_RATELIMIT`` / ``E_ADMIT``),
   never an unbounded queue; the SQL is lexed here, once
   (:attr:`ServiceRequest.statement`), and every later step reads that;
2. **execution** on a worker thread -- the request's deadline becomes
   ``Budget.wall_clock_seconds`` (plus the tenant's ``max_rows``), so the
   staged ``scan_tick`` checkpoints abort a runaway scan cooperatively
   mid-flight; the compile-path circuit breaker decides whether the
   compiled engines may be attempted for this plan shape; the
   :class:`~repro.resilience.executor.ResilientExecutor` walks whatever
   chain remains;
3. **response** -- rows or a typed error, plus the engine that answered,
   the degradation trail, and timing.  A request never surfaces a raw
   exception and never outlives its deadline by more than one checkpoint
   interval plus a small grace.

Compile-once/execute-many economics survive deadlines: the executor is
built with ``cache_guarded_compiles=True``, so budget-checked builds are
cached in the session (single-flight: N concurrent misses on one shape
compile once).
"""

from __future__ import annotations

import gc
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import (
    COMPILE_PHASES,
    BudgetExceeded,
    CircuitOpenError,
    DeadlineExceeded,
    ReproError,
    error_to_dict,
)
from repro.obs import events
from repro.obs.events import shape_digest
from repro.obs.metrics import REGISTRY
from repro.obs.sampler import RequestRecord, TailSampler, parse_traceparent
from repro.obs.slo import SLOConfig, SLOMonitor
from repro.obs.trace import Trace, span
from repro.resilience.budget import Budget
from repro.resilience.executor import ENGINE_CHAIN, ExecutionReport, ResilientExecutor
from repro.serve.admission import AdmissionGate, TenantQuota, TenantRegistry, TokenBucket
from repro.serve.breaker import OPEN, PROBE, CircuitBreaker
from repro.session import Session
from repro.sql.shape import StatementShape, statement_shape

#: Interpreted engines the service degrades to while a breaker is open
#: (the compiled engine is the one that goes through the breaker).
INTERPRETED_CHAIN = ("push", "volcano")

#: Characters allowed in a metric-label segment.  Tenant names arrive off
#: the wire; anything outside this set is mapped to ``_`` before the name
#: is interpolated into a registry key.
_LABEL_SAFE = re.compile(r"[^A-Za-z0-9_.-]")
_LABEL_MAX_CHARS = 48

#: At most this many distinct plan-shape labels get their own
#: ``serve.shape.*`` family; the overflow shares ``other``.
MAX_SHAPE_LABELS = 256


def mint_request_id() -> str:
    """A fresh correlation id for a request that did not bring one: 16
    random hex digits."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`QueryService` instance."""

    workers: int = 4
    max_queue_depth: int = 16  # waiting requests beyond the workers
    default_deadline_seconds: float = 10.0
    deadline_grace_seconds: float = 0.5  # client-side wait past deadline
    rate_limit: Optional[float] = None  # service-wide requests/second
    rate_burst: int = 32
    breaker_threshold: int = 3
    breaker_cooldown_seconds: float = 1.0
    engines: Tuple[str, ...] = ENGINE_CHAIN
    tenants: Optional[Dict[str, TenantQuota]] = None
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    query_scale: float = 1.0  # scale passed to TPC-H plan builders
    trace_requests: bool = False
    # Instrumented builds: compiled engines build with the staged
    # per-operator timers (``Config(instrument=True)``, cached under its
    # own key), and a request the tail sampler keeps carries its operator
    # times and rows on its ``request`` line and in the ``profiles`` op.
    # Off by default: the uninstrumented residual programs stay
    # byte-identical to the goldens.
    telemetry: bool = False
    # Tail-based profile sampling: when on, every request runs traced and
    # the finished profile (spans, operator timings, engine trail) is
    # offered to a bounded :class:`~repro.obs.sampler.TailSampler`, which
    # keeps the slowest decile plus every error/breaker/degraded request
    # and attaches kept request ids as latency-histogram exemplars.  Off
    # by default, same "off means off" contract as telemetry.
    sampling: bool = False
    sampler_capacity: int = 512
    sampler_warmup: int = 32
    # SLO burn-rate monitoring: a config arms per-service/tenant/shape
    # sliding windows; None (the default) disables the monitor entirely.
    slo: Optional[SLOConfig] = None
    # Cardinality cap for the wire-controlled tenant label: at most this
    # many distinct tenants get their own ``serve.tenant.*`` names; the
    # overflow shares the ``other`` bucket.
    max_tenant_labels: int = 64

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative")
        unknown = [e for e in self.engines if e not in ENGINE_CHAIN]
        if unknown:
            raise ValueError(f"unknown engines {unknown}; pick from {ENGINE_CHAIN}")


@dataclass
class ServiceRequest:
    """One query: SQL text or a TPC-H plan number, plus client context."""

    sql: Optional[str] = None
    tpch: Optional[int] = None
    tenant: str = "default"
    deadline_seconds: Optional[float] = None
    engine: Optional[str] = None  # pin one engine (testing/diagnostics)
    id: Optional[object] = None
    # Bindings for a parameterized statement: a list for positional ``?``
    # placeholders, a dict for ``:name`` placeholders.  Only valid with
    # ``sql``; arity/type violations come back as typed ``E_PARAM``.
    params: Optional[object] = None
    # The correlation id every reply, log line, event and error carries.
    # Clients may supply their own (echoed verbatim); the service mints
    # one at admission otherwise.
    request_id: Optional[str] = None
    # W3C-style distributed trace context ("00-<trace>-<span>-<flags>");
    # malformed values are ignored, never rejected.  The parsed trace id
    # lands in the worker's request context, the trace meta, the event
    # log and the stored profile.
    traceparent: Optional[str] = None
    # Stamped by submit(): when this request was handed to the worker
    # pool after admission, on the monotonic clock; from there to worker
    # pickup is the request's queue wait.
    submitted_at: Optional[float] = None
    _statement: Optional[StatementShape] = field(
        default=None, init=False, repr=False, compare=False
    )
    _shape: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    @property
    def statement(self) -> Optional[StatementShape]:
        """``statement_shape(sql)`` (None for a TPC-H plan request): the
        one lex of this request, first read by :meth:`shape`.  Everything
        downstream -- the shape key, the breaker, the executor, the
        session lookup -- reads this value instead of lexing again."""
        statement = self._statement
        if statement is None and self.sql is not None:
            statement = self._statement = statement_shape(self.sql)
        return statement

    def shape(self) -> str:
        """The plan-shape key the breaker and compiled cache share (built
        on first call).

        For SQL this is the statement's *shape* -- canonical spelling
        with eligible literals lifted to placeholders (:func:`repro.sql.
        shape.statement_shape`) -- so literal variants of one statement
        share breaker state, shape digests and the session's
        shape-keyed compile.
        """
        shape = self._shape
        if shape is None:
            if self.sql is not None:
                shape = "sql:" + self.statement.text
            else:
                shape = f"tpch:{self.tpch}"
            self._shape = shape
        return shape


@dataclass
class ServiceResponse:
    """Rows or a typed error; never a raw exception."""

    id: Optional[object] = None
    ok: bool = False
    rows: Optional[list] = None
    error: Optional[dict] = None  # repro.errors.error_to_dict form
    engine: Optional[str] = None
    engine_trail: Tuple[str, ...] = ()
    degraded: bool = False
    breaker: Optional[str] = None  # breaker decision for this shape
    tenant: str = "default"
    elapsed_seconds: float = 0.0
    trace: Optional[dict] = None
    request_id: Optional[str] = None
    shape: Optional[str] = None  # the plan-shape key (not serialized)
    trace_id: Optional[str] = None  # propagated traceparent trace id
    # The queued/exec split of elapsed_seconds (not serialized).
    queued_seconds: float = 0.0
    exec_seconds: float = 0.0

    @property
    def code(self) -> Optional[str]:
        return self.error.get("code") if self.error else None

    def to_dict(self) -> dict:
        doc = {
            "id": self.id,
            "ok": self.ok,
            "request_id": self.request_id,
            "tenant": self.tenant,
            "elapsed_ms": round(self.elapsed_seconds * 1e3, 3),
        }
        if self.ok:
            doc["rows"] = [list(r) for r in self.rows or []]
            doc["engine"] = self.engine
            doc["degraded"] = self.degraded
            doc["engine_trail"] = list(self.engine_trail)
        else:
            doc["error"] = self.error
        if self.breaker is not None:
            doc["breaker"] = self.breaker
        if self.trace is not None:
            doc["trace"] = self.trace
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        return doc


_heap_frozen = False
_freeze_lock = threading.Lock()


def freeze_loaded_heap() -> None:
    """Once per process: collect, then move every surviving object -- the
    loaded database, the modules, what set-up built -- to the collector's
    permanent generation, which it never scans again.  The database is
    immutable once loaded, so a full collection had nothing to find
    there; later calls do nothing."""
    global _heap_frozen
    with _freeze_lock:
        if _heap_frozen:
            return
        _heap_frozen = True
    gc.collect()
    gc.freeze()


class QueryService:
    """Admission-controlled concurrent query execution over a Session.

    The first service of a process freezes the heap once its session's
    database is loaded (:func:`freeze_loaded_heap`); later ones do not
    collect or freeze again.
    """

    def __init__(self, session: Session, config: Optional[ServiceConfig] = None) -> None:
        if not isinstance(session, Session):
            raise TypeError(
                f"QueryService serves a Session, not a {type(session).__name__}:"
                " wrap a database as Session(db)"
            )
        self.session = session
        self.config = config or ServiceConfig()
        cfg = self.config
        self._gate = AdmissionGate(cfg.workers + cfg.max_queue_depth)
        self._bucket = (
            TokenBucket(cfg.rate_limit, cfg.rate_burst) if cfg.rate_limit else None
        )
        self._tenants = TenantRegistry(cfg.tenants, cfg.default_quota)
        self.breaker = CircuitBreaker(
            cfg.breaker_threshold, cfg.breaker_cooldown_seconds
        )
        self._pool = ThreadPoolExecutor(
            max_workers=cfg.workers, thread_name_prefix="repro-serve"
        )
        self.sampler: Optional[TailSampler] = (
            TailSampler(capacity=cfg.sampler_capacity, warmup=cfg.sampler_warmup)
            if cfg.sampling
            else None
        )
        self.slo: Optional[SLOMonitor] = (
            SLOMonitor(cfg.slo) if cfg.slo is not None else None
        )
        self._closed = False
        self._close_lock = threading.Lock()
        # Metric-label interning: tenant names and plan shapes arrive off
        # the wire, so without a cap a hostile client could mint unbounded
        # registry names.  First-come families keep their own label; the
        # rest share ``other``.
        self._label_lock = threading.Lock()
        # Per family: (labels handed out, name -> label memo).
        self._tenant_labels: tuple = (set(), {})
        self._shape_labels: tuple = (set(), {})
        # TPC-H number -> (catalog, its plan validated there): built once
        # per number (query_scale is fixed per service); two workers
        # racing on a first request each build one, and either is kept.
        self._tpch_plans: dict[int, tuple] = {}
        freeze_loaded_heap()

    # -- lifecycle ----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the front door -----------------------------------------------------

    def submit(self, request: ServiceRequest) -> ServiceResponse:
        """Admit, execute, respond.  Blocks the calling thread until the
        response is ready or the deadline (plus grace) has passed."""
        started = time.monotonic()
        if request.request_id is None:
            request.request_id = mint_request_id()
        tenant = self._tenant_label(request.tenant)
        REGISTRY.bump("serve.requests", f"serve.tenant.{tenant}.requests")
        try:
            self._validate(request)
            tenant_state = self._tenants.state(request.tenant, tenant)
            deadline = started + self._deadline_for(request, tenant_state.quota)
            self._admit(tenant_state, tenant)  # raises typed rejections; no gate held
        except ReproError as exc:
            return self._reject(request, tenant, exc, started)
        log = events.installed()
        if log is not None:  # no log, no line: its fields are not built
            log.emit(
                "admit",
                request_id=request.request_id,
                tenant=request.tenant,
                shape=request.shape(),
            )
        # Admitted: the gate slot is held until the worker finishes (or the
        # client gives up waiting -- the slot follows the *work*, which is
        # what protects the pool, not the waiting client).  The queue wait
        # starts here, after the front door's own work; the deadline and
        # the latency still count from arrival.
        request.submitted_at = time.monotonic()
        try:
            future = self._pool.submit(self._run, request, tenant_state, deadline)
        except RuntimeError as exc:  # pool already shut down
            self._gate.leave()
            tenant_state.release()
            return self._reject(
                request, tenant, ReproError(f"service unavailable: {exc}"), started
            )
        future.add_done_callback(
            lambda _f: (self._gate.leave(), tenant_state.release())
        )
        grace = self.config.deadline_grace_seconds
        timeout = max(0.0, deadline - time.monotonic()) + grace
        try:
            response, report, trace = future.result(timeout=timeout)
        except FutureTimeout:
            # The worker overran its cooperative checkpoints; answer the
            # client now with a fresh response object (the worker still owns
            # its own), and let the worker die at its next tick.
            REGISTRY.counter("serve.deadline.overrun")
            exc = DeadlineExceeded(
                f"deadline exceeded: no result within "
                f"{self._deadline_for(request, tenant_state.quota):.3f}s "
                f"(+{grace:.3f}s grace)"
            )
            return self._reject(request, tenant, exc, started)
        except BaseException as exc:  # pragma: no cover - defensive
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return self._reject(request, tenant, exc, started)
        response.elapsed_seconds = time.monotonic() - started
        self._account(response, tenant, report, trace)
        return response

    def submit_dict(self, doc: dict) -> dict:
        """Dict-in/dict-out convenience for wire front ends."""
        request = ServiceRequest(
            sql=doc.get("sql"),
            tpch=doc.get("tpch"),
            tenant=str(doc.get("tenant", "default")),
            deadline_seconds=doc.get("deadline_seconds"),
            engine=doc.get("engine"),
            id=doc.get("id"),
            params=doc.get("params"),
            request_id=(
                doc["request_id"] if isinstance(doc.get("request_id"), str) else None
            ),
            traceparent=(
                doc["traceparent"] if isinstance(doc.get("traceparent"), str) else None
            ),
        )
        return self.submit(request).to_dict()

    def prepare(self, request: ServiceRequest):
        """Compile ``request.sql`` through the executor an execution of it
        gets, so the entry is the one every tenant's executions look up."""
        quota = self._tenants.state(
            request.tenant, self._tenant_label(request.tenant)
        ).quota
        executor = self._executor(
            request, quota, self._deadline_for(request, quota), self.config.engines
        )
        return executor.prepare(request.sql, shape=request.statement)

    # -- admission ----------------------------------------------------------

    def _validate(self, request: ServiceRequest) -> None:
        if self._closed:
            raise ReproError("service is shut down")
        if (request.sql is None) == (request.tpch is None):
            from repro.errors import ServiceProtocolError

            raise ServiceProtocolError(
                "request must carry exactly one of 'sql' or 'tpch'"
            )
        if request.engine is not None and request.engine not in ENGINE_CHAIN:
            from repro.errors import ServiceProtocolError

            raise ServiceProtocolError(
                f"unknown engine {request.engine!r}; pick from {ENGINE_CHAIN}"
            )
        if request.params is not None:
            from repro.errors import ServiceProtocolError

            if request.sql is None:
                raise ServiceProtocolError(
                    "'params' is only valid with 'sql' (TPC-H plan requests "
                    "take no bindings)"
                )
            if not isinstance(request.params, (list, tuple, dict)):
                raise ServiceProtocolError(
                    "'params' must be a list (positional '?') or an object "
                    f"(named ':name'), got {type(request.params).__name__}"
                )

    def _deadline_for(self, request: ServiceRequest, quota: TenantQuota) -> float:
        deadline = request.deadline_seconds
        if deadline is None or deadline <= 0:
            deadline = self.config.default_deadline_seconds
        if quota.max_deadline_seconds is not None:
            deadline = min(deadline, quota.max_deadline_seconds)
        return deadline

    def _admit(self, tenant_state, tenant_label: str) -> None:
        """Global bucket -> tenant limits -> gate; all shed, none queue."""
        from repro.errors import RateLimitError

        if self._bucket is not None and not self._bucket.try_acquire():
            REGISTRY.counter("serve.rejected.ratelimit")
            raise RateLimitError(
                f"service over its global rate limit "
                f"({self.config.rate_limit}/s)"
            )
        tenant_state.admit(tenant_label)
        try:
            self._gate.enter()
        except BaseException:
            tenant_state.release()
            raise
        REGISTRY.counter("serve.admitted")

    # -- execution (worker thread) ------------------------------------------

    def _run(
        self, request: ServiceRequest, tenant_state, deadline: float
    ) -> Tuple[ServiceResponse, Optional[ExecutionReport], Optional[dict]]:
        """The response, the answering execution's report (None on error)
        and the request's span tree (None when untraced)."""
        started = time.monotonic()
        rid = request.request_id
        shape = request.shape()
        response = ServiceResponse(
            id=request.id, tenant=request.tenant, request_id=rid, shape=shape
        )
        if request.submitted_at is not None:
            response.queued_seconds = max(0.0, started - request.submitted_at)
        parsed = parse_traceparent(request.traceparent)
        trace_id = parsed[0] if parsed else None
        response.trace_id = trace_id
        # Tail sampling needs the span tree of *every* request (keep/drop
        # is decided at request end), so sampling turns tracing on even
        # when replies do not carry traces.
        trace = None
        if self.config.trace_requests or self.sampler is not None:
            meta = {"shape": shape, "request_id": rid}
            if trace_id is not None:
                meta["trace_id"] = trace_id
                meta["parent_id"] = parsed[1]
            trace = Trace("request", **meta)
            trace.__enter__()
        report = trace_doc = None
        try:
            # Bind the ambient request context so deep layers (the
            # session's single-flight compile, the executor's fallback
            # walk) can stamp events with this id without threading it
            # through every signature.
            with events.request_context(
                rid, shape=shape, tenant=request.tenant, trace_id=trace_id
            ):
                with span("serve.request", tenant=request.tenant):
                    report = self._run_inner(request, tenant_state, deadline, response)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._fill_error(response, exc)
        finally:
            if trace is not None:
                trace.__exit__(None, None, None)
                trace_doc = trace.to_dict()
                if self.config.trace_requests:
                    response.trace = trace_doc
        response.exec_seconds = time.monotonic() - started
        return response, report, trace_doc

    def _run_inner(
        self,
        request: ServiceRequest,
        tenant_state,
        deadline: float,
        response: ServiceResponse,
    ) -> ExecutionReport:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            REGISTRY.counter("serve.deadline.expired_in_queue")
            raise DeadlineExceeded(
                "deadline expired while queued (before execution began)"
            )
        quota = tenant_state.quota
        shape = request.shape()
        decision = self.breaker.decide(shape)
        response.breaker = decision
        executor = self._executor(
            request, quota, remaining, self._engines_for(request, decision)
        )
        compiled_attempted = False
        try:
            if request.sql is not None:
                result = executor.query(
                    request.sql, request.params, shape=request.statement
                )
            else:
                result = executor.execute_plan(
                    self._tpch_plan(request.tpch),
                    cache_key=f"tpch:{request.tpch}",
                    validated=True,
                )
        except BaseException as exc:
            compiled_attempted = self._feed_breaker_from_error(shape, exc)
            if decision == PROBE and not compiled_attempted:
                self.breaker.abort_probe(shape)
            raise self._map_budget_error(exc, quota)
        compiled_attempted = self._feed_breaker_from_report(shape, result.report)
        if decision == PROBE and not compiled_attempted:
            self.breaker.abort_probe(shape)
        response.ok = True
        response.rows = list(result.rows)
        response.engine = result.report.engine
        response.engine_trail = result.report.engine_trail
        response.degraded = result.report.degraded or decision == OPEN
        return result.report

    def _executor(
        self,
        request: ServiceRequest,
        quota: TenantQuota,
        seconds: float,
        engines: Sequence[str],
    ) -> ResilientExecutor:
        """The executor ``request`` runs on: ``seconds`` of deadline (and
        the row quota) as its budget, guarded builds cached."""
        return ResilientExecutor(
            self.session,
            budget=Budget(wall_clock_seconds=seconds, max_rows=quota.max_rows),
            engines=engines,
            cache_guarded_compiles=True,
            instrument=self.config.telemetry,
            request_id=request.request_id,
        )

    def _engines_for(self, request: ServiceRequest, decision: str) -> Sequence[str]:
        if request.engine is not None:
            if request.engine == "compiled" and decision == OPEN:
                REGISTRY.counter("serve.rejected.breaker")
                raise CircuitOpenError(
                    f"circuit breaker open for shape {request.shape()!r} "
                    f"and request pins engine {request.engine!r}",
                    shape=request.shape(),
                )
            return (request.engine,)
        if decision == OPEN:
            REGISTRY.counter("serve.breaker.bypassed")
            interpreted = tuple(e for e in self.config.engines if e != "compiled")
            return interpreted or INTERPRETED_CHAIN
        return self.config.engines

    def _tpch_plan(self, number: int):
        """TPC-H query ``number``'s plan, validated against the session's
        catalog: built and validated on its first request only."""
        from repro.errors import ServiceProtocolError
        from repro.tpch.queries import QUERIES, query_plan

        catalog = self.session.db.catalog
        kept = self._tpch_plans.get(number)
        if kept is not None and kept[0] is catalog:
            return kept[1]
        if number not in QUERIES:
            raise ServiceProtocolError(f"unknown TPC-H query number {number!r}")
        plan = query_plan(number, scale=self.config.query_scale)
        plan.validate(catalog)
        self._tpch_plans[number] = (catalog, plan)
        return plan

    # -- breaker feedback ---------------------------------------------------

    def _feed_breaker_from_report(self, shape: str, report) -> bool:
        """Inspect the attempt trail; True when a compiled engine ran."""
        attempted = False
        for attempt in report.attempts:
            if attempt.engine != "compiled":
                continue
            attempted = True
            if attempt.ok:
                self.breaker.on_success(shape)
            elif attempt.phase in COMPILE_PHASES:
                self.breaker.on_compile_failure(shape)
        return attempted

    def _feed_breaker_from_error(self, shape: str, exc: BaseException) -> bool:
        report = getattr(exc, "execution_report", None)
        if report is None:
            return False
        return self._feed_breaker_from_report(shape, report)

    # -- error shaping ------------------------------------------------------

    def _map_budget_error(
        self, exc: BaseException, quota: TenantQuota
    ) -> BaseException:
        """Wall-clock budget trips were deadline-driven here; rename them.
        A trip of the tenant's row quota stays ``E_BUDGET``."""
        if isinstance(exc, DeadlineExceeded) or not isinstance(exc, BudgetExceeded):
            return exc
        stats = exc.stats
        if quota.max_rows is not None and stats.get("rows_seen", 0) > quota.max_rows:
            return exc
        mapped = DeadlineExceeded(str(exc), stats=stats)
        mapped.engine_trail = exc.engine_trail
        return mapped

    def _fill_error(self, response: ServiceResponse, exc: BaseException) -> None:
        response.ok = False
        if isinstance(exc, ReproError) and exc.request_id is None:
            exc.with_request(response.request_id)
        response.error = error_to_dict(exc)
        report = getattr(exc, "execution_report", None)
        if report is not None:
            response.engine_trail = report.engine_trail

    def _reject(
        self,
        request: ServiceRequest,
        tenant_label: str,
        exc: BaseException,
        started: float,
    ) -> ServiceResponse:
        response = ServiceResponse(
            id=request.id,
            tenant=request.tenant,
            request_id=request.request_id,
            shape=(
                request.shape()
                if (request.sql is not None or request.tpch is not None)
                else None
            ),
        )
        self._fill_error(response, exc)
        response.elapsed_seconds = time.monotonic() - started
        self._account(response, tenant_label)
        return response

    # -- metric labels (wire-controlled, so capped) --------------------------

    def _capped(self, family: tuple, name: str, cap: int, make) -> str:
        """The service's one label rule: the first ``cap`` distinct labels
        (``make(name)``) of a family keep their own name, later ones share
        ``other``, so a hostile client cannot grow the registry without
        bound.  A name's label never changes (the set of labels only
        grows), so the family remembers the labels of its first ``cap``
        names and a repeat costs one dict read."""
        seen, memo = family
        label = memo.get(name)
        if label is not None:
            return label
        label = make(name)
        with self._label_lock:
            if label in seen or len(seen) < cap:
                seen.add(label)
            else:
                label = "other"
            if len(memo) < cap:
                memo[name] = label
        return label

    def _tenant_label(self, tenant: str) -> str:
        """Registry-safe tenant label: sanitized, truncated, capped."""
        return self._capped(
            self._tenant_labels, str(tenant), self.config.max_tenant_labels,
            lambda name: _LABEL_SAFE.sub("_", name)[:_LABEL_MAX_CHARS] or "_",
        )

    def _shape_label(self, shape: str) -> str:
        """Plan-shape label: the shape digest (also on every event-log
        line, so per-shape histograms join the request stream), capped."""
        return self._capped(self._shape_labels, shape, MAX_SHAPE_LABELS, shape_digest)

    # -- accounting: one record per finished request --------------------------

    def _account(
        self,
        response: ServiceResponse,
        tenant_label: str,
        report: Optional[ExecutionReport] = None,
        trace: Optional[dict] = None,
    ) -> None:
        """Build the request's :class:`RequestRecord` and hand it to every
        sink: sampler, histograms, SLO monitor, counters, and the event
        log's one ``request`` line."""
        shape = response.shape
        rec = RequestRecord(
            request_id=response.request_id,
            tenant=response.tenant,
            tenant_label=tenant_label,
            shape=shape,
            shape_label=None if shape is None else self._shape_label(shape),
            outcome="ok" if response.ok else (response.code or "E_RUNTIME"),
            phase=response.error.get("phase") if response.error else None,
            engine=response.engine,
            engine_trail=tuple(response.engine_trail),
            degraded=response.degraded,
            breaker=response.breaker,
            rows=len(response.rows or ()),
            latency_seconds=response.elapsed_seconds,
            queued_seconds=response.queued_seconds,
            exec_seconds=response.exec_seconds,
            trace=trace,
            trace_id=response.trace_id,
            operator_times=getattr(report, "operator_times", None),
            operator_rows=getattr(report, "operator_rows", None),
            kernels=getattr(report, "kernels", None),
        )
        # Tail sampling decides *before* the histogram observations so a
        # kept request's id can ride into the matching latency bucket as
        # an exemplar -- the link from a p99 bucket to its deep profile.
        exemplar = None
        if self.sampler is not None and self.sampler.offer(rec):
            exemplar = rec.request_id
        histograms = [
            "serve.latency_seconds",
            f"serve.tenant.{rec.tenant_label}.latency_seconds",
        ]
        if rec.shape_label is not None:
            histograms.append(f"serve.shape.{rec.shape_label}.latency_seconds")
        REGISTRY.observe_all(histograms, rec.latency_seconds, exemplar=exemplar)
        if self.slo is not None:
            self.slo.record(rec)
        if rec.ok:
            counters = ["serve.completed"]
            if rec.degraded:
                counters.append("serve.degraded")
        else:
            counters = ["serve.failed", f"serve.errors.{rec.outcome}"]
            if rec.outcome == "E_BUDGET":  # only a tenant row quota stays E_BUDGET
                counters.append(f"serve.tenant.{rec.tenant_label}.budget_trips")
        REGISTRY.bump(*counters)
        log = events.installed()
        if log is not None:  # no log, no line: the document is not built
            log.emit("request", **rec.to_dict())

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Operator view: queue, breakers, tenants, ``serve.*`` counters."""
        doc = {
            "queue_depth": self._gate.depth,
            "queue_limit": self._gate.limit,
            "workers": self.config.workers,
            "breakers": self.breaker.snapshot(),
            "tenants": self._tenants.snapshot(),
            "cache": self.session.cache_info(),
            "counters": REGISTRY.counters_with_prefix("serve."),
        }
        if self.sampler is not None:
            doc["sampler"] = self.sampler.stats()
        if self.slo is not None:
            doc["slo"] = self.slo.snapshot()
        return doc
