"""The engine fallback chain: compiled -> push interpreter -> Volcano.

The repo has three independent evaluation paths that answer every query
identically (the differential-testing backbone); this module turns that
redundancy into fault tolerance.  A :class:`ResilientExecutor` wraps a
:class:`repro.session.Session` and walks the chain: if the compiled path
fails -- codegen bug, verifier rejection, crash inside the residual
program -- the query transparently retries on the push interpreter, then
on Volcano, recording every attempt in an :class:`ExecutionReport`.  The
:class:`repro.resilience.policy.FallbackPolicy` decides which errors
degrade and which re-raise (a malformed plan fails everywhere; retrying it
is noise, not resilience).

Budgets ride along: with a :class:`repro.resilience.budget.Budget` set,
the compiled engine is built with ``Config(budget_checks=True)`` so the
residual scan loops tick cooperatively, and the interpreted engines tick
once per row reaching the result collector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.errors import ReproError, error_code, error_phase
from repro.obs import events
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.resilience.budget import Budget, BudgetGuard
from repro.resilience.faults import active_injector
from repro.resilience.policy import DEFAULT_POLICY, FallbackPolicy

#: The default degradation order: fastest first, most battle-tested last.
ENGINE_CHAIN = ("compiled", "push", "volcano")

#: Every available engine, including the opt-in batch-vectorized compiled
#: path.  "vector" is not in the default chain: it shares the compiled
#: engine's failure modes, so degrading vector -> compiled would usually
#: retry the same bug; chains that want it say so explicitly, e.g.
#: ``ResilientExecutor(session, engines=FULL_CHAIN)``.
FULL_CHAIN = ("vector",) + ENGINE_CHAIN


@dataclass
class EngineAttempt:
    """One engine's try at a query: outcome, timing, failure details."""

    engine: str
    seconds: float
    error: Optional[str] = None
    error_code: Optional[str] = None
    phase: Optional[str] = None
    fault_site: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def describe(self) -> str:
        if self.ok:
            return f"{self.engine}: ok ({self.seconds * 1e3:.2f} ms)"
        site = f" fault={self.fault_site}" if self.fault_site else ""
        return (
            f"{self.engine}: {self.error_code} in phase {self.phase}{site}"
            f" ({self.error})"
        )


@dataclass
class ExecutionReport:
    """What happened on the way to an answer (or to exhaustion)."""

    attempts: list[EngineAttempt] = field(default_factory=list)
    engine: Optional[str] = None  # the engine that produced the rows
    budget: Optional[Budget] = None
    budget_stats: Optional[dict] = None
    request_id: Optional[str] = None  # serve-tier correlation id
    # Per-operator telemetry, populated when the executor was built with
    # ``instrument=True`` and a compiled engine answered: label -> seconds,
    # label -> rows, and the vector backend's kernel counts.
    operator_times: Optional[dict] = None
    operator_rows: Optional[dict] = None
    kernels: Optional[dict] = None

    @property
    def engine_trail(self) -> tuple[str, ...]:
        return tuple(a.engine for a in self.attempts)

    @property
    def degraded(self) -> bool:
        return len(self.attempts) > 1

    @property
    def faults(self) -> tuple[str, ...]:
        """Fault-injection sites encountered across attempts."""
        return tuple(a.fault_site for a in self.attempts if a.fault_site)

    def describe(self) -> str:
        lines = [a.describe() for a in self.attempts]
        head = f"engine={self.engine or 'none'} trail={'->'.join(self.engine_trail)}"
        return "\n".join([head] + lines)


@dataclass
class ResilientResult:
    """Result rows plus the execution report that explains them."""

    rows: list[tuple]
    report: ExecutionReport

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class ResilientExecutor:
    """Fault-tolerant query execution over a :class:`Session`.

    ``engines`` is the ordered fallback chain (a subset/permutation of
    :data:`ENGINE_CHAIN`); ``budget`` bounds every attempt jointly --
    elapsed time and scanned rows accumulate across the chain, so a
    degraded query cannot spend three budgets.
    """

    def __init__(
        self,
        session,
        policy: Optional[FallbackPolicy] = None,
        budget: Optional[Budget] = None,
        engines: Sequence[str] = ENGINE_CHAIN,
        cache_guarded_compiles: bool = False,
        instrument: bool = False,
        request_id: Optional[str] = None,
    ) -> None:
        unknown = [e for e in engines if e not in FULL_CHAIN]
        if unknown:
            raise ValueError(f"unknown engines {unknown}; pick from {FULL_CHAIN}")
        if not engines:
            raise ValueError("at least one engine is required")
        self.session = session
        self.policy = policy or DEFAULT_POLICY
        self.budget = budget
        self.engines = tuple(engines)
        # The serving tier sets this: budget-checked builds go through the
        # session cache (keyed by their own config) instead of compiling
        # fresh per request, so deadlines don't forfeit compile-once
        # economics.  Off by default: one-shot guarded runs (tests, ad-hoc
        # scripts) should not populate the cache with guarded variants.
        self.cache_guarded_compiles = cache_guarded_compiles
        # With ``instrument=True`` the compiled engines build with staged
        # per-operator timers (``Config(instrument=True)``, its own cache
        # key) and the report carries operator_times/operator_rows/kernels
        # -- what the serve tier feeds the workload-telemetry store.
        self.instrument = instrument
        # The serve tier's correlation id; attached to the report and to
        # every error leaving the chain.  An executor instance serves one
        # request at a time (the serve tier builds one per request).
        self.request_id = request_id
        self._captured_compiled = None
        # Per-request parameterization state (an executor serves one
        # request at a time): the validated positional vector and the
        # shape text the compiled engine keys its cache on.  None/None for
        # a non-parameterized statement.
        self._param_vector: Optional[tuple] = None
        self._shape_text: Optional[str] = None

    # -- public surface -----------------------------------------------------

    def query(self, sql: str, params=None) -> ResilientResult:
        """Execute SQL with fallback; planning errors re-raise untouched
        (a bad query is a bad query on every engine).

        ``params`` binds explicit placeholders; statements without
        placeholders auto-parameterize eligible literals via
        :meth:`Session.resolve`, so the whole chain -- compiled shapes,
        interpreted substitution -- agrees on one parameterization.
        Binding errors (arity, names, Python types) raise ``E_PARAM``
        before the first attempt: a bad binding is bad on every engine.
        """
        from repro.plan.params import check_bindings

        resolved = self.session.resolve(sql, params)
        vector: Optional[tuple] = None
        if resolved.parameterized:
            vector = check_bindings(resolved.signature, resolved.bindings)
        self._param_vector = vector
        self._shape_text = resolved.text if resolved.parameterized else None
        try:
            return self._execute(resolved.plan, sql=sql)
        finally:
            self._param_vector = None
            self._shape_text = None

    def execute_plan(self, plan, cache_key: Optional[str] = None) -> ResilientResult:
        """Execute a hand-built physical plan with fallback.

        With ``cache_key`` set, the compiled engine caches the build under
        that key via :meth:`Session.prepare_plan` (compile-once semantics
        for plan-level callers); without it, every call compiles fresh.
        """
        plan.validate(self.session.db.catalog)
        return self._execute(plan, sql=None, cache_key=cache_key)

    # -- the chain ----------------------------------------------------------

    def _execute(
        self, plan, sql: Optional[str], cache_key: Optional[str] = None
    ) -> ResilientResult:
        report = ExecutionReport(
            budget=self.budget,
            request_id=self.request_id or events.current_request_id(),
        )
        guard = BudgetGuard(self.budget) if self._budget_active() else None
        last_error: Optional[BaseException] = None
        for engine in self.engines:
            start = time.perf_counter()
            ok = False
            self._captured_compiled = None
            with span("attempt", engine=engine) as sp:
                try:
                    rows = self._run_engine(engine, plan, sql, guard, cache_key)
                    ok = True
                except BaseException as exc:  # noqa: BLE001 - the policy decides
                    report.attempts.append(
                        EngineAttempt(
                            engine=engine,
                            seconds=time.perf_counter() - start,
                            error=str(exc) or type(exc).__name__,
                            error_code=error_code(exc),
                            phase=error_phase(exc),
                            fault_site=getattr(exc, "site", None),
                        )
                    )
                    last_error = exc
                    REGISTRY.counter(f"engine.failed.{engine}")
                    events.emit(
                        "fallback",
                        request_id=report.request_id,
                        engine=engine,
                        code=error_code(exc),
                        phase=error_phase(exc) or "execute",
                    )
                    if sp:
                        sp.meta["error"] = error_code(exc) or type(exc).__name__
                    if engine == "compiled":
                        # Auto-invalidate: never serve a cached compiled query
                        # that just failed (stale plan, codegen bug...).
                        self._forget_compiled(sql, cache_key)
                    if not self.policy.should_degrade(exc):
                        self._attach(exc, report, guard)
                        raise
            if not ok:
                continue
            report.attempts.append(
                EngineAttempt(engine=engine, seconds=time.perf_counter() - start)
            )
            report.engine = engine
            REGISTRY.counter(f"engine.selected.{engine}")
            if report.degraded:
                REGISTRY.counter("engine.degraded")
            if guard is not None:
                report.budget_stats = guard.stats()
            captured = self._captured_compiled
            self._captured_compiled = None
            if captured is not None and captured.instrumented:
                # The staged instrumentation's per-operator views, taken
                # right after this request's run (the CompiledQuery object
                # is shared across requests of the same shape, so a late
                # read could see a sibling's numbers -- same shape, so the
                # aggregate telemetry stays correct either way).
                report.operator_times = dict(captured.last_times or {})
                report.operator_rows = dict(captured.last_stats or {})
                report.kernels = dict(captured.last_kernels or {})
            self._merge_trail(report)
            return ResilientResult(rows, report)
        assert last_error is not None
        self._attach(last_error, report, guard)
        raise last_error

    @staticmethod
    def _merge_trail(report: ExecutionReport) -> None:
        """Merge the fallback trail into the active trace, if any."""
        with span("report") as sp:
            if sp:
                sp.meta["engine_trail"] = "->".join(report.engine_trail)
                sp.meta["engine"] = report.engine
                sp.meta["degraded"] = report.degraded

    def _attach(
        self,
        exc: BaseException,
        report: ExecutionReport,
        guard: Optional[BudgetGuard],
    ) -> None:
        """Decorate an outgoing error with the trail and partial stats."""
        if guard is not None:
            report.budget_stats = guard.stats()
        if isinstance(exc, ReproError):
            exc.with_trail(report.engine_trail)
            if report.request_id is not None and exc.request_id is None:
                exc.with_request(report.request_id)
        # Always reachable for post-mortems, taxonomy member or not.
        exc.execution_report = report  # type: ignore[attr-defined]

    # -- engines ------------------------------------------------------------

    def _budget_active(self) -> bool:
        return self.budget is not None and not self.budget.unlimited

    def _needs_ticks(self) -> bool:
        """Must the compiled engine emit scan checkpoints this run?"""
        if self._budget_active():
            return True
        injector = active_injector()
        return injector is not None and any(
            spec.site == "mid-scan" for spec in injector.specs
        )

    def _run_engine(
        self,
        engine: str,
        plan,
        sql: Optional[str],
        guard: Optional[BudgetGuard],
        cache_key: Optional[str] = None,
    ) -> list[tuple]:
        if engine == "compiled":
            return self._run_compiled(plan, sql, guard, cache_key)
        if engine == "vector":
            return self._run_vector(plan, guard)
        if engine == "push":
            return self._run_push(plan, guard)
        return self._run_volcano(plan, guard)

    def _config_overrides(self) -> dict:
        """Config fields this run must override on the session config."""
        overrides: dict = {}
        if self._needs_ticks():
            overrides["budget_checks"] = True
        if self.instrument:
            overrides["instrument"] = True
        return overrides

    def _override_config(self, **extra):
        from repro.compiler.lb2 import Config

        base = self.session.config or Config()
        return replace(base, **self._config_overrides(), **extra)

    def _forget_compiled(self, sql: Optional[str], cache_key: Optional[str]) -> None:
        """Evict whatever cache entries the failed compiled attempt used."""
        session = self.session
        configs = [None]
        if self.cache_guarded_compiles and self._config_overrides():
            configs.append(self._override_config())
        for config in configs:
            if sql is not None:
                session.forget(sql, config=config)
            if cache_key is not None:
                session.forget_plan(cache_key, config=config)

    def _run_compiled(
        self,
        plan,
        sql: Optional[str],
        guard: Optional[BudgetGuard],
        cache_key: Optional[str] = None,
    ) -> list[tuple]:
        from repro.compiler.driver import LB2Compiler

        session = self.session
        shape_text = self._shape_text
        if self._config_overrides():
            # Overridden build: cooperative checkpoints in the scan loops
            # (budgets/deadlines) and/or staged per-operator timers
            # (telemetry).  Cached only when the owner opted in (the
            # serving tier, where fresh-compile-per-request would forfeit
            # the compile-once economics); otherwise fresh.
            config = self._override_config()
            if self.cache_guarded_compiles and shape_text is not None:
                compiled = session.prepare_shape(shape_text, config=config)
            elif self.cache_guarded_compiles and sql is not None:
                compiled = session.prepare(sql, config=config)
            elif self.cache_guarded_compiles and cache_key is not None:
                compiled = session.prepare_plan(plan, cache_key, config=config)
            else:
                compiled = LB2Compiler(
                    session.db.catalog, session.db, config
                ).compile(plan)
        elif shape_text is not None:
            # Parameterized statement: the shape-keyed entry is shared
            # across every literal variant -- this is where one compile
            # serves many bindings.
            compiled = session.prepare_shape(shape_text)
        elif sql is not None:
            compiled = session.prepare(sql)
        elif cache_key is not None:
            compiled = session.prepare_plan(plan, cache_key)
        else:
            compiled = LB2Compiler(
                session.db.catalog, session.db, session.config
            ).compile(plan)
        return self._run_query(compiled, guard)

    def _run_vector(self, plan, guard: Optional[BudgetGuard]) -> list[tuple]:
        """The compiled engine with the batch-vectorized codegen backend.

        Always a fresh compile (the session cache is keyed by its own
        config).  Under an active budget the vector backend itself falls
        back to scalar code -- budget ticks are defined per row -- so the
        guarded build is equivalent to the compiled engine's.
        """
        from repro.compiler.driver import LB2Compiler

        session = self.session
        config = self._override_config(codegen="vector")
        compiled = LB2Compiler(session.db.catalog, session.db, config).compile(plan)
        return self._run_query(compiled, guard)

    def _run_query(self, compiled, guard: Optional[BudgetGuard]) -> list[tuple]:
        """Run a compiled query with this request's parameter vector."""
        self._captured_compiled = compiled
        db = self.session.db
        if guard is None:
            return compiled.run(db, self._param_vector)
        with guard:
            return compiled.run(db, self._param_vector)

    def _bound_plan(self, plan):
        """The plan with this request's parameters substituted as consts.

        The interpreted engines evaluate expressions directly, so they
        take the bound plan; the compiled engines never need it -- their
        residual program reads the vector at run time.
        """
        if self._param_vector is None:
            return plan
        from repro.plan.params import bind_params

        return bind_params(plan, self._param_vector)

    def _run_push(self, plan, guard: Optional[BudgetGuard]) -> list[tuple]:
        from repro.engine.push import build_op

        db = self.session.db
        plan = self._bound_plan(plan)
        names = plan.field_names(db.catalog)
        out: list[tuple] = []

        def collect(row: dict) -> None:
            if guard is not None:
                guard.tick(1)
            out.append(tuple(row[n] for n in names))

        build_op(plan, db, db.catalog).exec(collect)
        return out

    def _run_volcano(self, plan, guard: Optional[BudgetGuard]) -> list[tuple]:
        from repro.engine.volcano import iterate

        db = self.session.db
        plan = self._bound_plan(plan)
        names = plan.field_names(db.catalog)
        out: list[tuple] = []
        for row in iterate(plan, db, db.catalog):
            if guard is not None:
                guard.tick(1)
            out.append(tuple(row[n] for n in names))
        return out
