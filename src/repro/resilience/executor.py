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

from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.engine.push import build_op
from repro.engine.volcano import iterate
from repro.errors import BudgetExceeded, ReproError, error_code, error_phase
from repro.obs import events
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.plan.params import check_bindings
from repro.resilience.budget import Budget, BudgetGuard
from repro.resilience.faults import active_injector
from repro.resilience.policy import DEFAULT_POLICY, FallbackPolicy
from repro.session import PLAN
from repro.sql.shape import StatementShape

#: The degradation order: fastest first, most battle-tested last.  (The
#: vector lowering is ``Config(codegen="vector")`` on the session.)
ENGINE_CHAIN = ("compiled", "push", "volcano")

#: Derived configs, ``(base, budget_checks, instrument) -> copy``: each is
#: built once per distinct base config and override set, so every request
#: of a shape keys the session cache with the one ``Config`` object.
_DERIVED: dict = {}


def derived_config(
    config: Optional[Config], budget_checks: bool, instrument: bool
) -> Optional[Config]:
    """``config`` (None: the scalar default) with scan checkpoints and/or
    per-operator timers on; ``config`` itself when neither is asked."""
    if not (budget_checks or instrument):
        return config
    key = (config, budget_checks, instrument)
    derived = _DERIVED.get(key)
    if derived is None:
        overrides: dict = {}
        if budget_checks:
            overrides["budget_checks"] = True
        if instrument:
            overrides["instrument"] = True
        derived = _DERIVED.setdefault(key, replace(config or Config(), **overrides))
    return derived


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
        unknown = [e for e in engines if e not in ENGINE_CHAIN]
        if unknown:
            raise ValueError(f"unknown engines {unknown}; pick from {ENGINE_CHAIN}")
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
        # request at a time): the validated positional vector, None for a
        # non-parameterized statement.
        self._param_vector: Optional[tuple] = None

    # -- public surface -----------------------------------------------------

    def query(
        self, sql: str, params=None, *, shape: Optional[StatementShape] = None
    ) -> ResilientResult:
        """Execute SQL with fallback; planning errors re-raise untouched
        (a bad query is a bad query on every engine).

        ``params`` binds explicit placeholders; statements without
        placeholders auto-parameterize eligible literals via
        :meth:`Session.resolve`, so the whole chain -- compiled shapes,
        interpreted substitution -- agrees on one parameterization.
        Binding errors (arity, names, Python types) raise ``E_PARAM``
        before the first attempt: a bad binding is bad on every engine,
        so it never reaches the fallback policy.  ``shape`` is
        ``statement_shape(sql)`` when the caller already lexed it; on a
        cache hit the statement is not planned at all.
        """
        config = self._config()
        resolved = self.session.resolve(sql, params, shape=shape, config=config)
        if resolved.parameterized and resolved.vector is None:
            check_bindings(resolved.signature, None)  # raises: none given
        self._param_vector = resolved.vector
        try:
            return self._execute(resolved.plan, resolved.kind, resolved.text, config)
        finally:
            self._param_vector = None

    def execute_plan(self, plan, cache_key: Optional[str] = None) -> ResilientResult:
        """Execute a hand-built physical plan with fallback.

        With ``cache_key`` set, the compiled engine caches the build under
        that plan name (compile-once semantics for plan-level callers);
        without it, every call compiles fresh.
        """
        plan.validate(self.session.db.catalog)
        return self._execute(plan, PLAN, cache_key, self._config())

    def prepare(self, sql: str, *, shape: Optional[StatementShape] = None):
        """Resolve ``sql`` as :meth:`query` does and compile it under the
        key :meth:`query` will look up (if it caches at all); returns the
        :class:`~repro.session.ResolvedStatement`."""
        config = self._config()
        resolved = self.session.resolve(sql, shape=shape, config=config)
        key = self._cache_key(resolved.kind, resolved.text, config)
        if key is not None:
            self.session.prepare_plan(resolved.plan, key)
        return resolved

    # -- the chain ----------------------------------------------------------

    def _execute(
        self, plan, kind: str, text: Optional[str], config
    ) -> ResilientResult:
        """Walk the chain; ``config`` is what the compiled engine builds
        under (:meth:`_config`, derived once per request)."""
        report = ExecutionReport(
            budget=self.budget,
            request_id=self.request_id or events.current_request_id(),
        )
        guard = BudgetGuard(self.budget) if self._budget_active() else None
        last_error: Optional[BaseException] = None
        for index, engine in enumerate(self.engines):
            start = time.perf_counter()
            ok = False
            self._captured_compiled = None
            with span("attempt", engine=engine) as sp:
                try:
                    if engine == "compiled":
                        rows = self._run_compiled(plan, kind, text, guard, config)
                    else:
                        rows = self._run_interpreted(engine, plan, guard)
                    if guard is not None:
                        # One last clock check: an answer that is ready only
                        # after the deadline is a trip, not a late reply.
                        guard.tick(0)
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
                    if sp:
                        sp.meta["error"] = error_code(exc) or type(exc).__name__
                    if engine == "compiled" and not isinstance(exc, BudgetExceeded):
                        # Auto-invalidate: never serve a cached compiled query
                        # that just failed (stale plan, codegen bug...).  A
                        # budget or deadline trip is the request's, not the
                        # build's: the build stays cached.
                        self._forget_compiled(kind, text, config)
                    if not self.policy.should_degrade(exc):
                        self._attach(exc, report, guard)
                        raise
                    if index + 1 < len(self.engines):  # the next engine runs
                        events.emit(
                            "fallback",
                            request_id=report.request_id,
                            engine=engine,
                            code=error_code(exc),
                            phase=error_phase(exc) or "execute",
                        )
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

    def _config(self):
        """The session config, or its copy with scan checkpoints (budgets,
        mid-scan faults) and/or per-operator timers (telemetry) on."""
        return derived_config(
            self.session.config, self._needs_ticks(), self.instrument
        )

    def _cache_key(self, kind: str, text: Optional[str], config):
        """The session key of the build under ``config``; None when it is
        not cached: nothing names it, or the config is overridden (a copy,
        not the session's object) without ``cache_guarded_compiles``."""
        if text is None or (
            config is not self.session.config and not self.cache_guarded_compiles
        ):
            return None
        return self.session.cache_key(kind, text, config)

    def _forget_compiled(self, kind: str, text: Optional[str], config) -> None:
        """Never serve a cached compiled query that just failed: evict this
        run's key and the same statement under the session's own config."""
        if text is not None:
            session = self.session
            session.evict(
                session.cache_key(kind, text, config),
                session.cache_key(kind, text),
            )

    def _run_compiled(
        self,
        plan,
        kind: str,
        text: Optional[str],
        guard: Optional[BudgetGuard],
        config,
    ) -> list[tuple]:
        session = self.session
        key = self._cache_key(kind, text, config)
        if key is None:
            compiled = LB2Compiler(session.db.catalog, session.db, config).compile(plan)
        else:
            compiled = session.prepare_plan(plan, key)
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

    def _run_interpreted(
        self, engine: str, plan, guard: Optional[BudgetGuard]
    ) -> list[tuple]:
        """Push or Volcano over the plan with this request's bindings."""
        db = self.session.db
        plan = self._bound_plan(plan)
        names = plan.field_names(db.catalog)
        out: list[tuple] = []

        def collect(row: dict) -> None:
            if guard is not None:
                guard.tick(1)
            out.append(tuple(row[n] for n in names))

        if engine == "push":
            build_op(plan, db, db.catalog).exec(collect)
        else:
            for row in iterate(plan, db, db.catalog):
                collect(row)
        return out
