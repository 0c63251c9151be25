"""A small session facade: SQL in, rows out, compiled queries cached.

This is the "downstream user" surface: it owns a database, plans SQL
through the optimizer, compiles with LB2, and caches compiled queries by
SQL text so repeated statements skip planning and code generation (the
paper: "compilation times ... can often be amortized if queries are
precompiled and used multiple times").

The cache is a bounded LRU (``max_cache_size`` statements) of one
:class:`CacheKey` type behind one lookup (:meth:`Session.compiled`); hits,
misses and evictions feed :data:`repro.obs.metrics.REGISTRY` and are
inspectable via :meth:`Session.cache_info`.

The session is safe to share across threads -- the serving tier
(:mod:`repro.serve`) hammers one instance from a worker pool.  Cache
bookkeeping (LRU order, eviction, counters) is serialized under one lock,
and compilation is *single-flight*: when several threads miss on the same
key concurrently, exactly one compiles while the rest block on the
in-flight build and share its result (or its typed failure).  Compilation
itself runs outside the lock, so a slow compile never blocks cache hits
for other statements.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from repro.compiler.driver import CompiledQuery, LB2Compiler
from repro.compiler.lb2 import Config
from repro.compiler.runtime import have_numpy
from repro.errors import ParamError
from repro.obs import events
from repro.obs.metrics import REGISTRY
from repro.obs.telemetry import TELEMETRY
from repro.obs.trace import span
from repro.plan.explain import explain
from repro.plan.params import Bindings, ParamSlot, check_bindings, collect_params
from repro.plan.physical import PhysicalPlan
from repro.plan.rewrite import optimize_for_level
from repro.sql import sql_to_plan
from repro.sql.shape import StatementShape, normalize_statement, statement_shape
from repro.storage.database import Database


#: Cache-key kinds: what a :class:`CacheKey`'s ``text`` names.
STATEMENT, SHAPE, PLAN = "statement", "shape", "plan"


def served_config(config: Optional[Config] = None) -> Optional[Config]:
    """``config``, or the one a :class:`Session` serves when handed none.

    The fastest lowering is the one served: batch kernels with per-operator
    scalar fallback when NumPy imports (``Config()`` itself stays scalar).
    """
    if config is None and have_numpy():
        return Config(codegen="vector")
    return config


class CacheKey(NamedTuple):
    """Everything a compiled query was specialized against; built only by
    :meth:`Session.cache_key`."""

    kind: str
    text: str
    config: Optional[Config]
    db: int  # the database's identity
    rewrites: bool  # the session's index-rewrite flag

    @property
    def display(self) -> str:
        """The :meth:`Session.cache_info` spelling (``shape:``/``plan:``)."""
        return self.text if self.kind == STATEMENT else f"{self.kind}:{self.text}"


class _Inflight:
    """One in-progress compilation that concurrent misses can wait on."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[CompiledQuery] = None
        self.error: Optional[BaseException] = None


@dataclass
class PreparedStatement:
    """A compiled statement bound to its session, executable many times.

    ``text`` is the canonical statement text (the cache key text); for a
    parameterized statement it shows the placeholders.  :meth:`execute`
    validates ``params`` against :attr:`signature` and runs the shared
    residual program -- one compile serves every binding.  Arity, name and
    Python-type mismatches raise the typed ``E_PARAM`` error.
    """

    session: "Session"
    text: str
    shape: StatementShape
    compiled: CompiledQuery

    @property
    def signature(self) -> tuple[ParamSlot, ...]:
        """The statement's parameter slots, in vector order."""
        return self.compiled.param_signature

    @property
    def source(self) -> str:
        """The residual Python program shared across bindings."""
        return self.compiled.source

    def execute(self, params: Optional[Bindings] = None) -> list[tuple]:
        """Run with ``params`` bound; returns result rows."""
        with span("execute", engine="compiled"):
            return self.compiled.run(self.session.db, params)

    def describe(self) -> str:
        slots = ", ".join(
            f"{s.describe()} {s.ctype.value}" for s in self.signature
        )
        return f"{self.text} [{slots}]" if slots else self.text


@dataclass(frozen=True)
class ResolvedStatement:
    """One statement resolved for execution on *any* engine.

    Bundles the parameterization decision with a plan so the whole
    :class:`~repro.resilience.executor.ResilientExecutor` chain agrees on
    it: ``text`` is the cache text the compiled engine keys on, ``plan``
    is what a miss compiles and the interpreted engines walk, and
    ``vector`` is the validated positional parameter vector the compiled
    program reads and :func:`repro.plan.params.bind_params` substitutes.
    ``signature`` is empty for a non-parameterized statement (then
    ``vector`` is None and ``text`` is the normalized literal spelling);
    ``vector`` is also None for explicit placeholders resolved without
    bindings (a compile-ahead ``prepare``).
    """

    sql: str
    text: str
    plan: PhysicalPlan
    signature: tuple[ParamSlot, ...]
    vector: Optional[tuple]

    @property
    def parameterized(self) -> bool:
        return bool(self.signature)

    @property
    def kind(self) -> str:
        """The cache-key kind ``text`` is compiled under."""
        return SHAPE if self.signature else STATEMENT


class Session:
    """Compile-and-cache query execution against one database."""

    def __init__(
        self,
        db: Database,
        config: Optional[Config] = None,
        use_index_rewrites: bool = True,
        max_cache_size: int = 128,
    ) -> None:
        if max_cache_size <= 0:
            raise ValueError("max_cache_size must be positive")
        self.db = db
        self.config = served_config(config)
        self.use_index_rewrites = use_index_rewrites
        self.max_cache_size = max_cache_size
        self._cache: OrderedDict[tuple, CompiledQuery] = OrderedDict()
        self._inflight: dict[tuple, _Inflight] = {}
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._single_flight_waits = 0
        self._shape_hits = 0
        self._shape_misses = 0
        # Shape texts whose parameterized plan failed with E_PARAM:
        # :meth:`resolve` falls back to per-literal compiles for these and
        # skips re-planning the shape on every call.  (Compiling a planned
        # shape raises no E_PARAM of its own: its only source is
        # ``collect_params``, which resolve ran on that plan and whose
        # signature the compile takes as is.  A literal that does not fit
        # its slot type is not the shape's fault and is never memoized
        # here.)
        self._shape_fallbacks: set[str] = set()

    # -- planning ---------------------------------------------------------------

    def plan(self, sql: str) -> PhysicalPlan:
        """Parse + optimize one SQL statement into a physical plan."""
        with span("plan"):
            plan = sql_to_plan(sql, self.db)
            if self.use_index_rewrites:
                plan = optimize_for_level(plan, self.db, self.db.catalog)
        return plan

    def cache_key(
        self, kind: str, text: str, config: Optional[Config] = None
    ) -> CacheKey:
        """The key of canonical ``text`` of ``kind`` under ``config`` (None:
        the session config).

        Keying by text alone served stale plans after a config change or a
        ``session.db`` swap -- the residual program bakes in dictionary
        layouts, index choices and instrumentation -- so the key carries
        the config (a frozen, hashable dataclass) and the database identity.
        """
        cfg = self.config if config is None else config
        return CacheKey(kind, text, cfg, id(self.db), self.use_index_rewrites)

    def prepare(
        self, sql: str, *, config: Optional[Config] = None
    ) -> CompiledQuery:
        """The compiled query for ``sql`` as written (no literal lifting);
        whitespace, keyword case and comments do not fragment the cache.
        ``config`` overrides the session config for this statement only."""
        return self.compiled(
            self.cache_key(STATEMENT, normalize_statement(sql), config)
        )

    def prepare_shape(
        self, text: str, *, config: Optional[Config] = None
    ) -> CompiledQuery:
        """The compiled query for a :func:`~repro.sql.shape.statement_shape`
        text, shared by every literal variant of the statement (counted in
        ``session.cache.shape_hits``/``shape_misses``)."""
        return self.compiled(self.cache_key(SHAPE, text, config))

    def prepare_plan(
        self,
        plan: PhysicalPlan,
        key: Union[str, CacheKey],
        *,
        config: Optional[Config] = None,
        validated: bool = False,
        signature: Optional[tuple[ParamSlot, ...]] = None,
    ) -> CompiledQuery:
        """Compile-and-cache ``plan`` under ``key``.

        A ``str`` names a hand-built plan under ``config`` (the caller
        owns the contract that one name means one plan).  A
        :class:`CacheKey` is used as is: the resilience layer hands over
        a statement it already planned, so a miss does not plan again.
        ``validated`` and ``signature`` say what the caller already ran,
        as for :meth:`LB2Compiler.compile`; a miss does not run it again.
        """
        if not isinstance(key, CacheKey):
            key = self.cache_key(PLAN, key, config)
        return self.compiled(key, plan, validated=validated, signature=signature)

    def prepare_statement(
        self, sql: str, *, config: Optional[Config] = None
    ) -> PreparedStatement:
        """Prepare ``sql`` once; execute it many times with bindings.

        A statement with explicit placeholders (``?`` positional or
        ``:name`` named) compiles to one shape-keyed residual program that
        closes over the runtime parameter vector;
        :meth:`PreparedStatement.execute` supplies the bindings.  A
        statement without placeholders prepares exactly as written (no
        auto-parameterization -- the user drew the line themselves) and
        executes with no bindings.
        """
        shape = statement_shape(sql)
        if shape.explicit:
            compiled = self.prepare_shape(shape.text, config=config)
            return PreparedStatement(self, shape.text, shape, compiled)
        text = shape.literal_text
        compiled = self.compiled(self.cache_key(STATEMENT, text, config))
        return PreparedStatement(self, text, StatementShape(text=text), compiled)

    def resolve(
        self,
        sql: str,
        params: Optional[Bindings] = None,
        *,
        shape: Optional[StatementShape] = None,
        config: Optional[Config] = None,
    ) -> ResolvedStatement:
        """``sql`` with the parameterization decision made and its
        bindings checked.

        Engine-agnostic front half of execution, shared with the
        resilience layer: explicit placeholders resolve to the shape text
        with the caller's ``params`` as bindings; an eligible literal
        statement auto-parameterizes (its own literals become the
        bindings) unless the shape failed with ``E_PARAM`` or this
        statement's literals do not fit its slots, in which case it --
        and any statement with nothing to lift -- resolves to the
        normalized literal text with no parameters.

        ``shape`` is ``statement_shape(sql)`` when the caller already
        lexed it.  The plan and slot signature are read off the entry
        cached under the key the compiled engine will look up (``config``;
        None: the session config); only when no entry answers is the
        statement planned -- a cache hit does no parsing beyond the one
        lex.
        """
        if shape is None:
            shape = statement_shape(sql)
        if shape.explicit:
            plan, signature = self._plan_of(SHAPE, shape.text, config)
            vector = None if params is None else check_bindings(signature, params)
            return ResolvedStatement(sql, shape.text, plan, signature, vector)
        if params:
            raise ParamError(
                "statement has no parameter placeholders but bindings "
                "were supplied",
                phase="execute",
            )
        if shape.param_count and not self._shape_known_bad(shape.text):
            entry = self._entry(SHAPE, shape.text, config)
            signature: Optional[tuple[ParamSlot, ...]] = None
            if entry is not None:
                plan, signature = entry.plan, entry.param_signature
            elif (
                done := self._entry(STATEMENT, shape.literal_text, config)
            ) is not None:
                # Nothing compiled the shape, but this very variant took
                # the per-literal path before: its entry answers, and the
                # shape is not planned just to learn its slots.
                return ResolvedStatement(
                    sql, shape.literal_text, done.plan, (), None
                )
            else:
                try:
                    plan = self.plan(shape.text)
                    signature = collect_params(plan)
                except ParamError:  # the shape itself cannot be parameterized
                    self._mark_shape_bad(shape.text)
            if signature is not None:
                try:
                    vector = check_bindings(signature, shape.values)
                except ParamError:
                    # This variant's literals do not fit the shape's slot
                    # types: not the shape's fault, so nothing is memoized.
                    pass
                else:
                    return ResolvedStatement(
                        sql, shape.text, plan, signature, vector
                    )
        text = shape.literal_text
        plan, _ = self._plan_of(STATEMENT, text, config)
        return ResolvedStatement(sql, text, plan, (), None)

    def _entry(
        self, kind: str, text: str, config: Optional[Config]
    ) -> Optional[CompiledQuery]:
        """The entry cached under ``cache_key(kind, text, config)``, if
        any.  Reading it counts no hit; the caller's :meth:`compiled`
        lookup does that."""
        with self._lock:
            return self._cache.get(self.cache_key(kind, text, config))

    def _plan_of(
        self, kind: str, text: str, config: Optional[Config]
    ) -> tuple[PhysicalPlan, tuple[ParamSlot, ...]]:
        """The plan and slot signature of ``text``: the cached entry's,
        else planned here."""
        entry = self._entry(kind, text, config)
        if entry is not None:
            return entry.plan, entry.param_signature
        plan = self.plan(text)
        return plan, collect_params(plan) if kind == SHAPE else ()

    def _shape_known_bad(self, text: str) -> bool:
        with self._lock:
            return text in self._shape_fallbacks

    def _mark_shape_bad(self, text: str) -> None:
        with self._lock:
            self._shape_fallbacks.add(text)

    def compiled(
        self,
        key: CacheKey,
        plan: Optional[PhysicalPlan] = None,
        *,
        validated: bool = False,
        signature: Optional[tuple[ParamSlot, ...]] = None,
    ) -> CompiledQuery:
        """The one cache lookup, single-flight: a miss compiles ``plan``
        (default: ``key.text`` planned) under ``key.config``, passing
        ``validated`` and ``signature`` on to :meth:`LB2Compiler.compile`.
        LRU: a hit refreshes recency; past ``max_cache_size`` the oldest
        goes."""
        while True:
            wait_for: Optional[_Inflight] = None
            with self._lock:
                shaped = key.kind == SHAPE
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self._hits += 1
                    if shaped:
                        self._shape_hits += 1
                        REGISTRY.bump("session.cache.hits", "session.cache.shape_hits")
                    else:
                        REGISTRY.counter("session.cache.hits")
                    return cached
                flight = self._inflight.get(key)
                if flight is not None:
                    wait_for = flight
                else:
                    flight = _Inflight()
                    self._inflight[key] = flight
                    self._misses += 1
                    REGISTRY.counter("session.cache.misses")
                    if shaped:
                        self._shape_misses += 1
                        REGISTRY.counter("session.cache.shape_misses")
            if wait_for is not None:
                wait_for.event.wait()
                with self._lock:
                    self._single_flight_waits += 1
                    REGISTRY.counter("session.cache.single_flight_waits")
                if wait_for.error is not None:
                    # Each waiter raises its own shallow copy: exception
                    # instances carry mutable state (tracebacks, engine
                    # trails) that must not be shared across threads.
                    raise copy.copy(wait_for.error)
                result = wait_for.result
                assert result is not None
                return result
            # This thread owns the compile; run it outside the lock.
            t0 = time.perf_counter()
            try:
                with span("compile", statement=key.display):
                    if plan is None:
                        plan = self.plan(key.text)
                    compiled = LB2Compiler(
                        self.db.catalog, self.db, key.config
                    ).compile(plan, validated=validated, signature=signature)
            except BaseException as exc:
                flight.error = exc
                with self._lock:
                    self._inflight.pop(key, None)
                flight.event.set()
                raise
            # Exactly one compile event / telemetry sample per actual
            # compilation: waiters and cache hits never reach this point.
            # The ambient request context (serve worker threads) supplies
            # the request id; the shape falls back to the cache key's
            # display text for library callers.
            shape = events.current_shape() or key.display
            seconds = time.perf_counter() - t0
            events.emit(
                "compile",
                shape=shape,
                seconds=round(seconds, 6),
                generation_seconds=round(compiled.generation_seconds, 6),
                host_seconds=round(compiled.compile_seconds, 6),
            )
            TELEMETRY.record_compile(
                shape,
                seconds,
                generation_seconds=compiled.generation_seconds,
                host_seconds=compiled.compile_seconds,
            )
            with self._lock:
                self._cache[key] = compiled
                while len(self._cache) > self.max_cache_size:
                    self._cache.popitem(last=False)
                    self._evictions += 1
                    REGISTRY.counter("session.cache.evictions")
                self._inflight.pop(key, None)
            flight.result = compiled
            flight.event.set()
            return compiled

    # -- execution -----------------------------------------------------------------

    def query(
        self, sql: str, params: Optional[Bindings] = None
    ) -> list[tuple]:
        """Execute SQL (compiled); returns result rows.

        :meth:`resolve` makes the parameterization decision -- explicit
        placeholders bind ``params``, eligible literals auto-parameterize
        onto one shape-keyed compile, anything else compiles per literal
        (results are identical either way) -- and the compiled engine
        runs the entry cached under the key it names.
        """
        resolved = self.resolve(sql, params)
        compiled = self.compiled(
            self.cache_key(resolved.kind, resolved.text), resolved.plan
        )
        with span("execute", engine="compiled"):
            return compiled.run(self.db, resolved.vector)

    def execute_plan(self, plan: PhysicalPlan) -> list[tuple]:
        """Execute a hand-built physical plan (compiled, uncached)."""
        compiler = LB2Compiler(self.db.catalog, self.db, self.config)
        return compiler.compile(plan).run(self.db)

    def analyze(self, sql: str) -> tuple[list[tuple], dict[str, int]]:
        """Execute with per-operator row counters (EXPLAIN ANALYZE).

        Returns ``(rows, stats)`` where stats maps operator labels to the
        number of records each emitted.  Compiles a fresh instrumented
        query (not cached -- counters cost a little on the hot path).
        For the full annotated tree -- wall-time, selectivity, kernel
        counts, any engine -- use :meth:`explain_analyze`.
        """
        from dataclasses import replace

        base = self.config or Config()
        compiler = LB2Compiler(
            self.db.catalog, self.db, replace(base, instrument=True)
        )
        compiled = compiler.compile(self.plan(sql))
        rows = compiled.run(self.db)
        return rows, dict(compiled.last_stats or {})

    def explain_analyze(self, sql: str, engine: str = "compiled"):
        """The annotated operator tree: rows, wall-time, selectivity.

        ``engine`` is ``"compiled"`` (the session's own config, lowering
        included), ``"push"`` or ``"volcano"``; all three label operators
        identically, so their numbers are directly comparable.  Returns an
        :class:`repro.obs.explain.ExplainAnalyze`.
        """
        from repro.obs.explain import explain_analyze_plan

        with span("explain_analyze", engine=engine):
            return explain_analyze_plan(
                self.db, self.plan(sql), engine=engine, config=self.config
            )

    # -- introspection -----------------------------------------------------------------

    def explain(self, sql: str) -> str:
        """The optimized physical plan for ``sql``, pretty-printed."""
        return explain(self.plan(sql), self.db.catalog)

    def generated_code(self, sql: str) -> str:
        """The residual Python program for ``sql``."""
        return self.prepare(sql).source

    @property
    def cached_statements(self) -> int:
        with self._lock:
            return len(self._cache)

    def cache_info(self) -> dict:
        """Size, bound, keys (LRU -> MRU order) and hit/miss/evict counts."""
        with self._lock:
            return {
                "size": len(self._cache),
                "max_size": self.max_cache_size,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "single_flight_waits": self._single_flight_waits,
                "shape_hits": self._shape_hits,
                "shape_misses": self._shape_misses,
                "statements": [key.display for key in self._cache],
            }

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
            self._shape_fallbacks.clear()

    def invalidate(self) -> None:
        """Drop every cached compiled query (alias of :meth:`clear_cache`).

        This covers parameterized statements too: shape-keyed entries
        (``shape:`` keys) live in the same LRU, and the shape-fallback
        memo is reset so previously unparameterizable statements get a
        fresh chance after whatever changed.  The resilience layer calls
        this (or :meth:`forget`) when a cached plan misbehaves at run
        time, so degradation never re-serves a known-bad residual program.
        """
        self.clear_cache()

    def forget(self, sql: str, *, config: Optional[Config] = None) -> bool:
        """Evict one statement's compiled queries; True when any was cached.

        ``config`` selects which specialization to evict (the same default
        as :meth:`prepare`: the session config).

        Parameterized-statement contract: a statement maps to up to two
        cache entries -- the per-literal compile (normalized text, the
        :meth:`prepare` key) and the shape-keyed compile shared with every
        literal variant (the :meth:`query`/:meth:`prepare_statement` key).
        ``forget`` evicts both, and clears the statement's shape-fallback
        memo, so the next execution recompiles from scratch no matter
        which path cached it.  Note the shape entry is shared: forgetting
        one literal variant forgets the compile for all of them.
        """
        shape = statement_shape(sql)
        keys = [self.cache_key(STATEMENT, shape.literal_text, config)]
        if shape.parameterized:
            keys.append(self.cache_key(SHAPE, shape.text, config))
            with self._lock:
                self._shape_fallbacks.discard(shape.text)
        return self.evict(*keys)

    def evict(self, *keys: CacheKey) -> bool:
        """Drop these entries; True when any of them was cached."""
        with self._lock:
            return any([self._cache.pop(key, None) is not None for key in keys])
