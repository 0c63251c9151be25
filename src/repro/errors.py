"""The structured error taxonomy shared by every layer.

One :class:`ReproError` hierarchy replaces the former scatter of unrelated
exception bases (``PlanError``, ``CompileError``, ``ParallelError``,
``PushError``, ``VolcanoError``...).  The old names remain as subclasses in
their home modules, so existing ``except`` clauses keep working; what is
new is that every public error now carries

* ``code``  -- a stable machine-readable identifier (``E_*``),
* ``phase`` -- the compilation/execution phase that failed
  (``plan``, ``codegen``, ``verify``, ``host-compile``, ``execute``...),
* ``engine_trail`` -- the engines attempted before this error surfaced,
  filled in by the resilience layer's fallback chain.

This module is a deliberate leaf: it imports nothing from the rest of the
package so that any layer (catalog, plan, staging, engines, compiler) can
depend on it without cycles.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Phases an error can be attributed to, in pipeline order.  ``admit`` is
#: the serving tier's front door: a request can be rejected (queue full,
#: rate limit, open circuit breaker) before any compilation phase runs.
PHASES = (
    "admit",
    "catalog",
    "plan",
    "codegen",
    "verify",
    "host-compile",
    "execute",
)

#: Phases that belong to the *compile path* -- the circuit breaker in the
#: serve tier counts consecutive failures in these phases per plan shape.
COMPILE_PHASES = frozenset({"codegen", "verify", "host-compile"})

#: ``code -> class`` registry, populated by ``__init_subclass__``.
ERROR_CODES: dict[str, type] = {}


class ReproError(Exception):
    """Base of every error the system raises on purpose.

    Subclasses set ``code`` and ``phase`` as class attributes; the
    resilience layer attaches ``engine_trail`` to instances as it walks
    the fallback chain.
    """

    code: str = "E_REPRO"
    phase: str = "execute"
    engine_trail: tuple[str, ...] = ()
    request_id: Optional[str] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # First class to claim a code owns it; compatibility subclasses
        # (e.g. a module-local alias) inherit without re-registering.
        ERROR_CODES.setdefault(cls.code, cls)

    def with_trail(self, trail: Sequence[str]) -> "ReproError":
        """Attach the attempted-engine trail; returns ``self`` for re-raise."""
        self.engine_trail = tuple(trail)
        return self

    def with_request(self, request_id: Optional[str]) -> "ReproError":
        """Attach the originating request's correlation id; returns ``self``.

        The serve tier stamps every error it ships with the request id it
        minted (or echoed) at admission, so a wire error joins the event
        log and the trace exactly like a successful reply does.
        """
        self.request_id = request_id
        return self

    def describe(self) -> str:
        """One-line structured rendering: code, phase, trail, message."""
        trail = "->".join(self.engine_trail) if self.engine_trail else "-"
        return f"[{self.code} phase={self.phase} trail={trail}] {self}"


class BudgetExceeded(ReproError):
    """A query ran past its wall-clock, row, or allocation budget.

    Carries the partial execution statistics gathered up to the point the
    guard fired, so callers can report how far the query got.
    """

    code = "E_BUDGET"
    phase = "execute"

    def __init__(self, message: str, stats: Optional[dict] = None) -> None:
        super().__init__(message)
        self.stats: dict = dict(stats or {})


class InjectedFault(ReproError):
    """A deterministic failure raised by the fault-injection harness.

    ``site`` names where the fault fired (one of
    :data:`repro.resilience.faults.FAULT_SITES`); tests use it to assert
    that every degradation path is exercised.
    """

    code = "E_FAULT"
    phase = "execute"

    _SITE_PHASES = {
        "codegen": "codegen",
        "verify": "verify",
        "host-compile": "host-compile",
        "worker-run": "execute",
        "mid-scan": "execute",
    }

    def __init__(self, site: str, detail: str = "") -> None:
        super().__init__(
            f"injected fault at site {site!r}" + (f": {detail}" if detail else "")
        )
        self.site = site
        self.detail = detail
        # phase is per-instance here: the same class models faults at
        # several pipeline stages.
        self.phase = self._SITE_PHASES.get(site, "execute")


class ServiceOverloadError(ReproError):
    """Admission control shed a request: the service queue is full.

    Raised (or returned, serialized) before any work is done on the
    request; clients should back off and retry.  Carries the queue depth
    observed at rejection time for operator dashboards.
    """

    code = "E_ADMIT"
    phase = "admit"

    def __init__(self, message: str, depth: Optional[int] = None) -> None:
        super().__init__(message)
        self.depth = depth


class RateLimitError(ReproError):
    """A token-bucket rate limiter (global or per-tenant) rejected the
    request.  ``tenant`` is None for the service-wide bucket."""

    code = "E_RATELIMIT"
    phase = "admit"

    def __init__(self, message: str, tenant: Optional[str] = None) -> None:
        super().__init__(message)
        self.tenant = tenant


class CircuitOpenError(ReproError):
    """The compile-path circuit breaker is open for this plan shape and
    the request pinned an engine that requires compilation.

    Requests that do *not* pin an engine never see this error: the serve
    tier falls through to the interpreted engines while the breaker is
    open.  ``shape`` identifies the plan-shape the breaker tripped on.
    """

    code = "E_BREAKER"
    phase = "admit"

    def __init__(self, message: str, shape: Optional[str] = None) -> None:
        super().__init__(message)
        self.shape = shape


class DeadlineExceeded(BudgetExceeded):
    """A request ran past its per-request deadline.

    A subclass of :class:`BudgetExceeded` because deadlines are enforced
    the same cooperative way (the deadline is mapped onto
    ``Budget.wall_clock_seconds``, so staged ``scan_tick`` checkpoints
    abort mid-scan); the distinct code lets clients tell "you asked for
    too little time" from "the operator capped this tenant".
    """

    code = "E_DEADLINE"
    phase = "execute"


class ServiceProtocolError(ReproError):
    """A wire request the service front end could not parse (malformed
    JSON, unknown op, missing statement)."""

    code = "E_PROTOCOL"
    phase = "admit"


class ParamError(ReproError):
    """A statement parameter was malformed, misplaced, or mis-bound.

    Covers both halves of the prepared-statement contract: statement-time
    problems (a placeholder in a position that cannot be parameterized,
    ``?`` mixed with ``:name``, a parameter whose type cannot be inferred)
    and bind-time problems (wrong arity, a missing named parameter, a value
    of the wrong Python type).  ``phase`` is per-instance -- statement-time
    errors belong to ``plan``, bind-time errors to ``execute`` -- mirroring
    how :class:`InjectedFault` models faults at several stages.
    """

    code = "E_PARAM"
    phase = "plan"

    def __init__(self, message: str, phase: str = "plan") -> None:
        super().__init__(message)
        if phase in PHASES:
            self.phase = phase


def error_code(exc: BaseException) -> str:
    """The taxonomy code of any exception (``E_RUNTIME`` for foreign ones)."""
    if isinstance(exc, ReproError):
        return exc.code
    return "E_RUNTIME"


def error_phase(exc: BaseException) -> str:
    """The pipeline phase of any exception (``execute`` for foreign ones)."""
    if isinstance(exc, ReproError):
        return exc.phase
    return "execute"


# -- wire format --------------------------------------------------------------
#
# The serve tier ships errors to clients as JSON; these two functions are
# the round-trip.  ``error_to_dict`` works on *any* exception (foreign ones
# become E_RUNTIME, exactly like ``error_code``); ``error_from_dict``
# reconstructs a taxonomy member of the owning class for the code, so a
# client can ``except DeadlineExceeded`` on an error that crossed a socket.


def error_to_dict(exc: BaseException) -> dict:
    """JSON-ready rendering of any exception: code, phase, message, trail,
    and the request correlation id when one was attached."""
    doc = {
        "code": error_code(exc),
        "phase": error_phase(exc),
        "type": type(exc).__name__,
        "message": str(exc) or type(exc).__name__,
        "engine_trail": list(getattr(exc, "engine_trail", ()) or ()),
    }
    request_id = getattr(exc, "request_id", None)
    if request_id is not None:
        doc["request_id"] = request_id
    return doc


def error_from_dict(doc: dict) -> ReproError:
    """Rebuild a :class:`ReproError` from its wire form.

    The instance is of the class that owns ``doc["code"]`` (``ReproError``
    itself for unknown or foreign codes).  Construction bypasses subclass
    ``__init__`` -- wire payloads don't carry constructor arguments like a
    fault site or partial stats -- but code, phase, message and trail all
    survive the round trip.
    """
    cls = ERROR_CODES.get(doc.get("code", ""), ReproError)
    exc = cls.__new__(cls)
    Exception.__init__(exc, doc.get("message", ""))
    code = doc.get("code")
    if isinstance(code, str) and code:
        exc.code = code  # preserves E_RUNTIME and other class-less codes
    phase = doc.get("phase")
    if phase in PHASES:
        exc.phase = phase
    exc.engine_trail = tuple(doc.get("engine_trail", ()) or ())
    request_id = doc.get("request_id")
    if isinstance(request_id, str):
        exc.request_id = request_id
    return exc
