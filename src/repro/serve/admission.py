"""Admission control: bounded concurrency, token buckets, tenant quotas.

Three small mechanisms stand between a socket and the compiler:

* :class:`AdmissionGate` -- a bounded count of requests in flight
  (executing + queued).  When full, new arrivals are *shed* immediately
  with :class:`~repro.errors.ServiceOverloadError` rather than queued
  without bound; a loaded service stays loaded-but-honest instead of
  accumulating an invisible backlog that blows every deadline.
* :class:`TokenBucket` -- the classic refill-at-rate/spend-per-request
  limiter, used both service-wide and per tenant.
* :class:`TenantQuota` / :class:`TenantState` -- the declarative per-tenant
  limits (request rate, concurrent requests, per-request row budget) and
  their armed runtime form.  Row budgets map straight onto
  :class:`repro.resilience.budget.Budget`, so a tenant cap is enforced by
  the same staged ``scan_tick`` checkpoints as a deadline.

Everything here is lock-per-object and allocation-free on the admit path;
these run on the caller's thread before a request ever reaches the pool.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import RateLimitError, ServiceOverloadError
from repro.obs.metrics import REGISTRY


class TokenBucket:
    """``rate`` tokens/second, holding at most ``burst``; starts full.

    ``try_acquire`` never blocks: admission control sheds instead of
    queueing, so the caller gets an immediate typed rejection.
    """

    def __init__(self, rate: float, burst: int, clock=time.monotonic) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self, n: float = 1.0) -> bool:
        """Spend ``n`` tokens if available; False means rate-limited."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    @property
    def tokens(self) -> float:
        with self._lock:
            now = self._clock()
            return min(self.burst, self._tokens + (now - self._last) * self.rate)


class AdmissionGate:
    """At most ``limit`` requests in flight; excess arrivals are shed.

    ``enter`` raises :class:`ServiceOverloadError` when the gate is full;
    ``leave`` must run exactly once per successful ``enter`` (use
    try/finally).  Depth is exported on every transition as the
    ``serve.inflight`` gauge (with its static ``serve.inflight.limit``
    companion), so backpressure is *observable* in the metrics scrape,
    not just inferable from ``E_ADMIT`` rejection counters; the historic
    ``serve.queue.depth`` name is kept as an alias for existing
    dashboards.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("limit must be at least 1")
        self.limit = limit
        self._depth = 0
        self._lock = threading.Lock()
        REGISTRY.gauge("serve.inflight.limit", limit)
        self._export_depth()

    def _export_depth(self) -> None:
        REGISTRY.gauge("serve.inflight", self._depth)
        REGISTRY.gauge("serve.queue.depth", self._depth)

    def enter(self) -> None:
        with self._lock:
            if self._depth >= self.limit:
                REGISTRY.counter("serve.rejected.overload")
                raise ServiceOverloadError(
                    f"service at capacity: {self._depth}/{self.limit} "
                    "requests in flight",
                    depth=self._depth,
                )
            self._depth += 1
            self._export_depth()

    def leave(self) -> None:
        with self._lock:
            assert self._depth > 0, "leave() without matching enter()"
            self._depth -= 1
            self._export_depth()

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth


@dataclass(frozen=True)
class TenantQuota:
    """Declarative per-tenant limits; ``None`` disables a dimension.

    * ``rate`` / ``burst`` -- the tenant's own token bucket (requests/s).
    * ``max_concurrent`` -- simultaneous in-flight requests.
    * ``max_rows`` -- per-request scanned-row budget, enforced
      cooperatively by the staged checkpoints (maps onto
      ``Budget.max_rows``).
    * ``max_deadline_seconds`` -- cap on the deadline a request may ask
      for; longer requests are silently clamped.
    """

    rate: Optional[float] = None
    burst: int = 8
    max_concurrent: Optional[int] = None
    max_rows: Optional[int] = None
    max_deadline_seconds: Optional[float] = None


class TenantState:
    """One tenant's armed limits: bucket (refilled by ``clock``) +
    in-flight count."""

    def __init__(self, name: str, quota: TenantQuota, clock=time.monotonic) -> None:
        self.name = name
        self.quota = quota
        self.bucket = (
            TokenBucket(quota.rate, quota.burst, clock) if quota.rate else None
        )
        self._active = 0
        self._lock = threading.Lock()

    def admit(self, label: str) -> None:
        """Charge this request against the tenant; raises typed rejections.

        ``label`` is the tenant's registry-safe, capped metric label (the
        raw ``name`` comes off the wire and only appears in messages).
        """
        if self.bucket is not None and not self.bucket.try_acquire():
            REGISTRY.counter("serve.rejected.ratelimit")
            REGISTRY.counter(f"serve.tenant.{label}.ratelimited")
            raise RateLimitError(
                f"tenant {self.name!r} over its rate limit "
                f"({self.quota.rate}/s, burst {self.quota.burst})",
                tenant=self.name,
            )
        with self._lock:
            if (
                self.quota.max_concurrent is not None
                and self._active >= self.quota.max_concurrent
            ):
                REGISTRY.counter("serve.rejected.overload")
                REGISTRY.counter(f"serve.tenant.{label}.overloaded")
                raise ServiceOverloadError(
                    f"tenant {self.name!r} at its concurrency limit "
                    f"({self.quota.max_concurrent})",
                    depth=self._active,
                )
            self._active += 1
        REGISTRY.counter(f"serve.tenant.{label}.admitted")

    def release(self) -> None:
        with self._lock:
            assert self._active > 0, "release() without matching admit()"
            self._active -= 1

    @property
    def active(self) -> int:
        with self._lock:
            return self._active


class TenantRegistry:
    """Per-tenant state: one per configured tenant, and one per capped
    label for the rest, under the default quota.

    Wire tenant names are unbounded, so unconfigured tenants are keyed
    by their registry label (sanitized, capped): every name past the
    label cap shares the one ``other`` state, its bucket and its
    concurrency count, and rotating names cannot mint fresh quotas.
    Every tenant's bucket refills by the one ``clock``.
    """

    def __init__(
        self,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default: Optional[TenantQuota] = None,
        clock=time.monotonic,
    ) -> None:
        self._clock = clock
        self._named = {
            name: TenantState(name, q, clock) for name, q in (quotas or {}).items()
        }
        self._default = default or TenantQuota()
        self._states: Dict[str, TenantState] = {}  # label -> state
        self._lock = threading.Lock()

    def state(self, tenant: str, label: str) -> TenantState:
        """``tenant``'s own state when it is configured, else its label's."""
        st = self._named.get(tenant)
        if st is not None:
            return st
        with self._lock:
            st = self._states.get(label)
            if st is None:
                st = self._states[label] = TenantState(
                    label, self._default, self._clock
                )
            return st

    def snapshot(self) -> dict:
        with self._lock:
            states = {**self._states, **self._named}
        return {
            name: {"active": st.active, "quota": st.quota.__dict__}
            for name, st in states.items()
        }
