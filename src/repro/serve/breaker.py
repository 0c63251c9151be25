"""A circuit breaker around the compile path, keyed by plan shape.

The fallback chain already turns one compile failure into a degraded
answer; what it cannot do is *remember*.  A plan shape whose codegen is
broken (or whose compile site a fault injector keeps failing) would pay
the full compile attempt on every request before degrading.  The breaker
adds the memory: after ``threshold`` consecutive compile-path failures
for one shape it **opens**, and the serve tier routes that shape straight
to the interpreted engines -- no compile attempt, no wasted latency.
After ``cooldown_seconds`` it lets exactly one probe request try the
compiler again (**half-open**); success closes the breaker, failure
re-opens it with a fresh cooldown.

"Compile-path failure" means an error in a compile phase
(:data:`repro.errors.COMPILE_PHASES`: codegen, verify, host-compile)
during the compiled/vector attempt -- a query that compiles fine but
trips its row budget must not poison the breaker.

State is per-shape under one lock; ``decide`` is the only method the hot
path calls and it does one dict lookup.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.obs.metrics import REGISTRY

#: ``decide`` outcomes.
CLOSED = "closed"
OPEN = "open"
PROBE = "probe"


class _Entry:
    __slots__ = ("state", "consecutive", "opened_at", "probing")

    def __init__(self) -> None:
        self.state = CLOSED
        self.consecutive = 0
        self.opened_at = 0.0
        self.probing = False


class CircuitBreaker:
    """Per-plan-shape compile-path breaker with half-open probes."""

    def __init__(
        self,
        threshold: int = 3,
        cooldown_seconds: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if cooldown_seconds <= 0:
            raise ValueError("cooldown_seconds must be positive")
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.Lock()

    def _entry(self, shape: str) -> _Entry:
        entry = self._entries.get(shape)
        if entry is None:
            entry = self._entries[shape] = _Entry()
        return entry

    # -- the hot path -------------------------------------------------------

    def decide(self, shape: str) -> str:
        """May this request attempt the compile path for ``shape``?

        Returns :data:`CLOSED` (yes), :data:`OPEN` (no -- go interpreted),
        or :data:`PROBE` (yes, and this request is *the* half-open probe:
        the caller must report back via :meth:`on_success` /
        :meth:`on_compile_failure`, or :meth:`abort_probe` if it never
        reached the compiler).
        """
        with self._lock:
            entry = self._entries.get(shape)
            if entry is None or entry.state == CLOSED:
                return CLOSED
            if entry.probing:
                return OPEN  # someone else holds the probe slot
            if self._clock() - entry.opened_at >= self.cooldown_seconds:
                entry.probing = True
                REGISTRY.counter("serve.breaker.half_open")
                return PROBE
            return OPEN

    # -- outcome reporting --------------------------------------------------

    def on_success(self, shape: str) -> None:
        """A compiled/vector attempt succeeded: close and reset."""
        with self._lock:
            entry = self._entries.get(shape)
            if entry is None:
                return
            if entry.state == OPEN:
                REGISTRY.counter("serve.breaker.closed")
            entry.state = CLOSED
            entry.consecutive = 0
            entry.probing = False

    def on_compile_failure(self, shape: str) -> bool:
        """A compile-path failure for ``shape``; True if the breaker is
        now open (newly or still)."""
        with self._lock:
            entry = self._entry(shape)
            entry.consecutive += 1
            if entry.probing:
                # Failed probe: straight back to open, fresh cooldown.
                entry.probing = False
                entry.state = OPEN
                entry.opened_at = self._clock()
                REGISTRY.counter("serve.breaker.reopened")
                return True
            if entry.state == CLOSED and entry.consecutive >= self.threshold:
                entry.state = OPEN
                entry.opened_at = self._clock()
                REGISTRY.counter("serve.breaker.opened")
            return entry.state == OPEN

    def abort_probe(self, shape: str) -> None:
        """The probe request died before reaching the compiler (deadline,
        budget...); hand the probe slot back without changing state."""
        with self._lock:
            entry = self._entries.get(shape)
            if entry is not None and entry.probing:
                entry.probing = False

    # -- introspection ------------------------------------------------------

    def state(self, shape: str) -> str:
        with self._lock:
            entry = self._entries.get(shape)
            return entry.state if entry is not None else CLOSED

    def snapshot(self) -> dict:
        with self._lock:
            return {
                shape: {
                    "state": e.state,
                    "consecutive_failures": e.consecutive,
                    "probing": e.probing,
                }
                for shape, e in self._entries.items()
            }
