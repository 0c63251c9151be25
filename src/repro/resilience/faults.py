"""Deterministic fault injection at named pipeline sites.

The compiler and parallel driver call :func:`fault_point` at well-known
places; tests (and the ``repro-faults`` CI job) arm a :class:`FaultInjector`
to make a specific site fail on a specific invocation.  Injection is fully
deterministic -- no randomness, no environment variables -- so every
degradation path of the fallback chain can be exercised reproducibly.

Sites:

* ``codegen``      -- entry of ``LB2Compiler.compile`` (generation pass)
* ``verify``       -- just before the IR verifier runs
* ``host-compile`` -- just before the host ``compile()`` of the residual
* ``worker-run``   -- inside a parallel worker, before its partial runs
  (``key`` is the worker index, so single workers can be targeted)
* ``mid-scan``     -- from ``rt.scan_tick`` inside a running residual scan
  loop (requires ``Config(budget_checks=True)``)

This module deliberately imports only :mod:`repro.errors`, the stdlib-leaf
metrics registry, and the runtime hook API, so any layer can call
:func:`fault_point` without import cycles.  With no injector armed, a
fault point is one global read and a truth test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InjectedFault
from repro.obs.metrics import REGISTRY

FAULT_SITES = ("codegen", "verify", "host-compile", "worker-run", "mid-scan")


@dataclass
class FaultSpec:
    """Arm one site: fail invocations whose 0-based ordinal is in ``at``.

    ``at=None`` matches *every* ordinal (sustained failure -- the serving
    tests use this to hold a circuit breaker open).  ``key`` (when not
    None) additionally restricts the spec to fault-point calls made with a
    matching ``key=`` argument -- e.g. one parallel worker's index.
    ``times`` bounds how many faults the spec raises in total
    (None = unlimited).
    """

    site: str
    at: Optional[frozenset[int]] = frozenset({0})
    key: Optional[object] = None
    times: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of {FAULT_SITES}"
            )
        if self.at is not None:
            self.at = frozenset(self.at)


class FaultInjector:
    """Context manager holding the armed fault specs.

    Usage::

        with FaultInjector(FaultSpec("verify")):
            ...  # the first compile in this block fails verification
    """

    def __init__(self, *specs: FaultSpec) -> None:
        self.specs = list(specs)
        self.counters: dict[tuple, int] = {}
        self.fired: list[tuple[str, int]] = []  # (site, ordinal) log
        # One lock serializes ordinal assignment, spec matching and the
        # ``times`` decrement: two threads arriving at the same site must
        # each draw a distinct ordinal, and a spec with ``times=1`` must
        # fire exactly once no matter how the arrivals interleave.
        self._lock = threading.Lock()

    def arm(self, spec: FaultSpec) -> "FaultInjector":
        with self._lock:
            self.specs.append(spec)
        return self

    def hit(self, site: str, key: Optional[object]) -> Optional[InjectedFault]:
        """Record one arrival at ``site``; the fault to raise, if armed.

        Ordinals count per ``(site, key)`` pair, not per site: a pool
        process that runs several workers' partials must still see each
        worker's own first call as ordinal 0.  Thread-safe: concurrent
        arrivals draw distinct ordinals and never double-fire a bounded
        spec.
        """
        with self._lock:
            ordinal = self.counters.get((site, key), 0)
            self.counters[(site, key)] = ordinal + 1
            for spec in self.specs:
                if spec.site != site:
                    continue
                if spec.key is not None and spec.key != key:
                    continue
                if spec.at is not None and ordinal not in spec.at:
                    continue
                if spec.times is not None and spec.times <= 0:
                    continue
                if spec.times is not None:
                    spec.times -= 1
                self.fired.append((site, ordinal))
                REGISTRY.counter("faults.injected")
                REGISTRY.counter(f"faults.injected.{site}")
                return InjectedFault(site, detail=f"ordinal={ordinal} key={key!r}")
        return None

    # -- activation ---------------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self
        from repro.compiler import runtime

        runtime.push_tick_hook(self._tick)
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        from repro.compiler import runtime

        runtime.pop_tick_hook(self._tick)
        _ACTIVE = self._previous

    def _tick(self, n: int) -> None:
        """Runtime hook: residual scan loops report progress here."""
        fault = self.hit("mid-scan", key=None)
        if fault is not None:
            raise fault


#: The currently armed injector (None almost always).  A plain module
#: global, not a contextvar: forked parallel workers must inherit it.
_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    return _ACTIVE


def fault_point(site: str, key: Optional[object] = None) -> None:
    """Declare a named failure site; raises when an injector arms it."""
    injector = _ACTIVE
    if injector is None:
        return
    fault = injector.hit(site, key)
    if fault is not None:
        raise fault
