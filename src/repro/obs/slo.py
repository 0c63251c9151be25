"""Rolling SLO windows with burn-rate alerting.

An SLO here is the classic latency/availability objective: "``objective``
of requests complete ok within ``latency_threshold_seconds``".  A request
is **good** when it succeeds under the threshold, **bad** otherwise, and
the *burn rate* is how fast the error budget is being spent::

    burn = bad_fraction / (1 - objective)

Burn 1.0 spends exactly the budget the objective allows; burn 10 at a
99.9% objective exhausts a 30-day budget in three days.  The monitor
keeps two time-bucketed sliding windows per scope -- a short one that
reacts and a long one that confirms (the standard multi-window guard
against one spike paging) -- for the **service**, each **tenant**, and
each **plan shape**, and on every record:

* exports the short-window burn as a ``slo.burn.*`` gauge (so it rides
  the Prometheus scrape for free), and
* on an alert *transition* (both windows at or above ``burn_threshold``
  with enough traffic -> firing; short window back below -> resolved)
  emits a typed ``slo_burn`` event into the installed
  ``repro-events/v3`` log and bumps the ``slo.alerts`` counter.

Windows are rings of time-aligned counter pairs, so memory is fixed per
scope and recording is O(1); scopes are keyed by the record's tenant and
shape labels, which the serve tier has already sanitized and capped.
Stdlib-only leaf over :mod:`repro.obs.metrics` / :mod:`repro.obs.events`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import events
from repro.obs.metrics import REGISTRY


@dataclass(frozen=True)
class SLOConfig:
    """One objective, applied to every scope the monitor tracks."""

    latency_threshold_seconds: float = 1.0
    objective: float = 0.99  # target good fraction (0, 1)
    window_seconds: float = 60.0  # short (reacting) window
    long_window_seconds: float = 300.0  # long (confirming) window
    burn_threshold: float = 2.0  # alert at/above this burn rate
    min_requests: int = 20  # short-window floor before alerting

    def __post_init__(self) -> None:
        if self.latency_threshold_seconds <= 0:
            raise ValueError("latency_threshold_seconds must be positive")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.window_seconds <= 0 or self.long_window_seconds < self.window_seconds:
            raise ValueError(
                "window_seconds must be positive and no longer than "
                "long_window_seconds"
            )
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")
        if self.min_requests < 1:
            raise ValueError("min_requests must be at least 1")


class _Ring:
    """A sliding good/bad window: fixed buckets, lazily recycled.

    Each slot holds ``[epoch, good, bad]`` where ``epoch`` is the
    absolute bucket index (``now // width``); a slot whose epoch has
    fallen out of the window is reset on reuse, so totals never require
    a sweep-and-clear pass.
    """

    __slots__ = ("width", "slots")

    def __init__(self, window_seconds: float, buckets: int = 30) -> None:
        self.width = window_seconds / buckets
        self.slots: List[List[float]] = [[-1, 0, 0] for _ in range(buckets)]

    def add(self, now: float, good: bool) -> None:
        epoch = int(now / self.width)
        slot = self.slots[epoch % len(self.slots)]
        if slot[0] != epoch:
            slot[0], slot[1], slot[2] = epoch, 0, 0
        slot[1 if good else 2] += 1

    def totals(self, now: float) -> Tuple[int, int]:
        min_epoch = int(now / self.width) - len(self.slots) + 1
        good = bad = 0
        for epoch, g, b in self.slots:
            if epoch >= min_epoch:
                good += g
                bad += b
        return int(good), int(bad)


class _Tracker:
    """One scope's pair of windows plus its alert latch."""

    __slots__ = ("short", "long", "alerting")

    def __init__(self, config: SLOConfig) -> None:
        self.short = _Ring(config.window_seconds)
        self.long = _Ring(config.long_window_seconds)
        self.alerting = False

    def record(self, now: float, good: bool) -> None:
        self.short.add(now, good)
        self.long.add(now, good)


def _burn(good: int, bad: int, objective: float) -> float:
    total = good + bad
    if total == 0:
        return 0.0
    return (bad / total) / (1.0 - objective)


class SLOMonitor:
    """Per-service / per-tenant / per-shape burn-rate monitoring.

    The windows run on the monotonic clock: they measure elapsed time and
    the monitor never reports ``now`` as a timestamp, so a wall-clock step
    neither re-counts old buckets nor empties them.  ``clock`` is
    injectable so tests can march a fake clock through the windows
    deterministically.
    """

    def __init__(
        self,
        config: Optional[SLOConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        registry=REGISTRY,
    ) -> None:
        self.config = config or SLOConfig()
        self._clock = clock or time.monotonic
        self._registry = registry
        self._lock = threading.Lock()
        self._service = _Tracker(self.config)
        self._tenants: Dict[str, _Tracker] = {}
        self._shapes: Dict[str, _Tracker] = {}

    # -- recording -----------------------------------------------------------

    def record(self, rec, now: Optional[float] = None) -> None:
        """Record one finished request (a :class:`~repro.obs.sampler.
        RequestRecord`) against the service, its tenant label and its
        shape label."""
        cfg = self.config
        now = self._clock() if now is None else now
        good = rec.ok and rec.latency_seconds <= cfg.latency_threshold_seconds
        scopes: List[Tuple[str, _Tracker]] = [("service", self._service)]
        with self._lock:
            for kind, store, label in (
                ("tenant", self._tenants, rec.tenant_label),
                ("shape", self._shapes, rec.shape_label),
            ):
                if label is not None:
                    tracker = store.get(label)
                    if tracker is None:
                        tracker = store[label] = _Tracker(cfg)
                    scopes.append((f"{kind}.{label}", tracker))
            for scope, tracker in scopes:
                tracker.record(now, good)
        for scope, tracker in scopes:
            self._evaluate(scope, tracker, now, rec.request_id)

    # -- burn evaluation -----------------------------------------------------

    def _evaluate(
        self,
        scope: str,
        tracker: _Tracker,
        now: float,
        request_id: Optional[str],
    ) -> None:
        cfg = self.config
        short_good, short_bad = tracker.short.totals(now)
        long_good, long_bad = tracker.long.totals(now)
        burn_short = _burn(short_good, short_bad, cfg.objective)
        burn_long = _burn(long_good, long_bad, cfg.objective)
        self._registry.gauge(f"slo.burn.{scope}", burn_short)
        enough = short_good + short_bad >= cfg.min_requests
        should_fire = (
            enough
            and burn_short >= cfg.burn_threshold
            and burn_long >= cfg.burn_threshold
        )
        if should_fire and not tracker.alerting:
            tracker.alerting = True
            self._registry.counter("slo.alerts")
            events.emit(
                "slo_burn",
                request_id=request_id,
                scope=scope,
                state="firing",
                burn_short=round(burn_short, 4),
                burn_long=round(burn_long, 4),
                objective=cfg.objective,
                latency_threshold_ms=cfg.latency_threshold_seconds * 1e3,
                window_good=short_good,
                window_bad=short_bad,
            )
        elif tracker.alerting and burn_short < cfg.burn_threshold:
            tracker.alerting = False
            events.emit(
                "slo_burn",
                request_id=request_id,
                scope=scope,
                state="resolved",
                burn_short=round(burn_short, 4),
                burn_long=round(burn_long, 4),
                objective=cfg.objective,
            )

    # -- introspection -------------------------------------------------------

    def snapshot(self, now: Optional[float] = None) -> dict:
        """JSON-ready view of every tracked scope's windows and burns."""
        cfg = self.config
        now = self._clock() if now is None else now

        def one(tracker: _Tracker) -> dict:
            short_good, short_bad = tracker.short.totals(now)
            long_good, long_bad = tracker.long.totals(now)
            return {
                "good": short_good,
                "bad": short_bad,
                "burn_short": _burn(short_good, short_bad, cfg.objective),
                "burn_long": _burn(long_good, long_bad, cfg.objective),
                "alerting": tracker.alerting,
            }

        with self._lock:
            return {
                "objective": cfg.objective,
                "latency_threshold_seconds": cfg.latency_threshold_seconds,
                "burn_threshold": cfg.burn_threshold,
                "service": one(self._service),
                "tenants": {t: one(tr) for t, tr in self._tenants.items()},
                "shapes": {s: one(tr) for s, tr in self._shapes.items()},
            }
