"""Execution budgets: wall-clock and row limits, cooperatively enforced.

A :class:`Budget` is a declarative limit; a :class:`BudgetGuard` is its
armed form.  Enforcement is cooperative: guarded *compiled* queries emit
``rt.scan_tick`` checkpoints into their scan loops (see
``Config.budget_checks``), and the interpreted engines tick once per
driving row through the resilient executor.  When a limit is crossed the
guard raises :class:`repro.errors.BudgetExceeded` carrying the partial
statistics gathered so far -- the query aborts at the next checkpoint
instead of hanging.

Row accounting has checkpoint granularity.  A checkpoint charges the rows
its loop is about to scan, before scanning them, so a full scan of n rows
charges exactly n: a scalar counted loop ticks once per
``budget_check_interval`` rows, a vector batch scan once per batch (at most
``repro.compiler.vec.BATCH_ROWS`` = 32 768 rows), and a devectorized row
loop ticks 0 rows every interval only to check the clock.  ``max_rows`` can
therefore overshoot by at most one interval (scalar) or one batch (vector).
Pick an interval no larger than the budget when the exact cutoff matters.
A deadline overshoots by at most one 32 768-row batch's kernel chain: over
the 22 served TPC-H statements at SF 0.01 the longest is q1's, ~5.2 ms on
a 2-core Xeon VM (~3.4 ms with 8 192-row batches).  The resilient executor
checks the clock once more when an attempt returns, so an answer ready
only after its deadline is a trip, not a late reply.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.compiler import runtime
from repro.errors import BudgetExceeded
from repro.obs.metrics import REGISTRY


@dataclass(frozen=True)
class Budget:
    """Declarative execution limits; ``None`` disables a dimension.

    * ``wall_clock_seconds`` -- total elapsed time from guard start.
    * ``max_rows`` -- rows scanned (not emitted) across all checkpoints.
    """

    wall_clock_seconds: Optional[float] = None
    max_rows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.wall_clock_seconds is not None and self.wall_clock_seconds <= 0:
            raise ValueError("wall_clock_seconds must be positive")
        if self.max_rows is not None and self.max_rows <= 0:
            raise ValueError("max_rows must be positive")

    @property
    def unlimited(self) -> bool:
        return self.wall_clock_seconds is None and self.max_rows is None


class BudgetGuard:
    """An armed budget: install as a context manager, tick as work happens.

    While active, the guard registers itself as a runtime tick hook so
    guarded residual programs report progress without knowing the guard
    exists; interpreted engines call :meth:`tick` directly.

    Every reading of elapsed time goes through :attr:`clock` (seconds,
    ``time.perf_counter``), so a test can step time instead of depending
    on how fast a query runs.
    """

    clock = staticmethod(time.perf_counter)

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.rows_seen = 0
        self.checks = 0
        self.started_at = self.clock()

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "BudgetGuard":
        # Note: the clock starts at construction, not entry -- a guard
        # re-entered across fallback attempts charges them all to one
        # budget instead of handing each engine a fresh allowance.
        runtime.push_tick_hook(self.tick)
        return self

    def __exit__(self, *exc_info) -> None:
        runtime.pop_tick_hook(self.tick)

    # -- enforcement --------------------------------------------------------

    @property
    def elapsed(self) -> float:
        return self.clock() - self.started_at

    def stats(self) -> dict:
        """Partial execution statistics (attached to ``BudgetExceeded``)."""
        return {
            "rows_seen": self.rows_seen,
            "checks": self.checks,
            "elapsed_seconds": self.elapsed,
            "wall_clock_seconds": self.budget.wall_clock_seconds,
            "max_rows": self.budget.max_rows,
        }

    def tick(self, n: int = 1) -> None:
        """Account ``n`` scanned rows; raise once a limit is crossed."""
        self.rows_seen += n
        self.checks += 1
        budget = self.budget
        if budget.max_rows is not None and self.rows_seen > budget.max_rows:
            REGISTRY.counter("budget.trips")
            raise BudgetExceeded(
                f"row budget exceeded: scanned >= {self.rows_seen} rows "
                f"(max_rows={budget.max_rows})",
                stats=self.stats(),
            )
        if (
            budget.wall_clock_seconds is not None
            and self.elapsed > budget.wall_clock_seconds
        ):
            REGISTRY.counter("budget.trips")
            raise BudgetExceeded(
                f"wall-clock budget exceeded: {self.elapsed:.4f}s elapsed "
                f"(limit={budget.wall_clock_seconds}s)",
                stats=self.stats(),
            )
