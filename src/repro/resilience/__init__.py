"""Fault-tolerant execution: fallback chain, budgets, fault injection.

This package wraps the three evaluation paths (compiled, push interpreter,
Volcano) into one resilient surface -- a deliberate departure from the
paper's single-engine story, motivated by the hybrid-engine related work
(see ``docs/RESILIENCE.md``).  Pieces:

* :mod:`repro.errors` (re-exported here) -- the structured error taxonomy;
* :mod:`repro.resilience.policy` -- which failures degrade vs. re-raise;
* :mod:`repro.resilience.budget` -- wall-clock / row budgets, enforced
  cooperatively through ``rt.scan_tick`` checkpoints;
* :mod:`repro.resilience.faults` -- deterministic fault injection at named
  pipeline sites;
* :mod:`repro.resilience.executor` -- the engine fallback chain itself.

The executor is re-exported lazily: :func:`fault_point` is called from the
compiler driver, so this ``__init__`` must stay importable from inside the
compiler without circularity.
"""

from repro.errors import (
    ERROR_CODES,
    PHASES,
    BudgetExceeded,
    InjectedFault,
    ReproError,
    error_code,
    error_phase,
)
from repro.resilience.budget import Budget, BudgetGuard
from repro.resilience.faults import (
    FAULT_SITES,
    FaultInjector,
    FaultSpec,
    active_injector,
    fault_point,
)
from repro.resilience.policy import DEFAULT_POLICY, STRICT_POLICY, FallbackPolicy

__all__ = [
    "Budget",
    "BudgetExceeded",
    "BudgetGuard",
    "DEFAULT_POLICY",
    "ENGINE_CHAIN",
    "ERROR_CODES",
    "EngineAttempt",
    "ExecutionReport",
    "FAULT_SITES",
    "FallbackPolicy",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "PHASES",
    "ReproError",
    "ResilientExecutor",
    "ResilientResult",
    "STRICT_POLICY",
    "active_injector",
    "error_code",
    "error_phase",
    "fault_point",
]

_EXECUTOR_NAMES = {
    "ENGINE_CHAIN",
    "EngineAttempt",
    "ExecutionReport",
    "ResilientExecutor",
    "ResilientResult",
}


def __getattr__(name: str):
    if name in _EXECUTOR_NAMES:
        from repro.resilience import executor

        return getattr(executor, name)
    raise AttributeError(name)
