"""Ledger-only probes: the direct-call ladder and the telemetry overheads.

Too slow for every traced run, so ``run.py`` adds them once per ledger:

``--ladder direct`` (with ``mix_warm``)
    ROADMAP's probe table as named numbers.  The 22 statements called
    directly, rung by rung -- residual programs under four ``Config``\\ s,
    then ``Session``, ``ResilientExecutor`` and ``QueryService.submit`` --
    as interleaved medians; each rung's gap to the next (and then
    ``point_wire``'s wire self time) is that layer's cost in the units a
    client sees.  Interleaving seven rungs costs every rung some cache
    warmth, so compare rungs with each other, not with ``mix_warm.qps``.
    Plus one pass of the two interpreters (the fallback chain's cost, the
    paper's Fig. 8 baselines) and the ``v_*`` kernels on 65 536-row inputs.

``--ladder obs`` (with ``mix_concurrent``)
    ``qps`` of an in-process mix slice with one observability feature on,
    over the same slice with all off, interleaved.

Every rung's first pass is checked against the expected rows.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, List

import workloads
from oracle import Oracle

LADDER_PASSES = 7
OBS_PASSES = 15  # the features cost 5-20 %; fewer passes drown that in noise
KERNEL_ROWS = 65_536
KERNEL_REPEATS = 7


def unit_of(name: str) -> str:
    if name.endswith("_qps"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_row"):
        return "ns/row"
    return "ratio"


def _interleaved(
    rungs: Dict[str, Callable[[bool], None]], passes: int
) -> Dict[str, float]:
    """Median seconds per pass of each rung, passes interleaved.

    Each rung is called with ``check=True`` once, untimed (that pass warms
    caches and verifies rows), then ``passes`` times with ``check=False``;
    the starting rung rotates so no rung always follows the same neighbour.
    """
    for rung in rungs.values():
        rung(True)
    times: Dict[str, List[float]] = {name: [] for name in rungs}
    names = list(rungs)
    for p in range(passes):
        shift = p % len(names)
        for name in names[shift:] + names[:shift]:
            t0 = time.perf_counter()
            rungs[name](False)
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(ts) for name, ts in times.items()}


def _mix_plans(env, statements: dict, scale: float) -> List[tuple]:
    """(expected key, sql or None, tpch number or None, plan) per statement."""
    from repro.tpch.queries import query_plan

    out = []
    for key, doc in workloads.warmup_round(workloads.WORKLOADS["mix_warm"], statements):
        if "sql" in doc:
            out.append((key, doc["sql"], None, env.session.plan(doc["sql"])))
        else:
            out.append((key, None, doc["tpch"], query_plan(doc["tpch"], scale=scale)))
    return out


def _require(oracle: Oracle, rung: str, key: str, rows) -> None:
    if not oracle.matches(key, [list(r) for r in rows]):
        raise SystemExit(f"ledger: ladder rung {rung} returned wrong rows for {key}")


def direct(env, statements: dict, scale: float, oracle: Oracle) -> Dict[str, float]:
    from repro.compiler.driver import LB2Compiler
    from repro.compiler.lb2 import Config
    from repro.engine import execute_push, execute_volcano
    from repro.resilience.budget import Budget, BudgetGuard
    from repro.resilience.executor import ResilientExecutor
    from repro.serve import ServiceRequest
    from repro.session import Session

    db = env.db
    plans = _mix_plans(env, statements, scale)
    served = workloads.warmup_round(workloads.WORKLOADS["mix_warm"], statements)
    n = len(plans)
    budget = Budget(wall_clock_seconds=10.0)
    rungs: Dict[str, Callable[[bool], None]] = {}

    def compiled_rung(name: str, config: Config) -> None:
        compiler = LB2Compiler(db.catalog, db, config)
        programs = [(key, compiler.compile(plan)) for key, _, _, plan in plans]

        def rung(check: bool) -> None:
            for key, program in programs:
                if config.budget_checks:
                    with BudgetGuard(budget):
                        rows = program.run(db)
                else:
                    rows = program.run(db)
                if check:
                    _require(oracle, name, key, rows)

        rungs[name] = rung

    compiled_rung("compiler.run.scalar_qps", Config())
    compiled_rung("compiler.run.vector_qps", Config(codegen="vector"))
    compiled_rung("compiler.run.scalar_budget_qps", Config(budget_checks=True))
    compiled_rung(
        "compiler.run.vector_budget_qps", Config(codegen="vector", budget_checks=True)
    )

    session = Session(db)

    def session_rung(check: bool) -> None:
        for key, sql, number, plan in plans:
            if sql is not None:
                rows = session.query(sql)
            else:
                rows = session.prepare_plan(plan, f"tpch:{number}").run(db)
            if check:
                _require(oracle, "session.query_qps", key, rows)

    def resilience_rung(check: bool) -> None:
        for key, sql, number, plan in plans:
            executor = ResilientExecutor(
                session, budget=budget, cache_guarded_compiles=True
            )
            if sql is not None:
                result = executor.query(sql)
            else:
                result = executor.execute_plan(plan, cache_key=f"tpch:{number}")
            if check:
                _require(oracle, "resilience.query_qps", key, result.rows)

    def service_rung(check: bool) -> None:
        for key, doc in served:
            response = env.service.submit(ServiceRequest(**doc))
            if check:
                _require(oracle, "serve.submit_qps", key, response.rows or [])

    rungs["session.query_qps"] = session_rung
    rungs["resilience.query_qps"] = resilience_rung
    rungs["serve.submit_qps"] = service_rung
    out = {name: n / seconds for name, seconds in _interleaved(rungs, LADDER_PASSES).items()}

    for name, engine in (("engine.push.mix_s", execute_push),
                         ("engine.volcano.mix_s", execute_volcano)):
        t0 = time.perf_counter()
        results = [(key, engine(plan, db, db.catalog)) for key, _, _, plan in plans]
        out[name] = time.perf_counter() - t0
        for key, rows in results:
            _require(oracle, name, key, rows)
    out.update(kernels())
    return out


def kernels() -> Dict[str, float]:
    """ns per row of the batch kernels the vector backend leans on."""
    from repro.compiler import runtime

    rng = random.Random(0)
    floats = [rng.random() for _ in range(KERNEL_ROWS)]
    keys = [rng.randrange(64) for _ in range(KERNEL_ROWS)]
    try:
        import numpy as np
    except ImportError:  # pure-Python kernels; same names, scalar speed
        mask = [f < 0.5 for f in floats]
    else:
        floats, keys = np.array(floats), np.array(keys, dtype=np.int64)
        mask = floats < 0.5
    index = runtime.v_mask_index(mask)
    group = runtime.v_group(KERNEL_ROWS, keys)
    codes, ngroups = group[0], group[1]
    calls = {
        "v_mask_index": lambda: runtime.v_mask_index(mask),
        "v_take": lambda: runtime.v_take(floats, index),
        "v_lt": lambda: runtime.v_lt(floats, 0.5),
        "v_group": lambda: runtime.v_group(KERNEL_ROWS, keys),
        "v_group_sum": lambda: runtime.v_group_sum(codes, ngroups, floats),
        "v_fsum": lambda: runtime.v_fsum(floats, KERNEL_ROWS),
    }
    out = {}
    for name, call in calls.items():
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[f"runtime.kernel.{name}.ns_per_row"] = (
            statistics.median(times) * 1e9 / KERNEL_ROWS
        )
    return out


def obs(env, statements: dict, scale: float, oracle: Oracle) -> Dict[str, float]:
    from repro.obs import events
    from repro.serve import QueryService, ServiceConfig, ServiceRequest
    from repro.session import Session

    import harness

    round_ = workloads.warmup_round(workloads.WORKLOADS["mix_warm"], statements)
    harness.WORK_DIR.mkdir(exist_ok=True)
    log_path = harness.WORK_DIR / "events-overhead-probe.jsonl"
    log = events.EventLog(str(log_path))
    features = {
        "off": {},
        "telemetry": {"telemetry": True},
        "sampling": {"sampling": True},
        "events": {},
    }
    services = {
        name: QueryService(
            Session(env.db), ServiceConfig(workers=1, query_scale=scale, **flags)
        )
        for name, flags in features.items()
    }
    rungs: Dict[str, Callable[[bool], None]] = {}
    for name, service in services.items():

        def rung(check: bool, name=name, service=service) -> None:
            events.install(log if name == "events" else None)
            for key, doc in round_:
                response = service.submit(ServiceRequest(**doc))
                if check:
                    _require(oracle, f"obs.{name}", key, response.rows or [])

        rungs[name] = rung
    previous = events.install(None)
    try:
        seconds = _interleaved(rungs, OBS_PASSES)
    finally:
        events.install(previous)
        log.close()
        for path in harness.WORK_DIR.glob(log_path.name + "*"):
            path.unlink()
        for service in services.values():
            service.close()
    return {
        f"obs.{name}.overhead_ratio": seconds["off"] / seconds[name]
        for name in features
        if name != "off"
    }


RUNS = {"direct": direct, "obs": obs}
