"""Set-up, the measured closed-loop window, and the metrics of one workload."""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import spans as span_mod
import workloads
from oracle import Oracle
from reference import NOMINAL_S, Reference
from workloads import Workload

#: Directory for files a run writes (event log, span dumps); git-ignored.
WORK_DIR = workloads.HERE / "out"

#: Full set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
}


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(len(sorted_values) * q / 100))
    return sorted_values[rank - 1]


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports KiB


def load_program() -> None:
    """Import every module of the program a run touches (part of set-up)."""
    import repro.obs.events  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.session  # noqa: F401
    import repro.tpch.dbgen  # noqa: F401
    import repro.tpch.queries  # noqa: F401


class Env:
    """One loaded database plus the serving stack a workload talks to."""

    def __init__(self, workload: Workload, scale: float) -> None:
        from repro.obs import events
        from repro.serve import (
            QueryServer, QueryService, ServiceClient, ServiceConfig, ServiceRequest,
        )
        from repro.session import Session
        from repro.storage.database import OptimizationLevel
        from repro.tpch.dbgen import generate_database, generate_tables

        t0 = time.perf_counter()
        tables = generate_tables(scale)
        t1 = time.perf_counter()
        self.db = generate_database(
            scale, level=OptimizationLevel.COMPLIANT, tables=tables
        )
        self.dbgen_s = t1 - t0
        self.load_s = time.perf_counter() - t1
        self.session = Session(self.db)
        self.event_log = None
        if workload.production:
            WORK_DIR.mkdir(exist_ok=True)
            self.event_log = events.EventLog(
                str(WORK_DIR / f"events-{os.getpid()}.jsonl")
            )
            events.install(self.event_log)
        self.service = QueryService(
            self.session,
            ServiceConfig(
                workers=workload.workers,
                query_scale=scale,
                telemetry=workload.production,
                sampling=workload.production,
            ),
        )
        self._request_type = ServiceRequest
        self.server = None
        self.clients: list = []
        if workload.wire:
            self.server = QueryServer(self.service).start()
            host, port = self.server.address
            self.clients = [ServiceClient(host, port) for _ in range(workload.clients)]

    def send(self, client: int, doc: dict):
        """One blocking request; a ServiceResponse or a wire reply dict."""
        if self.clients:
            return self.clients[client].request(doc)
        return self.service.submit(self._request_type(**doc))

    def close(self) -> None:
        from repro.obs import events

        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.close()  # closes the service too
        else:
            self.service.close()
        if self.event_log is not None:
            events.install(None)
            self.event_log.close()
            for path in WORK_DIR.glob(f"events-{os.getpid()}.jsonl*"):
                path.unlink()


def outcome(reply) -> tuple:
    """(ok, rows, fell_back) of a ServiceResponse, a wire dict or an error."""
    if isinstance(reply, BaseException):
        return False, None, False
    if isinstance(reply, dict):
        ok, rows = bool(reply.get("ok")), reply.get("rows")
        engine, degraded = reply.get("engine"), reply.get("degraded")
    else:
        ok, rows = reply.ok, reply.rows
        engine, degraded = reply.engine, reply.degraded
    return ok, rows, ok and (bool(degraded) or engine != "compiled")


def is_right(oracle: Oracle, key: str, reply) -> bool:
    ok, rows, _ = outcome(reply)
    return ok and oracle.matches(key, rows)


class Pace:
    """Segment boundaries of the measured window, shared by its clients.

    A segment is a few whole rounds (``Workload.segment_rounds``, about half
    a second of requests).  At every boundary all clients have their reply
    and wait; client 0 times the reference computation once and decides
    whether the round count or the time is used up.  A segment's requests
    are then reported in reference time: x ``NOMINAL_S`` / the mean of the
    reference samples before and after it (see ``reference.py``).
    """

    def __init__(
        self,
        workload: Workload,
        reference: Reference,
        seconds: Optional[float],
        n_rounds: Optional[int],
    ) -> None:
        self.reference = reference
        self.seconds, self.rounds_left = seconds, n_rounds
        self.segment_rounds = workload.segment_rounds
        self.barrier = threading.Barrier(workload.clients)
        # (seconds, CPU seconds) of the reference, one more than segments
        self.samples: List[tuple] = []
        self.start: Optional[float] = None
        self.todo = 0

    def next_segment(self, client: int) -> int:
        """Rounds every client sends next; 0 when the window is over."""
        self.barrier.wait()
        if client == 0:
            self.samples.append(self.reference.sample())
            now = time.perf_counter()
            if self.start is None:
                self.start = now
            todo = self.segment_rounds
            if self.rounds_left is not None:
                todo = min(todo, self.rounds_left)
                self.rounds_left -= todo
            if self.seconds is not None and now - self.start >= self.seconds:
                todo = 0
            self.todo = todo
        self.barrier.wait()
        return self.todo

    def scales(self, cpu: bool = False) -> List[float]:
        """Per segment: measured seconds (or CPU seconds) -> reference seconds."""
        s = [cpu_s if cpu else clock_s for clock_s, cpu_s in self.samples]
        return [2 * NOMINAL_S / (a + b) for a, b in zip(s, s[1:])]


@dataclass
class ClientRun:
    """What one closed-loop client saw in the measured window."""

    latencies: List[float] = field(default_factory=list)  # as measured
    segments: List[int] = field(default_factory=list)  # index of each one's first
    attempted: int = 0
    good: int = 0  # replies that were ok and matched the expected rows
    fallbacks: int = 0
    failures: List[str] = field(default_factory=list)  # first few, described
    check_cpu: float = 0.0  # CPU this client spent checking replies


def _client_loop(
    env: Env,
    workload: Workload,
    client: int,
    stream,
    oracle: Oracle,
    pace: Pace,
    out: ClientRun,
) -> None:
    """Segments of whole rounds until the round count or the time is used up.

    Each reply is checked against the oracle as soon as it arrives and then
    dropped, so the harness holds one result per client at a time and adds
    little of its own to ``peak_rss_mb``; the check's wall and CPU time are
    kept out of the window's.
    """
    send, latencies = env.send, out.latencies
    clock, thread_cpu = time.perf_counter, time.thread_time
    try:
        while True:
            todo = pace.next_segment(client)
            if not todo:
                break
            out.segments.append(len(latencies))
            for key, doc in _segment(env, workload, stream, todo):
                t0 = clock()
                try:
                    reply = send(client, doc)
                except Exception as exc:  # counted as a failed request below
                    reply = exc
                latencies.append(clock() - t0)
                cpu0 = thread_cpu()
                ok, rows, fell_back = outcome(reply)
                out.attempted += 1
                out.fallbacks += fell_back
                if ok and oracle.matches(key, rows):
                    out.good += 1
                elif len(out.failures) < 5:
                    out.failures.append(f"{key}: {_describe_failure(reply, ok)}")
                del reply, rows
                out.check_cpu += thread_cpu() - cpu0
    except BaseException:
        pace.barrier.abort()  # do not leave the other client waiting for this one
        raise


def _segment(env: Env, workload: Workload, stream, n_rounds: int):
    for _ in range(n_rounds):
        if workload.cold:
            env.session.clear_cache()
        yield from next(stream)


def _in_reference_time(run: ClientRun, scales: List[float]) -> List[float]:
    ends = run.segments[1:] + [len(run.latencies)]
    return [
        latency * scale
        for first, end, scale in zip(run.segments, ends, scales)
        for latency in run.latencies[first:end]
    ]


def measure(
    env: Env,
    workload: Workload,
    statements: dict,
    oracle: Oracle,
    reference: Reference,
    seed: int,
    seconds: Optional[float],
    n_rounds: Optional[int],
    quick: bool,
) -> dict:
    """Run the closed loop and check every reply; returns the observations.

    Times are in reference time (``Pace``); ``reference_s`` holds the
    reference samples themselves.
    """
    runs = [ClientRun() for _ in range(workload.clients)]
    pace = Pace(workload, reference, seconds, n_rounds)
    args = [
        (env, workload, c, workloads.rounds(workload, statements, seed, c, quick),
         oracle, pace, runs[c])
        for c in range(workload.clients)
    ]
    gc.collect()
    cache0 = env.session.cache_info()
    cpu0 = cpu_seconds()
    if workload.clients == 1:
        _client_loop(*args[0])
    else:
        threads = [
            threading.Thread(target=_client_loop, args=a, name=f"ledger-client-{i}")
            for i, a in enumerate(args)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if pace.barrier.broken:
            raise RuntimeError("a client thread died (its traceback is above)")
    cpu_s = cpu_seconds() - cpu0 - sum(r.check_cpu for r in runs)
    cpu_s -= sum(cpu for _, cpu in pace.samples)
    scales, cpu_scales = pace.scales(), pace.scales(cpu=True)
    latencies = [_in_reference_time(run, scales) for run in runs]
    attempted = sum(run.attempted for run in runs)
    return {
        "latencies": sorted(l for client in latencies for l in client),
        "attempted": attempted,
        "failed": attempted - sum(run.good for run in runs),
        "fallbacks": sum(run.fallbacks for run in runs),
        # Closed loop: each client's good replies over the time it spent
        # waiting for replies, summed over clients.
        "qps": sum(run.good / sum(l) for run, l in zip(runs, latencies)),
        "failures": [f for run in runs for f in run.failures][:5],
        # Every segment is the same work, so the window's CPU time scales
        # by the harmonic mean (by the reference's CPU time, not its clock
        # time: a process kept off the CPU burns none).
        "cpu_s": cpu_s * len(cpu_scales) / sum(1 / scale for scale in cpu_scales),
        "reference_s": [seconds for seconds, _ in pace.samples],
        "scale": len(scales) / sum(1 / scale for scale in scales),
        "cache0": cache0,
        "cache1": env.session.cache_info(),
    }


def _describe_failure(reply, ok: bool) -> str:
    if isinstance(reply, BaseException):
        return f"untyped {type(reply).__name__}: {reply}"
    if ok:
        return "rows differ from expected"
    error = reply.get("error") if isinstance(reply, dict) else reply.error
    return f"error {error}"


def end_to_end(window: dict, setup_s: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "qps": window["qps"],
        "latency_p50_ms": percentile(window["latencies"], 50) * 1e3,
        "latency_p95_ms": percentile(window["latencies"], 95) * 1e3,
        "cpu_ms_per_req": window["cpu_s"] * 1e3 / window["attempted"],
        "peak_rss_mb": peak_rss_mb(),
    }


PER_LAYER_UNITS = {
    "serve.wire.self_ms": "ms",
    "serve.server.self_ms": "ms",
    "serve.service.self_ms": "ms",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p95_ms": "ms",
    "serve.exec_ms": "ms",
    "resilience.executor.self_ms": "ms",
    "session.resolve.self_ms": "ms",
    "session.prepare.self_ms": "ms",
    "session.cache.hits": "1/req",
    "session.cache.misses": "1/req",
    "session.cache.shape_hits": "1/req",
    "session.cache.shape_misses": "1/req",
    "session.cache.evictions": "1/req",
    "session.cache.single_flight_waits": "1/req",
    "sql.shape.ms": "ms",
    "sql.shape.calls_per_req": "1/req",
    "sql.plan.ms": "ms",
    "plan.rewrite.ms": "ms",
    "compiler.compile.ms": "ms",
    "compiler.compiles": "1/req",
    "compiler.generate.ms": "ms",
    "compiler.host_compile.ms": "ms",
    "analysis.verify.ms": "ms",
    "compiler.residual_bytes": "bytes",
    "compiler.ir_stmts": "count",
    "compiler.run.ms": "ms",
    "compiler.run.share": "ratio",
    "engine.fallbacks": "1/req",
    "tpch.dbgen_s": "s",
    "storage.load_s": "s",
    "noise.spin_ms": "ms",
    "trace.qps": "1/s",
}

CACHE_COUNTERS = (
    "hits", "misses", "shape_hits", "shape_misses", "evictions",
    "single_flight_waits",
)


def per_layer(
    window: dict,
    window_spans: List[list],
    warmup_spans: List[list],
    env: Env,
) -> Dict[str, float]:
    """Mean self time per request of every layer, plus the layer counts."""
    n = window["attempted"]
    selfs = span_mod.self_times(window_spans)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    extras: Dict[str, List[dict]] = defaultdict(list)
    root_s = 0.0
    for s in window_spans:
        name = s[span_mod.NAME]
        self_s[name] += selfs[id(s)]
        calls[name] += 1
        if s[span_mod.EXTRA]:
            extras[name].append(s[span_mod.EXTRA])
        if s[span_mod.PARENT] is None and s[span_mod.RID] is not None:
            root_s += s[span_mod.END] - s[span_mod.START]

    def ms(name: str) -> float:
        return self_s[name] * 1e3 / n

    queued = sorted(e["queued_s"] for e in extras["serve.service"]) or [0.0]
    exec_s = sum(e["exec_s"] for e in extras["serve.service"])
    run_s = sum(
        s[span_mod.END] - s[span_mod.START]
        for s in window_spans
        if s[span_mod.NAME] == "compiler.run"
    )
    warm_compiles = [
        s[span_mod.EXTRA] for s in warmup_spans
        if s[span_mod.NAME] == "compiler.compile" and s[span_mod.EXTRA]
    ]
    out = {
        "serve.wire.self_ms": ms("serve.wire"),
        "serve.server.self_ms": ms("serve.server"),
        # Strict self time, so the rows add up to the request: it includes
        # the pool hand-off that queue_wait_* (admission -> worker start,
        # which overlaps submit()'s own first steps) reports beside it.
        "serve.service.self_ms": ms("serve.service"),
        "serve.queue_wait_p50_ms": percentile(queued, 50) * 1e3,
        "serve.queue_wait_p95_ms": percentile(queued, 95) * 1e3,
        "serve.exec_ms": exec_s * 1e3 / n,
        "resilience.executor.self_ms": ms("resilience.executor"),
        "session.resolve.self_ms": ms("session.resolve"),
        "session.prepare.self_ms": ms("session.prepare"),
        "sql.shape.ms": ms("sql.shape"),
        "sql.shape.calls_per_req": calls["sql.shape"] / n,
        "sql.plan.ms": ms("sql.plan"),
        "plan.rewrite.ms": ms("plan.rewrite"),
        "compiler.compile.ms": ms("compiler.compile"),
        "compiler.compiles": calls["compiler.compile"] / n,
        "compiler.generate.ms": sum(
            e["generation_s"] for e in extras["compiler.compile"]) * 1e3 / n,
        "compiler.host_compile.ms": sum(
            e["host_compile_s"] for e in extras["compiler.compile"]) * 1e3 / n,
        "analysis.verify.ms": ms("analysis.verify"),
        # The residual programs the last warm-up pass compiled, one per shape.
        "compiler.residual_bytes": sum(e["residual_bytes"] for e in warm_compiles),
        "compiler.ir_stmts": sum(e["ir_stmts"] for e in warm_compiles),
        "compiler.run.ms": ms("compiler.run"),
        "compiler.run.share": run_s / root_s if root_s else 0.0,
        "engine.fallbacks": window["fallbacks"] / n,
        "tpch.dbgen_s": env.dbgen_s,
        "storage.load_s": env.load_s,
        "noise.spin_ms": statistics.median(window["reference_s"]) * 1e3,
        "trace.qps": window["qps"],
    }
    for counter in CACHE_COUNTERS:
        delta = window["cache1"][counter] - window["cache0"][counter]
        out[f"session.cache.{counter}"] = delta / n
    # Spans are timed by the clock; report them in reference time like the
    # end-to-end metrics (by the window's overall scale), so the rows still
    # add up to the request.  noise.spin_ms stays as the clock read it.
    for name in out:
        if PER_LAYER_UNITS[name] in ("ms", "s") and name != "noise.spin_ms":
            out[name] *= window["scale"]
    return out
