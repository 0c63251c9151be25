"""Partition-parallel query execution (Section 4.5).

The paper's parallel LB2 splits each pipeline's driving scan across
threads, accumulates into thread-local hash maps, merges, and restarts the
post-aggregation pipeline.  This module reproduces that structure:

1. :func:`split_plan` finds the driving scan (following probe sides down
   from the root) and the lowest aggregation above it;
2. the LB2 compiler emits ``partial(db, lo, hi)`` -- the whole pipeline up
   to and including thread-local aggregation over scan rows ``[lo, hi)``;
3. :func:`merge_states` combines the per-partition states (the paper's
   ``hm.merge``);
4. the small post-aggregation tail (sort/limit/top-level aggregates) runs
   on the push engine over the merged groups ("restart a pipeline").

Execution modes:

* ``run_simulated`` -- run partials sequentially, record per-partition
  times, and compute the k-worker makespan (max over workers under static
  scheduling + merge + tail).  This is the measurement mode for Figure 11
  on the single-core container this reproduction targets; the partials are
  the *real* generated code, only the wall-clock overlap is modelled.
* ``run_multiprocess`` -- fork worker processes and execute partials
  concurrently (exercises the same code path with true process
  parallelism when cores are available).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.analysis.verifier import Verifier
from repro.analysis.walker import IRVerificationError
from repro.catalog.catalog import Catalog
from repro.engine import push as push_engine
from repro.errors import ReproError, error_code
from repro.plan import physical as phys
from repro.plan.expressions import AggSpec
from repro.resilience.faults import fault_point
from repro.staging import generate_python
from repro.staging.builder import StagingContext
from repro.staging.pygen import PyProgram
from repro.storage.database import Database
from repro.compiler.lb2 import CompileError, Config, StagedPlanBuilder
from repro.compiler.staged_agg import AggLayout


class ParallelError(ReproError):
    """Raised when a plan shape is not supported by the parallel driver."""

    code = "E_PARALLEL"
    phase = "execute"


class ParallelWorkerError(ParallelError):
    """A parallel worker crashed; names the worker and the fault site.

    Raised by :meth:`ParallelQuery.run_multiprocess` after the failing
    worker's siblings have been cancelled (the pool is terminated, never
    joined on forever).
    """

    code = "E_WORKER"
    phase = "execute"

    def __init__(
        self,
        worker: int,
        site: Optional[str],
        message: str,
        cause_code: str = "E_RUNTIME",
    ) -> None:
        where = f" at fault site {site!r}" if site else ""
        super().__init__(f"parallel worker {worker} failed{where}: {message}")
        self.worker = worker
        self.site = site
        self.cause_code = cause_code


@dataclass
class SplitPlan:
    """The decomposition produced by :func:`split_plan`."""

    tail: list[phys.PhysicalPlan]  # root-to-agg chain, excluding the agg
    agg: phys.Agg
    driving_scan: phys.Scan


def _probe_child(node: phys.PhysicalPlan) -> Optional[phys.PhysicalPlan]:
    """The child whose tuples drive this operator's output pipeline."""
    if isinstance(node, (phys.Select, phys.Project, phys.Sort, phys.Limit,
                         phys.Distinct, phys.Agg, phys.IndexJoin)):
        return node.children()[0]
    if isinstance(node, phys.HashJoin):
        return node.right  # build left, probe right
    if isinstance(node, (phys.SemiJoin, phys.AntiJoin, phys.LeftOuterJoin)):
        return node.left  # build right, stream left
    return None


def split_plan(plan: phys.PhysicalPlan) -> SplitPlan:
    """Locate the driving scan and the lowest Agg above it on the probe path."""
    path: list[phys.PhysicalPlan] = []
    node: phys.PhysicalPlan = plan
    while not isinstance(node, phys.Scan):
        if isinstance(node, phys.DateIndexScan):
            raise ParallelError(
                "parallel driver partitions plain scans; run the compliant plan"
            )
        child = _probe_child(node)
        if child is None:
            raise ParallelError(
                f"cannot find a driving scan below {type(node).__name__}"
            )
        path.append(node)
        node = child
    driving = node
    agg_positions = [i for i, n in enumerate(path) if isinstance(n, phys.Agg)]
    if not agg_positions:
        raise ParallelError("plan has no aggregation to merge across partitions")
    lowest = agg_positions[-1]
    agg = path[lowest]
    tail = path[:lowest]
    for t in tail:
        if len(t.children()) != 1:
            raise ParallelError(
                f"post-aggregation tail must be unary, found {type(t).__name__}"
            )
    assert isinstance(agg, phys.Agg)
    return SplitPlan(tail=tail, agg=agg, driving_scan=driving)


# ---------------------------------------------------------------------------
# State merging (the paper's hm.merge / ParHashMap)
# ---------------------------------------------------------------------------


def _merge_slots(acc: list, new: Sequence, layout: AggLayout) -> None:
    for slot in range(len(layout.folds)):
        fold = layout.combine(slot)
        if fold == "sum":
            acc[slot] += new[slot]
        elif fold == "min":
            if new[slot] < acc[slot]:
                acc[slot] = new[slot]
        elif fold == "max":
            if new[slot] > acc[slot]:
                acc[slot] = new[slot]
        else:
            acc[slot] |= new[slot]


def merge_states(states: Sequence[dict], layout: AggLayout) -> dict:
    """Merge per-partition grouped states key-wise."""
    merged: dict = {}
    for state in states:
        for key, slots in state.items():
            acc = merged.get(key)
            if acc is None:
                merged[key] = list(slots)
            else:
                _merge_slots(acc, slots, layout)
    return merged


def merge_global_states(
    states: Sequence[list], layout: AggLayout
) -> tuple[int, Optional[list]]:
    """Merge per-partition ``[seen, slot...]`` global states."""
    total_seen = 0
    acc: Optional[list] = None
    for state in states:
        seen = state[0]
        if not seen:
            continue
        slots = list(state[1:])
        if acc is None:
            acc = slots
        else:
            _merge_slots(acc, slots, layout)
        total_seen += seen
    return total_seen, acc


def _finalize_slots(slots: Sequence, layout: AggLayout) -> list:
    out = []
    for agg in layout.aggs:
        kind = agg.spec.kind
        if kind == "avg":
            out.append(slots[agg.slots[0]] / slots[agg.slots[1]])
        elif kind == "count_distinct":
            out.append(len(slots[agg.slots[0]]))
        else:
            out.append(slots[agg.slots[0]])
    return out


def _empty_values(layout: AggLayout) -> list:
    return [
        0 if a.spec.kind in ("count", "count_distinct") else None for a in layout.aggs
    ]


# ---------------------------------------------------------------------------
# The compiled parallel query
# ---------------------------------------------------------------------------


@dataclass
class PartitionTiming:
    """Measured costs of one parallel run."""

    partition_seconds: list[float]
    merge_seconds: float
    tail_seconds: float

    def makespan(self, workers: int) -> float:
        """Simulated wall-clock under static block scheduling on ``workers``.

        This models OpenMP's default static schedule, which is what LB2's
        generated OpenMP code uses.
        """
        if workers <= 0:
            raise ValueError("workers must be positive")
        lanes = [0.0] * workers
        for i, cost in enumerate(self.partition_seconds):
            lanes[i % workers] += cost
        return max(lanes) + self.merge_seconds + self.tail_seconds

    def makespan_dynamic(self, workers: int) -> float:
        """Simulated wall-clock under work-stealing (morsel-style) scheduling.

        Greedy longest-processing-time assignment: each partition goes to
        the least-loaded worker, largest partitions first -- the model for
        HyPer's morsel-driven dispatch that the paper compares against.
        Always <= the static makespan on the same inputs.
        """
        import heapq

        if workers <= 0:
            raise ValueError("workers must be positive")
        lanes = [0.0] * workers
        heapq.heapify(lanes)
        for cost in sorted(self.partition_seconds, reverse=True):
            heapq.heappush(lanes, heapq.heappop(lanes) + cost)
        return max(lanes) + self.merge_seconds + self.tail_seconds


class ParallelQuery:
    """A plan compiled into partitioned partials plus a merge/tail phase."""

    def __init__(
        self,
        plan: phys.PhysicalPlan,
        db: Database,
        catalog: Catalog,
        config: Optional[Config] = None,
        verify: bool = True,
    ) -> None:
        self.plan = plan
        self.db = db
        self.catalog = catalog
        # Dictionary codes are per-load state; parallel partials stay on the
        # compliant representation (Figure 11 measures the compliant config).
        base = config or Config()
        self.config = Config(
            hashmap="native",
            open_map_size=base.open_map_size,
            hoist=base.hoist,
            use_dictionaries=False,
            budget_checks=base.budget_checks,
            budget_check_interval=base.budget_check_interval,
        )
        self.split = split_plan(plan)
        self.agg_field_names = self.split.agg.field_names(catalog)
        self.grouped = bool(self.split.agg.keys)
        self.source = self._compile(verify)

    def _compile(self, verify: bool = True) -> str:
        ctx = StagingContext()
        builder = StagedPlanBuilder(self.catalog, self.db, ctx, self.config)
        with ctx.function("partial", ["db", "lo", "hi"]):
            lo = ctx.sym("lo", "long")
            hi = ctx.sym("hi", "long")
            root = builder.build(self.split.agg)
            builder.set_partition(self.split.driving_scan, lo, hi)
            root.exec_partial()  # type: ignore[attr-defined]
        # the partials' slots, as the program lays them out, for the merge
        self.layout: AggLayout = root.layout  # type: ignore[attr-defined]
        self.functions = ctx.program()
        if verify:
            diagnostics = Verifier().run(self.functions)
            if diagnostics:
                raise IRVerificationError(diagnostics, self.functions)
        source = generate_python(
            self.functions,
            header=f"parallel partial for {type(self.plan).__name__} plan",
        )
        self._program = PyProgram(source)
        self._partial = self._program.fn("partial")
        return source

    # -- pieces ----------------------------------------------------------------

    def partition_ranges(self, partitions: int) -> list[tuple[int, int]]:
        size = self.db.size(self.split.driving_scan.table)
        if partitions <= 0:
            raise ValueError("partitions must be positive")
        chunk = (size + partitions - 1) // max(partitions, 1)
        return [
            (lo, min(lo + chunk, size)) for lo in range(0, size, max(chunk, 1))
        ] or [(0, 0)]

    def run_partial(self, lo: int, hi: int, worker: Optional[int] = None):
        if worker is not None:
            fault_point("worker-run", key=worker)
        return self._partial(self.db, lo, hi)

    def merged_rows(self, states: Sequence) -> list[dict]:
        """Merge partition states and finalize into agg-output rows."""
        key_names = [n for n, _ in self.split.agg.keys]
        agg_names = [n for n, _ in self.split.agg.aggs]
        rows: list[dict] = []
        if self.grouped:
            merged = merge_states(states, self.layout)
            for key, slots in merged.items():
                row: dict = {}
                if len(key_names) == 1:
                    row[key_names[0]] = key
                else:
                    row.update(zip(key_names, key))
                row.update(zip(agg_names, _finalize_slots(slots, self.layout)))
                rows.append(row)
        else:
            seen, slots = merge_global_states(states, self.layout)
            if seen and slots is not None:
                values = _finalize_slots(slots, self.layout)
            else:
                values = _empty_values(self.layout)
            rows.append(dict(zip(agg_names, values)))
        return rows

    def run_tail(self, rows: list[dict]) -> list[tuple]:
        """Run the post-aggregation pipeline over merged rows (push engine)."""

        class _Rows(push_engine.Op):
            def exec(self, cb):
                for row in rows:
                    cb(row)

        op: push_engine.Op = _Rows()
        for node in reversed(self.split.tail):
            op = self._wrap_tail(node, op)
        names = self.plan.field_names(self.catalog)
        out: list[tuple] = []
        op.exec(lambda row: out.append(tuple(row[n] for n in names)))
        return out

    def _wrap_tail(self, node: phys.PhysicalPlan, child: push_engine.Op) -> push_engine.Op:
        if isinstance(node, phys.Sort):
            return push_engine.Sort(child, node)
        if isinstance(node, phys.Limit):
            return push_engine.Limit(child, node)
        if isinstance(node, phys.Select):
            return push_engine.Select(child, node)
        if isinstance(node, phys.Project):
            return push_engine.Project(child, node, self.catalog)
        if isinstance(node, phys.Agg):
            return push_engine.Agg(child, node)
        if isinstance(node, phys.Distinct):
            return push_engine.Distinct(child, node.field_names(self.catalog))
        raise ParallelError(f"unsupported tail operator {type(node).__name__}")

    # -- execution modes -----------------------------------------------------------

    def run_simulated(
        self, partitions: int, inject: bool = False
    ) -> tuple[list[tuple], PartitionTiming]:
        """Run all partials sequentially; report per-phase timings.

        The returned :class:`PartitionTiming` computes the k-worker
        makespan -- the simulation substitute for multi-core hardware
        documented in DESIGN.md.  ``inject=True`` routes each partial
        through the ``worker-run`` fault site (keyed by partition index)
        so degradation tests need not fork.
        """
        states = []
        per_partition = []
        for idx, (lo, hi) in enumerate(self.partition_ranges(partitions)):
            start = time.perf_counter()
            states.append(self.run_partial(lo, hi, worker=idx if inject else None))
            per_partition.append(time.perf_counter() - start)
        start = time.perf_counter()
        rows = self.merged_rows(states)
        merge_seconds = time.perf_counter() - start
        start = time.perf_counter()
        result = self.run_tail(rows)
        tail_seconds = time.perf_counter() - start
        return result, PartitionTiming(per_partition, merge_seconds, tail_seconds)

    def run_multiprocess(self, workers: int) -> list[tuple]:
        """Fork ``workers`` processes and run partials concurrently.

        Worker failures are cooperative, not fatal: each worker reports
        success or a serialized failure, and the first failure terminates
        the pool (cancelling the siblings) and raises
        :class:`ParallelWorkerError` naming the worker and -- for injected
        faults -- the fault site.  An armed :class:`FaultInjector` is
        inherited by the forked workers, so ``worker-run`` faults keyed by
        worker index fire inside the target child only.
        """
        import multiprocessing as mp

        global _FORK_STATE
        ranges = self.partition_ranges(workers)
        _FORK_STATE = (self._partial, self.db)
        states: list = [None] * len(ranges)
        try:
            with mp.get_context("fork").Pool(processes=workers) as pool:
                jobs = [(idx, lo, hi) for idx, (lo, hi) in enumerate(ranges)]
                for idx, (ok, payload) in enumerate(pool.imap(_fork_worker, jobs)):
                    if not ok:
                        site, cause, message = payload
                        # Exiting the ``with`` block terminates the pool:
                        # siblings are cancelled, nothing is joined forever.
                        raise ParallelWorkerError(
                            worker=idx, site=site, message=message, cause_code=cause
                        )
                    states[idx] = payload
        finally:
            _FORK_STATE = None
        return self.run_tail(self.merged_rows(states))

    def run_resilient(self, workers: int) -> tuple[list[tuple], "ParallelRunReport"]:
        """Multiprocess execution that degrades to sequential on failure.

        A crashed worker cancels its siblings and the whole query re-runs
        sequentially (fault injection disabled -- the degraded path must
        answer).  Budget violations re-raise: the budget bounds the query,
        so restarting the scan sequentially would double-spend it.
        """
        try:
            rows = self.run_multiprocess(workers)
        except ParallelWorkerError as exc:
            if exc.cause_code == "E_BUDGET":
                raise
            rows, _timing = self.run_simulated(workers, inject=False)
            return rows, ParallelRunReport(
                mode="sequential-fallback",
                workers=workers,
                failed_worker=exc.worker,
                fault_site=exc.site,
                error=str(exc),
            )
        return rows, ParallelRunReport(mode="multiprocess", workers=workers)


@dataclass
class ParallelRunReport:
    """How a resilient parallel run ended up executing."""

    mode: str  # "multiprocess" or "sequential-fallback"
    workers: int
    failed_worker: Optional[int] = None
    fault_site: Optional[str] = None
    error: Optional[str] = None

    @property
    def degraded(self) -> bool:
        return self.mode != "multiprocess"


_FORK_STATE: Optional[tuple[Callable, Database]] = None


def _fork_worker(job: tuple[int, int, int]):
    """Run one partial in a forked child; failures come back serialized.

    Returns ``(True, state)`` on success or ``(False, (site, code, msg))``
    on failure, so the parent can cancel siblings and name the culprit
    instead of unpickling arbitrary exceptions (or hanging).
    """
    assert _FORK_STATE is not None, "worker forked without state"
    partial, db = _FORK_STATE
    idx, lo, hi = job
    try:
        fault_point("worker-run", key=idx)
        return True, partial(db, lo, hi)
    except Exception as exc:  # noqa: BLE001 - serialized for the parent
        site = getattr(exc, "site", None)
        return False, (site, error_code(exc), str(exc) or type(exc).__name__)
