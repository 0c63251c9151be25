"""EXPLAIN ANALYZE across every engine: rows, wall-time, selectivity.

The compiled engines get their numbers from the staged instrumentation
(``Config(instrument=True)`` counters + ``obs_now`` timing brackets, one
generation pass); the interpreters get theirs from counting wrappers
installed through the ``set_wrap_hook`` seam in :mod:`repro.engine.push`
and :mod:`repro.engine.volcano`.  Both paths label operators identically
-- ``{Type}#{n}`` in post-order, children before parents, left before
right -- so per-operator numbers are comparable engine to engine.

Caveat: timings are *inclusive* (a parent's interval spans its
children's), matching classic EXPLAIN ANALYZE.  Under ``Limit`` the
volcano engine pulls lazily while push and compiled run upstream
operators to completion, so upstream row counts legitimately differ
there; everywhere else the engines agree row for row.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.engine import push as push_mod
from repro.engine import volcano as volcano_mod
from repro.engine.push import execute_push
from repro.engine.volcano import execute_volcano
from repro.plan import physical as phys

ENGINES = ("compiled", "push", "volcano")


@dataclass(frozen=True)
class OpInfo:
    """One plan operator's label and links, in instrumentation order."""

    label: str
    node: phys.PhysicalPlan
    children: tuple[str, ...]


def operator_labels(plan: phys.PhysicalPlan) -> list[OpInfo]:
    """Label every operator exactly as the instrument lowering does.

    ``StagedPlanBuilder._maybe_instrument`` numbers operators as it wraps
    them: post-order, children before parents, left before right, counter
    starting at 1.  Returns infos in that same order (root last).
    """
    infos: list[OpInfo] = []
    counter = 0

    def walk(node: phys.PhysicalPlan) -> str:
        nonlocal counter
        child_labels = tuple(walk(c) for c in node.children())
        counter += 1
        label = f"{type(node).__name__}#{counter}"
        infos.append(OpInfo(label, node, child_labels))
        return label

    walk(plan)
    return infos


@dataclass
class OperatorStats:
    """Per-operator measurements, engine-independent."""

    label: str
    rows: int
    seconds: Optional[float]
    selectivity: Optional[float]
    children: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "rows": self.rows,
            "seconds": self.seconds,
            "selectivity": self.selectivity,
            "children": list(self.children),
        }


@dataclass
class ExplainAnalyze:
    """The annotated operator tree one engine produced for one plan."""

    engine: str
    operators: list[OperatorStats]  # post-order; the root is last
    result_rows: int
    kernels: dict = field(default_factory=dict)
    codegen_stats: dict = field(default_factory=dict)

    def operator(self, label: str) -> OperatorStats:
        for op in self.operators:
            if op.label == label:
                return op
        raise KeyError(label)

    @property
    def rows_by_label(self) -> dict[str, int]:
        return {op.label: op.rows for op in self.operators}

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "result_rows": self.result_rows,
            "operators": [op.to_dict() for op in self.operators],
            "kernels": dict(self.kernels),
            "codegen_stats": dict(self.codegen_stats),
        }

    def render(self) -> str:
        by_label = {op.label: op for op in self.operators}
        lines = [f"EXPLAIN ANALYZE ({self.engine}): {self.result_rows} rows"]

        def emit(label: str, indent: int) -> None:
            op = by_label[label]
            parts = [f"rows={op.rows}"]
            if op.seconds is not None:
                parts.append(f"time={op.seconds * 1e3:.3f}ms")
            if op.selectivity is not None:
                parts.append(f"sel={op.selectivity:.3f}")
            lines.append(f"{'  ' * indent}{label}  " + "  ".join(parts))
            for child in op.children:
                emit(child, indent + 1)

        emit(self.operators[-1].label, 1)
        if self.kernels:
            lines.append("kernels:")
            for name in sorted(self.kernels):
                entry = self.kernels[name]
                lines.append(
                    f"  {name}: {entry['calls']} calls, {entry['rows']} rows"
                )
        return "\n".join(lines)


# -- interpreter-side counting wrappers ---------------------------------------


class _CountingPushOp:
    """Delegating wrapper over a push operator: counts rows, times exec.

    Push operators interact with children only through ``exec(cb)``, so a
    plain delegation suffices; the timing is inclusive by construction
    (the bracket spans the child's whole exec).
    """

    def __init__(self, inner, entry: dict) -> None:
        self._inner = inner
        self._entry = entry

    def exec(self, cb) -> None:
        entry = self._entry

        def counting(row) -> None:
            entry["rows"] += 1
            cb(row)

        t0 = time.perf_counter()
        try:
            self._inner.exec(counting)
        finally:
            entry["seconds"] += time.perf_counter() - t0


class _CountingVolcanoOp:
    """Delegating wrapper over a volcano operator: counts non-None nexts,
    times every open/next/close call (inclusive of children)."""

    def __init__(self, inner, entry: dict) -> None:
        self._inner = inner
        self._entry = entry

    def open(self) -> None:
        t0 = time.perf_counter()
        try:
            self._inner.open()
        finally:
            self._entry["seconds"] += time.perf_counter() - t0

    def next(self):
        t0 = time.perf_counter()
        try:
            row = self._inner.next()
        finally:
            self._entry["seconds"] += time.perf_counter() - t0
        if row is not None:
            self._entry["rows"] += 1
        return row

    def close(self) -> None:
        t0 = time.perf_counter()
        try:
            self._inner.close()
        finally:
            self._entry["seconds"] += time.perf_counter() - t0


# -- the engine dispatch ------------------------------------------------------


def explain_analyze_plan(
    db,
    plan: phys.PhysicalPlan,
    engine: str = "compiled",
    config: Optional[Config] = None,
) -> ExplainAnalyze:
    """Run ``plan`` on ``engine`` with per-operator measurement.

    ``engine`` is one of :data:`ENGINES`.  ``"compiled"`` instruments the
    program ``config`` (default ``Config()``) describes, lowering included,
    so a session explains the program it serves.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    infos = operator_labels(plan)
    if engine == "compiled":
        cfg = replace(config or Config(), instrument=True)
        compiled = LB2Compiler(db.catalog, db, cfg).compile(plan)
        result = compiled.run(db)
        rows = compiled.last_stats or {}
        times: dict = compiled.last_times or {}
        kernels = compiled.last_kernels or {}
        codegen_stats = dict(compiled.codegen_stats)
    else:
        entries = {
            info.label: {"rows": 0, "seconds": 0.0} for info in infos
        }
        labels_by_node: dict[int, deque] = defaultdict(deque)
        for info in infos:
            labels_by_node[id(info.node)].append(info.label)
        wrapper = _CountingPushOp if engine == "push" else _CountingVolcanoOp

        def hook(op, node):
            # one queued label per node object, popped in construction
            # order -- robust even if a node instance appears twice
            queue = labels_by_node[id(node)]
            label = queue.popleft() if queue else None
            if label is None:  # pragma: no cover - defensive
                return op
            return wrapper(op, entries[label])

        mod = push_mod if engine == "push" else volcano_mod
        previous = mod.set_wrap_hook(hook)
        try:
            if engine == "push":
                result = execute_push(plan, db, db.catalog)
            else:
                result = execute_volcano(plan, db, db.catalog)
        finally:
            mod.set_wrap_hook(previous)
        rows = {label: e["rows"] for label, e in entries.items()}
        times = {label: e["seconds"] for label, e in entries.items()}
        kernels = {}
        codegen_stats = {"backend": engine}

    operators = []
    for info in infos:
        out = int(rows.get(info.label, 0))
        operators.append(OperatorStats(
            label=info.label,
            rows=out,
            seconds=times.get(info.label),
            selectivity=_selectivity(db, info, rows, out),
            children=info.children,
        ))
    return ExplainAnalyze(
        engine=engine,
        operators=operators,
        result_rows=len(result),
        kernels=kernels,
        codegen_stats=codegen_stats,
    )


def _selectivity(db, info: OpInfo, rows: dict, out: int) -> Optional[float]:
    """rows-out / rows-in; for leaves, rows-in is the base table size."""
    if info.children:
        rows_in = sum(int(rows.get(c, 0)) for c in info.children)
    else:
        table = getattr(info.node, "table", None)
        if table is None:
            return None
        rows_in = db.size(table)
    if not rows_in:
        return None
    return out / rows_in
