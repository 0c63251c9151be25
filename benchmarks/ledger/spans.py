"""Span tracing from outside the program: wrappers on public entry points.

A traced run patches the entry points in ``patch_points()`` -- methods on
their class, module functions in every ``repro`` module that imported them
-- with wrappers that record ``[name, start, end, parent, request_id]``
spans in memory.  An untraced run never imports-and-installs: it patches
nothing (``test_ledger.py`` checks identity of every patch point).

Parents: a span's parent is the span open on the same thread; a thread's
first span finds its parent through the request id it carries (the client's
``request`` span parents the server thread's ``handle_line``; ``submit``
parents the worker thread's executor span).  ``ServiceRequest.shape()``
calls the worker makes before its executor span opens carry no id; they are
adopted by that executor span's parent when it opens.

A layer's **self time** is its span minus the part its children cover.
"""

from __future__ import annotations

import functools
import re
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

# Span fields (a list, for speed): name, start, end, parent span, request
# id, extra (dict or None).
NAME, START, END, PARENT, RID, EXTRA = range(6)

_RID_IN_LINE = re.compile(r'"request_id":\s*"([^"]+)"')


def _rid_from_line(args) -> Optional[str]:
    m = _RID_IN_LINE.search(args[1])
    return m.group(1) if m else None


def patch_points() -> List[dict]:
    """The entry points a traced run wraps, one dict per span name source.

    ``owner``/``attr`` locate the callable (for module functions ``owner``
    is the defining module and every importing ``repro`` module is patched
    too); ``rid`` extracts a request id from the call's positional args;
    ``after`` copies public result fields into the span's extra dict.
    """
    from repro.analysis.verifier import Verifier
    from repro.compiler.driver import CompiledQuery, LB2Compiler
    from repro.plan import rewrite
    from repro.resilience.executor import ResilientExecutor
    from repro.serve.client import ServiceClient
    from repro.serve.server import QueryServer
    from repro.serve.service import QueryService
    from repro.session import Session
    from repro.sql import planner, shape

    def after_submit(extra: dict, response) -> None:
        extra["queued_s"] = response.queued_seconds
        extra["exec_s"] = response.exec_seconds

    def after_compile(extra: dict, compiled) -> None:
        extra["generation_s"] = compiled.generation_seconds
        extra["host_compile_s"] = compiled.compile_seconds
        extra["residual_bytes"] = len(compiled.source)
        extra["ir_stmts"] = _count_ir_stmts(compiled.functions)

    def by_executor(args):
        return args[0].request_id

    return [
        dict(name="serve.wire", owner=ServiceClient, attr="request",
             rid=lambda args: args[1].get("request_id")),
        dict(name="serve.server", owner=QueryServer, attr="handle_line",
             rid=_rid_from_line),
        dict(name="serve.service", owner=QueryService, attr="submit",
             rid=lambda args: args[1].request_id, after=after_submit),
        dict(name="resilience.executor", owner=ResilientExecutor, attr="query",
             rid=by_executor),
        dict(name="resilience.executor", owner=ResilientExecutor,
             attr="execute_plan", rid=by_executor),
        dict(name="session.resolve", owner=Session, attr="resolve"),
        dict(name="session.prepare", owner=Session, attr="prepare"),
        dict(name="session.prepare", owner=Session, attr="prepare_shape"),
        dict(name="session.prepare", owner=Session, attr="prepare_plan"),
        dict(name="sql.shape", owner=shape, attr="statement_shape"),
        dict(name="sql.plan", owner=planner, attr="sql_to_plan"),
        dict(name="plan.rewrite", owner=rewrite, attr="optimize_for_level"),
        dict(name="compiler.compile", owner=LB2Compiler, attr="compile",
             after=after_compile),
        dict(name="analysis.verify", owner=Verifier, attr="run"),
        dict(name="compiler.run", owner=CompiledQuery, attr="run"),
    ]


def _count_ir_stmts(functions) -> int:
    from repro.analysis.walker import iter_stmts

    return sum(1 for fn in functions for _ in iter_stmts(fn.body))


def holders(point: dict) -> List[tuple]:
    """Every (namespace, attr) through which ``point`` is reachable."""
    owner, attr = point["owner"], point["attr"]
    if isinstance(owner, type):
        return [(owner, attr)]
    fn = getattr(owner, attr)
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                found.append((module, name))
    return found


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_spans: List[list] = []  # one span list per thread
        self._open_by_rid: Dict[str, list] = {}
        self._patches: List[tuple] = []  # (namespace, attr, original)

    # -- recording -------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.orphans = []
            local.spans = []
            with self._lock:
                self._thread_spans.append(local.spans)
        return local

    def begin(self, name: str, rid: Optional[str]) -> list:
        local = self._state()
        stack = local.stack
        if stack:
            parent = stack[-1]
            if rid is None:
                rid = parent[RID]
        else:
            parent = None
            if rid is not None:
                open_spans = self._open_by_rid.get(rid)
                if open_spans:
                    parent = open_spans[-1]
                for orphan in local.orphans:
                    if parent is not None and orphan[START] >= parent[START]:
                        orphan[PARENT] = parent
                        orphan[RID] = rid
                local.orphans.clear()
        span = [name, 0.0, None, parent, rid, None]
        if not stack and rid is None:
            local.orphans.append(span)
        stack.append(span)
        local.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()

    def reset(self) -> List[list]:
        """Drop (and return) everything recorded so far."""
        with self._lock:
            dropped = [s for spans in self._thread_spans for s in spans]
            for spans in self._thread_spans:
                del spans[:]
        return dropped

    def spans(self) -> List[list]:
        with self._lock:
            return [s for spans in self._thread_spans for s in spans if s[END] is not None]

    # -- patching ----------------------------------------------------------

    def _wrap(self, point: dict, fn: Callable) -> Callable:
        name, rid_of, after = point["name"], point.get("rid"), point.get("after")
        begin, end, open_by_rid = self.begin, self.end, self._open_by_rid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid = rid_of(args) if rid_of is not None else None
            span = begin(name, rid)
            if rid is not None:
                open_by_rid.setdefault(rid, []).append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
                if rid is not None:
                    open_spans = open_by_rid[rid]
                    open_spans.pop()
                    if not open_spans:
                        open_by_rid.pop(rid, None)
            if after is not None:
                span[EXTRA] = {}
                after(span[EXTRA], result)
            return result

        return traced

    def install(self) -> None:
        for point in patch_points():
            wrapped = None
            for namespace, attr in holders(point):
                original = vars(namespace)[attr]
                if wrapped is None:
                    wrapped = self._wrap(point, original)
                setattr(namespace, attr, wrapped)
                self._patches.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()


# -- analysis ----------------------------------------------------------------


def self_times(spans: List[list]) -> Dict[int, float]:
    """``id(span)`` -> seconds of the span not covered by its children."""
    children: Dict[int, List[list]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(id(s[PARENT]), []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s[START]
        for c in sorted(children.get(id(s), ()), key=lambda c: c[START]):
            lo, hi = max(c[START], cursor), min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(s)] = (s[END] - s[START]) - covered
    return out


def to_documents(spans: List[list]) -> List[dict]:
    """Spans as JSON-ready dicts (``--trace-out``)."""
    ids = {id(s): i for i, s in enumerate(spans)}
    return [
        {
            "id": i,
            "name": s[NAME],
            "start": s[START],
            "end": s[END],
            "parent": ids.get(id(s[PARENT])) if s[PARENT] is not None else None,
            "request_id": s[RID],
            **({"extra": s[EXTRA]} if s[EXTRA] else {}),
        }
        for i, s in enumerate(spans)
    ]
