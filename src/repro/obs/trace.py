"""Compile-pipeline tracing: nested spans over the query lifecycle.

A :class:`Trace` context manager installs an active trace; inside it,
``span("stage")`` context managers record wall-clock intervals into a
tree (parse -> compile -> codegen/verify/host-compile -> execute ...).
When no trace is active, ``span`` yields a falsy no-op object, so the
instrumented code paths cost one truthiness check and nothing else --
the same "observability off means off" contract the staged codegen
keeps via golden-source byte identity.

Like :mod:`repro.obs.metrics`, this module is a stdlib-only leaf so the
session, the compiler driver, and the resilience layer can all import
it without cycles.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class Span:
    """One timed stage; ``meta`` holds stage-specific annotations
    (residual-program bytes, IR statement counts, engine names ...)."""

    name: str
    start: float
    end: Optional[float] = None
    meta: dict = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def __bool__(self) -> bool:
        return True

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "seconds": self.seconds,
            "meta": dict(self.meta),
            "children": [c.to_dict() for c in self.children],
        }

    def render(self, indent: int = 0) -> str:
        meta = ""
        if self.meta:
            meta = "  " + " ".join(f"{k}={v}" for k, v in self.meta.items())
        lines = [
            f"{'  ' * indent}{self.name:<24} {self.seconds * 1e3:8.3f}ms{meta}"
        ]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


class _NullSpan:
    """What ``span()`` yields when no trace is active: falsy, inert; it is
    its own context manager, so an untraced ``with span(...)`` builds
    nothing."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    @property
    def meta(self) -> dict:  # writes vanish; guard real work with `if sp:`
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _State(threading.local):
    active: Optional["Trace"] = None  # class defaults: an untraced thread
    stack: Optional[List[Span]] = None  # reads them without a failed lookup


# Trace state is *per thread*: the serve tier runs one request per worker
# thread, each under its own :class:`Trace`, and spans opened on one
# thread must never attach to another request's tree.  Thread-local data
# survives ``fork`` for the forking thread, so the parallel layer's
# forked workers still inherit the (usually absent) trace state exactly
# as they did when this was a plain module global.
_STATE = _State()


def _active() -> Optional["Trace"]:
    return _STATE.active


def _stack() -> List[Span]:
    stack = _STATE.stack
    if stack is None:
        stack = _STATE.stack = []
    return stack


def active_trace() -> Optional["Trace"]:
    return _STATE.active


def span(name: str, **meta):
    """Record a child span under the innermost open span.

    Use as ``with span(...) as sp``: ``sp`` is the :class:`Span` when a
    trace is active, else a falsy no-op -- guard any expensive annotation
    work with ``if sp:``.
    """
    if _STATE.active is None:
        return _NULL_SPAN
    return _Opened(name, meta)


class _Opened:
    """The context manager of one recorded span."""

    __slots__ = ("name", "meta", "span")

    def __init__(self, name: str, meta: dict) -> None:
        self.name = name
        self.meta = meta

    def __enter__(self) -> Span:
        sp = self.span = Span(name=self.name, start=time.perf_counter(), meta=self.meta)
        stack = _stack()
        stack[-1].children.append(sp)
        stack.append(sp)
        return sp

    def __exit__(self, *exc_info) -> None:
        self.span.end = time.perf_counter()
        _stack().pop()


class Trace:
    """Installs itself as the active trace; the root span brackets the
    whole ``with`` block.

    ::

        with Trace("q6") as trace:
            session.run(sql)
        print(trace.render())
        json.dumps(trace.to_dict())
    """

    def __init__(self, name: str = "trace", **meta) -> None:
        self.root = Span(name=name, start=0.0, meta=dict(meta))
        self._previous: Optional[Trace] = None

    def __enter__(self) -> "Trace":
        self._previous = _active()
        self.root.start = time.perf_counter()
        _STATE.active = self
        _stack().append(self.root)
        return self

    def __exit__(self, *exc) -> None:
        self.root.end = time.perf_counter()
        # Pop back to (and including) our root: a span leaked open by an
        # exception inside the block must not outlive the trace.
        stack = _stack()
        while stack:
            top = stack.pop()
            if top is self.root:
                break
        _STATE.active = self._previous
        self._previous = None

    def to_dict(self) -> dict:
        return self.root.to_dict()

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def render(self) -> str:
        return self.root.render()
