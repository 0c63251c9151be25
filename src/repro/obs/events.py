"""Structured JSONL event log: one line per request-lifecycle event.

The serve tier narrates every request as a sequence of typed events --
``admit``, ``compile``, ``fallback`` and, once per submitted request, the
terminal ``request`` line -- each carrying the request's correlation id,
so a log grep on one ``request_id`` reconstructs that request's whole
story and joins it against the wire reply.  The ``request`` line's body
is the request's :class:`~repro.obs.sampler.RequestRecord` document
(outcome, latency split, engine trail, rows; the span tree and operator
times when the tail sampler kept it), so the log is the one per-request
stream ``repro-doctor`` reads.  Events are one JSON object per line
(schema ``repro-events/v3``) in a size-rotated file.

A line names its plan shape by ``shape_digest`` only; the shape's text is
written once, on the ``compile`` line that built it, and a reader joins
the two on the digest: a shape's text runs to hundreds of characters,
more than the rest of an ``admit`` line.

Two pieces of ambient, thread-local state make the emission sites cheap
and cycle-free:

* the **installed log** -- :func:`install` sets the process-wide
  :class:`EventLog`; :func:`emit` no-ops (one ``is None`` check) when
  none is installed, the same "off means off" contract as tracing;
* the **request context** -- :func:`request_context` binds the current
  worker thread to a request id / plan shape / tenant, so deep layers
  (the session's single-flight compile, the resilient executor's
  fallback) can stamp events without threading the id through every
  signature.

Stdlib-only leaf over :mod:`repro.obs.artifacts`,
:mod:`repro.obs.sampler` (the record spec) and
:mod:`repro.obs.telemetry` (the shape digest).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Iterator, List, Optional

from repro.obs.artifacts import ArtifactError, Const, Maybe, OneOf, check
from repro.obs.sampler import RECORD
from repro.obs.telemetry import shape_digest

SCHEMA = "repro-events/v3"

#: Every event kind the schema admits, in lifecycle order.
EVENT_KINDS = (
    "admit",     # request passed admission control
    "compile",   # a compilation actually ran (cache misses only)
    "fallback",  # one engine attempt failed and the next engine runs
    "request",   # the request finished: its record (one per request)
    "slo_burn",  # an SLO burn-rate alert fired (or resolved)
)


# -- request context (thread-local) -------------------------------------------


class _Context(threading.local):
    # The bound request: (request_id, shape, tenant, trace_id).  A class
    # default, so an unbound thread reads it without a failed lookup.
    bound: tuple = (None, None, None, None)


_CTX = _Context()


def current_request_id() -> Optional[str]:
    """The request id bound to this thread, if any."""
    return _CTX.bound[0]


def current_shape() -> Optional[str]:
    """The plan shape bound to this thread, if any."""
    return _CTX.bound[1]


class request_context:
    """Bind this thread to one request for the duration of a ``with``
    block (the previous binding comes back on exit)."""

    __slots__ = ("_bound", "_previous")

    def __init__(
        self,
        request_id: Optional[str],
        shape: Optional[str] = None,
        tenant: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self._bound = (request_id, shape, tenant, trace_id)

    def __enter__(self) -> None:
        self._previous = _CTX.bound
        _CTX.bound = self._bound

    def __exit__(self, *exc_info) -> None:
        _CTX.bound = self._previous


# -- the log ------------------------------------------------------------------


class EventLog:
    """A thread-safe, size-rotated JSONL event sink.

    Rotation is the classic shift: when the active file would exceed
    ``max_bytes`` the log renames ``path -> path.1`` (shifting existing
    backups up, dropping the oldest past ``backups``) and starts fresh.
    One lock serializes emit+rotate; events are written line-atomically
    with an immediate flush so a crashed process loses at most the event
    being written.
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = 4 * 1024 * 1024,
        backups: int = 3,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if backups < 0:
            raise ValueError("backups must be non-negative")
        self.path = path
        self.max_bytes = max_bytes
        self.backups = backups
        self._lock = threading.Lock()
        self._fh = open(path, "a", encoding="utf-8")
        self.emitted = 0

    def emit(self, kind: str, request_id: Optional[str] = None, **fields) -> dict:
        """Append one event; returns the document written.

        ``request_id`` (and ``shape``/``tenant``, unless given
        explicitly) default to the thread's bound request context.  The
        shape is written as its ``shape_digest``, and as text too on a
        ``compile`` line only.  None-valued fields are dropped, so call
        sites can pass optional attributes unconditionally.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; one of {EVENT_KINDS}")
        fields = {k: v for k, v in fields.items() if v is not None}
        doc = {
            "schema": SCHEMA,
            "ts": time.time(),
            "event": kind,
            "request_id": request_id or current_request_id(),
        }
        shape = fields.pop("shape", None) or current_shape()
        if shape is not None:
            doc["shape_digest"] = shape_digest(shape)
            if kind == "compile":
                doc["shape"] = shape
        _, _, tenant, trace_id = _CTX.bound
        if "tenant" not in fields and tenant is not None:
            doc["tenant"] = tenant
        if "trace_id" not in fields and trace_id is not None:
            doc["trace_id"] = trace_id
        doc.update(fields)
        line = json.dumps(doc, sort_keys=True) + "\n"
        with self._lock:
            if self._fh.tell() + len(line) > self.max_bytes:
                self._rotate()
            self._fh.write(line)
            self._fh.flush()
            self.emitted += 1
        return doc

    def _rotate(self) -> None:
        self._fh.close()
        if self.backups == 0:
            os.remove(self.path)
        else:
            oldest = f"{self.path}.{self.backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for i in range(self.backups - 1, 0, -1):
                src = f"{self.path}.{i}"
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{i + 1}")
            os.replace(self.path, f"{self.path}.1")
        self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- the installed process-wide log -------------------------------------------

_INSTALLED: Optional[EventLog] = None


def install(log: Optional[EventLog]) -> Optional[EventLog]:
    """Install (or, with None, remove) the process-wide event log;
    returns the previous one so callers can restore it."""
    global _INSTALLED
    previous = _INSTALLED
    _INSTALLED = log
    return previous


def installed() -> Optional[EventLog]:
    return _INSTALLED


def emit(kind: str, request_id: Optional[str] = None, **fields) -> Optional[dict]:
    """Emit through the installed log; a cheap no-op when none is."""
    log = _INSTALLED
    if log is None:
        return None
    return log.emit(kind, request_id=request_id, **fields)


# -- schema validation and reading ---------------------------------------------

EVENT = {
    "schema": Const(SCHEMA),
    "ts": float,
    "event": OneOf(EVENT_KINDS),
    "request_id": Maybe(str),
    **dict.fromkeys(
        ("shape", "shape_digest", "tenant", "engine", "code", "trace_id",
         "scope", "state"),
        Maybe(str, null=False),
    ),
}


def validate_event(doc: object) -> List[str]:
    """Every schema problem of one event; a ``request`` line is also
    checked against the record spec."""
    problems = check(EVENT, doc, "event")
    if not problems and "shape" in doc and doc["event"] != "compile":
        problems = ["event: shape text outside a compile line (shape_digest names it)"]
    if not problems and doc["event"] == "request":
        problems = check(RECORD, doc, "request line")
    return problems


def read_events(path: str) -> Iterator[dict]:
    """Parsed events from one JSONL file (raises on malformed JSON)."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def log_files(path: str) -> List[str]:
    """The files of the log at ``path``, oldest first: its rotated
    backups ``path.N`` ... ``path.1``, then ``path`` itself."""
    backups = []
    while os.path.exists(f"{path}.{len(backups) + 1}"):
        backups.append(f"{path}.{len(backups) + 1}")
    return backups[::-1] + [path]


def read_log(path: str) -> List[dict]:
    """Every event the log at ``path`` retains, rotated backups first,
    each checked; raises :class:`~repro.obs.artifacts.ArtifactError` on
    an unreadable file or an invalid line."""
    docs: List[dict] = []
    problems: List[str] = []
    for name in log_files(path):
        try:
            for n, doc in enumerate(read_events(name), 1):
                docs.append(doc)
                problems += [f"{name}:{n}: {p}" for p in validate_event(doc)]
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"unreadable event log {name!r}: {exc}") from exc
    if problems:
        raise ArtifactError(f"invalid event log {path!r}: {'; '.join(problems[:3])}")
    return docs


def validate_log(path: str) -> List[str]:
    """The problem that makes the log at ``path`` unreadable or invalid
    (empty = ok)."""
    try:
        read_log(path)
    except ArtifactError as exc:
        return [str(exc)]
    return []
