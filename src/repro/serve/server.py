"""A line-oriented TCP front end over :class:`QueryService`.

The wire protocol is newline-delimited JSON (one request object per line,
one response object per line, UTF-8).  Query requests carry ``sql`` or
``tpch`` plus optional ``tenant`` / ``deadline_seconds`` / ``engine`` /
``id`` / ``params`` (bindings for a parameterized statement: a list for
positional ``?``, an object for ``:name``); prepared-statement and admin
ops ride the same framing::

    {"op": "prepare", "sql": "..."} -> {"ok": true, "statement": "...",
                                       "signature": [{"slot": "?0",
                                       "type": "float"}, ...]} -- compile
                                       once, under the key executions use;
                                       later executions of any literal
                                       variant (from any tenant) hit it
    {"op": "execute", "sql": "...",
     "params": [...]}               -> a normal query response; identical
                                       to a plain query submit with
                                       ``params``
    {"op": "ping"}                  -> {"ok": true, "pong": true}
    {"op": "stats"}                 -> {"ok": true, "stats": {...}}
    {"op": "metrics"}               -> {"ok": true, "metrics": {"snapshot":
                                       {...}, "exposition": "..."}} -- the
                                       registry as JSON plus the
                                       Prometheus-style text rendering
    {"op": "profiles"}              -> {"ok": true, "profiles": {...}} --
                                       the tail sampler's repro-profiles/v2
                                       snapshot (typed error when sampling
                                       is off)
    {"op": "shutdown"}              -> {"ok": true, "bye": true} and the
                                       server stops accepting connections

Query requests may carry a ``request_id``; the service echoes it on the
reply (and stamps it on errors) or mints one when absent, so a client can
join its replies against the server's event log and traces.

Every connection gets its own handler thread (``ThreadingTCPServer``);
actual query concurrency is bounded by the service's admission gate and
worker pool, not by the socket layer.  Malformed lines produce a typed
``E_PROTOCOL`` error response; nothing a client sends can surface a raw
traceback over the wire.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Optional, Tuple

from repro.errors import ServiceProtocolError, error_to_dict
from repro.obs.metrics import REGISTRY
from repro.serve.service import QueryService


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: "QueryServer" = self.server.owner  # type: ignore[attr-defined]
        REGISTRY.counter("serve.connections")
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            try:
                reply = server.handle_line(line.decode("utf-8", "replace"))
            except _ShutdownRequested:
                self._send({"ok": True, "bye": True})
                server.begin_shutdown()
                return
            self._send(reply)

    def _send(self, doc: dict) -> None:
        try:
            self.wfile.write(json.dumps(doc).encode("utf-8") + b"\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass


class _ShutdownRequested(Exception):
    pass


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class QueryServer:
    """Owns the listening socket and the service it fronts.

    ``port=0`` binds an ephemeral port (tests, CI); the bound address is
    available as :attr:`address` after construction.  ``start`` runs the
    accept loop on a daemon thread; ``close`` stops it and (by default)
    shuts the service's worker pool down with it.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        own_service: bool = True,
    ) -> None:
        self.service = service
        self.own_service = own_service
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.owner = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._shutdown_started = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._tcp.server_address[:2]
        return host, port

    def start(self) -> "QueryServer":
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept",
            daemon=True,
        )
        self._thread.start()
        return self

    def begin_shutdown(self) -> None:
        """Asynchronous close (used by the in-band shutdown op): stop the
        accept loop from a fresh thread so the handler can still flush."""
        if self._shutdown_started.is_set():
            return
        threading.Thread(target=self.close, name="repro-serve-stop", daemon=True).start()

    def close(self) -> None:
        if self._shutdown_started.is_set():
            return
        self._shutdown_started.set()
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self.own_service:
            self.service.close()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request dispatch ---------------------------------------------------

    def handle_line(self, line: str) -> dict:
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            return _error_reply(
                ServiceProtocolError(f"malformed JSON request: {exc}"), {}
            )
        if not isinstance(doc, dict):
            return _error_reply(
                ServiceProtocolError("request must be a JSON object"), {}
            )
        op = doc.get("op")
        if op == "ping":
            return {"ok": True, "pong": True, "id": doc.get("id")}
        if op == "stats":
            return {"ok": True, "stats": self.service.stats(), "id": doc.get("id")}
        if op == "metrics":
            from repro.obs.export import render_prometheus

            snapshot = REGISTRY.snapshot()
            return {
                "ok": True,
                "id": doc.get("id"),
                "metrics": {
                    "snapshot": snapshot,
                    "exposition": render_prometheus(snapshot),
                },
            }
        if op == "profiles":
            sampler = self.service.sampler
            if sampler is None:
                exc = ServiceProtocolError("tail sampling is not enabled on this service")
                return _error_reply(exc, doc)
            return {
                "ok": True,
                "id": doc.get("id"),
                "profiles": sampler.snapshot(),
            }
        if op == "prepare":
            return self._handle_prepare(doc)
        if op == "execute":
            # Execution of a (possibly prepared) parameterized statement:
            # identical to a plain query submit -- the session's
            # shape-keyed cache is what makes the prior ``prepare`` pay
            # off -- but spelled as an op so clients can express the
            # prepare/execute pairing explicitly.
            query = {k: v for k, v in doc.items() if k != "op"}
            return self.service.submit_dict(query)
        if op == "shutdown":
            raise _ShutdownRequested()
        if op is not None:
            return _error_reply(ServiceProtocolError(f"unknown op {op!r}"), doc)
        return self.service.submit_dict(doc)

    def _handle_prepare(self, doc: dict) -> dict:
        """Compile a statement once, ahead of executions.

        Replies with the canonical statement text and the typed parameter
        signature.  The statement is compiled as an ``execute`` would
        compile it (:meth:`QueryService.prepare`), under a key with no
        tenant component, so one prepare serves every tenant's subsequent
        ``execute``.  All failures (lex/parse/plan/param errors) come back
        as typed error documents, never tracebacks.
        """
        sql = doc.get("sql")
        rid = doc.get("request_id")
        if not isinstance(sql, str):
            return _error_reply(
                ServiceProtocolError("'prepare' requires a 'sql' string"), doc
            )
        from repro.obs import events
        from repro.serve.service import ServiceRequest, mint_request_id

        # Bind the ambient request context so the compile event lands on
        # the same shape key later executions record under
        # ("sql:<shape text>", not the raw cache key).
        request_id = rid if isinstance(rid, str) else mint_request_id()
        tenant = str(doc.get("tenant", "default"))
        request = ServiceRequest(sql=sql, tenant=tenant, request_id=request_id)
        try:
            with events.request_context(
                request_id, shape=request.shape(), tenant=tenant
            ):
                statement = self.service.prepare(request)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            return _error_reply(exc, doc)
        REGISTRY.counter("serve.prepared")
        return {
            "ok": True,
            "id": doc.get("id"),
            "statement": statement.text,
            "signature": [
                {"slot": slot.describe(), "type": slot.ctype.value}
                for slot in statement.signature
            ],
        }


def _error_reply(exc: BaseException, doc: dict) -> dict:
    """The one wire error reply to request ``doc`` (``{}`` when the line
    did not parse to an object): stamps the client's ``request_id`` on the
    error, counts ``serve.errors.<code>``, echoes the client's ``id``."""
    rid = doc.get("request_id")
    if isinstance(rid, str) and hasattr(exc, "with_request"):
        exc.with_request(rid)
    error = error_to_dict(exc)
    REGISTRY.counter(f"serve.errors.{error['code']}")
    return {"ok": False, "id": doc.get("id"), "error": error}


def wait_for_port(host: str, port: int, timeout: float = 5.0) -> bool:
    """Poll until a TCP connect succeeds (service startup helper)."""
    import time

    end = time.monotonic() + timeout
    while time.monotonic() < end:
        try:
            with socket.create_connection((host, port), timeout=0.2):
                return True
        except OSError:
            time.sleep(0.02)
    return False
