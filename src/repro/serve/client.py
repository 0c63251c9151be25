"""A minimal blocking client for the line-oriented JSON protocol.

One socket, one request in flight at a time (a lock serializes callers);
for concurrent load, open one :class:`ServiceClient` per client thread --
that is what the perf ledger and the serving tests do, and it mirrors how a
connection pool would use the service.

Every query request leaves the client with a W3C-style ``traceparent``
(minted here unless the caller supplies one), so the server-side trace,
event-log lines and any tail-sampled profile all carry a trace id the
client knows -- the reply echoes it as ``trace_id``.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Optional

from repro.errors import ReproError, error_from_dict
from repro.obs.sampler import make_traceparent


class ServiceClient:
    """Blocking JSONL client; context-manager closes the socket."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._lock = threading.Lock()

    # -- plumbing -----------------------------------------------------------

    def request(self, doc: dict) -> dict:
        """Send one JSON object, read one JSON reply.

        Query documents (``sql``/``tpch``) gain a fresh ``traceparent``
        when the caller did not set one; the original ``doc`` is not
        mutated.
        """
        if ("sql" in doc or "tpch" in doc) and "traceparent" not in doc:
            doc = {**doc, "traceparent": make_traceparent()}
        payload = json.dumps(doc).encode("utf-8") + b"\n"
        with self._lock:
            self._sock.sendall(payload)
            line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- conveniences -------------------------------------------------------

    def sql(
        self,
        sql: str,
        tenant: str = "default",
        deadline_seconds: Optional[float] = None,
        params=None,
        **extra,
    ) -> dict:
        doc = {"sql": sql, "tenant": tenant, **extra}
        if params is not None:
            doc["params"] = params
        if deadline_seconds is not None:
            doc["deadline_seconds"] = deadline_seconds
        return self.request(doc)

    def tpch(
        self,
        number: int,
        tenant: str = "default",
        deadline_seconds: Optional[float] = None,
        **extra,
    ) -> dict:
        doc = {"tpch": number, "tenant": tenant, **extra}
        if deadline_seconds is not None:
            doc["deadline_seconds"] = deadline_seconds
        return self.request(doc)

    def prepare(self, sql: str, **extra) -> dict:
        """Compile a parameterized statement once; returns the canonical
        text and typed signature.  Later :meth:`execute` calls (from any
        connection or tenant) hit the cached shape."""
        return self.request({"op": "prepare", "sql": sql, **extra})

    def execute(
        self,
        sql: str,
        params=None,
        tenant: str = "default",
        deadline_seconds: Optional[float] = None,
        **extra,
    ) -> dict:
        """Execute a parameterized statement with ``params`` bound (a list
        for positional ``?``, a dict for ``:name`` placeholders)."""
        doc = {"op": "execute", "sql": sql, "tenant": tenant, **extra}
        if params is not None:
            doc["params"] = params
        if deadline_seconds is not None:
            doc["deadline_seconds"] = deadline_seconds
        return self.request(doc)

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def metrics(self) -> dict:
        """The server's metrics: ``{"snapshot": {...}, "exposition": str}``."""
        return self.request({"op": "metrics"})["metrics"]

    def profiles(self) -> dict:
        """The tail sampler's ``repro-profiles/v2`` snapshot (raises the
        typed protocol error when sampling is off on the server)."""
        return raise_for_error(self.request({"op": "profiles"}))["profiles"]

    def shutdown(self) -> bool:
        return bool(self.request({"op": "shutdown"}).get("bye"))


def raise_for_error(reply: dict) -> dict:
    """Turn an error reply back into its taxonomy exception; pass-through
    for successful replies (client-side ``except DeadlineExceeded:``)."""
    if reply.get("ok"):
        return reply
    err = reply.get("error") or {}
    exc = error_from_dict(err)
    if not isinstance(exc, ReproError):  # pragma: no cover - defensive
        exc = ReproError(err.get("message", "unknown service error"))
    raise exc
