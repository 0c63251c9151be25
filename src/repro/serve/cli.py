"""``repro-serve``: run the query service over TCP.

Generates a TPC-H database and listens until interrupted or until a
client sends the in-band ``shutdown`` op::

    repro-serve --port 7433 --scale 0.01 --workers 8

``--events`` names the event log (``repro-events/v3``): one ``request``
line per submitted request, carrying its record (and, with
``--sampling``, the span tree and operator times of every request the
tail sampler kept) -- the stream ``repro-doctor --events`` reads.
``--telemetry`` names the ``repro-telemetry/v1`` snapshot written on
exit, the doctor's ``--baseline``/``--current`` input.
``tests/test_serve.py`` drives this entry point end to end over real
sockets.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.obs import events as obs_events
from repro.obs.events import EventLog
from repro.obs.slo import SLOConfig
from repro.obs.telemetry import TELEMETRY
from repro.serve.admission import TenantQuota
from repro.serve.server import QueryServer
from repro.serve.service import QueryService, ServiceConfig
from repro.session import Session
from repro.storage import OptimizationLevel
from repro.tpch.dbgen import generate_database, generate_tables


def build_service(args: argparse.Namespace) -> QueryService:
    db = generate_database(
        tables=dict(generate_tables(args.scale)),
        level=OptimizationLevel.COMPLIANT,
    )
    session = Session(db, max_cache_size=args.cache_size)
    slo_config = None
    if args.slo_latency is not None:
        slo_config = SLOConfig(
            latency_threshold_seconds=args.slo_latency,
            objective=args.slo_objective,
        )
    config = ServiceConfig(
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        default_deadline_seconds=args.deadline,
        rate_limit=args.rate,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_seconds=args.breaker_cooldown,
        default_quota=TenantQuota(max_rows=args.max_rows),
        query_scale=args.scale,
        trace_requests=args.trace,
        telemetry=args.telemetry is not None,
        sampling=args.sampling,
        sampler_capacity=args.sampler_capacity,
        slo=slo_config,
    )
    return QueryService(session, config)


def cmd_serve(args: argparse.Namespace) -> int:
    log = None
    if args.events is not None:
        log = EventLog(args.events)
        obs_events.install(log)
    if args.telemetry is not None:
        TELEMETRY.enable(args.telemetry)
    service = build_service(args)
    server = QueryServer(service, host=args.host, port=args.port).start()
    host, port = server.address
    print(f"repro-serve listening on {host}:{port} "
          f"(scale={args.scale}, workers={args.workers})", file=sys.stderr)
    if args.events:
        print(f"repro-serve event log: {args.events}", file=sys.stderr)
    try:
        while not server._shutdown_started.wait(timeout=0.5):
            pass
    except KeyboardInterrupt:
        print("interrupt: shutting down", file=sys.stderr)
    finally:
        server.close()
        if args.telemetry is not None:
            TELEMETRY.save()
            TELEMETRY.disable()
            print(f"repro-serve telemetry snapshot: {args.telemetry}",
                  file=sys.stderr)
        if log is not None:
            obs_events.install(None)
            log.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument("--scale", type=float, default=0.005)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--deadline", type=float, default=10.0,
                        help="default per-request deadline (seconds)")
    parser.add_argument("--rate", type=float, default=None,
                        help="global rate limit (requests/second)")
    parser.add_argument("--max-rows", type=int, default=None,
                        help="default per-request scanned-row budget")
    parser.add_argument("--cache-size", type=int, default=256)
    parser.add_argument("--breaker-threshold", type=int, default=3)
    parser.add_argument("--breaker-cooldown", type=float, default=0.3)
    parser.add_argument("--trace", action="store_true",
                        help="attach a per-request trace to every response")
    parser.add_argument("--events", default=None, metavar="PATH",
                        help="write the structured JSONL event log to PATH")
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="enable the workload-telemetry store and "
                             "snapshot it to PATH on shutdown")
    parser.add_argument("--sampling", action="store_true",
                        help="enable tail-based profile sampling (kept "
                             "requests' lines carry their span trees)")
    parser.add_argument("--sampler-capacity", type=int, default=1024,
                        help="bounded profile store size for the tail sampler")
    parser.add_argument("--slo-latency", type=float, default=None,
                        metavar="SECONDS",
                        help="arm the SLO monitor with this latency "
                             "threshold")
    parser.add_argument("--slo-objective", type=float, default=0.99,
                        help="SLO success objective (fraction of good "
                             "requests, default 0.99)")
    return cmd_serve(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
