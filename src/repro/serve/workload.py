"""The mixed 22-query TPC-H workload the serve tier is measured against.

Fifteen queries travel as SQL text (the full front-end path: lexer,
parser, decorrelation, cost-based join ordering); the seven plan-only
queries travel as ``tpch: N`` requests and are built from the hand-written
plans server-side -- together they cover every TPC-H shape, which is the
point: a serving tier that only survives the easy queries isn't one.

Used by the serving tests' concurrency hammer.
"""

from __future__ import annotations

from typing import List, Optional

from repro.serve.service import ServiceRequest
from repro.tpch.sql_queries import SQL_QUERIES

ALL_QUERIES = tuple(range(1, 23))


def request_for(
    number: int,
    tenant: str = "default",
    deadline_seconds: Optional[float] = None,
    client_id: Optional[object] = None,
    request_id: Optional[str] = None,
) -> ServiceRequest:
    """The service request for TPC-H query ``number`` (SQL when it can be).

    ``client_id`` is the protocol-level reply-matching id; ``request_id``
    is the end-to-end correlation id the service echoes on replies, event
    log lines and traces (minted server-side when omitted).
    """
    if number in SQL_QUERIES:
        return ServiceRequest(
            sql=SQL_QUERIES[number],
            tenant=tenant,
            deadline_seconds=deadline_seconds,
            id=client_id,
            request_id=request_id,
        )
    return ServiceRequest(
        tpch=number,
        tenant=tenant,
        deadline_seconds=deadline_seconds,
        id=client_id,
        request_id=request_id,
    )


def mixed_workload(
    rounds: int = 1,
    tenant: str = "default",
    deadline_seconds: Optional[float] = None,
) -> List[ServiceRequest]:
    """``rounds`` passes over all 22 queries, in query order per round.

    Every request carries a tenant-unique ``request_id`` so workload
    replies can be joined against the server's event log.
    """
    out: List[ServiceRequest] = []
    for r in range(rounds):
        for q in ALL_QUERIES:
            out.append(
                request_for(
                    q,
                    tenant=tenant,
                    deadline_seconds=deadline_seconds,
                    client_id=f"r{r}-q{q}",
                    request_id=f"{tenant}-r{r}-q{q}",
                )
            )
    return out
