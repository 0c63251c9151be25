"""The mixed 22-query TPC-H workload the serve tier is measured against.

Fifteen queries travel as SQL text (the full front-end path: lexer,
parser, decorrelation, cost-based join ordering); the seven plan-only
queries travel as ``tpch: N`` requests and are built from the hand-written
plans server-side -- together they cover every TPC-H shape, which is the
point: a serving tier that only survives the easy queries isn't one.

Used by the CI smoke (``repro-serve --smoke``) and the concurrency tests.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.serve.service import ServiceRequest
from repro.sql.shape import statement_shape
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


def _vary_value(value: object, round_index: int) -> object:
    """A literal's value for round ``round_index`` (round 0 = original).

    Numeric literals drift a little per round so the statement *text*
    changes while the statement *shape* does not; strings stay fixed
    (perturbed names would still be valid SQL but would mostly select
    nothing, which makes for an unrepresentative workload).
    """
    if isinstance(value, bool) or isinstance(value, str):
        return value
    if isinstance(value, float):
        return round(value * (1.0 + 0.01 * round_index), 6)
    if isinstance(value, int):
        return value + round_index
    return value


def _render_literal(value: object) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _substitute(shape_text: str, values: Sequence[object]) -> str:
    """The shape text with its placeholders filled back in as literals."""
    out: List[str] = []
    it = iter(values)
    for part in shape_text.split(" "):
        out.append(_render_literal(next(it)) if part == "?" else part)
    return " ".join(out)


def varied_request_for(
    number: int,
    round_index: int,
    tenant: str = "default",
    deadline_seconds: Optional[float] = None,
    client_id: Optional[object] = None,
    request_id: Optional[str] = None,
    explicit: bool = False,
) -> ServiceRequest:
    """TPC-H query ``number`` with round-varied literals, same shape.

    Every round produces different statement *text* but the same
    statement *shape*, so a shape-keyed cache compiles once where a
    text-keyed cache would compile every round.  With ``explicit=True`` the
    request carries the placeholder text plus a ``params`` vector (the
    wire-protocol binding path) instead of baked-in literals.
    """
    base = request_for(
        number,
        tenant=tenant,
        deadline_seconds=deadline_seconds,
        client_id=client_id,
        request_id=request_id,
    )
    if base.sql is None:
        return base  # plan-only queries carry no literals to vary
    shape = statement_shape(base.sql)
    if not shape.param_count:
        return base
    varied = tuple(_vary_value(v, round_index) for v in shape.values)
    if explicit:
        base.sql = shape.text
        base.params = list(varied)
    else:
        base.sql = _substitute(shape.text, varied)
    return base


def parameterized_workload(
    rounds: int = 1,
    tenant: str = "default",
    deadline_seconds: Optional[float] = None,
    explicit: bool = False,
) -> List[ServiceRequest]:
    """The mixed workload with literal-varying parameterized variants.

    ``rounds`` passes over all 22 queries; each round perturbs the
    liftable literals of the 15 SQL queries (the 7 plan-only queries ride
    along unchanged).  All rounds of one query share one statement shape,
    so with the shape-keyed session cache the whole workload compiles
    each SQL query exactly once.
    """
    out: List[ServiceRequest] = []
    for r in range(rounds):
        for q in ALL_QUERIES:
            out.append(
                varied_request_for(
                    q,
                    r,
                    tenant=tenant,
                    deadline_seconds=deadline_seconds,
                    client_id=f"r{r}-q{q}",
                    request_id=f"{tenant}-r{r}-q{q}",
                    explicit=explicit,
                )
            )
    return out


def wire_workload(rounds: int = 1, tenant: str = "default") -> Iterator[dict]:
    """The same workload as raw wire dicts (for :class:`ServiceClient`)."""
    for req in mixed_workload(rounds, tenant=tenant):
        doc: dict = {
            "tenant": req.tenant,
            "id": req.id,
            "request_id": req.request_id,
        }
        if req.sql is not None:
            doc["sql"] = req.sql
        else:
            doc["tpch"] = req.tpch
        if req.deadline_seconds is not None:
            doc["deadline_seconds"] = req.deadline_seconds
        yield doc
