"""The ledger's four workloads: frozen statements -> seeded request rounds.

Nothing here imports the program under test.  Statement texts and literal
pools come from ``statements.json`` (frozen; its sha256 is recorded with
every result), and ``--seed`` decides only the order of requests inside a
round and which pooled binding each point statement gets, so every round
of a workload costs the same work whatever the seed.

Every workload is a **closed loop**: a client sends its next request only
after the previous reply arrived.  All load comes from this one process,
on at most two client threads.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Tuple

HERE = Path(__file__).resolve().parent
STATEMENTS_PATH = HERE / "statements.json"

#: The two pinned TPC-H databases (``repro.tpch.dbgen`` scale factors),
#: both loaded at ``OptimizationLevel.COMPLIANT``.
SCALES = {"main": 0.01, "small": 0.001}

#: Bindings per point statement in ``--quick`` mode (the pools hold 64).
QUICK_POOL = 4

#: One request: (expected-rows key, wire document).
Request = Tuple[str, dict]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    db: str  # key into SCALES
    statements: str  # "mix" (22 TPC-H queries) or "point" (8 short lookups)
    wire: bool  # True: ServiceClient -> QueryServer over TCP; False: submit()
    clients: int  # closed-loop client threads (= connections when wire)
    workers: int  # ServiceConfig.workers
    rounds: int  # rounds per client when no --seconds is given
    segment_rounds: int  # rounds between two reference samples (about 0.5 s)
    cold: bool = False  # Session.clear_cache() before every round
    production: bool = False  # telemetry + tail sampling + event log on
    alternate_variants: bool = False  # literal variant = (round + client) % 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mix_warm",
            why="Execute-bound: 22-query TPC-H mix at SF 0.01, every shape "
            "cached, one in-process client; codegen, kernels and budget "
            "ticks show here, compile and wire changes must not.",
            db="main", statements="mix", wire=False, clients=1, workers=1,
            rounds=40, segment_rounds=1,
        ),
        Workload(
            name="adhoc_cold",
            why="Compile-bound: same mix at SF 0.001 with the session cache "
            "cleared before every round, so every request lexes, plans, "
            "generates, verifies and host-compiles; runtime kernels do not "
            "show.",
            db="small", statements="mix", wire=False, clients=1, workers=1,
            rounds=120, segment_rounds=4, cold=True,
        ),
        Workload(
            name="point_wire",
            why="Fixed-cost-bound: 8 single-table lookups with pooled "
            "literals over one TCP connection, always a shape-cache hit, "
            "run near 0.02 ms; framing, admission, re-lexing and "
            "accounting show, codegen does not.",
            db="small", statements="point", wire=True, clients=1, workers=1,
            rounds=4500, segment_rounds=100,
        ),
        Workload(
            name="mix_concurrent",
            why="Contention- and observability-bound: the mix from 2 TCP "
            "clients on 2 workers, telemetry, sampling and event log on; "
            "only here do queue wait, the GIL-bound pool and telemetry cost "
            "reach a client.",
            db="main", statements="mix", wire=True, clients=2, workers=2,
            rounds=20, segment_rounds=1, production=True, alternate_variants=True,
        ),
    )
}


def load_statements() -> dict:
    with open(STATEMENTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def statements_sha256() -> str:
    return hashlib.sha256(STATEMENTS_PATH.read_bytes()).hexdigest()


def render_literal(value: object) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def point_text(entry: dict, index: int) -> str:
    return entry["sql"].format(*(render_literal(v) for v in entry["pool"][index]))


def catalogue(statements: dict) -> dict:
    """Every (expected key -> request body) the workloads can send.

    The body is ``{"sql": text}`` or ``{"tpch": n}``; this is also the list
    ``--write-expected`` walks.  Returns ``{"mix": {...}, "point": {...}}``.
    """
    mix = {}
    for entry in statements["mix"]:
        if "tpch" in entry:
            mix[entry["key"]] = {"tpch": entry["tpch"]}
        else:
            for v, text in enumerate(entry["sql"]):
                mix[f"{entry['key']}.v{v}"] = {"sql": text}
    point = {}
    for entry in statements["point"]:
        for b in range(len(entry["pool"])):
            point[f"{entry['key']}.b{b}"] = {"sql": point_text(entry, b)}
    return {"mix": mix, "point": point}


def order_columns(statements: dict) -> dict:
    """statement key (without variant suffix) -> ORDER BY output columns."""
    return {
        e["key"]: e["order_cols"]
        for e in statements["mix"] + statements["point"]
        if "order_cols" in e
    }


def warmup_round(workload: Workload, statements: dict) -> List[Request]:
    """One pass that compiles every shape the workload will send."""
    if workload.statements == "point":
        return [
            (f"{e['key']}.b0", {"sql": point_text(e, 0), "request_id": f"warm-{e['key']}"})
            for e in statements["point"]
        ]
    return _mix_round(statements, variant=0, prefix="warm")


def _mix_round(statements: dict, variant: int, prefix: str) -> List[Request]:
    out: List[Request] = []
    for entry in statements["mix"]:
        rid = f"{prefix}-{entry['key']}"
        if "tpch" in entry:
            out.append((entry["key"], {"tpch": entry["tpch"], "request_id": rid}))
        else:
            v = variant % len(entry["sql"])
            out.append(
                (f"{entry['key']}.v{v}", {"sql": entry["sql"][v], "request_id": rid})
            )
    return out


def rounds(
    workload: Workload, statements: dict, seed: int, client: int, quick: bool = False
) -> Iterator[List[Request]]:
    """The endless, seeded stream of rounds for one client.

    mix: all 22 statements in a shuffled order (literal variant fixed at 0,
    or alternating per round and offset per client, so two clients never
    send the same literals for a shape in the same round).  point: the 8
    statements in a shuffled order, each with a binding drawn from its pool.
    """
    rng = random.Random(f"{seed}:{workload.name}:{client}")
    r = 0
    while True:
        prefix = f"c{client}-r{r}"
        if workload.statements == "point":
            batch = []
            for entry in statements["point"]:
                b = rng.randrange(QUICK_POOL if quick else len(entry["pool"]))
                batch.append(
                    (
                        f"{entry['key']}.b{b}",
                        {"sql": point_text(entry, b), "request_id": f"{prefix}-{entry['key']}"},
                    )
                )
        else:
            variant = (r + client) % 2 if workload.alternate_variants else 0
            batch = _mix_round(statements, variant, prefix)
        rng.shuffle(batch)
        yield batch
        r += 1
