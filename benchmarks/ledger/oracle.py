"""The correctness oracle: committed expected rows, produced by Volcano.

``expected/<db>.json`` maps every (statement, literal variant) key of
``workloads.catalogue`` to the rows the **Volcano interpreter** returns for
the literally-planned statement -- never the compiler under test, and never
the parameterized shape the service compiles.  ``run.py --write-expected``
regenerates them; every reply of every run is compared against them.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence

import workloads

EXPECTED_DIR = workloads.HERE / "expected"
REL_TOL = 1e-6


def expected_path(db_name: str):
    return EXPECTED_DIR / f"{db_name}.json"


def _sort_key(row: Sequence) -> tuple:
    """Bag-comparison order: exact columns first, floats (rounded) last."""
    exact, floats = [], []
    for v in row:
        if isinstance(v, float):
            floats.append(float(f"{v:.6g}"))
        else:
            exact.append((v is not None, type(v).__name__, v))
    return (tuple(exact), tuple(floats))


def _rows_equal(got: Sequence[Sequence], want: Sequence[Sequence]) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if len(g) != len(w):
            return False
        for a, b in zip(g, w):
            if isinstance(a, float) or isinstance(b, float):
                if not (
                    isinstance(a, (int, float))
                    and isinstance(b, (int, float))
                    and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)
                ):
                    return False
            elif a != b:
                return False
    return True


class Oracle:
    """Expected rows for one database, pre-sorted for bag comparison."""

    def __init__(self, db_name: str, statements: dict) -> None:
        with open(expected_path(db_name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["statements_sha256"] != workloads.statements_sha256():
            raise SystemExit(
                f"ledger: {expected_path(db_name)} was written for another "
                "statements.json; run run.py --write-expected"
            )
        self._rows: Dict[str, List[list]] = doc["rows"]
        self._order_cols = workloads.order_columns(statements)
        self._sorted: Dict[str, List[list]] = {}

    def ordered(self, key: str) -> bool:
        return key.split(".")[0] in self._order_cols

    def matches(self, key: str, rows: Optional[Sequence[Sequence]]) -> bool:
        """True when ``rows`` is the expected answer for ``key``.

        In order where the statement's ORDER BY is a total order on the
        expected rows (verified when they were written), as a bag otherwise;
        floats at rel-tol 1e-6.
        """
        want = self._rows.get(key)
        if want is None or rows is None:
            return False
        if self.ordered(key):
            return _rows_equal(rows, want)
        if key not in self._sorted:
            self._sorted[key] = sorted(want, key=_sort_key)
        return _rows_equal(sorted(rows, key=_sort_key), self._sorted[key])


def write_expected(statements: dict) -> None:
    """Regenerate ``expected/*.json`` with the Volcano interpreter."""
    from repro.engine import execute_volcano
    from repro.sql import sql_to_plan
    from repro.storage.database import OptimizationLevel
    from repro.tpch.dbgen import generate_database
    from repro.tpch.queries import query_plan

    cat = workloads.catalogue(statements)
    order_cols = workloads.order_columns(statements)
    EXPECTED_DIR.mkdir(exist_ok=True)
    for db_name, scale in workloads.SCALES.items():
        db = generate_database(scale, level=OptimizationLevel.COMPLIANT)
        bodies = dict(cat["mix"])
        if db_name == "small":
            bodies.update(cat["point"])
        rows_by_key = {}
        for key, body in bodies.items():
            if "sql" in body:
                plan = sql_to_plan(body["sql"], db)
            else:
                plan = query_plan(body["tpch"], scale=scale)
            rows = [list(r) for r in execute_volcano(plan, db, db.catalog)]
            cols = order_cols.get(key.split(".")[0])
            if cols is not None:
                keys = [tuple(r[c] for c in cols) for r in rows]
                if len(set(keys)) != len(keys):
                    raise SystemExit(
                        f"{db_name}/{key}: ORDER BY columns {cols} have ties in "
                        "the expected rows; remove its order_cols so it is "
                        "compared as a bag"
                    )
            rows_by_key[key] = rows
        doc = {
            "produced_by": "repro.engine.execute_volcano on sql_to_plan / query_plan",
            "scale": scale,
            "statements_sha256": workloads.statements_sha256(),
            "rows": rows_by_key,
        }
        with open(expected_path(db_name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {expected_path(db_name)}: {len(rows_by_key)} statements, "
              f"{sum(len(r) for r in rows_by_key.values())} rows")
