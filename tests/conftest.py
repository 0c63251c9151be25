"""Shared fixtures: a tiny hand-made database and small TPC-H instances."""

from __future__ import annotations

import pytest

from repro.catalog import Catalog, FLOAT, INT, STRING, DATE
from repro.catalog.schema import schema
from repro.compiler.runtime import have_numpy
from repro.storage import Database, OptimizationLevel
from repro.tpch.dbgen import generate_database, generate_tables

TINY_SCALE = 0.002

#: Marks a test of the vector lowering (or its kernels), which requires
#: NumPy: an install without the ``fast`` extra skips it.
needs_numpy = pytest.mark.skipif(
    not have_numpy(), reason="the vector lowering requires NumPy"
)


def make_tiny_db(level: OptimizationLevel = OptimizationLevel.COMPLIANT) -> Database:
    """The paper's running example: Dep/Emp, plus a table with dates/floats."""
    dep = schema("Dep", ("dname", STRING), ("rank", INT), pk=["dname"])
    emp = schema(
        "Emp",
        ("eid", INT),
        ("edname", STRING),
        pk=["eid"],
        fks={"edname": ("Dep", "dname")},
    )
    sales = schema(
        "Sales",
        ("sid", INT),
        ("sdep", STRING),
        ("amount", FLOAT),
        ("sold", DATE),
        pk=["sid"],
    )
    db = Database(Catalog(), level=level)
    db.add_rows(dep, [("CS", 1), ("EE", 5), ("ME", 20), ("BIO", 7)])
    db.add_rows(
        emp,
        [(1, "CS"), (2, "CS"), (3, "EE"), (4, "ME"), (5, "BIO"), (6, "CS")],
    )
    db.add_rows(
        sales,
        [
            (1, "CS", 100.0, 19940105),
            (2, "CS", 250.0, 19940212),
            (3, "EE", 75.5, 19950301),
            (4, "ME", 10.0, 19960415),
            (5, "BIO", 33.25, 19940620),
            (6, "CS", 42.0, 19971231),
        ],
    )
    return db


@pytest.fixture
def tiny_db() -> Database:
    return make_tiny_db()


@pytest.fixture
def tiny_db_full() -> Database:
    """Tiny database with all auxiliary structures built."""
    return make_tiny_db(OptimizationLevel.IDX_DATE_STR)


@pytest.fixture(scope="session")
def tpch_tables():
    return generate_tables(TINY_SCALE)


@pytest.fixture(scope="session")
def tpch_db(tpch_tables):
    return generate_database(tables=dict(tpch_tables))


@pytest.fixture(scope="session")
def tpch_db_full(tpch_tables):
    return generate_database(
        tables=dict(tpch_tables), level=OptimizationLevel.IDX_DATE_STR
    )


def normalize(rows, digits: int = 4):
    """Order-insensitive, float-tolerant row comparison form."""
    return sorted(
        [
            tuple(round(v, digits) if isinstance(v, float) else v for v in row)
            for row in rows
        ],
        key=repr,
    )
