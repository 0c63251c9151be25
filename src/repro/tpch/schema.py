"""The TPC-H schema (all eight tables) with key metadata.

Primary/foreign keys follow the spec; the loader uses them to build the
"idx" optimization level's indexes (Section 4.3 / Figure 9).

Every column is NOT NULL, as the spec says.  A string column's third
field is its spec width (``CHAR(n)`` / ``VARCHAR(n)``), which the loader
enforces; the free-text columns (addresses and comments) declare none,
because this generator's pseudo-text is not spec-sized (three words of an
address reach 44 bytes, against ``VARCHAR(40)``).
"""

from __future__ import annotations

from repro.catalog import Catalog, DATE, FLOAT, INT, STRING
from repro.catalog.schema import TableSchema, schema

REGION = schema(
    "region",
    ("r_regionkey", INT),
    ("r_name", STRING, 25),
    ("r_comment", STRING),
    pk=["r_regionkey"],
)

NATION = schema(
    "nation",
    ("n_nationkey", INT),
    ("n_name", STRING, 25),
    ("n_regionkey", INT),
    ("n_comment", STRING),
    pk=["n_nationkey"],
    fks={"n_regionkey": ("region", "r_regionkey")},
)

SUPPLIER = schema(
    "supplier",
    ("s_suppkey", INT),
    ("s_name", STRING, 25),
    ("s_address", STRING),
    ("s_nationkey", INT),
    ("s_phone", STRING, 15),
    ("s_acctbal", FLOAT),
    ("s_comment", STRING),
    pk=["s_suppkey"],
    fks={"s_nationkey": ("nation", "n_nationkey")},
)

CUSTOMER = schema(
    "customer",
    ("c_custkey", INT),
    ("c_name", STRING, 25),
    ("c_address", STRING),
    ("c_nationkey", INT),
    ("c_phone", STRING, 15),
    ("c_acctbal", FLOAT),
    ("c_mktsegment", STRING, 10),
    ("c_comment", STRING),
    pk=["c_custkey"],
    fks={"c_nationkey": ("nation", "n_nationkey")},
)

PART = schema(
    "part",
    ("p_partkey", INT),
    ("p_name", STRING, 55),
    ("p_mfgr", STRING, 25),
    ("p_brand", STRING, 10),
    ("p_type", STRING, 25),
    ("p_size", INT),
    ("p_container", STRING, 10),
    ("p_retailprice", FLOAT),
    ("p_comment", STRING),
    pk=["p_partkey"],
)

PARTSUPP = schema(
    "partsupp",
    ("ps_partkey", INT),
    ("ps_suppkey", INT),
    ("ps_availqty", INT),
    ("ps_supplycost", FLOAT),
    ("ps_comment", STRING),
    fks={
        "ps_partkey": ("part", "p_partkey"),
        "ps_suppkey": ("supplier", "s_suppkey"),
    },
)

ORDERS = schema(
    "orders",
    ("o_orderkey", INT),
    ("o_custkey", INT),
    ("o_orderstatus", STRING, 1),
    ("o_totalprice", FLOAT),
    ("o_orderdate", DATE),
    ("o_orderpriority", STRING, 15),
    ("o_clerk", STRING, 15),
    ("o_shippriority", INT),
    ("o_comment", STRING),
    pk=["o_orderkey"],
    fks={"o_custkey": ("customer", "c_custkey")},
)

LINEITEM = schema(
    "lineitem",
    ("l_orderkey", INT),
    ("l_partkey", INT),
    ("l_suppkey", INT),
    ("l_linenumber", INT),
    ("l_quantity", FLOAT),
    ("l_extendedprice", FLOAT),
    ("l_discount", FLOAT),
    ("l_tax", FLOAT),
    ("l_returnflag", STRING, 1),
    ("l_linestatus", STRING, 1),
    ("l_shipdate", DATE),
    ("l_commitdate", DATE),
    ("l_receiptdate", DATE),
    ("l_shipinstruct", STRING, 25),
    ("l_shipmode", STRING, 10),
    ("l_comment", STRING),
    fks={
        "l_orderkey": ("orders", "o_orderkey"),
        "l_partkey": ("part", "p_partkey"),
        "l_suppkey": ("supplier", "s_suppkey"),
    },
)

TPCH_TABLES: dict[str, TableSchema] = {
    s.name: s
    for s in (REGION, NATION, SUPPLIER, CUSTOMER, PART, PARTSUPP, ORDERS, LINEITEM)
}

# Columns worth dictionary-compressing at the idx-date-str level: the
# low-cardinality strings that TPC-H predicates and group-bys touch.
DICTIONARY_COLUMNS: dict[str, list[str]] = {
    "part": ["p_name", "p_mfgr", "p_brand", "p_type", "p_container"],
    "customer": ["c_mktsegment", "c_phone"],
    "orders": ["o_orderstatus", "o_orderpriority"],
    "lineitem": [
        "l_returnflag",
        "l_linestatus",
        "l_shipinstruct",
        "l_shipmode",
    ],
    "nation": ["n_name"],
    "region": ["r_name"],
    "supplier": ["s_name"],
}


def tpch_catalog() -> Catalog:
    """A fresh catalog containing all eight TPC-H tables."""
    return Catalog(TPCH_TABLES.values())
