"""The in-memory database: tables plus the auxiliary structures of Section 4.3.

A :class:`Database` owns columnar tables and, depending on the configured
:class:`OptimizationLevel`, the index structures the paper's Figures 9/10
evaluate:

* ``COMPLIANT``     -- raw columns only (TPC-H-compliant loading);
* ``IDX``           -- + primary/foreign-key hash indexes;
* ``IDX_DATE``      -- + per-(year, month) date partitions;
* ``IDX_DATE_STR``  -- + order-preserving string dictionaries.

Index construction is timed (``build_seconds``) so the loading-overhead
experiment (Figure 10) can report slowdowns relative to compliant loading.

Generated code accesses everything through the narrow, stable surface
``column / column_vec / size / bounds / index / unique_index / date_index /
dictionary / encoded_column`` -- these names are baked into residual
programs.
"""

from __future__ import annotations

import enum
import time
from typing import Iterable, Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.schema import SchemaError, TableSchema
from repro.catalog.statistics import TableStats, collect_table_stats
from repro.catalog.types import ColumnType
from repro.storage.buffer import ColumnarTable
from repro.storage.dictionary import StringDictionary
from repro.storage.index import DateIndex, HashIndex, UniqueHashIndex


class OptimizationLevel(enum.IntEnum):
    """Cumulative data-preparation levels (each includes the previous)."""

    COMPLIANT = 0
    IDX = 1
    IDX_DATE = 2
    IDX_DATE_STR = 3

    @property
    def builds_key_indexes(self) -> bool:
        return self >= OptimizationLevel.IDX

    @property
    def builds_date_indexes(self) -> bool:
        return self >= OptimizationLevel.IDX_DATE

    @property
    def builds_dictionaries(self) -> bool:
        return self >= OptimizationLevel.IDX_DATE_STR


class Database:
    """Tables, indexes, dictionaries and statistics behind one facade."""

    def __init__(
        self,
        catalog: Catalog,
        level: OptimizationLevel = OptimizationLevel.COMPLIANT,
        dictionary_columns: Optional[dict[str, Sequence[str]]] = None,
        date_index_columns: Optional[dict[str, Sequence[str]]] = None,
    ) -> None:
        self.catalog = catalog
        self.level = level
        self._tables: dict[str, ColumnarTable] = {}
        self._unique_indexes: dict[tuple[str, str], UniqueHashIndex] = {}
        self._indexes: dict[tuple[str, str], HashIndex] = {}
        self._date_indexes: dict[tuple[str, str], DateIndex] = {}
        self._dictionaries: dict[tuple[str, str], StringDictionary] = {}
        self._encoded: dict[tuple[str, str], list[int]] = {}
        self._stats: dict[str, TableStats] = {}
        self._bounds: dict[tuple[str, str], Optional[tuple[int, int, int]]] = {}
        self._dictionary_columns = dict(dictionary_columns or {})
        self._date_index_columns = dict(date_index_columns or {})
        self.build_seconds = 0.0  # auxiliary-structure build time (Figure 10)

    # -- population ------------------------------------------------------------

    def add_table(self, table: ColumnarTable) -> None:
        """Register loaded data and build the level's auxiliary structures."""
        name = table.schema.name
        if not self.catalog.has_table(name):
            self.catalog.register(table.schema)
        if name in self._tables:
            raise SchemaError(f"table {name!r} already loaded")
        self._tables[name] = table
        table.build_arrays()  # checks the declarations; the vector read path
        start = time.perf_counter()
        self._build_auxiliary(table)
        self.build_seconds += time.perf_counter() - start

    def _build_auxiliary(self, table: ColumnarTable) -> None:
        schema = table.schema
        name = schema.name
        if self.level.builds_key_indexes:
            if len(schema.primary_key) == 1:
                key = schema.primary_key[0]
                self._unique_indexes[(name, key)] = UniqueHashIndex(table.column(key))
            for fk_col in schema.foreign_keys:
                self._indexes[(name, fk_col)] = HashIndex(table.column(fk_col))
        if self.level.builds_date_indexes:
            date_cols = self._date_index_columns.get(
                name,
                [c.name for c in schema.columns if c.type is ColumnType.DATE],
            )
            for col in date_cols:
                self._date_indexes[(name, col)] = DateIndex(table.column(col))
        if self.level.builds_dictionaries:
            # a code table has no code for NULL: nullable columns keep strings
            dict_cols = self._dictionary_columns.get(
                name,
                [
                    c.name
                    for c in schema.columns
                    if c.type is ColumnType.STRING and not c.nullable
                ],
            )
            for col in dict_cols:
                if schema.require(col).nullable:
                    raise SchemaError(
                        f"table {name!r} column {col!r} is nullable: "
                        f"it takes no string dictionary"
                    )
                values = table.column(col)
                dictionary = StringDictionary(values)
                self._dictionaries[(name, col)] = dictionary
                self._encoded[(name, col)] = dictionary.encode_column(values)

    def add_rows(self, schema: TableSchema, rows: Iterable[Sequence[object]]) -> None:
        """Convenience: build a columnar table from row tuples and register it."""
        self.add_table(ColumnarTable.from_rows(schema, rows))

    # -- generated-code surface ---------------------------------------------------

    def table(self, name: str) -> ColumnarTable:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"table {name!r} is not loaded") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def column(self, table: str, column: str) -> list:
        return self.table(table).column(column)

    def column_vec(self, table: str, column: str):
        """The column as a typed NumPy array (vector backend read path)."""
        return self.table(table).array(column)

    def size(self, table: str) -> int:
        return len(self.table(table))

    def bounds(self, table: str, column: str) -> Optional[tuple[int, int, int]]:
        """``(lo, hi, rows)``: the least and greatest value of an integer or
        bool column -- of a one-byte typed string column, its byte's -- and
        the table's row count; None for any other column (floats, wider
        strings, object arrays) and for an empty table.  Worked out once
        per column: tables are load-once, so the bounds hold for every
        program run against this database."""
        key = (table, column)
        if key not in self._bounds:
            self._bounds[key] = _array_bounds(self.column_vec(table, column))
        return self._bounds[key]

    def unique_index(self, table: str, column: str) -> UniqueHashIndex:
        key = (table, column)
        if key not in self._unique_indexes:
            raise SchemaError(
                f"no unique index on {table}.{column} "
                f"(optimization level: {self.level.name})"
            )
        return self._unique_indexes[key]

    def index(self, table: str, column: str) -> HashIndex:
        key = (table, column)
        if key not in self._indexes:
            raise SchemaError(
                f"no index on {table}.{column} "
                f"(optimization level: {self.level.name})"
            )
        return self._indexes[key]

    def date_index(self, table: str, column: str) -> DateIndex:
        key = (table, column)
        if key not in self._date_indexes:
            raise SchemaError(
                f"no date index on {table}.{column} "
                f"(optimization level: {self.level.name})"
            )
        return self._date_indexes[key]

    def dictionary(self, table: str, column: str) -> StringDictionary:
        key = (table, column)
        if key not in self._dictionaries:
            raise SchemaError(
                f"no string dictionary on {table}.{column} "
                f"(optimization level: {self.level.name})"
            )
        return self._dictionaries[key]

    def encoded_column(self, table: str, column: str) -> list[int]:
        key = (table, column)
        if key not in self._encoded:
            raise SchemaError(f"column {table}.{column} is not dictionary-compressed")
        return self._encoded[key]

    # -- capability queries (used by the optimizer/compiler) ----------------------

    def has_unique_index(self, table: str, column: str) -> bool:
        return (table, column) in self._unique_indexes

    def has_index(self, table: str, column: str) -> bool:
        return (table, column) in self._indexes

    def has_date_index(self, table: str, column: str) -> bool:
        return (table, column) in self._date_indexes

    def has_dictionary(self, table: str, column: str) -> bool:
        return (table, column) in self._dictionaries

    # -- statistics -------------------------------------------------------------

    def stats(self, table: str) -> TableStats:
        """Table statistics, computed lazily and cached."""
        if table not in self._stats:
            self._stats[table] = collect_table_stats(self.table(table).columns)
        return self._stats[table]


def _array_bounds(array) -> Optional[tuple[int, int, int]]:
    """:meth:`Database.bounds` of one column array."""
    kind = array.dtype.kind
    if kind == "S" and array.dtype.itemsize == 1:
        array = array.view("u1")
    elif kind not in "iub":
        return None
    if not len(array):
        return None
    return int(array.min()), int(array.max()), len(array)
