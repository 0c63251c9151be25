"""Row- and column-oriented table storage (the runtime Buffer of Section 4.1).

``ColumnarTable`` is the primary store: one Python list per column.  It is
what compiled queries read directly (raw subscripting in the residual code).
When NumPy imports, each column also has a typed array
(:meth:`ColumnarTable.array`): the vector lowering's read path, which
requires NumPy.
``RowTable`` is the row-oriented variant used to demonstrate layout choice;
both expose the same interface so engines are layout-agnostic, mirroring the
paper's ``FlatBuffer`` / ``ColumnarBuffer`` pair.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.catalog.schema import Column, SchemaError, TableSchema
from repro.catalog.types import ColumnType

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy tests
    _np = None

_NP_DTYPES = None if _np is None else {
    ColumnType.INT: _np.int64,
    ColumnType.DATE: _np.int64,
    ColumnType.FLOAT: _np.float64,
    ColumnType.BOOL: _np.bool_,
    ColumnType.STRING: object,
}


def word_width(width: int) -> int:
    """The width a typed string column is stored at: 1, 2 or 4 bytes, or a
    multiple of 8 -- the widths a ``uint8`` .. ``uint64`` view divides."""
    if width <= 2:
        return max(width, 1)
    if width <= 4:
        return 4
    return -(-width // 8) * 8


def typed_strings(values: Sequence):
    """``values`` as a fixed-width ``S{w}`` NumPy array, or None.

    The CHAR(n) layout: ``w`` bytes per value, the longest value's length
    rounded up to a word width (:func:`word_width`), so every batch is
    also, with no copy, an array of unsigned integer words -- the form the
    string kernels compare and group on.  Only a column of ASCII ``str``
    values with no NUL qualifies -- exactly the values that round-trip
    through ``S`` (which holds bytes and drops trailing NULs, so the
    padding changes no value); any other column (non-ASCII text, a NUL, a
    ``None``) keeps an object array.  The batch kernels decode back to
    ``str`` where values leave a batch.

    The small widths stay small: q1's one-byte flags stay ``S1``, so a
    gather of them moves one byte per row.  Padding every column to a
    multiple of 8 bytes instead ran q1 1.04x and the served mix round
    1.04x (``benchmarks/ab.py``, four pairs).
    """
    try:
        text = "".join(values)
    except TypeError:  # a None, or something that is not a string
        return None
    if not text.isascii() or "\0" in text:
        return None
    width = word_width(max(map(len, values), default=0))
    return _np.array(values, dtype=f"S{width}")


def _null_error(table: str, column: Column) -> SchemaError:
    return SchemaError(
        f"table {table!r} column {column.name!r} is declared NOT NULL "
        f"but holds a NULL"
    )


def _check_width(table: str, column: Column, values: list) -> None:
    longest = max(map(len, filter(None, values)), default=0)
    if longest > column.width:
        raise SchemaError(
            f"table {table!r} column {column.name!r}: a {longest}-character "
            f"string is longer than its declared width {column.width}"
        )


def _check_column(table: str, column: Column, values: list) -> None:
    """Refuse ``values`` that break ``column``'s declaration, scanning them:
    the form of :func:`_column_array`'s checks for values no typed array
    holds (and for a load without NumPy)."""
    if not column.nullable and None in values:
        raise _null_error(table, column)
    if column.width is not None:
        _check_width(table, column, values)


def _column_array(table: str, column: Column, values: list):
    """``values`` as ``column``'s typed array, refusing a NULL where the
    column is NOT NULL and a string longer than its declared width.  The
    checks ride on the conversion: an integer array cannot take a None, a
    typed string array took none, and its bytes past the declared width
    are all padding unless a value is too long; only a float array (None
    becomes NaN), a bool one (None becomes False) and an object string
    array need a look at the values."""
    ctype = column.type
    if ctype is ColumnType.STRING:
        array = typed_strings(values)
        if array is None:
            _check_column(table, column, values)
            return _np.asarray(values, dtype=object)
        width = array.dtype.itemsize
        if column.width is not None and width > column.width:
            if array.view(_np.uint8).reshape(-1, width)[:, column.width:].any():
                _check_width(table, column, values)
        return array
    if ctype is ColumnType.BOOL and None in values:
        raise _null_error(table, column)
    try:
        array = _np.asarray(values, dtype=_NP_DTYPES[ctype])
    except TypeError:
        if None in values:
            raise _null_error(table, column) from None
        raise
    if ctype is ColumnType.FLOAT and _np.isnan(array).any() and None in values:
        raise _null_error(table, column)
    return array


class ColumnarTable:
    """Column-oriented storage: ``{column name -> list of values}``."""

    layout = "column"

    def __init__(self, schema: TableSchema, columns: dict[str, list] | None = None):
        self.schema = schema
        if columns is None:
            columns = {c.name: [] for c in schema.columns}
        missing = [c.name for c in schema.columns if c.name not in columns]
        if missing:
            raise SchemaError(f"missing columns for {schema.name!r}: {missing}")
        self.columns: dict[str, list] = {c.name: columns[c.name] for c in schema.columns}
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns in {schema.name!r}: {sorted(lengths)}")
        self._rows = lengths.pop() if lengths else 0
        self._arrays: dict[str, object] = {}

    # -- sizing ------------------------------------------------------------

    def __len__(self) -> int:
        return self._rows

    # -- row access ----------------------------------------------------------

    def row(self, i: int) -> dict[str, object]:
        """Materialize row ``i`` as a dict (interpreted engines only)."""
        return {name: col[i] for name, col in self.columns.items()}

    def rows(self) -> Iterator[dict[str, object]]:
        names = list(self.columns)
        cols = [self.columns[n] for n in names]
        for values in zip(*cols) if cols else iter(()):
            yield dict(zip(names, values))

    def row_tuple(self, i: int) -> tuple:
        return tuple(col[i] for col in self.columns.values())

    def append_row(self, values: dict[str, object]) -> None:
        for name, col in self.columns.items():
            col.append(values[name])
        self._rows += 1

    # -- column access ---------------------------------------------------------

    def column(self, name: str) -> list:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(
                f"table {self.schema.name!r} has no column {name!r}"
            ) from None

    def array(self, name: str):
        """The column as a typed NumPy array (vector backend read path).

        Built with the rest of the table's load-time structures
        (:meth:`build_arrays`) or on first access, and cached; it needs
        NumPy, as the vector lowering that reads it does.  A STRING column
        gets the fixed-width layout of :func:`typed_strings` when its values
        allow it, an object array otherwise.  The cache is never
        invalidated on ``append_row`` -- base tables are immutable once
        queries run, which is the same assumption the hash/date indexes
        already make.
        """
        if name not in self._arrays:
            column = self.schema.require(name)
            self._arrays[name] = _column_array(
                self.schema.name, column, self.column(name)
            )
        return self._arrays[name]

    def build_arrays(self) -> None:
        """Check every column against its declaration, and build its
        array now, on the loading thread.

        A NULL in a NOT NULL column, or a string longer than its column's
        declared width, is a :class:`SchemaError` naming the table and
        column.  Built lazily instead, a table's arrays land wherever the
        first query that reads them runs -- in a serving worker thread's
        allocator arena, which keeps the memory after the table is gone.
        Without NumPy there is no vector lowering to read them: only the
        checks run.
        """
        for column in self.schema.columns:
            if _np is None:
                _check_column(self.schema.name, column, self.columns[column.name])
            else:
                self.array(column.name)

    @classmethod
    def from_rows(
        cls, schema: TableSchema, rows: Iterable[Sequence[object]]
    ) -> "ColumnarTable":
        """Build from an iterable of positional row tuples."""
        names = schema.column_names()
        columns: dict[str, list] = {n: [] for n in names}
        for row in rows:
            if len(row) != len(names):
                raise SchemaError(
                    f"row arity {len(row)} != schema arity {len(names)} "
                    f"for table {schema.name!r}"
                )
            for name, value in zip(names, row):
                columns[name].append(value)
        return cls(schema, columns)

    def to_rows(self) -> list[tuple]:
        return [self.row_tuple(i) for i in range(len(self))]


class RowTable:
    """Row-oriented storage: a list of row tuples (the ``FlatBuffer`` analogue)."""

    layout = "row"

    def __init__(self, schema: TableSchema, rows: list[tuple] | None = None):
        self.schema = schema
        self.data: list[tuple] = rows if rows is not None else []
        self._index = {c.name: i for i, c in enumerate(schema.columns)}

    def __len__(self) -> int:
        return len(self.data)

    def row(self, i: int) -> dict[str, object]:
        values = self.data[i]
        return {name: values[j] for name, j in self._index.items()}

    def rows(self) -> Iterator[dict[str, object]]:
        names = list(self._index)
        for values in self.data:
            yield dict(zip(names, values))

    def row_tuple(self, i: int) -> tuple:
        return self.data[i]

    def append_row(self, values: dict[str, object]) -> None:
        self.data.append(tuple(values[c.name] for c in self.schema.columns))

    def column(self, name: str) -> list:
        """Extract one column (O(n) copy -- row stores pay for column access)."""
        j = self._index[name]
        return [row[j] for row in self.data]

    @classmethod
    def from_rows(cls, schema: TableSchema, rows: Iterable[Sequence[object]]) -> "RowTable":
        return cls(schema, [tuple(r) for r in rows])

    def to_rows(self) -> list[tuple]:
        return list(self.data)

    @classmethod
    def from_columnar(cls, table: ColumnarTable) -> "RowTable":
        return cls(table.schema, table.to_rows())
