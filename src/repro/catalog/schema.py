"""Table schemas: ordered, typed columns plus key metadata.

The schema is *entirely static* in the sense of Section 4.1: during
compilation it exists only at generation time and is dissolved into the
residual program; at run time it drives loading and validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import ReproError
from repro.catalog.types import ColumnType


class SchemaError(ReproError):
    """Raised on unknown columns, inconsistent schema definitions, or data
    that breaks a column's declaration."""

    code = "E_SCHEMA"
    phase = "catalog"


@dataclass(frozen=True)
class Column:
    """A named, typed column and its declared facts.

    ``width`` is a STRING column's declared length (``CHAR(n)`` /
    ``VARCHAR(n)``), None when undeclared.  A column is NOT NULL unless
    declared ``nullable``, and only a STRING column can be: no read path
    holds a NULL number (a typed array has no slot for one).  The loader
    enforces both facts, and the plan's nullability rule
    (:meth:`repro.plan.physical.PhysicalPlan.nullable`) starts from them.
    """

    name: str
    type: ColumnType
    width: Optional[int] = None
    nullable: bool = False

    def __post_init__(self) -> None:
        if self.nullable and self.type is not ColumnType.STRING:
            raise SchemaError(
                f"column {self.name!r}: only a STRING column can be nullable, "
                f"not {self.type.value.upper()}"
            )
        if self.width is not None and (
            self.type is not ColumnType.STRING or self.width < 1
        ):
            raise SchemaError(
                f"column {self.name!r}: width {self.width} is not the "
                f"positive length of a STRING column"
            )

    def __repr__(self) -> str:
        return f"{self.name}:{self.type.value}"


@dataclass
class TableSchema:
    """A table definition: columns, primary key and foreign keys.

    ``foreign_keys`` maps a local column name to ``(table, column)`` of the
    referenced key; the optimizer uses this to decide index-join
    opportunities, and the loader uses it to know which indexes the
    "idx" optimization level should build.
    """

    name: str
    columns: list[Column]
    primary_key: tuple[str, ...] = ()
    foreign_keys: dict[str, tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        self._index = {c.name: i for i, c in enumerate(self.columns)}
        for key in self.primary_key:
            self.require(key)
        for key in self.foreign_keys:
            self.require(key)

    # -- lookups ---------------------------------------------------------------

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        return name in self._index

    def require(self, name: str) -> Column:
        """Return the column or raise :class:`SchemaError`."""
        try:
            return self.columns[self._index[name]]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}; "
                f"known columns: {', '.join(self._index)}"
            ) from None

    def column_index(self, name: str) -> int:
        self.require(name)
        return self._index[name]

    def column_type(self, name: str) -> ColumnType:
        return self.require(name).type

    def project(self, names: Sequence[str]) -> "TableSchema":
        """A schema containing only ``names`` (order given by the caller)."""
        return TableSchema(self.name, [self.require(n) for n in names])

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterable[Column]:
        return iter(self.columns)


def schema(name: str, *cols: tuple | Column, pk: Sequence[str] = (),
           fks: Optional[dict[str, tuple[str, str]]] = None) -> TableSchema:
    """Terse schema constructor used throughout tests and the TPC-H module.

    Each column is a :class:`Column` or its fields as a tuple:
    ``(name, type)`` or ``(name, type, width)``.
    """
    return TableSchema(
        name,
        [c if isinstance(c, Column) else Column(*c) for c in cols],
        primary_key=tuple(pk),
        foreign_keys=dict(fks or {}),
    )
