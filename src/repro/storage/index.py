"""Auxiliary index structures (Section 4.3).

Three kinds, matching the paper's optimization levels:

* :class:`UniqueHashIndex` -- primary-key index: key -> row id.
* :class:`HashIndex` -- foreign-key index: key -> list of row ids.
* :class:`DateIndex` -- per-(year, month) partitioning of row ids so date
  range scans touch only overlapping partitions ("the table is partitioned
  by year and month on the given attribute and the index is scanned only on
  the dates that satisfy the predicate").
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.catalog.types import date_parts


class IndexError_(Exception):
    """Raised for index construction problems (duplicate primary keys...)."""


class UniqueHashIndex:
    """key -> row id for a unique column."""

    unique = True

    def __init__(self, values: Sequence[object]) -> None:
        mapping: dict[object, int] = {}
        for rowid, key in enumerate(values):
            if key in mapping:
                raise IndexError_(f"duplicate key {key!r} in unique index")
            mapping[key] = rowid
        self._map = mapping

    def __len__(self) -> int:
        return len(self._map)

    def get(self, key: object, default: int = -1) -> int:
        """The row id for ``key`` or ``default`` (generated-code entry point)."""
        return self._map.get(key, default)

    def contains(self, key: object) -> bool:
        return key in self._map


class HashIndex:
    """key -> list of row ids for a non-unique column."""

    unique = False

    def __init__(self, values: Sequence[object]) -> None:
        mapping: dict[object, list[int]] = {}
        for rowid, key in enumerate(values):
            bucket = mapping.get(key)
            if bucket is None:
                mapping[key] = [rowid]
            else:
                bucket.append(rowid)
        self._map = mapping

    def __len__(self) -> int:
        return len(self._map)

    def get(self, key: object, default: tuple = ()) -> Sequence[int]:
        """The row ids for ``key`` (generated-code entry point)."""
        return self._map.get(key, default)

    def contains(self, key: object) -> bool:
        return key in self._map


class DateIndex:
    """(year, month) partitions over an encoded-date column.

    ``candidates(lo, hi)`` yields only row ids whose partition overlaps the
    closed range, skipping the bulk of the table for selective date ranges.
    Row ids inside a partition are in insertion order.  Callers re-check the
    exact predicate on the two boundary partitions; fully-interior
    partitions are emitted without per-row checks via :meth:`runs`.
    """

    def __init__(self, values: Sequence[int]) -> None:
        partitions: dict[int, list[int]] = {}
        for rowid, encoded in enumerate(values):
            year, month, _ = date_parts(encoded)
            key = year * 100 + month
            bucket = partitions.get(key)
            if bucket is None:
                partitions[key] = [rowid]
            else:
                bucket.append(rowid)
        self._partitions = dict(sorted(partitions.items()))
        self._keys = list(self._partitions)

    def __len__(self) -> int:
        return len(self._partitions)

    def candidates(self, lo: Optional[int], hi: Optional[int]) -> Iterator[int]:
        """Row ids in partitions overlapping the date range ``[lo, hi]``.

        ``lo``/``hi`` are encoded dates (or None for an open end).  The exact
        predicate must still be applied per row by the caller; this only
        prunes whole months.
        """
        lo_key = 0 if lo is None else lo // 100
        hi_key = 999999 if hi is None else hi // 100
        for key in self._keys:
            if lo_key <= key <= hi_key:
                yield from self._partitions[key]

    def candidate_list(self, lo: Optional[int], hi: Optional[int]) -> list[int]:
        """Materialized :meth:`candidates` (what generated loops iterate)."""
        return list(self.candidates(lo, hi))

    def runs(self, lo: Optional[int], hi: Optional[int]) -> tuple[list[int], list[int]]:
        """Split candidates into (interior, boundary) row ids.

        Rows in *interior* partitions (strictly inside the range) satisfy
        any ``lo <= d <= hi`` predicate by construction, so generated code
        can skip the comparison for them; *boundary* rows still need it.
        """
        lo_key = 0 if lo is None else lo // 100
        hi_key = 999999 if hi is None else hi // 100
        interior: list[int] = []
        boundary: list[int] = []
        for key in self._keys:
            if key < lo_key or key > hi_key:
                continue
            is_boundary = key == lo_key or key == hi_key
            (boundary if is_boundary else interior).extend(self._partitions[key])
        return interior, boundary
