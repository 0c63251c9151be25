"""Column types and the numeric date representation.

Following Section 4.3 of the paper ("LB2 represents dates as numeric values
to speed up filter and range operations"), dates are stored as integers in
``YYYYMMDD`` form.  Comparison order on the encoding matches calendar order,
so range predicates compile to plain integer comparisons.
"""

from __future__ import annotations

import enum


#: Column type value -> (C type hint, Python type).
_REPRESENTATION = {
    "int": ("long", int),
    "float": ("double", float),
    "string": ("char*", str),
    "date": ("long", int),
    "bool": ("bool", bool),
}


class ColumnType(enum.Enum):
    """The value domain of a column.

    ``ctype`` is the C type hint the staging layer uses for the type and
    ``python_type`` the type of its values; both are fixed per member, so
    the code generator reads them as plain attributes.
    """

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"
    BOOL = "bool"

    def __init__(self, value: str) -> None:
        self.ctype, self.python_type = _REPRESENTATION[value]


INT = ColumnType.INT
FLOAT = ColumnType.FLOAT
STRING = ColumnType.STRING
DATE = ColumnType.DATE
BOOL = ColumnType.BOOL


_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def days_in_month(year: int, month: int) -> int:
    """Number of days in a month, accounting for leap years."""
    if month == 2 and _is_leap(year):
        return 29
    return _DAYS_IN_MONTH[month - 1]


def date_to_int(text: str) -> int:
    """Encode ``'YYYY-MM-DD'`` as the integer ``YYYYMMDD``."""
    year, month, day = text.split("-")
    return int(year) * 10000 + int(month) * 100 + int(day)


def int_to_date(value: int) -> str:
    """Decode the integer encoding back to ``'YYYY-MM-DD'``."""
    year, rest = divmod(value, 10000)
    month, day = divmod(rest, 100)
    return f"{year:04d}-{month:02d}-{day:02d}"


def date_parts(value: int) -> tuple[int, int, int]:
    """Split an encoded date into (year, month, day)."""
    year, rest = divmod(value, 10000)
    month, day = divmod(rest, 100)
    return year, month, day


def make_date(year: int, month: int, day: int) -> int:
    return year * 10000 + month * 100 + day


def date_add_days(value: int, days: int) -> int:
    """Add a day interval to an encoded date (used for ``+ interval 'n' day``)."""
    year, month, day = date_parts(value)
    day += days
    while day > days_in_month(year, month):
        day -= days_in_month(year, month)
        month += 1
        if month > 12:
            month = 1
            year += 1
    while day < 1:
        month -= 1
        if month < 1:
            month = 12
            year -= 1
        day += days_in_month(year, month)
    return make_date(year, month, day)


def date_add_months(value: int, months: int) -> int:
    """Add a month interval, clamping the day like SQL date arithmetic."""
    year, month, day = date_parts(value)
    total = (year * 12 + (month - 1)) + months
    year, month0 = divmod(total, 12)
    month = month0 + 1
    day = min(day, days_in_month(year, month))
    return make_date(year, month, day)


def date_add_years(value: int, years: int) -> int:
    return date_add_months(value, 12 * years)
