"""Value types and coercion helpers shared by both engines.

The engines support five logical column types: ``int``, ``float``, ``str``,
``date`` and ``bool``.  Storage holds dates as int64 day ordinals
(:func:`column_coercer` encodes them on insert); the row views decode them to
:class:`datetime.date` objects.  NULL is represented by ``None`` (row side) /
masked sentinel handling (column side); comparisons involving NULL yield
NULL, and predicates treat NULL as false, which matches SQL's three-valued
logic closely enough for the supported dialect.
"""

from __future__ import annotations

import datetime
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError

#: Logical types understood by the catalog.
LOGICAL_TYPES = ("int", "float", "str", "date", "bool")

_EPOCH = datetime.date(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_NONE = type(None)
_CONVERTERS = {"int": int, "float": float, "str": str, "bool": bool}


def column_coercer(type_name: str) -> Callable[[Sequence], list]:
    """The converter of whole columns to logical type ``type_name``: it maps
    one column's values to a list of them as storage encodes them (None
    passes through), dates as day ordinals.

    A column already of the type (``int`` / ``float`` / ``str`` / ``bool``
    exactly) is taken as it is.  The date converter parses each distinct
    ISO string once for as long as it lives: one converter per type serves
    an insert's columns and chunks.
    """
    if type_name == "date":
        return _date_coercer()
    convert = _CONVERTERS.get(type_name)
    if convert is None:
        raise ExecutionError(f"unknown logical type '{type_name}'")
    kinds = {convert, _NONE}

    def coerce(values: Sequence) -> list:
        if set(map(type, values)) <= kinds:
            return list(values)
        return [None if value is None else convert(value) for value in values]

    return coerce


def _date_coercer() -> Callable[[Sequence], list]:
    parsed: dict = {None: None}

    def coerce(values: Sequence) -> list:
        if not set(map(type, values)) <= {str, _NONE}:
            return [None if value is None else date_to_ordinal(value) for value in values]
        for text in dict.fromkeys(values):
            if text not in parsed:
                parsed[text] = date_to_ordinal(text)
        return list(map(parsed.__getitem__, values))

    return coerce


def to_date(value: Any) -> datetime.date:
    """Convert an ISO string / datetime / date to a :class:`datetime.date`."""
    if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
        return value
    if isinstance(value, datetime.datetime):
        return value.date()
    if isinstance(value, str):
        return datetime.date.fromisoformat(value[:10])
    raise ExecutionError(f"cannot interpret {value!r} as a date")


def date_to_ordinal(value: Any) -> int:
    """Days since the Unix epoch for ``value`` (accepts dates or ISO strings)."""
    return to_date(value).toordinal() - _EPOCH_ORDINAL


def ordinal_to_date(days: int) -> datetime.date:
    """Inverse of :func:`date_to_ordinal`."""
    return _EPOCH + datetime.timedelta(days=int(days))


def add_interval(value: datetime.date, amount: int, unit: str) -> datetime.date:
    """Add ``amount`` units (day/week/month/year) to a date."""
    if unit == "day":
        return value + datetime.timedelta(days=amount)
    if unit == "week":
        return value + datetime.timedelta(weeks=amount)
    if unit == "month":
        month_index = value.year * 12 + (value.month - 1) + amount
        year, month = divmod(month_index, 12)
        day = min(value.day, _days_in_month(year, month + 1))
        return datetime.date(year, month + 1, day)
    if unit == "year":
        return add_interval(value, amount * 12, "month")
    raise ExecutionError(f"unsupported interval unit '{unit}'")


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    return (datetime.date(year, month + 1, 1) - datetime.date(year, month, 1)).days


def like_to_predicate(pattern: str) -> Any:
    """Compile a SQL LIKE pattern into a Python predicate function.

    ``%`` matches any run of characters, ``_`` any single character; the rest
    is literal.  The compiled predicate returns False for None inputs.
    """
    import re

    escaped = re.escape(pattern)
    regex = re.compile("^" + escaped.replace("%", ".*").replace("_", ".") + "$", re.DOTALL)

    def predicate(value: Any) -> bool:
        if value is None:
            return False
        return regex.match(str(value)) is not None

    return predicate
