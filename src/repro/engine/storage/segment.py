"""Typed column segments: the unit of storage inside one chunk.

A segment holds one chunk's worth of one column in encoded form:

* ``int`` / ``date`` -- an ``int64`` array (dates as day ordinals) with a
  sentinel at NULL positions and an explicit null mask,
* ``float`` -- a ``float64`` array (NaN sentinel) plus the null mask,
* ``bool`` -- a ``bool`` array (False sentinel) plus the null mask,
* ``str`` -- ``int32`` codes into the table-wide :class:`Dictionary` (NULL =
  code ``-1``).

NULLs round-trip exactly through both the row views and the column views.
Each segment also seals a :class:`ZoneMap` at build time.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.engine.storage.stats import ZoneMap
from repro.engine.types import date_to_ordinal, ordinal_to_date

#: approximate CPython object overhead charged per string in the raw-size
#: estimate (49 bytes is the empty-``str`` footprint on 64-bit builds).
_STR_OBJECT_OVERHEAD = 49

#: raw bytes per value for the fixed-width logical types.
_FIXED_RAW_BYTES = {"int": 8, "float": 8, "date": 8, "bool": 1}


class Dictionary:
    """A table-wide, insertion-ordered string dictionary.

    Codes are dense ``int32`` indexes into ``values``; ``-1`` is reserved for
    NULL.  The dictionary only ever grows, so codes stay stable across
    appends and cached views.
    """

    __slots__ = ("values", "_codes", "_array")

    def __init__(self) -> None:
        self.values: list[str] = []
        self._codes: dict[str, int] = {}
        self._array: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.values)

    def encode(self, value: str) -> int:
        """Code of ``value``, inserting it when unseen."""
        code = self._codes.get(value)
        if code is None:
            code = len(self.values)
            self._codes[value] = code
            self.values.append(value)
            self._array = None
        return code

    def code_of(self, value: str) -> int | None:
        """Code of ``value`` without inserting (None when absent)."""
        return self._codes.get(value)

    def array(self) -> np.ndarray:
        """The decode table as an object array (cached until growth)."""
        if self._array is None or len(self._array) != len(self.values):
            self._array = np.array(self.values, dtype=object)
        return self._array

    @property
    def encoded_bytes(self) -> int:
        return sum(len(value) + _STR_OBJECT_OVERHEAD for value in self.values)


class ColumnSegment:
    """One chunk's worth of one column, encoded + zone-mapped."""

    __slots__ = ("type_name", "values", "null_mask", "dictionary", "zone_map")

    def __init__(self, type_name: str, values: np.ndarray,
                 null_mask: np.ndarray | None, dictionary: Dictionary | None,
                 zone_map: ZoneMap):
        self.type_name = type_name
        self.values = values
        self.null_mask = null_mask
        self.dictionary = dictionary
        self.zone_map = zone_map

    @property
    def row_count(self) -> int:
        return len(self.values)

    @property
    def has_nulls(self) -> bool:
        return self.zone_map.null_count > 0

    @property
    def encoded_bytes(self) -> int:
        """Payload bytes of this segment (dictionary bytes counted per table)."""
        total = self.values.nbytes
        if self.null_mask is not None:
            total += self.null_mask.nbytes
        return total

    @property
    def raw_bytes(self) -> int:
        """Size estimate of the un-encoded representation."""
        fixed = _FIXED_RAW_BYTES.get(self.type_name)
        if fixed is not None:
            return fixed * self.row_count
        total = 0
        for value in self.python_values():
            total += 0 if value is None else len(value) + _STR_OBJECT_OVERHEAD
        return total

    # -- decode ----------------------------------------------------------------

    def validity(self) -> np.ndarray:
        """Boolean mask of the *present* values (True = not NULL)."""
        if self.null_mask is None:
            return np.ones(self.row_count, dtype=bool)
        return ~self.null_mask

    def typed_array(self) -> np.ndarray:
        """The encoded array decoded to the columnar dtype (NULL-free only).

        Only meaningful when the whole column has no NULLs: int/float/bool
        come back as their native dtypes, dates as int64 day ordinals,
        strings as an object array.
        """
        if self.dictionary is not None:
            return self.dictionary.array()[self.values]
        return self.values

    def python_values(self) -> list:
        """Decode to Python objects with ``None`` at NULL positions.

        Dates come back as :class:`datetime.date` (the row-storage domain).
        """
        if self.type_name == "date":
            ordinals = self.values.tolist()
            if self.null_mask is None:
                return [ordinal_to_date(ordinal) for ordinal in ordinals]
            return [None if null else ordinal_to_date(ordinal)
                    for ordinal, null in zip(ordinals, self.null_mask.tolist())]
        return self.encoded_python_values()

    def encoded_python_values(self) -> list:
        """Decode to the *columnar* value domain with ``None`` at NULLs.

        Dates stay int day ordinals here -- the representation the
        vectorised operators and date-literal comparisons expect.
        """
        if self.dictionary is not None:
            table = self.dictionary.values
            return [None if code < 0 else table[code] for code in self.values.tolist()]
        plain = self.values.tolist()
        if self.null_mask is None:
            return plain
        return [None if null else value
                for value, null in zip(plain, self.null_mask.tolist())]


def build_segment(values: list, type_name: str,
                  dictionary: Dictionary | None) -> ColumnSegment:
    """Encode one chunk's worth of coerced Python ``values`` for one column;
    ``dictionary`` is the table's for a ``str`` column (None otherwise)."""
    null_flags = [value is None for value in values]
    null_count = sum(null_flags)
    null_mask = np.array(null_flags, dtype=bool) if null_count else None
    non_null = [value for value in values if value is not None]

    if type_name == "str":
        codes = np.fromiter(
            (-1 if value is None else dictionary.encode(value) for value in values),
            dtype=np.int32, count=len(values))
        zone = _zone_map(non_null, null_count, len(values))
        return ColumnSegment("str", codes, null_mask, dictionary, zone)

    if type_name == "int":
        data = np.fromiter((0 if value is None else value for value in values),
                           dtype=np.int64, count=len(values))
        encoded = non_null
    elif type_name == "float":
        data = np.fromiter((np.nan if value is None else value for value in values),
                           dtype=np.float64, count=len(values))
        encoded = non_null
    elif type_name == "bool":
        data = np.fromiter((False if value is None else bool(value) for value in values),
                           dtype=bool, count=len(values))
        encoded = [bool(value) for value in non_null]
    else:  # date
        data = np.fromiter(
            (0 if value is None else date_to_ordinal(value) for value in values),
            dtype=np.int64, count=len(values))
        encoded = [date_to_ordinal(value) for value in non_null]

    zone = _zone_map(encoded, null_count, len(values))
    return ColumnSegment(type_name, data, null_mask, None, zone)


def _zone_map(non_null: list, null_count: int, row_count: int) -> ZoneMap:
    if not non_null:
        return ZoneMap(None, None, null_count, row_count, 0)
    return ZoneMap(min(non_null), max(non_null), null_count, row_count,
                   len(set(non_null)))
