"""Typed column segments: the unit of storage inside one chunk.

A segment holds one chunk's worth of one column in encoded form:

* ``int`` / ``date`` -- an ``int64`` array (dates as day ordinals) with a
  sentinel at NULL positions and an explicit null mask,
* ``float`` -- a ``float64`` array (NaN sentinel) plus the null mask,
* ``bool`` -- a ``bool`` array (False sentinel) plus the null mask,
* ``str`` -- ``int32`` codes into the table-wide :class:`Dictionary` (NULL =
  code ``-1``).

NULLs round-trip exactly through both the row views and the column views.
Each segment also seals a :class:`ZoneMap` at build time.  Building and
decoding work on whole arrays: one ``np.array`` per segment, the zone map
from numpy, dates back through ``datetime64[D]`` and codes through the
dictionary's object array.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.engine.storage.stats import ZoneMap

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

    __slots__ = ("values", "_codes", "_array", "_raw_sizes")

    def __init__(self) -> None:
        self.values: list[str] = []
        self._codes: dict[str, int] = {}
        self._array: np.ndarray | None = None
        self._raw_sizes: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.values)

    def encode(self, values: list) -> tuple[np.ndarray, list[str]]:
        """The ``int32`` codes of ``values`` (None: ``-1``), and their distinct
        strings in first-appearance order; unseen strings are inserted in
        that order, so each gets the code a value-at-a-time encoding would
        give it."""
        distinct = dict.fromkeys(values)
        distinct.pop(None, None)
        codes = self._codes
        unseen = [value for value in distinct if value not in codes]
        if unseen:
            start = len(self.values)
            self.values.extend(unseen)
            codes.update(zip(unseen, range(start, start + len(unseen))))
        encoded = np.fromiter(map(codes.get, values, repeat(-1)), dtype=np.int32,
                              count=len(values))
        return encoded, list(distinct)

    def array(self) -> np.ndarray:
        """The decode table as an object array (cached until growth)."""
        if self._array is None or len(self._array) != len(self.values):
            self._array = np.array(self.values, dtype=object)
        return self._array

    def raw_sizes(self) -> np.ndarray:
        """Per code, the raw-size estimate of its string (cached until growth)."""
        if self._raw_sizes is None or len(self._raw_sizes) != len(self.values):
            self._raw_sizes = np.fromiter(map(len, self.values), dtype=np.int64,
                                          count=len(self.values)) + _STR_OBJECT_OVERHEAD
        return self._raw_sizes

    @property
    def encoded_bytes(self) -> int:
        return int(self.raw_sizes().sum())


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
        codes = self.values if self.null_mask is None else self.values[~self.null_mask]
        return int(self.dictionary.raw_sizes()[codes].sum())

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
            dates = self.values.astype("datetime64[D]")
            if self.null_mask is None:
                return dates.tolist()
            decoded = dates.astype(object)
            decoded[self.null_mask] = None
            return decoded.tolist()
        return self.encoded_python_values()

    def encoded_python_values(self) -> list:
        """Decode to the *columnar* value domain with ``None`` at NULLs.

        Dates stay int day ordinals here -- the representation the
        vectorised operators and date-literal comparisons expect.
        """
        if self.dictionary is not None:
            if self.null_mask is None:
                return self.dictionary.array()[self.values].tolist()
            table = self.dictionary.values
            return [None if code < 0 else table[code] for code in self.values.tolist()]
        plain = self.values.tolist()
        if self.null_mask is None:
            return plain
        return [None if null else value
                for value, null in zip(plain, self.null_mask.tolist())]


#: storage dtype and NULL sentinel of the typed (non-string) segments.
_DTYPES = {"int": np.int64, "date": np.int64, "float": np.float64, "bool": np.bool_}
_SENTINELS = {"int": 0, "date": 0, "float": np.nan, "bool": False}


def build_segment(values: list, type_name: str,
                  dictionary: Dictionary | None) -> ColumnSegment:
    """Encode one chunk's worth of one column: coerced Python ``values``
    (dates already day ordinals, None for NULL) in one numpy conversion;
    ``dictionary`` is the table's for a ``str`` column (None otherwise)."""
    if dictionary is not None:
        return _string_segment(values, dictionary)
    dtype = _DTYPES[type_name]
    null_count = values.count(None)
    if not null_count:
        data = np.array(values, dtype=dtype)
        return ColumnSegment(type_name, data, None, None, _zone_map(data, 0))
    objects = np.array(values, dtype=object)
    null_mask = np.equal(objects, None)
    objects[null_mask] = _SENTINELS[type_name]
    data = objects.astype(dtype)
    return ColumnSegment(type_name, data, null_mask, None,
                         _zone_map(data[~null_mask], null_count))


def _string_segment(values: list, dictionary: Dictionary) -> ColumnSegment:
    """A string segment: dictionary codes, the zone over the chunk's distinct
    strings."""
    codes, strings = dictionary.encode(values)
    null_mask = codes < 0
    null_count = int(np.count_nonzero(null_mask))
    zone = (ZoneMap(min(strings), max(strings), null_count, len(values), len(strings))
            if strings else ZoneMap(None, None, null_count, len(values), 0))
    return ColumnSegment("str", codes, null_mask if null_count else None,
                         dictionary, zone)


def _zone_map(present: np.ndarray, null_count: int) -> ZoneMap:
    """The zone of a typed segment's non-NULL values ``present``.

    The bounds are the first minimum and maximum, as Python's ``min`` /
    ``max`` pick them (``.item()``: Python scalars, exact beyond 2**53), over
    the values that order: a NaN is left out, so a float chunk holding only
    NaNs has no bounds, like an all-NULL one.  NaN counts as one distinct
    value.
    """
    row_count = len(present) + null_count
    nans = 0
    if present.dtype.kind == "f":
        missing = np.isnan(present)
        if missing.any():
            present, nans = present[~missing], 1
    if not len(present):
        return ZoneMap(None, None, null_count, row_count, nans)
    ordered = np.sort(present)
    distinct = int(np.count_nonzero(ordered[1:] != ordered[:-1])) + 1 + nans
    return ZoneMap(present[present.argmin()].item(), present[present.argmax()].item(),
                   null_count, row_count, distinct)
