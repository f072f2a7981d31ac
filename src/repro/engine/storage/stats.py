"""Zone maps and table statistics for the chunked columnar storage layer.

Every sealed chunk carries one :class:`ZoneMap` per column segment (min/max
over the non-NULL values, the NULL count, and a per-chunk distinct count);
:class:`TableStatistics` aggregates them -- plus encoded/raw byte accounting
and an NDV estimate -- into the per-table summary the catalog exposes to the
planner (predicate ordering) and to ``Database.size_summary``.

Values inside zone maps and statistics live in the *encoded* domain: dates
are int day ordinals, strings are Python strings, numerics are plain
ints/floats.  That keeps zone-map refutation and selectivity estimation free
of per-comparison conversions.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ZoneMap:
    """Per-chunk column summary used to refute scan predicates.

    ``min_value``/``max_value`` bound the non-NULL values that order (a
    float NaN does not) and are None when the segment holds none: all NULL,
    where every ordinary predicate on the column is false for the whole
    chunk, or all NaN, which only ``<>`` and comparisons under ``NOT`` pass
    (:class:`~repro.engine.storage.skipping.ZoneIndex` keeps such chunks).
    """

    min_value: object
    max_value: object
    null_count: int
    row_count: int
    distinct_count: int


@dataclass
class ColumnStatistics:
    """Table-level aggregate of one column's segment zone maps."""

    name: str
    type_name: str
    min_value: object = None
    max_value: object = None
    null_count: int = 0
    #: upper-bound NDV estimate: exact for dictionary-encoded columns (the
    #: table-wide dictionary size), otherwise the sum of per-chunk distinct
    #: counts clipped to the non-NULL row count and, for int / date / bool
    #: columns, to the width of the value span ``max - min + 1``.
    distinct_estimate: int = 0
    encoded_bytes: int = 0
    raw_bytes: int = 0
    dictionary_size: int | None = None

    def describe(self) -> dict:
        return {
            "type": self.type_name,
            "nulls": self.null_count,
            "ndv": self.distinct_estimate,
            "encoded_bytes": self.encoded_bytes,
            "raw_bytes": self.raw_bytes,
            **({"dictionary": self.dictionary_size}
               if self.dictionary_size is not None else {}),
        }


@dataclass
class TableStatistics:
    """Aggregated statistics of one storage table."""

    name: str
    row_count: int = 0
    chunk_count: int = 0
    encoded_bytes: int = 0
    raw_bytes: int = 0
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        """Raw-to-encoded size ratio (1.0 for an empty table)."""
        if not self.encoded_bytes:
            return 1.0
        return self.raw_bytes / self.encoded_bytes

    def column(self, name: str) -> ColumnStatistics | None:
        return self.columns.get(name.lower())

    def describe(self) -> dict:
        return {
            "rows": self.row_count,
            "chunks": self.chunk_count,
            "encoded_bytes": self.encoded_bytes,
            "raw_bytes": self.raw_bytes,
            "compression_ratio": round(self.compression_ratio, 3),
        }
