"""Chunked columnar storage for one table.

A :class:`StorageTable` is the single source of truth both engines read:
appended rows are sealed into fixed-size chunks (default 4096 rows) of typed
:class:`~repro.engine.storage.segment.ColumnSegment` objects, and every view
-- the row executor's row tuples, the column executor's whole-column arrays,
the dictionary code vectors, the zone-map index, the table statistics, the
key indexes the row engine's joins probe and the key orders the column
engine's joins and both engines' scan windows do -- is derived (and cached)
from those segments.  Mutations bump ``version`` and drop the caches, so
stale views can never leak across inserts or re-creates.  Nothing here is
keyed by a plan's predicates: what a plan derives from these views (its
frames, dictionary-code kernels, zone gates, window rows) is the plan's own
(``executor_column.ColumnState``, ``plan.Stamped``).
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.engine.storage.chunk import Chunk
from repro.engine.storage.segment import ColumnSegment, Dictionary, build_segment
from repro.engine.storage.stats import ColumnStatistics, TableStatistics, ZoneMap
from repro.obs.metrics import count as count_metric

if TYPE_CHECKING:  # pragma: no cover - cycle guard (catalog is runtime-free here)
    from repro.engine.catalog import TableSchema
    from repro.engine.keys import KeyOrder
    from repro.engine.storage.skipping import ZoneIndex

#: default number of rows per chunk (the unit a zone map summarises).
DEFAULT_CHUNK_ROWS = 4096

#: columnar dtype of the NULL-free whole-column view, per logical type.
_EMPTY_DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_,
                 "date": np.int64}


def hash_rows(rows: Iterable[tuple], positions: tuple[int, ...]) -> dict:
    """Build side of an equi-join: the rows by key, NULL-keyed rows left out.

    The key is the value itself for one position and a tuple for several.
    ``NULL = anything`` is UNKNOWN, so a row with a NULL in any key column can
    match nothing; a probe with such a key finds no entry either.  Key
    equality is ``dict`` equality (``1 == 1.0 == True``).
    """
    key_of = itemgetter(*positions)
    several = len(positions) > 1
    table: dict = {}
    for row in rows:
        key = key_of(row)
        if (None in key) if several else (key is None):
            continue
        bucket = table.get(key)
        if bucket is None:
            table[key] = [row]
        else:
            bucket.append(row)
    return table


class StorageTable:
    """Chunked, encoded storage for one table's rows."""

    def __init__(self, schema: "TableSchema", chunk_rows: int = DEFAULT_CHUNK_ROWS):
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self.schema = schema
        self.chunk_rows = chunk_rows
        self.chunks: list[Chunk] = []
        #: one dictionary per string column: every stored string is a code.
        self.dictionaries: dict[str, Dictionary] = {
            column.name.lower(): Dictionary()
            for column in schema.columns if column.type_name == "str"}
        #: bumped on every mutation; callers key caches on it.
        self.version = 0
        #: the unsealed rows, column by column.
        self._tail: list[list] = [[] for _ in schema.columns]
        self._rows_cache: list[tuple] | None = None
        self._stats_cache: TableStatistics | None = None
        self._null_free: tuple[int, ...] | None = None
        self._zone_index: "ZoneIndex | None" = None
        self._key_indexes: dict[tuple[int, ...], dict] = {}
        self._key_orders: dict[tuple[int, ...], "KeyOrder | None"] = {}
        # guards the tail seal and the lazily-built cached views: concurrent
        # readers (batched driver threads sharing an engine) must observe a
        # fully-built chunk list / index, never a partially-sealed tail.
        # Reentrant because the cached builders flush first.
        self._lock = threading.RLock()

    # -- mutation -----------------------------------------------------------------

    def append_columns(self, batches: list[list[list]]) -> int:
        """Append coerced rows given column-major, one batch of per-column
        lists (dates as day ordinals, None for NULL) after another, sealing
        full chunks eagerly; returns the number of rows appended."""
        appended = sum(len(batch[0]) for batch in batches)
        if not appended:
            return 0
        with self._lock:  # a reader flushing meanwhile must see whole rows
            self._invalidate()
            tail, size = self._tail, self.chunk_rows
            for batch in batches:
                for column, values in zip(tail, batch):
                    column.extend(values)
                while len(tail[0]) >= size:
                    self._seal([column[:size] for column in tail])
                    for column in tail:
                        del column[:size]
        return appended

    def flush(self) -> None:
        """Seal any pending tail rows into a (possibly short) chunk."""
        with self._lock:
            if self._tail[0]:
                self._seal(self._tail)
                self._tail = [[] for _ in self.schema.columns]

    def _seal(self, columns: list[list]) -> None:
        start = self.chunks[-1].stop if self.chunks else 0
        segments = [build_segment(values, column.type_name,
                                  self.dictionaries.get(column.name.lower()))
                    for values, column in zip(columns, self.schema.columns)]
        self.chunks.append(Chunk(segments, len(columns[0]), start))

    def _invalidate(self) -> None:
        self.version += 1
        self._rows_cache = None
        self._stats_cache = None
        self._null_free = None
        self._zone_index = None
        self._key_indexes = {}
        self._key_orders = {}

    # -- row views ---------------------------------------------------------------

    @property
    def row_count(self) -> int:
        sealed = self.chunks[-1].stop if self.chunks else 0
        return sealed + len(self._tail[0])

    def rows(self) -> list[tuple]:
        """All rows as decoded tuples, chunk by chunk -- the row engine's scan
        order (cached until the next mutation)."""
        with self._lock:
            if self._rows_cache is None:
                self.flush()
                rows: list[tuple] = []
                for chunk in self.chunks:
                    rows.extend(chunk.rows())
                self._rows_cache = rows
            return self._rows_cache

    def key_index(self, positions: tuple[int, ...]) -> dict:
        """The cached rows by their key in the columns at ``positions``.

        A :func:`hash_rows` table over :meth:`rows` -- it references the
        cached tuples, it does not copy them -- built on first use and
        dropped by the next mutation.  Treat it as read-only.
        """
        with self._lock:
            index = self._key_indexes.get(positions)
            if index is None:
                index = self._key_indexes[positions] = hash_rows(self.rows(), positions)
                count_metric("join.index_builds")
            return index

    def key_indexes(self) -> dict[tuple[int, ...], dict]:
        """The live key indexes by column positions (a copy of the registry)."""
        with self._lock:
            return dict(self._key_indexes)

    def key_order(self, positions: tuple[int, ...],
                  operator: str = "join") -> "KeyOrder | None":
        """The rows sorted by their key in the columns at ``positions``.

        The column engine's counterpart of :meth:`key_index`: one
        :func:`~repro.engine.keys.build_order` over the whole-column arrays,
        built on first use and dropped by the next mutation.  None (cached
        as well) when a key column is not of integer kind -- floats and
        strings are coded jointly with the probe side, per execution.

        An order over one column is its value order too, which a row-engine
        scan window reads a range of (``KeyOrder.range_rows``): the same
        registry, whoever asks first builds it -- and names the ``operator``
        the build counts under (``<operator>.order_builds`` /
        ``.kernel_rows``), so ``join.order_builds`` stays the joins' own.
        """
        from repro.engine.keys import build_order

        with self._lock:
            if positions not in self._key_orders:
                names = [self.schema.columns[position].name for position in positions]
                order = self._key_orders[positions] = build_order(
                    [self.column_array(name) for name in names], operator)
                if order is not None:
                    count_metric(f"{operator}.order_builds")
            return self._key_orders[positions]

    def key_orders(self) -> dict[tuple[int, ...], "KeyOrder"]:
        """The live key orders by column positions (a copy of the registry)."""
        with self._lock:
            return {positions: order for positions, order in self._key_orders.items()
                    if order is not None}

    # -- column views --------------------------------------------------------------

    def column_array(self, name: str) -> "np.ndarray | Nullable":
        """The whole-column array in the engines' columnar representation.

        NULL-free columns decode to their native dtypes (int64, float64,
        bool, int64 day ordinals, object strings).  A nullable typed column
        stays on its native dtype as a :class:`~repro.engine.mask.Nullable`
        ``(values, validity)`` pair -- the segment arrays and null masks are
        exposed directly, no per-value decode.  Nullable *string* columns
        decode to object arrays carrying ``None`` at NULL positions.
        """
        from repro.engine.mask import Nullable

        self.flush()
        index = self.schema.column_index(name)
        segments = [chunk.segments[index] for chunk in self.chunks]
        if not segments:
            type_name = self.schema.columns[index].type_name
            return np.empty(0, dtype=_EMPTY_DTYPES.get(type_name, object))
        if any(segment.has_nulls for segment in segments):
            type_name = self.schema.columns[index].type_name
            if type_name in _EMPTY_DTYPES:
                values = [segment.values for segment in segments]
                valid = [segment.validity() for segment in segments]
                return Nullable(
                    values[0] if len(values) == 1 else np.concatenate(values),
                    valid[0] if len(valid) == 1 else np.concatenate(valid))
            decoded: list = []
            for segment in segments:
                decoded.extend(segment.encoded_python_values())
            return np.array(decoded, dtype=object)
        arrays = [segment.typed_array() for segment in segments]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def column_codes(self, name: str) -> np.ndarray | None:
        """Whole-column int32 dictionary codes (None when not a string column)."""
        if name.lower() not in self.dictionaries:
            return None
        self.flush()
        index = self.schema.column_index(name)
        arrays = [chunk.segments[index].values for chunk in self.chunks]
        if not arrays:
            return np.empty(0, dtype=np.int32)
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def dictionary(self, name: str) -> Dictionary | None:
        return self.dictionaries.get(name.lower())

    def zone_maps(self, name: str) -> list[ZoneMap]:
        """Per-chunk zone maps of one column (flushes the tail first)."""
        self.flush()
        index = self.schema.column_index(name)
        return [chunk.segments[index].zone_map for chunk in self.chunks]

    def zone_index(self) -> "ZoneIndex":
        """The vectorised zone-map index over all chunks (cached)."""
        from repro.engine.storage.skipping import ZoneIndex

        with self._lock:
            self.flush()
            if self._zone_index is None:
                self._zone_index = ZoneIndex(self)
            return self._zone_index

    # -- statistics ----------------------------------------------------------------

    def statistics(self) -> TableStatistics:
        """Aggregate chunk zone maps into table statistics (cached)."""
        with self._lock:
            return self._statistics_locked()

    def null_free(self) -> tuple[int, ...]:
        """Positions of the columns that hold no NULL in this version.

        Read from the statistics' ``null_count`` (the catalog declares no NOT
        NULL) and cached until the next mutation: the row engine generates
        its pipelines without NULL tests on these columns.
        """
        found = self._null_free  # read once: a mutation may reset it meanwhile
        if found is None:
            with self._lock:
                columns = self._statistics_locked().columns
                found = self._null_free = tuple(
                    position for position, column in enumerate(self.schema.columns)
                    if not columns[column.name.lower()].null_count)
        return found

    def _statistics_locked(self) -> TableStatistics:
        if self._stats_cache is not None:
            return self._stats_cache
        self.flush()
        stats = TableStatistics(name=self.schema.name, row_count=self.row_count,
                                chunk_count=len(self.chunks))
        for index, column in enumerate(self.schema.columns):
            lowered = column.name.lower()
            entry = ColumnStatistics(name=column.name, type_name=column.type_name)
            distinct_sum = 0
            for chunk in self.chunks:
                segment = chunk.segments[index]
                zone = segment.zone_map
                entry.null_count += zone.null_count
                entry.encoded_bytes += segment.encoded_bytes
                entry.raw_bytes += segment.raw_bytes
                distinct_sum += zone.distinct_count
                if zone.min_value is not None:
                    if entry.min_value is None or zone.min_value < entry.min_value:
                        entry.min_value = zone.min_value
                    if entry.max_value is None or zone.max_value > entry.max_value:
                        entry.max_value = zone.max_value
            dictionary = self.dictionaries.get(lowered)
            if dictionary is not None:
                entry.dictionary_size = len(dictionary)
                entry.distinct_estimate = len(dictionary)
                entry.encoded_bytes += dictionary.encoded_bytes
            else:
                entry.distinct_estimate = min(distinct_sum,
                                              stats.row_count - entry.null_count)
                if column.type_name in ("int", "date", "bool") \
                        and entry.min_value is not None:
                    # a value repeated in several chunks is counted in each:
                    # the span holds no more distinct integers than it is wide
                    entry.distinct_estimate = min(
                        entry.distinct_estimate,
                        int(entry.max_value) - int(entry.min_value) + 1)
            stats.columns[lowered] = entry
            stats.encoded_bytes += entry.encoded_bytes
            stats.raw_bytes += entry.raw_bytes
        self._stats_cache = stats
        return stats
