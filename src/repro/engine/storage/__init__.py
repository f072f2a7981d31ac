"""Chunked columnar storage subsystem.

Tables are stored as fixed-size chunks (default 4096 rows) of typed
column segments.  Each segment carries an explicit null mask, a per-chunk
zone map (min/max, null count, distinct count), and -- for string columns --
``int32`` codes into a table-wide dictionary.  Per-table statistics are
aggregated from the segments and exposed through the catalog, the zone-map
index powers statistics-driven chunk skipping in the column executor's scan
loop, and the selectivity estimator orders conjunctive scan predicates in
the planner.
"""

from repro.engine.storage.chunk import Chunk
from repro.engine.storage.segment import ColumnSegment, Dictionary, build_segment
from repro.engine.storage.skipping import ZoneIndex, estimate_selectivity
from repro.engine.storage.stats import ColumnStatistics, TableStatistics, ZoneMap
from repro.engine.storage.table import DEFAULT_CHUNK_ROWS, StorageTable, hash_rows

__all__ = [
    "Chunk",
    "ColumnSegment",
    "ColumnStatistics",
    "DEFAULT_CHUNK_ROWS",
    "Dictionary",
    "StorageTable",
    "TableStatistics",
    "ZoneIndex",
    "ZoneMap",
    "build_segment",
    "estimate_selectivity",
    "hash_rows",
]
