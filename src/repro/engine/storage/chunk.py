"""Chunks: fixed-size horizontal partitions of a storage table.

A chunk is simply the schema-ordered list of :class:`ColumnSegment` objects
covering the same ``row_count`` rows, plus its starting row offset inside the
table (so chunk-relative positions translate directly into positions in the
concatenated whole-column views the executors scan).
"""

from __future__ import annotations

from repro.engine.storage.segment import ColumnSegment


class Chunk:
    """One partition of a table: aligned column segments over the same rows."""

    __slots__ = ("segments", "row_count", "start")

    def __init__(self, segments: list[ColumnSegment], row_count: int, start: int):
        self.segments = segments
        self.row_count = row_count
        self.start = start

    @property
    def stop(self) -> int:
        return self.start + self.row_count

    @property
    def encoded_bytes(self) -> int:
        return sum(segment.encoded_bytes for segment in self.segments)

    @property
    def raw_bytes(self) -> int:
        return sum(segment.raw_bytes for segment in self.segments)

    def rows(self) -> list[tuple]:
        """Decode this chunk back into row tuples (NULLs as ``None``)."""
        columns = [segment.python_values() for segment in self.segments]
        return list(zip(*columns)) if columns else []
