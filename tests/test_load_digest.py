"""Pinned digests of the generated TPC-H data and of what loading it stores.

The generator and the load path may change how they compute, never what
they produce: these sha256 constants were taken before the column-at-a-time
load path replaced the per-cell one, and every stored byte has to match them.
They cover the generated rows, and -- after ``populate_tpch`` at SF 0.001,
plain and date-clustered -- every segment's value and null-mask bytes, every
dictionary, every zone map, the table statistics, the decoded row views and
``Database.size_summary``.  ``repr`` keeps types apart: a zone bound that
became a numpy scalar, or a float that became an int, changes the digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.data import generate_tpch, populate_tpch
from repro.engine import Database

GENERATED = {
    0.001: "0f75d8e0a22ffe57ed8fa4a71c483188cac2138ac3b0d4f07bc3d901d6b56009",
    0.004: "42bf627f2988841e1baf1428b5620cf21d4005a896288a22c9196b59a916ac22",
}

STORED = {
    False: "7e102ebe6698e5e83b6494fd9c9e35ddf1c2c36553ca77015927995c61f4af1b",
    True: "20172268f26ab6a37cd9f82f742b769fe7554c01fdbce2b10deb4f0330abf656",
}


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def _generated_parts(tables: dict[str, list[tuple]]):
    for name in sorted(tables):
        yield name
        for row in tables[name]:
            yield row


def _stored_parts(database: Database):
    for name in database.table_names():
        storage = database.storage(name)
        storage.flush()
        yield name, storage.row_count, storage.version
        for chunk in storage.chunks:
            yield chunk.start, chunk.row_count
            for segment in chunk.segments:
                yield segment.type_name, segment.values.dtype.str
                yield segment.values.tobytes()
                yield segment.null_mask is None
                if segment.null_mask is not None:
                    yield segment.null_mask.tobytes()
                yield segment.zone_map
        for column in sorted(storage.dictionaries):
            yield column, storage.dictionaries[column].values
        yield storage.statistics()
        yield storage.null_free()
        for row in storage.rows():
            yield row
    yield database.size_summary()


@pytest.mark.parametrize("scale_factor", sorted(GENERATED))
def test_generated_rows_are_pinned(scale_factor):
    assert _sha(_generated_parts(generate_tpch(scale_factor))) == GENERATED[scale_factor]


@pytest.mark.parametrize("clustered", [False, True])
def test_stored_tpch_is_pinned(clustered):
    database = Database("digest")
    populate_tpch(database, scale_factor=0.001, clustered=clustered)
    assert _sha(_stored_parts(database)) == STORED[clustered]
