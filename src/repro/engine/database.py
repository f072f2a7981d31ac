"""Database: catalog plus chunked columnar storage, shared by both engines.

Rows are stored once, in the chunked columnar layout of
:mod:`repro.engine.storage`: fixed-size chunks of typed column segments with
explicit null masks, per-chunk zone maps, and dictionary-encoded string
columns.  Both execution models read derived views of the same segments --
the row engine iterates chunk row-views (tuples with real ``None`` NULLs),
the column engine scans cached whole-column numpy arrays (plus dictionary
code vectors) -- so the engines always see identical data, a prerequisite
for discriminative benchmarking where only the execution model may differ.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.engine.catalog import Catalog, ColumnDef, TableSchema
from repro.engine.plan import PlanCache
from repro.engine.storage import DEFAULT_CHUNK_ROWS, Dictionary, StorageTable
from repro.engine.types import column_coercer
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.keys import KeyOrder


class ViewDictionary:
    """One string column's dictionary as a columnar view reads it: what its
    ``int32`` codes (-1 = NULL) decode to and how they sort.

    The dictionary only grows and its codes stay put, so whatever it holds
    when a table below is built covers the view's codes.  The decode table
    and the ranks are built the first time they are asked for -- O(dictionary
    size), once per view, which is once per stored table version -- and each
    ends in the entry code -1 reads.
    """

    __slots__ = ("_dictionary", "_values", "_rank")

    def __init__(self, dictionary: Dictionary):
        self._dictionary = dictionary
        self._values: np.ndarray | None = None
        self._rank: np.ndarray | None = None

    def entries(self) -> int:
        """How many strings the dictionary holds (NULL not among them)."""
        return len(self._dictionary.values)

    def table(self) -> np.ndarray:
        """The decode table: an object array of the strings, then None."""
        if self._values is None:
            self._values = np.array(self._dictionary.values + [None], dtype=object)
        return self._values

    def array(self, codes: np.ndarray) -> np.ndarray:
        """``codes`` as the object array a string column is (None for NULL)."""
        table = self._values
        return (self.table() if table is None else table).take(codes)

    def rank(self) -> np.ndarray:
        """Per code, the rank of its string among the dictionary's in Python's
        string order, NULL last: ``rank()[codes]`` orders rows as their
        decoded values do."""
        if self._rank is None:
            strings = self.table()[:-1].tolist()
            size = len(strings)
            rank = np.empty(size + 1, dtype=np.int64)
            rank[sorted(range(size), key=strings.__getitem__)] = np.arange(size, dtype=np.int64)
            rank[size] = size
            self._rank = rank
        return self._rank


@dataclass
class ColumnarTable:
    """Column-major view of one table (numpy arrays keyed by column name).

    NULL-free columns keep their native dtypes (int64, float64, bool, int64
    day ordinals for dates, object strings).  A nullable typed column stays
    typed as a :class:`~repro.engine.mask.Nullable` ``(values, validity)``
    pair; nullable string columns decode to object arrays holding ``None``
    at NULL positions.
    ``codes``/``dictionaries`` expose the dictionary encoding of string
    columns so scans can evaluate predicates over int32 codes, and
    :meth:`decoder` what those codes decode to and how they sort.
    ``version`` is the storage version the arrays were read at.
    """

    schema: TableSchema
    columns: dict[str, np.ndarray]
    length: int
    version: int
    codes: dict[str, np.ndarray] = field(default_factory=dict)
    dictionaries: dict[str, Dictionary] = field(default_factory=dict)
    _decoders: dict[str, ViewDictionary] = field(default_factory=dict, init=False,
                                                 repr=False, compare=False)

    def decoder(self, name: str) -> ViewDictionary | None:
        """The :class:`ViewDictionary` of string column ``name`` (None: the
        column is not dictionary-encoded), made the first time it is asked
        for."""
        found = self._decoders.get(name)
        if found is None and name in self.codes:
            # two threads may both make one: either serves
            found = self._decoders[name] = ViewDictionary(self.dictionaries[name])
        return found


class Database:
    """An in-memory database instance: catalog + storage (+ cached views)."""

    def __init__(self, name: str = "db", chunk_rows: int = DEFAULT_CHUNK_ROWS):
        self.name = name
        self.chunk_rows = chunk_rows
        self.catalog = Catalog()
        self._storage: dict[str, StorageTable] = {}
        self._columnar: dict[str, ColumnarTable] = {}
        # concurrent executors (batched driver threads sharing an engine) may
        # request the same columnar view; builds serialise on this lock.
        self._columnar_lock = threading.Lock()
        #: bumped before every DDL statement and insert takes effect and
        #: again once it has (:meth:`_mutation`): an executor that read it
        #: before looking at the tables and reads the same value after
        #: fetching their rows saw no mutation in between, and a value built
        #: from the tables under the stamp read first is stale once the
        #: mutation is done -- even one read between the two bumps.
        self.mutations = 0
        #: the plan entries holding a value built from the tables
        #: (:class:`~repro.engine.plan.Stamped`), let go at the next mutation.
        self._stamped: weakref.WeakSet = weakref.WeakSet()
        self._stamped_lock = threading.Lock()
        self._plans: PlanCache | None = None

    def plan_cache(self, maxsize: int) -> PlanCache:
        """The plan cache of every engine over this database, as large as
        the largest ``maxsize`` asked for."""
        with self._stamped_lock:
            if self._plans is None:
                self._plans = PlanCache(maxsize)
            self._plans.maxsize = max(self._plans.maxsize, maxsize)
            return self._plans

    def track(self, stamped) -> None:
        """Have ``stamped`` let go of its value at the next mutation."""
        with self._stamped_lock:
            self._stamped.add(stamped)

    @contextmanager
    def _mutation(self):
        """Wrap one change of the tables in the two bumps of ``mutations``,
        then release the values built from the tables as they were."""
        self.mutations += 1
        try:
            yield
        finally:
            self.mutations += 1
            with self._stamped_lock:
                stamped, self._stamped = list(self._stamped), weakref.WeakSet()
            for entry in stamped:
                entry.release(self)

    # -- DDL / DML -----------------------------------------------------------

    def create_table(self, name: str,
                     columns: Iterable[tuple[str, str]] | Iterable[ColumnDef]) -> TableSchema:
        """Create table ``name`` and return its schema."""
        with self._mutation():
            schema = self.catalog.create_table(name, columns)
            table = StorageTable(schema, chunk_rows=self.chunk_rows)
            self._storage[schema.name] = table
            self.catalog.bind_statistics(schema.name, table.statistics)
        return schema

    def drop_table(self, name: str) -> None:
        """Drop table ``name``, its storage, and every cached derived view."""
        with self._mutation():
            self.catalog.drop_table(name)
            self._storage.pop(name.lower(), None)
            self._columnar.pop(name.lower(), None)

    def insert_rows(self, name: str, rows: Iterable[Sequence]) -> int:
        """Append ``rows`` (sequences in column order) to table ``name``.

        The rows are coerced a chunk and a column at a time before the table
        changes: a row of the wrong width or a value that does not coerce
        raises and stores nothing.  No rows is no mutation.
        """
        schema = self.catalog.table(name)
        rows = list(rows)
        width = len(schema)
        if set(map(len, rows)) - {width}:
            wrong = next(row for row in rows if len(row) != width)
            raise ExecutionError(
                f"table '{name}' expects {width} values per row, got {len(wrong)}")
        by_type = {type_name: column_coercer(type_name)
                   for type_name in {column.type_name for column in schema.columns}}
        coercers = [by_type[column.type_name] for column in schema.columns]
        step = self.chunk_rows
        batches = [[coerce(values) for coerce, values
                    in zip(coercers, zip(*rows[start:start + step]))]
                   for start in range(0, len(rows), step)]
        if not batches:
            return 0
        with self._mutation():
            return self._storage[schema.name].append_columns(batches)

    # -- access ------------------------------------------------------------------

    def storage(self, name: str) -> StorageTable:
        """The chunked storage backing table ``name``."""
        return self._storage[self.catalog.table(name).name]

    def row_count(self, name: str) -> int:
        """Number of rows currently stored in table ``name``."""
        return self.storage(name).row_count

    def rows(self, name: str) -> list[tuple]:
        """Row tuples of table ``name``, decoded chunk by chunk.

        The list is cached inside the storage table until the next mutation;
        treat it as read-only.
        """
        return self.storage(name).rows()

    def key_index(self, name: str, columns: Sequence[str]) -> dict:
        """Rows of table ``name`` by their key in ``columns`` (NULL keys left out).

        The key is a scalar for one column and a tuple for several.  The
        index lives in the storage table until the next mutation, like the
        row view it references; treat it as read-only.
        """
        table = self.storage(name)
        return table.key_index(tuple(table.schema.column_index(column)
                                     for column in columns))

    def key_order(self, name: str, columns: Sequence[str]) -> "KeyOrder | None":
        """Rows of table ``name`` sorted by their key in ``columns`` (NULL keys
        left out), for the column engine's joins to probe; None when a column
        is not of integer kind.  Lives in the storage table until the next
        mutation, like the key indexes; treat it as read-only.
        """
        table = self.storage(name)
        return table.key_order(tuple(table.schema.column_index(column)
                                     for column in columns))

    def columnar(self, name: str) -> ColumnarTable:
        """Return (building and caching if needed) the column view of ``name``.

        The view is cached until the storage version it was read at is no
        longer the table's.
        """
        schema = self.catalog.table(name)
        table = self._storage[schema.name]
        cached = self._columnar.get(schema.name)
        if cached is not None and cached.version == table.version:
            return cached
        with self._columnar_lock:
            cached = self._columnar.get(schema.name)
            version = table.version
            if cached is not None and cached.version == version:
                return cached
            columns: dict[str, np.ndarray] = {}
            codes: dict[str, np.ndarray] = {}
            dictionaries: dict[str, Dictionary] = {}
            for column in schema.columns:
                columns[column.name] = table.column_array(column.name)
                column_codes = table.column_codes(column.name)
                if column_codes is not None:
                    codes[column.name] = column_codes
                    dictionaries[column.name] = table.dictionary(column.name)
            view = ColumnarTable(schema=schema, columns=columns,
                                 length=table.row_count, version=version,
                                 codes=codes, dictionaries=dictionaries)
            self._columnar[schema.name] = view
            return view

    def table_names(self) -> list[str]:
        """Names of all tables in the database."""
        return self.catalog.table_names()

    def size_summary(self) -> dict[str, dict]:
        """Per-table storage summary (rows, chunks, bytes, compression, indexes).

        Derived from the aggregated storage statistics -- the experiment
        documentation path prints this so runs record the data layout they
        measured against.  ``indexes`` lists the key indexes alive right now:
        their columns, distinct keys and indexed (non-NULL-keyed) rows;
        ``orders`` the key orders, with their size in bytes as well.
        """
        summary = {}
        for name in self.table_names():
            table = self.storage(name)
            columns = table.schema.columns
            summary[name] = {**table.statistics().describe(), "indexes": [
                {"columns": [columns[position].name for position in positions],
                 "keys": len(index), "rows": sum(map(len, index.values()))}
                for positions, index in table.key_indexes().items()], "orders": [
                {"columns": [columns[position].name for position in positions],
                 "keys": order.distinct, "rows": order.indexed_rows,
                 "bytes": order.nbytes}
                for positions, order in table.key_orders().items()]}
        return summary

    def __contains__(self, name: str) -> bool:
        return name in self.catalog

