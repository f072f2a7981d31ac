"""Tests for the chunked columnar storage subsystem.

Covers chunking and zone maps, dictionary encoding, NULL round-trips and
NULL-semantics parity between the engines (filter, join key and aggregate
positions), statistics-driven scan skipping and predicate ordering, the
drop/recreate cache-invalidation regression, the key indexes the row engine's
joins probe, the extended ``Database.size_summary``, the load path (columns
coerced and encoded a chunk at a time against a per-cell oracle, failed and
empty inserts) and NaN-safe float zone maps.
"""

from __future__ import annotations

import datetime
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import populate_tpch
from repro.engine import (
    ColumnEngine,
    Database,
    EngineOptions,
    RowEngine,
)
from repro.engine.storage import DEFAULT_CHUNK_ROWS, hash_rows
from repro.engine.storage.skipping import estimate_conjunction, estimate_selectivity
from repro.errors import ExecutionError
from repro.obs import MetricsContext

def _options(compile_expressions=True) -> EngineOptions:
    return EngineOptions(compile_expressions=compile_expressions)


def _assert_parity(database: Database, sql: str) -> list[tuple]:
    """Both engines agree on ``sql`` with compiled kernels and without."""
    reference = RowEngine(database, options=_options(False)).execute(sql)
    for compile_expressions in (False, True):
        options = _options(compile_expressions)
        for engine in (RowEngine(database, options=options),
                       ColumnEngine(database, options=options)):
            result = engine.execute(sql)
            label = f"{engine.strategy()} compile={compile_expressions}"
            assert result.columns == reference.columns, f"{label}: columns differ"
            assert result.rows == reference.rows, f"{label}: rows differ on {sql}"
    return reference.rows


@pytest.fixture()
def nullable_db() -> Database:
    """Small chunks + NULLs in every position the engines must agree on."""
    database = Database("storage-nulls", chunk_rows=4)
    database.create_table("t", [("id", "int"), ("name", "str"), ("price", "float"),
                                ("day", "date")])
    database.insert_rows("t", [
        (1, "alpha", 10.0, "2020-01-01"),
        (2, None, None, None),
        (None, "beta", 30.0, "2020-03-01"),
        (4, "alpha", None, "2020-04-01"),
        (5, None, 50.0, None),
        (6, "gamma", 60.0, "2020-06-01"),
    ])
    database.create_table("u", [("id", "int"), ("t_id", "int"), ("tag", "str")])
    database.insert_rows("u", [(1, 1, "x"), (2, None, "y"), (3, 6, None), (4, 4, "z")])
    return database


class TestChunking:
    def test_rows_sealed_into_chunks(self):
        database = Database("chunks", chunk_rows=10)
        database.create_table("t", [("x", "int")])
        database.insert_rows("t", [(value,) for value in range(25)])
        storage = database.storage("t")
        assert storage.row_count == 25
        storage.flush()
        assert [chunk.row_count for chunk in storage.chunks] == [10, 10, 5]
        assert [chunk.start for chunk in storage.chunks] == [0, 10, 20]

    def test_default_chunk_rows(self):
        database = Database("default-chunks")
        assert database.chunk_rows == DEFAULT_CHUNK_ROWS == 4096

    def test_zone_maps_track_min_max_and_nulls(self):
        database = Database("zones", chunk_rows=3)
        database.create_table("t", [("x", "int")])
        database.insert_rows("t", [(5,), (1,), (9,), (None,), (7,), (None,)])
        zones = database.storage("t").zone_maps("x")
        assert (zones[0].min_value, zones[0].max_value, zones[0].null_count) == (1, 9, 0)
        assert (zones[1].min_value, zones[1].max_value, zones[1].null_count) == (7, 7, 2)

    def test_zone_maps_exact_beyond_float53(self):
        # int bounds must stay exact: a float64 zone map would round 2**53+1
        # down and wrongly refute the chunk.
        database = Database("bigints", chunk_rows=4)
        database.create_table("t", [("x", "int")])
        big = 2**53 + 1
        database.insert_rows("t", [(1,), (2,), (big,), (3,)])
        engine = ColumnEngine(database)
        assert engine.execute(f"select x from t where x > {2**53}").rows == [(big,)]

    def test_row_views_round_trip_values_and_nulls(self, nullable_db):
        rows = nullable_db.rows("t")
        assert rows[0] == (1, "alpha", 10.0, datetime.date(2020, 1, 1))
        assert rows[1] == (2, None, None, None)
        assert rows[2][0] is None

    def test_columnar_views_null_free_columns_keep_native_dtypes(self):
        database = Database("typed", chunk_rows=2)
        database.create_table("t", [("i", "int"), ("f", "float"), ("s", "str"),
                                    ("d", "date")])
        database.insert_rows("t", [(1, 1.5, "a", "2020-01-01"),
                                   (2, 2.5, "b", "2020-01-02"),
                                   (3, 3.5, "c", "2020-01-03")])
        view = database.columnar("t")
        assert view.columns["i"].dtype == np.int64
        assert view.columns["f"].dtype == np.float64
        assert view.columns["s"].dtype == object
        assert view.columns["d"].dtype == np.int64  # day ordinals

    def test_columnar_views_nullable_columns_stay_typed(self, nullable_db):
        from repro.engine.mask import Nullable

        view = nullable_db.columnar("t")
        price = view.columns["price"]
        assert isinstance(price, Nullable)  # typed values + validity mask
        assert price.values.dtype == np.float64
        assert price[1] is None and price[0] == 10.0
        assert view.columns["id"][2] is None
        # nullable strings stay object arrays (string kernels iterate anyway)
        assert view.columns["name"].dtype == object
        assert view.columns["name"][1] is None


class TestDictionaryEncoding:
    def test_string_columns_store_int32_codes(self):
        database = Database("dict", chunk_rows=3)
        database.create_table("t", [("tag", "str")])
        database.insert_rows("t", [("a",), ("b",), ("a",), (None,), ("c",)])
        storage = database.storage("t")
        codes = storage.column_codes("tag")
        assert codes.dtype == np.int32
        assert codes.tolist() == [0, 1, 0, -1, 2]
        assert storage.dictionary("tag").values == ["a", "b", "c"]

    def test_statistics_report_dictionary_size(self):
        database = Database("dict-stats", chunk_rows=4)
        database.create_table("t", [("tag", "str")])
        database.insert_rows("t", [("x",)] * 10 + [("y",)] * 10)
        stats = database.storage("t").statistics()
        assert stats.column("tag").dictionary_size == 2
        assert stats.column("tag").distinct_estimate == 2
        assert stats.compression_ratio > 1.0  # 20 strings -> 2 + int32 codes

    def test_dictionary_scan_parity(self, nullable_db):
        for sql in (
            "select id from t where name = 'alpha' order by id",
            "select id from t where name <> 'alpha' order by id",
            "select id from t where name in ('alpha', 'gamma') order by id",
            "select id from t where name like 'a%' order by id",
            "select id from t where name not like 'a%' order by id",
        ):
            _assert_parity(nullable_db, sql)


class TestNullSemantics:
    """NULLs in filter, join-key and aggregate positions: both engines agree,
    compiled and interpreted."""

    def test_null_in_filters(self, nullable_db):
        for sql in (
            "select id from t where price > 15 order by id",
            "select id from t where price <= 50 order by id",
            "select id from t where price is null order by id",
            "select id from t where price is not null order by id",
            "select id from t where day >= date '2020-02-01' order by id",
            "select id from t where price between 20 and 55 order by id",
            "select id from t where price not between 20 and 55 order by id",
            "select id from t where id in (1, 4, 5) order by id",
            "select id from t where id not in (1, 4, 5) order by id",
        ):
            _assert_parity(nullable_db, sql)

    def test_null_in_join_keys(self, nullable_db):
        rows = _assert_parity(
            nullable_db,
            "select t.id, u.id from t, u where t.id = u.t_id order by u.id")
        # NULL = NULL is UNKNOWN: u.id 2 (NULL t_id) pairs with no t row, not
        # even the NULL-id one
        assert rows == [(1, 1), (6, 3), (4, 4)]

    def test_null_in_aggregates(self, nullable_db):
        rows = _assert_parity(
            nullable_db,
            "select count(*), count(price), sum(price), avg(price), "
            "min(price), max(price) from t")
        assert rows == [(6, 4, 150.0, 37.5, 10.0, 60.0)]

    def test_null_group_keys_form_their_own_group(self, nullable_db):
        rows = _assert_parity(
            nullable_db,
            "select name, count(*), sum(price) from t group by name order by name")
        assert (None, 2, 50.0) in rows

    def test_all_null_aggregate_is_null(self, nullable_db):
        rows = _assert_parity(
            nullable_db,
            "select sum(price), min(price), count(price) from t where id = 2")
        assert rows == [(None, None, 0)]

    def test_null_propagates_through_expressions(self, nullable_db):
        rows = _assert_parity(
            nullable_db,
            "select id, price * 2 + 1 from t order by id")
        assert (2, None) in rows

    def test_extract_and_concat_propagate_null(self, nullable_db):
        _assert_parity(nullable_db,
                       "select id, extract(year from day) from t order by id")
        _assert_parity(nullable_db, "select id, name || '!' from t order by id")

    def test_scalar_functions_propagate_null(self, nullable_db):
        # abs/round used to crash on object arrays with None; upper/length/
        # substring used to stringify None into 'NONE'/4/'Non'.
        rows = _assert_parity(
            nullable_db,
            "select id, abs(price), round(price, 1), upper(name), length(name), "
            "substring(name from 1 for 2) from t order by id")
        assert rows[1] == (2, None, None, None, None, None)
        _assert_parity(nullable_db,
                       "select id from t where abs(price) > 25 order by id")

    def test_cast_keeps_null_instead_of_nan(self, nullable_db):
        rows = _assert_parity(
            nullable_db, "select id, cast(price as float) from t order by id")
        assert (2, None) in rows  # not (2, nan)

    def test_in_list_with_null_member(self, nullable_db):
        # NULL IN (...) is NULL -> false, even when the list contains NULL;
        # np.isin would otherwise match None by identity.
        rows = _assert_parity(
            nullable_db, "select id from t where id in (1, null) order by id")
        assert rows == [(1,)]
        _assert_parity(nullable_db,
                       "select id from t where id not in (1, null) order by id")

    def test_null_literal_comparisons_match_rows(self, nullable_db):
        # a scalar NULL literal compares UNKNOWN everywhere (negations
        # included); NOT BETWEEN decomposes, so a FALSE conjunct still
        # decides past a NULL bound (id = 6 is provably above the range)
        expected = {
            "select id from t where id <> null order by id": [],
            "select id from t where id = null order by id": [],
            "select id from t where id not between null and 5 order by id": [(6,)],
            "select id from t where null in (1, null) order by id": [],
            "select id from t where null not in (1, null) order by id": [],
        }
        for sql, rows in expected.items():
            assert _assert_parity(nullable_db, sql) == rows, sql

    def test_division_by_zero_faults_in_every_representation(self):
        # the typed null-mask path must fault on a zero divisor at a *valid*
        # slot exactly like the row engine -- compiled or interpreted -- not
        # silently produce inf under the sentinel-sanitising errstate
        from repro.errors import ExecutionError

        database = Database("divzero", chunk_rows=3)
        database.create_table("t", [("f", "float"), ("x", "int")])
        database.insert_rows("t", [(1.5, 0), (None, 2), (3.0, 3)])
        sql = "select count(*) from t where f / x > 0.1"
        for engine in (RowEngine(database), ColumnEngine(database),
                       ColumnEngine(database, options=_options(False))):
            with pytest.raises(ExecutionError, match="division by zero"):
                engine.execute(sql)

    def test_division_by_null_slot_zero_sentinel_is_null(self, nullable_db):
        # a NULL divisor (stored as a 0 sentinel in the typed layout) must
        # yield NULL, not fault
        rows = _assert_parity(nullable_db,
                              "select id, 10.0 / price from t order by id")
        assert (2, None) in rows

    def test_cast_to_string_matches_row_domain(self, nullable_db):
        # string CASTs take the row-at-a-time path: date columns stringify
        # as ISO dates, not as their int64 day ordinals
        rows = _assert_parity(
            nullable_db,
            "select id, cast(id as varchar), cast(day as varchar) from t "
            "order by id")
        assert (1, "1", "2020-01-01") in rows
        assert (2, "2", None) in rows

    def test_not_over_left_join_padding_is_unknown(self):
        # the padded side of an outer join is NULL: NOT over a comparison
        # against it must stay UNKNOWN (the float padding carries an
        # explicit validity mask, not just an in-band NaN)
        database = Database("padding", chunk_rows=3)
        database.create_table("l", [("id", "int")])
        database.insert_rows("l", [(1,), (2,), (3,), (4,)])
        database.create_table("r", [("lid", "int"), ("v", "float")])
        database.insert_rows("r", [(1, 2.5), (2, 7.0)])
        rows = _assert_parity(
            database,
            "select l.id from l left join r on l.id = r.lid "
            "where not (r.v = 2.5) order by l.id")
        assert rows == [(2,)]
        rows = _assert_parity(
            database,
            "select l.id from l left join r on l.id = r.lid "
            "where not (r.lid = 1) order by l.id")
        assert rows == [(2,)]

    def test_null_injected_q6_stays_on_typed_arrays(self):
        """TPC-H Q6 over a lineitem with NULLs injected into its columns agrees
        with the row engine, and no kernel of it leaves the typed
        representation: every push-down predicate evaluates to a ``bool``
        array or a :class:`Kleene`, the ``sum`` argument to a ``float64``
        :class:`Nullable` -- never to an object array holding ``None``."""
        import random

        from repro.engine.compile import ColumnContext, column_kernels
        from repro.engine.mask import Kleene, Nullable

        source = Database("tpch-source")
        populate_tpch(source, scale_factor=0.002)
        schema = source.catalog.table("lineitem")
        nullable = [schema.column_index(name)
                    for name in ("l_discount", "l_quantity", "l_shipdate")]
        rng = random.Random(20260730)
        database = Database("tpch-nullable", chunk_rows=512)
        database.create_table(
            "lineitem", [(column.name, column.type_name) for column in schema.columns])
        database.insert_rows("lineitem", [
            tuple(None if position in nullable and rng.random() < 0.08 else value
                  for position, value in enumerate(row))
            for row in source.rows("lineitem")])
        sql = """
            select sum(l_extendedprice * l_discount) as revenue from lineitem
            where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
              and l_discount between 0.05 and 0.07 and l_quantity < 24"""
        expected = RowEngine(database).execute(sql).scalar()
        assert expected > 0
        for compile_expressions in (True, False):
            engine = ColumnEngine(database, options=_options(compile_expressions))
            assert engine.execute(sql).scalar() == pytest.approx(expected, rel=1e-12), \
                engine.options.describe()

        plan = ColumnEngine(database).prepare(sql)
        kernels = column_kernels(plan, plan.root)
        view = database.columnar("lineitem")
        context = ColumnContext([view.columns[column.name] for column in schema.columns],
                                view.length)
        predicates = [kernel(context) for kernel, _ in kernels.pushdown[0]]
        assert len(predicates) == 4
        for value in predicates:
            assert isinstance(value, Kleene) or value.dtype == bool
        (argument,) = kernels.arguments
        product = argument(context)
        assert isinstance(product, Nullable) and product.dtype == np.float64
        assert not product.valid.all()

    def test_not_between_with_null_bound_column(self):
        database = Database("bounds", chunk_rows=3)
        database.create_table("b", [("id", "int"), ("x", "int"), ("lo", "int"),
                                    ("hi", "int")])
        database.insert_rows("b", [
            (1, 5, 1, 10), (2, 5, None, 10), (3, 5, 1, None), (4, 50, 1, 10),
            (5, None, 1, 10),
        ])
        rows = _assert_parity(
            database, "select id from b where x not between lo and hi order by id")
        assert rows == [(4,)]


class TestScanSkipping:
    @pytest.fixture()
    def null_chunk_db(self) -> Database:
        """Three chunks: values 1..4, an all-NULL chunk, values 9..12."""
        database = Database("null-chunks", chunk_rows=4)
        database.create_table("n", [("x", "int")])
        database.insert_rows(
            "n", [(value,) for value in (1, 2, 3, 4)]
                 + [(None,)] * 4
                 + [(value,) for value in (9, 10, 11, 12)])
        return database

    @pytest.fixture()
    def clustered_db(self) -> Database:
        database = Database("clustered", chunk_rows=100)
        database.create_table("events", [("id", "int"), ("day", "date"),
                                         ("val", "float")])
        start = datetime.date(1994, 1, 1)
        database.insert_rows("events", [
            (index, (start + datetime.timedelta(days=index // 10)).isoformat(),
             float(index % 7))
            for index in range(3000)
        ])
        return database

    def test_zone_maps_skip_refuted_chunks(self, clustered_db):
        engine = ColumnEngine(clustered_db)
        sql = ("select sum(val) from events where day >= date '1994-03-01' "
               "and day < date '1994-04-01'")
        result = engine.execute(sql)
        assert result.metrics.get("scan.chunks_skipped") > 0
        assert (result.metrics.get("scan.chunks_scanned")
                + result.metrics.get("scan.chunks_skipped")
                == len(clustered_db.storage("events").chunks))
        # and skipping never changes the answer: the row engine reads every chunk
        assert RowEngine(clustered_db).execute(sql).rows == result.rows

    def test_all_chunks_refuted_yields_empty_scan(self, clustered_db):
        engine = ColumnEngine(clustered_db)
        result = engine.execute(
            "select count(*) from events where day >= date '2001-01-01'")
        assert result.scalar() == 0
        assert (result.metrics.get("scan.chunks_skipped")
                == len(clustered_db.storage("events").chunks))
        assert result.metrics.get("scan.chunks_scanned") == 0

    def test_all_null_chunk_never_skipped_for_is_null(self, null_chunk_db):
        engine = ColumnEngine(null_chunk_db)
        result = engine.execute("select count(*) from n where x is null")
        assert result.scalar() == 4
        # the value chunks are refuted (no NULLs), the all-NULL chunk is not
        assert result.metrics.get("scan.chunks_skipped") == 2
        assert result.metrics.get("scan.chunks_scanned") == 1

    def test_all_null_chunk_skipped_for_equality(self, null_chunk_db):
        engine = ColumnEngine(null_chunk_db)
        result = engine.execute("select x from n where x = 10")
        assert result.rows == [(10,)]
        # both the all-NULL chunk (UNKNOWN everywhere) and the 1..4 chunk
        # are refuted; only the 9..12 chunk is read
        assert result.metrics.get("scan.chunks_skipped") == 2

    def test_not_predicate_skips_all_null_chunk(self, null_chunk_db):
        # NOT (x = 10) is UNKNOWN on every row of the all-NULL chunk, so the
        # complement rewrite may skip it -- and only it
        engine = ColumnEngine(null_chunk_db)
        sql = "select count(*) from n where not (x = 10)"
        result = engine.execute(sql)
        assert result.scalar() == 7
        assert result.metrics.get("scan.chunks_skipped") == 1
        assert RowEngine(null_chunk_db).execute(sql).rows == result.rows

    def test_is_not_null_skips_only_all_null_chunk(self, null_chunk_db):
        engine = ColumnEngine(null_chunk_db)
        result = engine.execute("select count(*) from n where x is not null")
        assert result.scalar() == 8
        assert result.metrics.get("scan.chunks_skipped") == 1

    def test_not_range_never_mis_refutes_mixed_null_chunk(self):
        # regression: a chunk holding [None, 3, 7, None] satisfies
        # NOT (x < 5) at x = 7; the rewrite (x >= 5) must keep the chunk
        database = Database("mixed-nulls", chunk_rows=4)
        database.create_table("m", [("x", "int")])
        database.insert_rows("m", [(None,), (3,), (7,), (None,)])
        engine = ColumnEngine(database)
        result = engine.execute("select x from m where not (x < 5)")
        assert result.rows == [(7,)]
        assert result.metrics.get("scan.chunks_skipped") == 0

    @pytest.fixture()
    def zones(self):
        """The zone index of a 42-row table in chunks of 17, 17 and 8 rows."""
        database = Database("zones", chunk_rows=17)
        database.create_table("t", [("id", "int")])
        database.insert_rows("t", [(index,) for index in range(42)])
        return database.storage("t").zone_index()

    def test_rows_of_concatenates_chunk_rows(self, zones):
        rows = zones.rows_of(np.array([0, 2], dtype=np.int64))
        assert rows.tolist() == list(range(17)) + list(range(34, 42))

    def test_rows_of_empty(self, zones):
        rows = zones.rows_of(np.array([], dtype=np.int64))
        assert rows.dtype == np.int64 and len(rows) == 0

    def test_rows_of_every_chunk_is_every_row(self, zones):
        assert zones.rows_of(np.array([0, 1, 2], dtype=np.int64)) is None

    def test_rows_of_neighbouring_chunks_is_one_range(self, zones):
        rows = zones.rows_of(np.array([1, 2], dtype=np.int64))
        assert rows.dtype == np.int64 and rows.tolist() == list(range(17, 42))

    def test_rows_of_the_partial_last_chunk(self, zones):
        rows = zones.rows_of(np.array([2], dtype=np.int64))
        assert rows.tolist() == list(range(34, 42))

    @pytest.mark.parametrize("predicate", [
        "val >= 0", "day >= date '1994-01-01'", "id is not null"])
    def test_unrefutable_predicates_skip_nothing(self, clustered_db, predicate):
        """Every chunk holds a matching row: the zone maps refute none, and the
        scan reads the whole table."""
        sql = f"select count(*), sum(val) from events where {predicate}"
        result = ColumnEngine(clustered_db).execute(sql)
        assert result.rows[0][0] == 3000
        assert result.metrics.get("scan.chunks_skipped") == 0
        assert result.metrics.get("scan.chunks_scanned") == \
            len(clustered_db.storage("events").chunks)
        assert RowEngine(clustered_db).execute(sql).rows == result.rows

    def test_planner_orders_pushdown_by_selectivity(self, clustered_db):
        # textual order: wide range first, tight equality last -- the planner
        # must flip them so the most selective predicate refines first.
        engine = ColumnEngine(clustered_db)
        plan = engine.prepare(
            "select count(*) from events where day >= date '1994-01-01' and id = 17")
        predicates = plan.root.pushdown["events"]
        from repro.sqlparser.printer import to_sql

        assert to_sql(predicates[0]) == "id = 17"


class TestStatistics:
    """What the join order is costed from: NDVs and filtered cardinalities."""

    def test_integer_and_date_ndv_do_not_count_a_value_once_per_chunk(self):
        database = Database("tpch-ndv")
        populate_tpch(database, scale_factor=0.004)
        for table, column, tolerance in [
                ("lineitem", "l_partkey", 0), ("lineitem", "l_suppkey", 0),
                ("lineitem", "l_orderkey", 0), ("lineitem", "l_shipdate", 0.01),
                ("orders", "o_custkey", 0), ("customer", "c_nationkey", 0),
                ("supplier", "s_nationkey", 0), ("partsupp", "ps_partkey", 0)]:
            position = database.catalog.table(table).column_index(column)
            actual = len({row[position] for row in database.rows(table)})
            estimate = database.catalog.table_statistics(table).column(column).distinct_estimate
            # 6 chunks of lineitem each hold most part keys: summed, 4 764 for 800
            assert actual <= estimate <= actual * (1 + tolerance), (table, column)

    def test_span_clips_only_discrete_types(self):
        database = Database("spans", chunk_rows=4)
        database.create_table("s", [("i", "int"), ("f", "float"), ("b", "bool"),
                                    ("d", "date"), ("n", "int")])
        database.insert_rows("s", [(index % 3, (index % 3) / 2, index % 2 == 0,
                                    f"2020-01-0{index % 2 + 1}", None)
                                   for index in range(12)])
        columns = database.catalog.table_statistics("s").columns
        assert [columns[name].distinct_estimate for name in "ifbdn"] == [3, 9, 2, 2, 0]

    @pytest.fixture()
    def days(self) -> "TableStatistics":
        """1 000 rows: ``day`` one per row over 1 000 days, ``x`` 0..99 with
        every tenth row NULL."""
        database = Database("windows", chunk_rows=100)
        database.create_table("w", [("day", "date"), ("x", "int"), ("tag", "str")])
        start = datetime.date(2020, 1, 1)
        database.insert_rows("w", [
            ((start + datetime.timedelta(days=index)).isoformat(),
             None if index % 10 == 0 else index % 100, "ab"[index % 2])
            for index in range(1000)])
        return database.catalog.table_statistics("w")

    @staticmethod
    def _conjuncts(where: str) -> list:
        from repro.sqlparser import ast
        from repro.sqlparser.parser import parse_select

        return ast.conjuncts(parse_select(f"select 1 from w where {where}").where)

    def test_a_window_is_one_interval_not_two_half_ranges(self, days):
        window = self._conjuncts("day >= date '2021-01-01' and day < date '2021-02-01'")
        assert estimate_conjunction(window, days) == pytest.approx(31 / 999)
        # each half alone keeps what it did; their product overstated the window
        halves = [estimate_selectivity(conjunct, days) for conjunct in window]
        assert halves == [pytest.approx(633 / 999), pytest.approx(397 / 999)]
        assert halves[0] * halves[1] > 7 * estimate_conjunction(window, days)
        # BETWEEN, flipped operands, date arithmetic and a nested AND read the same
        for where in ("day between date '2021-01-01' and date '2021-02-01'",
                      "date '2021-01-01' <= day and date '2021-02-01' > day",
                      "day >= date '2021-01-01' and "
                      "day < date '2021-01-01' + interval '1' month",
                      "(day >= date '2021-01-01' and (day < date '2021-02-01'))",
                      "day >= date '2020-06-01' and day >= date '2021-01-01' "
                      "and day < date '2021-02-01' and day < date '2022-01-01'"):
            assert estimate_conjunction(self._conjuncts(where), days) \
                == pytest.approx(31 / 999), where

    def test_one_sided_ranges_and_other_conjuncts_multiply_as_before(self, days):
        for where in ("day < date '2021-01-01'", "x > 50", "tag = 'a'", "x = 7",
                      "tag like 'a%'", "x in (1, 2, 3)", "x is null"):
            (conjunct,) = self._conjuncts(where)
            assert estimate_conjunction([conjunct], days) \
                == pytest.approx(estimate_selectivity(conjunct, days)), where
        mixed = self._conjuncts("day < date '2021-01-01' and tag = 'a' and x > 50")
        product = 1.0
        for conjunct in mixed:
            product *= estimate_selectivity(conjunct, days)
        assert estimate_conjunction(mixed, days) == pytest.approx(product)
        assert estimate_conjunction([], days) == 1.0

    def test_an_empty_intersection_keeps_nothing(self, days):
        assert estimate_conjunction(self._conjuncts(
            "day >= date '2021-06-01' and day < date '2021-01-01'"), days) == 0.0
        assert estimate_conjunction(self._conjuncts("x > 70 and x < 20"), days) == 0.0
        assert estimate_conjunction(self._conjuncts("day > date '2030-01-01'"), days) == 0.0

    def test_the_null_fraction_counts_once_per_column(self, days):
        # a tenth of x is NULL: a window over x keeps 0.9 of its share of the span
        window = self._conjuncts("x >= 9 and x <= 59")
        assert estimate_conjunction(window, days) == pytest.approx(0.9 * 50 / 98)
        halves = [estimate_selectivity(conjunct, days) for conjunct in window]
        assert halves == [pytest.approx(0.9 * 90 / 98), pytest.approx(0.9 * 58 / 98)]
        # an AND inside a predicate goes through the same estimate
        (nested,) = self._conjuncts("(x >= 9 and x <= 59) or x is null")
        assert estimate_selectivity(nested, days) == pytest.approx(0.9 * 50 / 98 + 0.1)


class TestDropRecreate:
    """insert -> query -> drop -> recreate -> query must not see stale arrays."""

    @pytest.mark.parametrize("kind", ["row", "column"])
    def test_recreate_invalidates_cached_views(self, kind):
        database = Database("recreate", chunk_rows=8)
        database.create_table("t", [("x", "int"), ("tag", "str")])
        database.insert_rows("t", [(1, "old"), (2, "old")])
        engine = (RowEngine if kind == "row" else ColumnEngine)(database)
        sql = "select count(*), sum(x) from t"
        assert engine.execute(sql).rows == [(2, 3)]

        database.drop_table("t")
        database.create_table("t", [("x", "int"), ("tag", "str")])
        database.insert_rows("t", [(10, "new"), (20, "new"), (30, "new")])
        assert engine.execute(sql).rows == [(3, 60)]
        assert engine.execute("select count(*) from t where tag = 'new'").rows \
            == [(3,)]

    def test_drop_clears_storage_and_statistics(self):
        database = Database("drop")
        database.create_table("t", [("x", "int")])
        database.insert_rows("t", [(1,)])
        assert database.catalog.table_statistics("t").row_count == 1
        database.drop_table("t")
        assert "t" not in database
        assert database.catalog.table_statistics("t") is None


class TestKeyIndex:
    def test_rows_by_key_without_null_keys(self, nullable_db):
        rows = nullable_db.rows("u")
        index = nullable_db.key_index("u", ["t_id"])
        assert index == {1: [rows[0]], 6: [rows[2]], 4: [rows[3]]}  # scalar keys, no None
        assert index[1][0] is rows[0]  # references into the row view, not copies
        composite = nullable_db.key_index("u", ["t_id", "tag"])
        assert composite == {(1, "x"): [rows[0]], (4, "z"): [rows[3]]}  # a NULL in either: out
        assert nullable_db.key_index("u", ["T_ID"]) is index  # one index per key, cached

    def test_keys_compare_as_dict_keys(self):
        rows = [(1, "int"), (1.0, "float"), (True, "bool"), (2, "two"), (None, "null")]
        assert hash_rows(rows, (0,)) == {1: rows[:3], 2: [rows[3]]}
        assert hash_rows(rows, (0, 1)) == {(key, tag): [(key, tag)] for key, tag in rows[:4]}

    def test_mutation_drops_the_index(self, nullable_db):
        before = nullable_db.key_index("u", ["t_id"])
        assert nullable_db.size_summary()["u"]["indexes"] == [
            {"columns": ["t_id"], "keys": 3, "rows": 3}]
        nullable_db.insert_rows("u", [(5, 1, "w")])
        assert nullable_db.size_summary()["u"]["indexes"] == []
        after = nullable_db.key_index("u", ["t_id"])
        assert after is not before and [row[0] for row in after[1]] == [1, 5]
        assert 5 not in [row[0] for row in before[1]]
        nullable_db.drop_table("u")
        nullable_db.create_table("u", [("id", "int"), ("t_id", "int"), ("tag", "str")])
        assert nullable_db.key_index("u", ["t_id"]) == {}

    def test_builds_are_counted_per_query(self, nullable_db):
        metrics = MetricsContext()
        with metrics.activate():
            nullable_db.key_index("u", ["t_id"])
            nullable_db.key_index("u", ["t_id"])
            nullable_db.key_index("u", ["id"])
        assert metrics.get("join.index_builds") == 2

    def test_concurrent_cold_readers_build_once(self):
        database = Database("cold")
        database.create_table("t", [("k", "int"), ("v", "int")])
        database.insert_rows("t", [(value % 97, value) for value in range(20000)])
        database.rows("t")
        found, builds = [], []
        barrier = threading.Barrier(8)

        def reader() -> None:
            metrics = MetricsContext()
            with metrics.activate():
                barrier.wait(timeout=10)
                found.append(database.key_index("t", ["k"]))
            builds.append(metrics.get("join.index_builds"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(found) == 8 and all(index is found[0] for index in found)
        assert sorted(builds) == [0] * 7 + [1]
        assert sum(map(len, found[0].values())) == 20000


class TestKeyOrder:
    """The column engine's counterpart of the key index: rows sorted by key."""

    SQL = "select t.id, u.id from t, u where t.id = u.t_id"

    def test_rows_by_key_without_null_keys(self, nullable_db):
        order = nullable_db.key_order("u", ["t_id"])
        assert order.order.tolist() == [0, 3, 2]  # t_id 1, 4, 6; the NULL-keyed row left out
        assert (order.rows, order.indexed_rows, order.distinct, order.unique) == (4, 3, 3, True)
        assert nullable_db.key_order("u", ["T_ID"]) is order  # one per key, cached
        assert nullable_db.key_order("u", ["tag"]) is None  # strings are coded per execution
        assert nullable_db.key_order("t", ["price"]) is None  # and so are floats
        assert nullable_db.size_summary()["u"]["orders"] == [
            {"columns": ["t_id"], "keys": 3, "rows": 3, "bytes": order.nbytes}]

    def test_mutation_and_recreation_drop_the_order(self, nullable_db):
        before = nullable_db.key_order("u", ["t_id"])
        nullable_db.insert_rows("u", [(5, 1, "w")])
        assert nullable_db.size_summary()["u"]["orders"] == []
        after = nullable_db.key_order("u", ["t_id"])
        assert after is not before and after.order.tolist() == [0, 4, 3, 2]
        nullable_db.drop_table("u")
        nullable_db.create_table("u", [("id", "int"), ("t_id", "int"), ("tag", "str")])
        assert nullable_db.key_order("u", ["t_id"]).indexed_rows == 0

    def test_nullable_keys_probe_the_stored_order(self, nullable_db):
        """``u.t_id`` probes ``t(id)`` (the smaller ``u`` drives): the typed
        ``(values, validity)`` pairs of the nullable key probe the stored
        order, which is built once for every engine over the database."""
        expected = sorted(RowEngine(nullable_db).execute(self.SQL).rows)
        builds = 0
        for compile_expressions in (True, False):
            engine = ColumnEngine(nullable_db, options=_options(compile_expressions))
            result = engine.execute(self.SQL)
            assert sorted(result.rows) == expected == [(1, 1), (4, 4), (6, 3)]
            assert result.metrics.get("join.order_probes") == 1
            builds += result.metrics.get("join.order_builds")
        assert builds == 1 and len(nullable_db.storage("t").key_orders()) == 1

    def test_self_join_bindings_share_one_order(self):
        tpch_db = Database("self-join")  # its own: the orders it holds are counted
        populate_tpch(tpch_db, scale_factor=0.0003)
        engine = ColumnEngine(tpch_db)
        plan = engine.prepare(
            "select n1.n_name, n2.n_name from supplier, customer, nation n1, nation n2 "
            "where s_nationkey = n1.n_nationkey and c_nationkey = n2.n_nationkey "
            "and s_suppkey = c_custkey")
        engine.execute(plan)
        result = engine.execute(plan)
        assert result.metrics.get("join.order_probes") == 3
        assert result.metrics.get("join.order_builds") == 0
        assert [positions for positions in tpch_db.storage("nation").key_orders()] == [(0,)]

    def test_concurrent_cold_readers_build_once(self):
        database = Database("cold")
        database.create_table("t", [("k", "int"), ("v", "int")])
        database.insert_rows("t", [(value % 97, value) for value in range(20000)])
        found, builds = [], []
        barrier = threading.Barrier(8)

        def reader() -> None:
            metrics = MetricsContext()
            with metrics.activate():
                barrier.wait(timeout=10)
                found.append(database.key_order("t", ["k"]))
            builds.append(metrics.get("join.order_builds"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(found) == 8 and all(order is found[0] for order in found)
        assert sorted(builds) == [0] * 7 + [1]
        assert found[0].indexed_rows == 20000 and found[0].distinct == 97


class TestStaleViews:
    def test_cached_column_plan_sees_an_insert(self):
        """The columnar view is keyed on the storage version: the arrays a
        plan scans after an insert are the new ones, and so is the order its
        join probes -- built once, then warm again."""
        database = Database("versions")
        database.create_table("p", [("id", "int")])
        database.create_table("c", [("id", "int"), ("p_id", "int")])
        database.insert_rows("p", [(1,), (2,), (3,)])
        database.insert_rows("c", [(10, 1), (11, 3), (12, 3)])
        engine = ColumnEngine(database)
        plan = engine.prepare("select p.id, c.id from p, c where p.id = c.p_id")
        cold = engine.execute(plan)
        assert cold.rows == [(1, 10), (3, 11), (3, 12)]
        assert cold.metrics.get("join.order_builds") == 1
        assert engine.execute(plan).metrics.get("join.order_builds") == 0
        stale = database.columnar("c")
        database.insert_rows("c", [(13, 2), (14, 1)])
        assert database.columnar("c") is not stale
        assert database.columnar("c").version == database.storage("c").version
        first = engine.execute(plan)
        assert first.rows == [(1, 10), (1, 14), (2, 13), (3, 11), (3, 12)]
        assert first.metrics.get("join.order_builds") == 1
        again = engine.execute(plan)
        assert again.rows == first.rows and again.metrics.get("join.order_builds") == 0
        assert again.metrics.get("join.order_probes") == 1
        assert again.metrics.get("join.build_rows") == 0


class TestSizeSummary:
    def test_summary_reports_bytes_and_compression(self, nullable_db):
        summary = nullable_db.size_summary()
        entry = summary["t"]
        assert entry["rows"] == 6
        assert entry["chunks"] == 2
        assert entry["encoded_bytes"] > 0
        assert entry["raw_bytes"] > 0
        assert entry["compression_ratio"] == pytest.approx(
            entry["raw_bytes"] / entry["encoded_bytes"], rel=1e-3)
        assert entry["indexes"] == []  # none until a join probes one

    def test_demo_summary_mentions_storage(self):
        from repro.workflow import run_demo_scenario

        summary = run_demo_scenario(scale_factor=0.0003, pool_size=4, repeats=1,
                                    seed=3)
        text = summary.describe()
        assert "storage" in text
        assert "compression" in text


# ---------------------------------------------------------------------------
# load path: columns coerced and encoded a chunk at a time
# ---------------------------------------------------------------------------

_LOAD_SCHEMA = [("i", "int"), ("f", "float"), ("s", "str"), ("b", "bool"), ("d", "date")]
_NAN = float("nan")


def _load_value(*strategies):
    return st.one_of(st.none(), *strategies)


_LOAD_ROWS = st.lists(st.tuples(
    _load_value(st.integers(-2**62, 2**62), st.sampled_from([-1, 0, 2**53 + 1]),
                st.booleans()),
    _load_value(st.floats(), st.sampled_from([-0.0, 0.0, _NAN]), st.integers(-9, 9)),
    _load_value(st.text(max_size=3), st.sampled_from(["", "é", "日本", "a"]),
                st.integers(0, 3)),
    _load_value(st.booleans()),
    _load_value(st.dates(), st.datetimes(),
                st.dates().map(datetime.date.isoformat),
                st.datetimes().map(lambda moment: moment.isoformat()),
                st.sampled_from(["2020-02-29", "2020-02-29T23:59:59", "1970-01-01"])),
).map(list), max_size=24)

_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


def _cell(value, type_name):
    """One value as storage encodes it, one cell at a time (the oracle)."""
    if value is None:
        return None
    if type_name == "date":
        if isinstance(value, str):
            value = datetime.date.fromisoformat(value[:10])
        elif isinstance(value, datetime.datetime):
            value = value.date()
        return value.toordinal() - _EPOCH_ORDINAL
    return {"int": int, "float": float, "str": str, "bool": bool}[type_name](value)


def _oracle_zone(values: list, type_name: str):
    from repro.engine.storage import ZoneMap

    present = [value for value in values if value is not None]
    ordered = [value for value in present if value == value]  # NaN left out
    distinct = len(set(ordered)) + (len(ordered) < len(present))
    if not ordered:
        return ZoneMap(None, None, len(values) - len(present), len(values), distinct)
    return ZoneMap(min(ordered), max(ordered), len(values) - len(present), len(values),
                   distinct)


class TestLoadPath:
    """``insert_rows`` coerces and encodes a column at a time; a per-cell
    oracle says what every segment, code, zone map and view must hold."""

    @given(rows=_LOAD_ROWS, chunk_rows=st.integers(1, 7), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_segments_and_views_match_a_per_cell_oracle(self, rows, chunk_rows, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=2)))
        database = Database("load", chunk_rows=chunk_rows)
        database.create_table("t", _LOAD_SCHEMA)
        for start, stop in zip([0, *cuts], [*cuts, len(rows)]):
            database.insert_rows("t", rows[start:stop])

        encoded = [[_cell(value, type_name) for value, (_, type_name)
                    in zip(row, _LOAD_SCHEMA)] for row in rows]
        columns = [list(column) for column in zip(*encoded)] or [[] for _ in _LOAD_SCHEMA]
        strings = list(dict.fromkeys(value for value in columns[2] if value is not None))
        storage = database.storage("t")
        storage.flush()
        assert storage.row_count == len(rows)
        assert [chunk.row_count for chunk in storage.chunks] == \
            [min(chunk_rows, len(rows) - start) for start in range(0, len(rows), chunk_rows)]
        assert storage.dictionary("s").values == strings
        for chunk in storage.chunks:
            for segment, column, (_, type_name) in zip(chunk.segments, columns, _LOAD_SCHEMA):
                values = column[chunk.start:chunk.stop]
                nulls = [value is None for value in values]
                assert (segment.null_mask is None) == (not any(nulls))
                if any(nulls):
                    assert segment.null_mask.tolist() == nulls
                if type_name == "str":
                    assert segment.values.dtype == np.int32
                    assert segment.values.tolist() == \
                        [-1 if value is None else strings.index(value) for value in values]
                else:
                    sentinel = {"int": 0, "date": 0, "float": _NAN, "bool": False}[type_name]
                    assert repr(segment.values.tolist()) == \
                        repr([sentinel if value is None else value for value in values])
                assert repr(segment.zone_map) == repr(_oracle_zone(values, type_name))

        decoded = [tuple(None if value is None else
                         datetime.date.fromordinal(value + _EPOCH_ORDINAL)
                         if type_name == "date" else value
                         for value, (_, type_name) in zip(row, _LOAD_SCHEMA))
                   for row in encoded]
        assert repr(database.rows("t")) == repr(decoded)
        view = database.columnar("t")
        for (name, _), column in zip(_LOAD_SCHEMA, columns):
            found = view.columns[name]
            if hasattr(found, "valid"):
                found = [value if valid else None
                         for value, valid in zip(found.values.tolist(), found.valid.tolist())]
            else:
                found = found.tolist()
            assert repr(found) == repr(column), name
        assert view.codes["s"].tolist() == \
            [-1 if value is None else strings.index(value) for value in columns[2]]

    @pytest.mark.parametrize("bad, raised, message", [
        ([(1, 1.0, "a", True, None), (1, 1.0, "a")], ExecutionError,
         "expects 5 values per row, got 3"),
        ([(1, 1.0, "new", True, None)] * 5 + [("x", 1.0, "a", True, None)], ValueError,
         "invalid literal for int"),
        ([(1, 1.0, "new", True, "1994-13-01")], ValueError, "month must be in"),
        ([(1, 1.0, "new", True, 1994)], ExecutionError, "cannot interpret 1994 as a date"),
    ])
    def test_a_failed_insert_stores_nothing(self, bad, raised, message):
        database = Database("load-fail", chunk_rows=3)
        database.create_table("t", _LOAD_SCHEMA)
        database.insert_rows("t", [(index, 0.5, "old", False, "2020-01-01")
                                   for index in range(4)])
        storage = database.storage("t")
        before = (storage.row_count, storage.version, database.mutations)
        rows = database.rows("t")
        with pytest.raises(raised, match=message):
            database.insert_rows("t", bad)
        assert (storage.row_count, storage.version, database.mutations) == before
        assert database.rows("t") is rows
        assert storage.dictionary("s").values == ["old"]

    def test_an_empty_insert_is_no_mutation(self):
        database = Database("load-empty", chunk_rows=4)
        database.create_table("t", [("x", "int"), ("s", "str")])
        database.insert_rows("t", [(index, str(index % 3)) for index in range(10)])
        engine = ColumnEngine(database)
        plan = engine.prepare("select s, sum(x) from t where x > 2 group by s")
        engine.execute(plan)
        warm = engine.execute(plan).metrics.get("frame.materialisations")
        mutations, version = database.mutations, database.storage("t").version
        assert database.insert_rows("t", []) == 0
        assert database.insert_rows("t", iter(())) == 0
        assert (database.mutations, database.storage("t").version) == (mutations, version)
        # the plan keeps its column state: no scan frame is built again
        assert engine.execute(plan).metrics.get("frame.materialisations") == warm


class TestNaNZones:
    """A float chunk's zone bounds leave NaN out, and a chunk holding a NaN
    is kept by ``<>`` and by comparisons under NOT, which a NaN passes."""

    @pytest.mark.parametrize("rows", [
        [(_NAN,), (5.0,), (0.5,)],
        [(_NAN,), (1.0,)],
        [(_NAN,), (_NAN,)],
        [(_NAN,), (None,)],
        [(None,), (-0.0,), (_NAN,), (0.0,), (2.0,)],
    ])
    def test_a_nan_hides_no_row_from_the_column_engine(self, rows):
        database = Database("nan-zones", chunk_rows=8)
        database.create_table("t", [("x", "float")])
        database.insert_rows("t", rows)
        for sql in ("select x from t where x > 1",
                    "select x from t where x < 1",
                    "select count(*) from t where x >= 0.5",
                    "select count(*) from t where x <> 1",
                    "select count(*) from t where not (x < 1)",
                    "select count(*) from t where not (x = 1)",
                    "select count(*) from t where not (x >= 0.5 and x <= 5)"):
            _assert_parity(database, sql)

    def test_the_zone_is_bounded_over_the_values_that_order(self):
        database = Database("nan-bounds", chunk_rows=3)
        database.create_table("t", [("x", "float")])
        database.insert_rows("t", [(_NAN,), (5.0,), (0.5,), (_NAN,), (_NAN,), (None,)])
        first, second = database.storage("t").zone_maps("x")
        assert (first.min_value, first.max_value, first.distinct_count) == (0.5, 5.0, 3)
        assert (second.min_value, second.max_value, second.null_count) == (None, None, 1)
        assert ColumnEngine(database).execute(
            "select x from t where x > 1").rows == [(5.0,)]
