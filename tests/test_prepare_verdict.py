"""``Engine.prepare`` is the engine's verdict on a query text.

What an engine refuses without reading a row -- a text that does not parse,
a table the catalog does not hold, a sort key outside the select list, a FROM
item or join kind no executor runs -- it refuses in ``prepare``; ``execute`` of
a text that prepared can only fail on the data.  The driver reports the two
under different error kinds and the platform retries only the second, so the
property is checked over every text the repo generates: the differential
fuzzer's corpus, the 22 TPC-H texts, and morphed pools of the Q1 / Q6 / Q14
grammars (a third of Q1's variants sort on a column the morpher took out of
the select list).
"""

from __future__ import annotations

import datetime
import random
import sqlite3

import pytest

from repro.data import populate_tpch
from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine
from repro.errors import CatalogError, PlanError, SQLError, VERDICT_KINDS, error_kind
from repro.pool.pool import QueryPool
from repro.sqlparser import extract_grammar
from repro.tpch import QUERIES
from tests.conftest import sqlite_mirror, sqlite_rows
from tests.test_fuzz_parity import FUZZ_ITERATIONS, FUZZ_SEED, QueryGenerator, _fuzz_database

REFUSALS = (PlanError, SQLError, CatalogError)
POOL_SEED = 1
RANDOM_VARIANTS = 35

#: texts each refused before the planner owned the verdict only by ``execute``
#: (or, on the column engine, not at all: it ran FULL as an inner join and
#: never sorted a nested block), and one of each kind refused all along.
HAND_WRITTEN = [
    "select l_orderkey from lineitem order by l_partkey + 1",
    "select l_orderkey from lineitem where l_orderkey in "
    "(select o_orderkey from orders order by o_custkey + 1)",
    "select x from (select l_orderkey as x from lineitem order by l_partkey + 1) t",
    "select l_orderkey from lineitem full join orders on l_orderkey = o_orderkey",
    "select 1",
    "select a from (select 1 as a) t",
    "select l_orderkey from lineitem where l_quantity > (select 1)",
    "select l_orderkey from nowhere",
    "selectt l_orderkey from lineitem",
    "select l_orderkey from lineitem where l_quantity <",
]


def _pool_texts(number: int) -> list[str]:
    pool = QueryPool(extract_grammar(QUERIES[number]), seed=POOL_SEED)
    pool.seed_baseline()
    pool.seed_random(RANDOM_VARIANTS)
    return [entry.sql for entry in pool.entries()]


@pytest.fixture(scope="module")
def corpora() -> list[tuple[Database, list[str]]]:
    tpch = Database("verdict-tpch")
    populate_tpch(tpch, scale_factor=0.0003)
    generator = QueryGenerator(random.Random(FUZZ_SEED))
    return [
        (_fuzz_database(), [generator.query() for _ in range(FUZZ_ITERATIONS)]),
        (tpch, [QUERIES[number] for number in sorted(QUERIES)]
         + [sql for number in (1, 6, 14) for sql in _pool_texts(number)]
         + HAND_WRITTEN),
    ]


@pytest.mark.parametrize("compile_expressions", [True, False])
@pytest.mark.parametrize("engine_class", [RowEngine, ColumnEngine])
def test_a_text_that_prepares_is_never_refused_by_execute(corpora, engine_class,
                                                          compile_expressions):
    refused: dict[str, int] = {}
    for database, texts in corpora:
        engine = engine_class(
            database, options=EngineOptions(compile_expressions=compile_expressions))
        # the database's cache holds the plans of the engines before: empty it
        engine.clear_plan_cache()
        for sql in texts:
            cached = engine.cache_stats()
            try:
                plan = engine.prepare(sql)
            except REFUSALS as verdict:
                refused[type(verdict).__name__] = refused.get(type(verdict).__name__, 0) + 1
                assert error_kind(verdict) in VERDICT_KINDS
                # the same class and message from execute(sql), and nothing cached
                with pytest.raises(type(verdict)) as again:
                    engine.execute(sql)
                assert str(again.value) == str(verdict), sql
                now = engine.cache_stats()
                assert (now["size"], now["evictions"], now["hits"]) \
                    == (cached["size"], cached["evictions"], cached["hits"]), sql
                continue
            try:
                engine.execute(plan)
            except REFUSALS as late:
                raise AssertionError(
                    f"{engine.label} prepared, then refused in execute "
                    f"({type(late).__name__}: {late}): {sql}") from late
    # the property is not vacuous: each class of refusal was met
    assert set(refused) == {"PlanError", "SQLSyntaxError", "CatalogError"}
    assert refused["PlanError"] >= 8


#: over ``a(k, x)`` and ``b(k, y)``: an unqualified ``k`` names a column of
#: both bindings.  The row engine let the first binding win, the column
#: engine refused the first two in ``execute`` and picked ``a.k`` in the third.
AMBIGUOUS = [
    "select k from a, b where a.k = b.k",
    "select sum(k) from a, b where a.k = b.k",
    "select x from a, b where k = 1",
    "select a.x from a join b on k = b.y",
    "select count(*) from a, b where a.k = b.k group by k",
    "select count(*) from a, b where a.k = b.k group by a.x having max(k) > 0",
]
#: what stays unambiguous: qualified names, an ORDER BY naming an output
#: column, and a correlated subquery's own column before the outer one.
UNAMBIGUOUS = [
    "select a.k, b.y from a, b where a.k = b.k",
    "select a.k as k from a, b where a.k = b.k order by k",
    "select x from a where exists (select 1 from b where k = x)",
    "select x, y from a, b where a.k = b.k and x < y",
]


@pytest.fixture(scope="module")
def two_tables() -> Database:
    database = Database("ambiguous")
    database.create_table("a", [("k", "int"), ("x", "int")])
    database.create_table("b", [("k", "int"), ("y", "int")])
    database.insert_rows("a", [(1, 1), (2, 3), (3, 9)])
    database.insert_rows("b", [(1, 5), (3, 7)])
    return database


@pytest.mark.parametrize("sql", AMBIGUOUS)
def test_an_ambiguous_column_name_is_refused_by_prepare(two_tables, sql):
    """SQLite refuses each text ("ambiguous column name: k"); so does
    ``prepare`` on both engines, as a ``plan`` verdict, caching nothing."""
    with pytest.raises(sqlite3.OperationalError, match="ambiguous column name: k"):
        sqlite_rows(sqlite_mirror(two_tables), sql)
    for engine_class in (RowEngine, ColumnEngine):
        for compiled in (True, False):
            engine = engine_class(two_tables,
                                  options=EngineOptions(compile_expressions=compiled))
            cached = engine.cache_stats()["size"]  # the database's, shared
            with pytest.raises(PlanError, match="ambiguous column name: k") as refused:
                engine.prepare(sql)
            assert error_kind(refused.value) == "plan"
            assert engine.cache_stats()["size"] == cached


#: a SUM or AVG of a date adds day numbers: the row engine raised a bare
#: ``TypeError`` (int + date), the column engine summed the day ordinals
#: (13 967 001 for ``o_orderdate`` at SF 0.001).  MIN, MAX and COUNT of one
#: are dates, an int.
DATE_SUMS = [
    "select sum(d) from e",
    "select avg(d) from e",
    "select k, sum(d + interval '1' day) from e group by k",
    "select k from e group by k having avg(d) > 0",
    "select sum(distinct d) from e",
    "select sum(x) from (select d as x from e) t",
]
DATE_FOLDS = "select k, min(d), max(d), count(d), count(distinct d) from e group by k order by k"


@pytest.fixture(scope="module")
def dates() -> Database:
    database = Database("dates")
    database.create_table("e", [("k", "int"), ("d", "date")])
    database.insert_rows("e", [(1, "1995-03-15"), (1, "1996-01-02"), (2, None),
                               (2, "1992-12-31")])
    return database


@pytest.mark.parametrize("sql", DATE_SUMS)
def test_a_sum_of_dates_is_refused_by_prepare(dates, sql):
    for engine_class in (RowEngine, ColumnEngine):
        for compiled in (True, False):
            engine = engine_class(dates, options=EngineOptions(compile_expressions=compiled))
            cached = engine.cache_stats()["size"]  # the database's, shared
            with pytest.raises(PlanError, match="not defined over a date") as refused:
                engine.prepare(sql)
            assert error_kind(refused.value) == "plan"
            assert engine.cache_stats()["size"] == cached


def test_min_max_and_count_of_dates_still_answer(dates):
    expected = [(1, datetime.date(1995, 3, 15), datetime.date(1996, 1, 2), 2, 2),
                (2, datetime.date(1992, 12, 31), datetime.date(1992, 12, 31), 1, 1)]
    for engine_class in (RowEngine, ColumnEngine):
        for compiled in (True, False):
            engine = engine_class(dates, options=EngineOptions(compile_expressions=compiled))
            assert engine.execute(DATE_FOLDS).rows == expected


@pytest.mark.parametrize("sql", UNAMBIGUOUS)
def test_names_one_binding_holds_still_prepare(two_tables, sql):
    expected = sorted(sqlite_rows(sqlite_mirror(two_tables), sql))
    assert expected  # each control selects rows
    for engine_class in (RowEngine, ColumnEngine):
        assert sorted(engine_class(two_tables).execute(sql).rows) == expected, sql
