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

import random

import pytest

from repro.data import populate_tpch
from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine
from repro.errors import CatalogError, PlanError, SQLError, VERDICT_KINDS, error_kind
from repro.pool.pool import QueryPool
from repro.sqlparser import extract_grammar
from repro.tpch import QUERIES
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
