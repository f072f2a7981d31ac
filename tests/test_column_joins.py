"""The column engine's join access paths.

A join's build side is a :class:`~repro.engine.keys.KeyOrder`.  Over a base
table it is storage's (``Database.key_order``: built once per table version,
probed by every execution), over anything else it is built per execution;
which one a step takes follows from the plan and from exact row counts, never
from an option.  These tests pin the choice, its counters and EXPLAIN lines,
and that the rows are the row engine's either way.
"""

from __future__ import annotations

import pytest

from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine
from repro.tpch import QUERIES
from tests.conftest import normalise

#: bench/workloads.py's ``tpch-mix`` texts.
TPCH_MIX = (3, 5, 6, 7, 8, 9, 10, 12, 14)


def test_all_22_tpch_texts_match_the_row_engine_cold_and_warm(tpch_db):
    """Cold (orders built on the way) and warm (orders probed), every text
    returns the row engine's rows, in its order."""
    column, row = ColumnEngine(tpch_db), RowEngine(tpch_db)
    for number in sorted(QUERIES):
        expected = row.execute(QUERIES[number])
        plan = column.prepare(QUERIES[number])
        for state in ("cold", "warm"):
            result = column.execute(plan)
            assert result.columns == expected.columns, (number, state)
            assert normalise(result.rows) == normalise(expected.rows), (number, state)
        assert result.metrics.get("join.order_builds") == 0, number
        assert result.metrics.get("join.fallback_rows") == 0, number


@pytest.mark.parametrize("number", TPCH_MIX)
def test_benchmarked_texts_sort_no_unfiltered_base_table(tpch_db, number):
    engine = ColumnEngine(tpch_db)
    sides = [side for pipeline in engine.explain(QUERIES[number])["pipelines"]
             for side in pipeline["joins"]]
    assert not any(side["built"] for side in sides if side["table"])
    engine.execute(QUERIES[number])
    warm = engine.execute(QUERIES[number])
    assert warm.metrics.get("join.order_builds") == 0
    unfiltered = [side for side in sides if side["table"] and not side["filtered"]]
    assert warm.metrics.get("join.order_probes") >= len(unfiltered)


def test_explain_prints_the_access_path_of_every_join(tpch_db):
    engine = ColumnEngine(tpch_db)
    lines = [line for (line,) in engine.execute("explain " + QUERIES[7]).rows]
    # driven from n2, its two rows left: customer -> orders -> lineitem -> supplier -> n1
    assert "  join orders: order orders(o_custkey)" in lines
    assert "  join nation as n1: order nation(n_nationkey), selected rows only " \
           "(or their sort, by row counts)" in lines
    assert any(line.endswith("column pipeline over derived shipping") for line in lines)
    pipeline = engine.explain(
        "select count(*) from nation, (select s_nationkey as k from supplier) s, region "
        "where n_nationkey = s.k and n_name = r_name")["pipelines"][-1]  # the outer block
    assert [(side["source"], side["join"], side["built"]) for side in pipeline["joins"]] == [
        ("derived s", "sorted per execution on 1 key", True),
        ("region", "sorted per execution on 1 key", True)]  # string keys have no order


@pytest.fixture()
def parent_child() -> Database:
    database = Database("access-paths")
    database.create_table("p", [("id", "int"), ("tag", "str")])
    database.create_table("c", [("id", "int"), ("p_id", "int"), ("v", "int")])
    database.insert_rows("p", [(number, "even" if number % 2 == 0 else "odd")
                               for number in range(1, 41)])
    # 10 children per parent 1..20; parents 21..40 have none; two NULL keys
    database.insert_rows("c", [(number, number % 20 + 1, number % 7)
                               for number in range(200)] + [(900, None, 0), (901, None, 1)])
    return database


def _counters(result) -> dict:
    return {name.removeprefix("join."): int(value)
            for name, value in result.metrics.snapshot().items()
            if name in ("join.order_probes", "join.order_builds", "join.build_rows")}


def test_three_build_choices_follow_the_row_counts(parent_child):
    """Unfiltered: the stored order.  Filtered: the stored order with the
    selected pairs kept while ``probe rows x indexed rows / distinct keys``
    stays under the selected rows, the selection sorted once it does not."""
    engine = ColumnEngine(parent_child)
    reference = RowEngine(parent_child, options=EngineOptions(
        hash_joins=False, compile_expressions=False))

    def run(sql: str) -> dict:
        engine.execute(sql)
        warm = engine.execute(sql)
        assert sorted(warm.rows) == sorted(reference.execute(sql).rows), sql
        return _counters(warm)

    join = "select p.id, c.id from p, c where p.id = c.p_id"
    assert run(join) == {"order_probes": 1}
    # 2 probe rows x 200 indexed / 20 keys = 20 pairs < 172 selected children
    assert run(join + " and p.id <= 2 and c.v > 0") == {"order_probes": 1}
    # a filter on c alone makes c the driving table: p's stored order is probed
    assert run(join + " and c.v > 0") == {"order_probes": 1}
    # all 40 of p selected: they reach all 200 indexed rows >= 172 selected, sort those
    assert run(join + " and p.id >= 1 and c.v > 0") == {"build_rows": 172}
    # exactly at the boundary the selection is sorted: 3 x 10 = 30 selected
    assert run(join + " and p.id <= 3 and c.id < 30") == {"build_rows": 30}
    assert run(join + " and p.id <= 3 and c.id < 31") == {"order_probes": 1}


def test_derived_tables_and_explicit_joins_sort_per_execution(parent_child):
    reference = RowEngine(parent_child, options=EngineOptions(
        hash_joins=False, compile_expressions=False))
    cases = [
        ("select p.id, d.n from p, (select p_id, count(*) as n from c group by p_id) d "
         "where p.id = d.p_id", ColumnEngine(parent_child), {"build_rows": 21}),
        ("select p.id, c.id from p left join c on p.id = c.p_id",
         ColumnEngine(parent_child), {"build_rows": 202}),
        # interpreted predicates refine the same selections: the same choices
        ("select p.id, c.id from p, c where p.id = c.p_id and p.id >= 1 and c.v > 0",
         ColumnEngine(parent_child, options=EngineOptions(compile_expressions=False)),
         {"build_rows": 172}),
        ("select p.id, c.id from p, c where p.id = c.p_id and p.id < 5",
         ColumnEngine(parent_child, options=EngineOptions(compile_expressions=False)),
         {"order_probes": 1}),
    ]
    for sql, engine, counters in cases:
        engine.execute(sql)
        warm = engine.execute(sql)
        assert sorted(warm.rows, key=repr) == sorted(reference.execute(sql).rows, key=repr)
        assert _counters(warm) == counters, sql


def test_join_span_counts_per_execution_builds_only(parent_child):
    engine = ColumnEngine(parent_child)
    probed = engine.execute("select count(*) from p, c where p.id = c.p_id", trace=True)
    assert probed.trace.find("join").attributes["build_rows"] == 0
    sorted_ = engine.execute("select count(*) from p, c where p.id = c.p_id and p.id >= 1 "
                             "and c.v > 0", trace=True)
    join = sorted_.trace.find("join")
    assert join.attributes["build_rows"] == 172
    # the order by name, the rows out of each level and the planner's estimate of them
    assert join.attributes["order"] == "p -> c"
    assert join.attributes["level_rows"] == [40, 171]  # one selected child has a NULL key
    assert join.attributes["estimated_rows"] == [40.0, 202.0]
