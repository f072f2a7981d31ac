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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine
from repro.engine.compile import column_kernels
from repro.engine.executor_row import null_free_columns
from repro.tpch import QUERIES
from tests.conftest import normalise, sqlite_mirror, sqlite_rows

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


# ---------------------------------------------------------------------------
# join parity: column engine == row engine == SQLite, over random small tables
# ---------------------------------------------------------------------------

#: table ``t<i>`` has key columns ``k<i>`` (int), ``f<i>`` (float: 0.0 and
#: -0.0 are one key) and ``s<i>`` (str), each with NULLs and duplicates, and
#: a value ``v<i>``; every name is its table's alone, so none is ambiguous.
_ROWS = st.lists(st.tuples(st.sampled_from([None, 1, 2, 3]),
                           st.sampled_from([None, 0.0, -0.0, 1.5]),
                           st.sampled_from([None, "a", "b"]),
                           st.integers(0, 4)), max_size=6)
#: per join step, what its condition equates: one key column or two.
_KEYS = {"k": ("k",), "f": ("f",), "s": ("s",), "ks": ("k", "s")}


def _equal(left: int, right: int, key: str) -> str:
    return " and ".join(f"t{left}.{column}{left} = t{right}.{column}{right}"
                        for column in _KEYS[key])


@st.composite
def _join_cases(draw) -> tuple[list[list[tuple]], str]:
    width = draw(st.integers(2, 4))
    tables = [draw(_ROWS) for _ in range(width)]
    # each table after the first joins one before it: chains and stars
    links = [(draw(st.integers(0, index - 1)), index, draw(st.sampled_from(sorted(_KEYS))))
             for index in range(1, width)]
    shape = draw(st.sampled_from(["inner", "left", "group"]))
    values = ", ".join(f"t{index}.{draw(st.sampled_from(['v', 'k', 's']))}{index}"
                       for index in range(width))
    if shape == "left":
        # explicit LEFT JOINs, a residual ON predicate on some of them
        source = "t0" + "".join(
            f" left join t{index} on {_equal(parent, index, key)}"
            + (f" and t{index}.v{index} > 1" if draw(st.booleans()) else "")
            for parent, index, key in links)
        return tables, f"select {values} from {source}"
    where = " and ".join(_equal(parent, index, key) for parent, index, key in links)
    if draw(st.booleans()):  # a filtered scan: joined through its selection
        filtered = draw(st.integers(0, width - 1))
        where += f" and t{filtered}.v{filtered} >= {draw(st.integers(0, 3))}"
    source = ", ".join(f"t{index}" for index in range(width))
    if shape == "group":
        last = width - 1
        return tables, (f"select t0.k0, count(*), sum(t{last}.v{last}), min(t1.s1) "
                        f"from {source} where {where} group by t0.k0")
    return tables, f"select {values} from {source} where {where}"


def _unordered(rows) -> list[tuple]:
    """``rows`` as a multiset: sorted, -0.0 sorting as 0.0 (it equals it)."""
    return sorted(rows, key=lambda row: repr(tuple(
        value + 0.0 if isinstance(value, float) else value for value in row)))


@given(case=_join_cases())
@settings(max_examples=120, deadline=None)
def test_joins_answer_what_the_row_engine_and_sqlite_answer(case):
    """Inner joins as the planner schedules them and explicit LEFT JOINs with
    a residual ON predicate, two- to four-way, over int / float / string and
    two-column keys with NULLs, duplicates, empty tables and a signed zero,
    and a GROUP BY over the join: the column engine, compiled or not, gives
    the row engine's rows, and both give SQLite's."""
    tables, sql = case
    database = Database("join-parity")
    for index, rows in enumerate(tables):
        database.create_table(f"t{index}", [(f"k{index}", "int"), (f"f{index}", "float"),
                                            (f"s{index}", "str"), (f"v{index}", "int")])
        database.insert_rows(f"t{index}", rows)
    expected = _unordered(RowEngine(database).execute(sql).rows)
    assert expected == _unordered(sqlite_rows(sqlite_mirror(database), sql)), sql
    for compiled in (True, False):
        engine = ColumnEngine(database, options=EngineOptions(compile_expressions=compiled))
        plan = engine.prepare(sql)
        for _ in range(2):  # cold, then warm
            assert _unordered(engine.execute(plan).rows) == expected, (compiled, sql)


def test_a_null_an_insert_brings_re_picks_the_kernel_flavour():
    """A warm column plan runs the kernels lowered for its scans' NULL-free
    columns; an insert that brings a NULL into a scanned table makes the next
    execution lower them again for the smaller set, and it answers what the
    row engine and SQLite answer.  The residual ``t.s <> 'a'`` is UNKNOWN on
    the NULL row -- the NULL-free flavour would have called it TRUE."""
    database = Database("null-flavour")
    database.create_table("t", [("id", "int"), ("s", "str"), ("x", "float")])
    database.create_table("u", [("id", "int"), ("y", "int")])
    database.insert_rows("t", [(number, "ab"[number % 2], number / 2) for number in range(8)])
    database.insert_rows("u", [(number, number % 3) for number in range(8)])
    sql = ("select count(*), sum(u.y) from t, u "
           "where t.id = u.id and (t.s <> 'a' or u.y > 1) and t.x < 3.5")
    engine = ColumnEngine(database)
    plan = engine.prepare(sql)
    block = plan.root

    def flavour():
        tables = engine._executor(plan).state(block).tables.current(database)
        return None if tables is None else tables.kernels

    engine.execute(plan)
    null_free = null_free_columns(database, block)
    assert null_free == ((0, 1, 2), (0, 1))
    assert flavour() is column_kernels(plan, block, null_free=null_free)
    database.insert_rows("t", [(8, None, 1.0), (9, "b", None)])
    database.insert_rows("u", [(8, 1), (9, 2)])
    result = engine.execute(plan)
    assert null_free_columns(database, block) == ((0,), (0, 1))
    assert flavour() is column_kernels(plan, block, null_free=((0,), (0, 1)))
    # rows 1, 2, 3 and 5 pass; row 8 is UNKNOWN on both sides of the OR
    assert result.rows == RowEngine(database).execute(sql).rows \
        == sqlite_rows(sqlite_mirror(database), sql) == [(4, 5)]
