"""Scan windows: a selective driving scan reads a range of a stored key order.

The planner confines a block's driving base-table scan to the narrowest
interval its push-down conjuncts put on one int / date column
(``BlockPlan.window``) when the statistics say that is under half the table;
both engines then read the rows in that range through the column's
``KeyOrder`` -- in row order -- and do not evaluate the conjuncts the window
decides.  What can go wrong is an edge: an inclusive end read as exclusive, a
float constant rounded the wrong way, a NULL key let in, a row order that is
not the scan's, window rows kept on the plan past a mutation.  So the voters
here share no code with the window: stdlib SQLite over the same rows, the
plan with the window taken out.
"""

from __future__ import annotations

import datetime
import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import populate_tpch
from repro.engine import ColumnEngine, Database, EngineOptions, Planner, RowEngine
from repro.engine.keys import _Distinct, _Offset, build_order
from repro.engine.mask import Nullable
from repro.engine.types import date_to_ordinal
from repro.sqlparser.parser import parse_select
from repro.tpch import QUERIES
from tests.conftest import comparable, sqlite_mirror, sqlite_rows

ROWS = 240
FIRST_DAY = datetime.date(2020, 1, 1)


def _window_database() -> Database:
    """One table whose int and date columns carry NULLs and duplicates: ``x``
    dense (10..60: an offset-coded order), ``k`` sparse (multiples of 997: a
    rank-coded one), ``d`` 150 days; ``y`` floats that sum exactly."""
    rng = random.Random(20261002)
    database = Database("windows", chunk_rows=32)
    database.create_table("w", [("id", "int"), ("x", "int"), ("k", "int"), ("d", "date"),
                                ("y", "float"), ("s", "str")])
    words = ["alpha", "beta", "gamma", "abba", None]
    database.insert_rows("w", [
        (index,
         None if rng.random() < 0.15 else rng.randrange(10, 61),
         None if rng.random() < 0.15 else 997 * rng.randrange(1, 1000),
         None if rng.random() < 0.15
         else (FIRST_DAY + datetime.timedelta(days=rng.randrange(150))).isoformat(),
         None if rng.random() < 0.15 else rng.randrange(0, 160) / 4.0,
         rng.choice(words))
        for index in range(ROWS)])
    return database


@pytest.fixture(scope="module")
def window_db() -> Database:
    return _window_database()


def _window(database: Database, sql: str, **options):
    planner = Planner(database.catalog, **options)
    return planner.plan(parse_select(sql)).root.window


# ---------------------------------------------------------------------------
# the decision
# ---------------------------------------------------------------------------


class TestTheDecision:
    def test_constants_fold_exactly_onto_the_integer_scale(self, window_db):
        cases = {
            "x < 20": (None, 20), "x <= 20": (None, 21), "x > 50": (51, None),
            "x >= 50": (50, None), "x = 33": (33, 34), "x between 12 and 15": (12, 16),
            "12 >= x": (None, 13), "58 < x": (59, None),
            # an int column against a float constant
            "x < 20.5": (None, 21), "x <= 20.5": (None, 21), "x < 20.0": (None, 20),
            "x > 49.5": (50, None), "x >= 49.5": (50, None), "x > 50.0": (51, None),
            "x between 11.5 and 14.5": (12, 15), "x = 33.0": (33, 34),
            # conjuncts intersect, at any depth of AND
            "x >= 12 and x < 40 and x > 14 and x <= 17": (15, 18),
            "(x >= 12 and (x < 16 and x <> 13))": (12, 16),
            # empty and inverted intervals are windows of no rows
            "x = 33.5": (34, 34), "x > 20 and x < 15": (21, 15), "x < 12 and x = 40": (40, 12),
        }
        for where, (low, high) in cases.items():
            window = _window(window_db, f"select id from w where {where}")
            assert window is not None, where
            assert (window.column, window.low, window.high) == ("x", low, high), where
            assert window.position == 1

    def test_dates_against_literals_strings_and_intervals(self, window_db):
        march, april = date_to_ordinal("2020-03-01"), date_to_ordinal("2020-04-01")
        for where in ("d >= date '2020-03-01' and d < date '2020-04-01'",
                      "d >= '2020-03-01' and d < '2020-04-01'",
                      "d between date '2020-03-01' and date '2020-03-31'",
                      "d >= date '2020-03-01' and d < date '2020-03-01' + interval '1' month",
                      "d > date '2020-03-01' - interval '1' day and '2020-04-01' > d"):
            window = _window(window_db, f"select id from w where {where}")
            assert (window.column, window.low, window.high) == ("d", march, april), where
            assert window.interval() == "d [2020-03-01, 2020-04-01)"
        # what does not compare with a date is the loop's to evaluate (and refuse)
        assert _window(window_db, "select id from w where d < 5") is None
        assert _window(window_db, "select id from w where d < 'soon'") is None

    def test_what_stays_a_predicate_of_the_loop(self, window_db):
        for where in ("x < 20 or x > 55", "not (x >= 20)", "x in (11, 12)", "x <> 12",
                      "x < id", "y < 2.5", "s = 'alpha'", "x + 1 < 20", "x is null",
                      "x not between 12 and 60", "x < null"):
            assert _window(window_db, f"select id from w where {where}") is None, where
        # conjuncts of other shapes ride along: only the interval's are subsumed
        window = _window(window_db, "select id from w where x < 20 and y > 5 and x >= 12 "
                                    "and (x < 30 or s = 'beta')")
        assert (window.low, window.high) == (12, 20) and len(window.subsumed) == 2

    def test_the_rule_is_under_half_the_table_by_the_statistics(self, window_db):
        statistics = window_db.catalog.table_statistics("w")
        assert statistics.row_count == ROWS
        taken = _window(window_db, "select id from w where x < 30")
        assert taken is not None and taken.estimated_rows < ROWS / 2
        assert taken.table_rows == ROWS
        for where in ("x < 45", "x >= 10", "d <= date '2020-05-01'", "x between 10 and 60"):
            assert _window(window_db, f"select id from w where {where}") is None, where

    def test_the_narrowest_estimate_wins_ties_go_to_column_order(self, window_db):
        both = "select id from w where x < 30 and d >= date '2020-05-20'"
        assert _window(window_db, both).column == "d"  # 10 of 150 days against 20 of 51 values
        assert _window(window_db, both + " and x < 12").column == "x"
        # neither estimated to hold a row: the column the table lists first
        assert _window(window_db, "select id from w where k < 0 and x < 0").column == "x"
        assert _window(window_db, "select id from w where d < '1999-01-01' and k < 0"
                       ).column == "k"

    def test_only_the_driving_base_table_of_a_pushdown_plan_has_one(self, window_db):
        assert _window(window_db, "select id from w where x < 20",
                       predicate_pushdown=False) is None
        assert _window(window_db, "select id from (select id, x from w) as v where x < 20") \
            is None
        planner = Planner(window_db.catalog)
        nested = planner.plan(parse_select(
            "select id from (select id, x from w where x < 20) as v"))
        (inner,) = [block for block in nested.blocks.values() if block is not nested.root]
        assert inner.window is not None and nested.root.window is None
        # a join: the window is the driving item's, whichever the text lists first
        database = _window_database()
        database.create_table("tiny", [("id", "int")])
        database.insert_rows("tiny", [(index,) for index in range(0, 40, 4)])
        database.create_table("big", [("id", "int")])
        database.insert_rows("big", [(index,) for index in range(2000)])
        planner = Planner(database.catalog)
        root = planner.plan(parse_select(
            "select w.id from big, w where big.id = w.id and w.x = 11")).root
        assert root.join_names()[0] == "w" and root.window.column == "x"
        root = planner.plan(parse_select(
            "select w.id from w, tiny where tiny.id = w.id and w.x = 11 and tiny.id > 2")).root
        assert root.join_names()[0] == "tiny" and root.window is None  # w is probed
        root = planner.plan(parse_select(
            "select w.id from w, tiny where tiny.id = w.id and w.x = 11 and tiny.id = 8")).root
        assert root.join_names()[0] == "tiny"
        assert (root.window.column, root.window.table_rows) == ("id", 10)

    def test_an_empty_table_has_no_window(self):
        database = Database("empty")
        database.create_table("e", [("x", "int")])
        assert _window(database, "select x from e where x < 5") is None
        assert RowEngine(database).execute("select count(*) from e where x < 5").rows == [(0,)]


# ---------------------------------------------------------------------------
# an outside voter: sqlite over the same rows
# ---------------------------------------------------------------------------


def _constant(rng: random.Random, column: str) -> str:
    """A constant for ``column``: inside its values, below and above them."""
    if column == "d":
        day = FIRST_DAY + datetime.timedelta(days=rng.choice(
            [-400, -1, 0, 30, 60, 75, 90, 149, 150, 600]))
        return rng.choice(["date '{}'", "'{}'"]).format(day.isoformat())
    if column == "k":
        return str(rng.choice([-5, 0, 997, 99_700, 99_701, 500_000, 997_000, 10 ** 7]))
    return str(rng.choice([-3, 0, 9, 10, 11, 20, 20.5, 33, 33.0, 47.25, 59, 60, 61, 1000]))


def _range_conjunct(rng: random.Random, column: str) -> str:
    form = rng.randrange(7)
    low, high = _constant(rng, column), _constant(rng, column)
    if form == 0:
        return f"{column} between {low} and {high}"
    if form == 1:
        return f"{column} = {low}"
    if form == 2:
        return f"{low} {rng.choice(['<', '<=', '>', '>='])} {column}"
    return f"{column} {rng.choice(['<', '<=', '>', '>='])} {low}"


def _where(rng: random.Random) -> str:
    column = rng.choice(["x", "k", "d"])
    conjuncts = [_range_conjunct(rng, column) for _ in range(rng.choice([1, 2, 2, 3]))]
    if rng.random() < 0.3:  # a second bounded column: the narrower window wins
        conjuncts.append(_range_conjunct(rng, rng.choice(["x", "k", "d"])))
    if rng.random() < 0.4:  # what no window decides
        conjuncts.append(rng.choice(["y >= 10", "s = 'alpha'", "s is not null", "x <> 20",
                                     "y is null", "s like 'a%'"]))
    if rng.random() < 0.15:  # a disjunction is no interval
        conjuncts.append(f"({_range_conjunct(rng, column)} or {_range_conjunct(rng, 'x')})")
    rng.shuffle(conjuncts)
    return " and ".join(conjuncts)


SHAPES = ("select count(*) from w where {}", "select sum(x), sum(y), min(d) from w where {}",
          "select id from w where {} limit 3", "select id, x, k, d from w where {}")


def test_windowed_rows_equal_the_column_scan_and_sqlite(window_db):
    """Open, closed, empty and inverted intervals, ``=``, ``BETWEEN``, an int
    column against float constants, dates against strings, bounds beyond both
    ends of the values, windows with company and disjunctions without one:
    count, sums and -- in scan order, what an un-ordered ``LIMIT`` shows --
    the rows themselves."""
    connection = sqlite_mirror(window_db)
    row, column = RowEngine(window_db), ColumnEngine(window_db)
    interpreted = RowEngine(window_db, options=EngineOptions(compile_expressions=False))
    rng = random.Random(20)
    windowed = scanned = empty = 0
    for iteration in range(240):
        sql = SHAPES[iteration % len(SHAPES)].format(_where(rng))
        expected = sqlite_rows(connection, sql)
        result = row.execute(sql)
        assert comparable(result.rows) == expected, (iteration, sql)
        assert comparable(column.execute(sql).rows) == expected, (iteration, sql)
        assert comparable(interpreted.execute(sql).rows) == expected, (iteration, sql)
        if result.metrics.get("scan.window_probes"):
            windowed += 1
            empty += result.metrics.get("scan.rows_visited") == 0
            assert result.metrics.get("scan.rows_visited") < ROWS / 2 + 40, sql
        else:
            scanned += 1
            assert result.metrics.get("scan.rows_visited") == ROWS, sql
    # both sides of the rule were exercised, windows of no rows among them
    assert windowed > 100 and scanned > 30 and empty > 20, (windowed, scanned, empty)


# ---------------------------------------------------------------------------
# storage: a key order answers a range
# ---------------------------------------------------------------------------


def _bound():
    return st.one_of(st.none(), st.integers(-40, 40), st.integers(-2 ** 70, 2 ** 70))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.one_of(st.none(), st.integers(-15, 15)), max_size=60),
                 st.lists(st.one_of(st.none(), st.integers(-2 ** 40, 2 ** 40),
                                    st.integers(-40, 40)), max_size=30)),
       _bound(), _bound())
def test_range_rows_are_the_rows_a_mask_over_the_column_keeps(values, low, high):
    """Dense values (an offset coder), sparse ones (ranks among the distinct
    values), NULLs, an empty table and an all-NULL column: the ascending rows
    whose key lies in ``[low, high)``; a NULL key is in no range."""
    valid = np.array([value is not None for value in values], dtype=bool)
    data = np.array([0 if value is None else value for value in values], dtype=np.int64)
    order = build_order([data if valid.all() else Nullable(data, valid)])
    expected = [index for index, value in enumerate(values)
                if value is not None and (low is None or value >= low)
                and (high is None or value < high)]
    got = order.range_rows(low, high)
    assert got.dtype == np.int64 and got.tolist() == expected


def test_both_coders_answer_ranges():
    dense = build_order([np.array([5, 3, 3, 9, 4, 5, 8, 7, 6, 3], dtype=np.int64)])
    sparse = build_order([np.array([500, 3, 3, 9_000, 4, 500], dtype=np.int64)])
    assert isinstance(dense.steps[0][0], _Offset) and isinstance(sparse.steps[0][0], _Distinct)
    assert dense.range_rows(3, 6).tolist() == [0, 1, 2, 4, 5, 9]
    assert sparse.range_rows(4, 9_000).tolist() == [0, 4, 5]
    assert sparse.range_rows(501, 9_000).tolist() == []
    for order in (dense, sparse):
        assert order.range_rows(None, None).tolist() == list(range(order.rows))
        assert order.range_rows(7, 7).tolist() == order.range_rows(9, 3).tolist() == []
    nothing = build_order([np.empty(0, dtype=np.int64)])
    nulls = build_order([Nullable(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=bool))])
    assert nothing.range_rows(None, None).tolist() == nulls.range_rows(-1, 1).tolist() == []
    with pytest.raises(ValueError):  # a value order is an order over one column
        build_order([np.arange(3), np.arange(3)]).range_rows(0, 1)


# ---------------------------------------------------------------------------
# the row engine reads it
# ---------------------------------------------------------------------------


class TestTheRowEngine:
    def test_a_row_inserted_into_the_window_is_in_the_next_answer(self):
        database = _window_database()
        engine = RowEngine(database)
        plan = engine.prepare("select id, x from w where x >= 12 and x < 15 and y is not null")
        cold = engine.execute(plan)
        assert cold.metrics.get("scan.order_builds") == 1
        assert cold.metrics.get("join.order_builds") == 0  # the joins' own counter
        warm = engine.execute(plan)
        assert warm.rows == cold.rows and warm.metrics.get("scan.order_builds") == 0
        assert [order["columns"] for order in database.size_summary()["w"]["orders"]] == [["x"]]
        database.insert_rows("w", [(1000, 13, None, None, 1.0, None),
                                   (1001, 15, None, None, 1.0, None),
                                   (1002, None, None, None, 1.0, None)])
        assert database.size_summary()["w"]["orders"] == []  # dropped with the version
        after = engine.execute(plan)  # the same prepared plan
        assert after.rows == warm.rows + [(1000, 13)]
        assert after.metrics.get("scan.order_builds") == 1
        assert after.metrics.get("scan.rows_visited") == warm.metrics.get("scan.rows_visited") + 1

    def test_the_generated_loop_drops_the_conjuncts_the_window_decides(self, window_db):
        engine = RowEngine(window_db)
        sql = "select id from w where x >= 12 and x < 15 and y is not null"
        (pipeline,) = engine.explain(sql)["pipelines"]
        assert pipeline["window"] == "x [12, 15)"
        assert "12" not in pipeline["source"] and "15" not in pipeline["source"]
        assert "is not None" in pipeline["source"]  # y is not null is still the loop's
        unwindowed = RowEngine(window_db, options=EngineOptions(predicate_pushdown=False))
        (pipeline,) = unwindowed.explain(sql)["pipelines"]
        assert pipeline["window"] is None and "15" in pipeline["source"]

    @pytest.mark.parametrize("options", [
        EngineOptions(compile_expressions=False), EngineOptions(hash_joins=False),
        EngineOptions(compile_expressions=False, hash_joins=False)])
    def test_the_window_is_the_plans_whatever_runs_it(self, options):
        database = _window_database()
        database.create_table("tiny", [("id", "int"), ("tag", "str")])
        database.insert_rows("tiny", [(index, f"t{index}") for index in range(0, ROWS, 3)])
        reference = RowEngine(database, options=EngineOptions(predicate_pushdown=False))
        engine = RowEngine(database, options=options)
        for sql in ("select id, x, d from w where d >= date '2020-02-01' and d < '2020-02-20' "
                    "and y > 3",
                    "select w.id, tag from w, tiny where w.id = tiny.id and x between 20 and 24",
                    "select count(*), sum(y) from w where k = 99700 or k is null",
                    "select id from w where x > 70"):
            plan = engine.prepare(sql)
            expected = reference.execute(sql)
            assert reference.prepare(sql).root.window is None
            assert expected.metrics.get("scan.window_probes") == 0
            result = engine.execute(plan)
            assert result.rows == expected.rows, sql
            windowed = plan.root.window is not None
            assert windowed == (" or " not in sql), sql
            assert result.metrics.get("scan.window_probes") == int(windowed), sql

    def test_explain_names_the_access_path_and_the_trace_the_rows_visited(self, window_db):
        engine = RowEngine(window_db)
        sql = "select count(*) from w where x >= 12 and x < 15 and y is not null"
        text = "\n".join(line for (line,) in engine.execute("explain " + sql).rows)
        assert "Scan w (window x [12, 15), est. " in text
        assert f"of {ROWS} rows; pushdown: 1 more predicate)" in text
        described = engine.explain(sql)["plan"]["window"]
        assert described["interval"] == "x [12, 15)" and described["subsumed"] == 2
        assert described["table_rows"] == ROWS
        # the column engine reads the window too, and its EXPLAIN says so
        column = ColumnEngine(window_db)
        column_text = "\n".join(line for (line,) in column.execute("explain " + sql).rows)
        assert "Scan w (window x [12, 15), est. " in column_text
        assert f"of {ROWS} rows; pushdown: 1 more predicate)" in column_text
        assert "column pipeline over w, window x [12, 15)" in column_text
        traced = engine.execute(sql, trace=True)
        scan = traced.trace.find("scan")
        inside = sum(1 for row in window_db.rows("w") if row[1] is not None and 12 <= row[1] < 15)
        assert scan.attributes["access"] == "window" and scan.attributes["window"] == "x [12, 15)"
        assert scan.rows_in == inside == traced.metrics.get("scan.rows_visited")
        assert scan.rows_out == traced.rows[0][0] <= inside
        assert traced.metrics.get("scan.window_probes") == 1
        assert traced.profile()["counters"]["scan.rows_visited"] == inside
        column_scan = column.execute(sql, trace=True).trace.find("scan")
        assert column_scan.attributes["access"] == "window"
        assert column_scan.attributes["window"] == "x [12, 15)"
        assert column_scan.rows_in == inside and column_scan.rows_out == scan.rows_out


class TestTheColumnEngine:
    def test_a_row_inserted_into_the_window_is_in_the_next_answer(self):
        """The window's rows are the plan's: warm, nothing is rebuilt; after
        an insert into the range the next execution rebuilds them -- in
        place, one state per block -- and sees the new row."""
        database = _window_database()
        engine = ColumnEngine(database)
        sql = "select id, x from w where x >= 12 and x < 15 and y is not null"
        plan = engine.prepare(sql)  # builds the order and the scan state
        warm = engine.execute(plan)
        assert warm.metrics.get("scan.order_builds") == 0
        [start] = engine.driving_scans(plan)
        assert start["access"] == "window x [12, 15)"
        inside = sum(1 for row in database.rows("w") if row[1] is not None and 12 <= row[1] < 15)
        assert start["rows"] == inside
        database.insert_rows("w", [(1000, 13, None, None, 1.0, None),
                                   (1001, 15, None, None, 1.0, None),
                                   (1002, None, None, None, 1.0, None)])
        assert engine.driving_scans(plan) == [None]  # stale until the plan runs
        after = engine.execute(plan)  # the same prepared plan
        assert after.rows == warm.rows + [(1000, 13)]
        assert after.metrics.get("scan.order_builds") == 1
        assert engine.driving_scans(plan)[0]["rows"] == inside + 1
        assert engine.execute(plan).metrics.get("scan.order_builds") == 0
        states = [key for key in plan._kernels if key[1:3] == ("col", "state")]
        assert len(states) == len(plan.blocks) == 1
        reference = ColumnEngine(database, options=EngineOptions(predicate_pushdown=False))
        assert after.rows == reference.execute(sql).rows

    def test_the_rows_a_scan_starts_from_are_the_windows_in_the_zone_gate(self):
        """Zone maps and a window together: the scan starts from the window's
        rows in the chunks the zone maps keep; the answer is the unwindowed
        plan's, bit for bit."""
        database = Database("clustered", chunk_rows=16)
        database.create_table("c", [("id", "int"), ("v", "float")])
        database.insert_rows("c", [(index, index / 8.0) for index in range(400)])
        engine = ColumnEngine(database)
        sql = "select count(*), sum(v) from c where id >= 40 and id < 120 and v < 10.0"
        plan = engine.prepare(sql)
        assert plan.root.window is not None
        result = engine.execute(plan)
        [start] = engine.driving_scans(plan)
        # the window holds ids 40..119; v < 10 refutes every chunk past id 79
        # (chunks 2..4 of 25 are left): 40..79
        assert start["rows"] == 40
        assert result.metrics.get("scan.chunks_scanned") == 3
        assert result.metrics.get("scan.chunks_skipped") == 22
        reference = ColumnEngine(database, options=EngineOptions(predicate_pushdown=False))
        assert repr(result.rows) == repr(reference.execute(sql).rows)


@pytest.mark.parametrize("engine_class", [RowEngine, ColumnEngine])
def test_an_execution_during_an_insert_keeps_no_window_past_it(engine_class, monkeypatch):
    """An execution that runs while an insert is under way -- ``mutations``
    already bumped, the rows not yet stored -- reads the rows as they were;
    what it keeps on the plan must not answer the next execution after the
    insert."""
    database = _window_database()
    engine = engine_class(database)
    sql = "select id, x from w where x >= 12 and x < 15 and y is not null"
    plan = engine.prepare(sql)
    before = engine.execute(plan).rows
    storage = database.storage("w")
    append = storage.append_columns
    during = []

    def append_after_an_execution(batches):
        during.append(engine.execute(plan).rows)
        return append(batches)

    monkeypatch.setattr(storage, "append_columns", append_after_an_execution)
    database.insert_rows("w", [(1000, 13, None, None, 1.0, None)])
    assert during == [before]
    assert engine.execute(plan).rows == before + [(1000, 13)]


def test_a_mutation_lets_go_of_the_arrays_the_plans_scan():
    """Plans that do not run again after an insert keep no array of the
    table as it was: the insert lets go of their scans."""
    database = _window_database()
    engine = ColumnEngine(database)
    plans = [engine.prepare(f"select id from w where x >= {low} and x < {low + 3}")
             for low in (12, 20, 30)]
    old = weakref.ref(database.columnar("w").columns["id"])
    assert all(engine.driving_scans(plan)[0] for plan in plans)
    database.insert_rows("w", [(1000, 13, None, None, 1.0, None)])
    database.columnar("w")  # the database's own view moves on
    gc.collect()
    assert old() is None
    assert engine.execute(plans[0]).rows[-1] == (1000,)


# ---------------------------------------------------------------------------
# TPC-H: the same rows, bit for bit
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_windows() -> Database:
    database = Database("tpch-windows")
    populate_tpch(database, scale_factor=0.004)
    return database


def test_tpch_rows_are_those_of_the_unwindowed_scan(tpch_windows, monkeypatch):
    """All 22 texts at the ``tpch-mix`` scale factor: ``repr`` of the rows --
    float sums and ``LIMIT`` cuts included -- with the windows the planner
    takes and with every one of them taken out of the plan."""
    _unwindowed_parity(RowEngine, tpch_windows, monkeypatch)


def test_column_rows_are_those_of_the_unwindowed_scan(tpch_windows, monkeypatch):
    """The same on the column engine, whose driving scan starts from the
    window's rows wherever the plan has one."""
    _unwindowed_parity(ColumnEngine, tpch_windows, monkeypatch)


def _unwindowed_parity(engine_class, database: Database, monkeypatch) -> None:
    engine = engine_class(database)
    windowed, names = {}, {}
    for number, sql in QUERIES.items():
        plan = engine.prepare(sql)
        windowed[number] = repr(engine.execute(plan).rows)
        names[number] = [block.join_names() for block in plan.blocks.values()]
        if engine_class is ColumnEngine:  # a window the plan has is the column scan's
            accesses = [start["access"] for start in engine.driving_scans(plan) if start]
            assert sum(access.startswith("window") for access in accesses) == sum(
                block.window is not None for block in plan.blocks.values()), number
    have_one = {number for number, sql in QUERIES.items()
                if any(block.window for block in engine.prepare(sql).blocks.values())}
    assert {4, 6, 10, 12, 14, 15, 20} <= have_one and 1 not in have_one

    monkeypatch.setattr(Planner, "_scan_window", lambda self, *arguments: None)
    reference = engine_class(database)
    for number, sql in QUERIES.items():
        plan = reference.prepare(sql)
        assert all(block.window is None for block in plan.blocks.values())
        # the window changes what the driving scan reads, never the join order
        assert [block.join_names() for block in plan.blocks.values()] == names[number]
        result = reference.execute(plan)
        assert result.metrics.get("scan.window_probes") == 0
        assert repr(result.rows) == windowed[number], number
