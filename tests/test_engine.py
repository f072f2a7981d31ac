"""Tests for the relational engine substrate (catalog, storage, both executors)."""

import datetime
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine, create_engine
from repro.errors import CatalogError, EngineError, ExecutionError, SQLSyntaxError
from repro.tpch import QUERIES
from tests.conftest import normalise


@pytest.fixture()
def small_db() -> Database:
    database = Database("unit")
    database.create_table("t", [("id", "int"), ("name", "str"), ("price", "float"),
                                ("day", "date")])
    database.insert_rows("t", [
        (1, "alpha", 10.0, "2020-01-01"),
        (2, "beta", 20.0, "2020-02-01"),
        (3, "gamma", 30.0, "2020-03-01"),
        (4, "alpha", 40.0, "2020-04-01"),
    ])
    database.create_table("u", [("id", "int"), ("t_id", "int"), ("tag", "str")])
    database.insert_rows("u", [(1, 1, "x"), (2, 1, "y"), (3, 3, "z")])
    return database


@pytest.fixture(params=["row", "column"])
def engine(request, small_db):
    return create_engine(request.param, small_db)


class TestCatalogAndStorage:
    def test_create_and_row_count(self, small_db):
        assert small_db.row_count("t") == 4
        assert set(small_db.table_names()) == {"t", "u"}

    def test_duplicate_table_rejected(self, small_db):
        with pytest.raises(CatalogError):
            small_db.create_table("t", [("x", "int")])

    def test_unknown_table_rejected(self, small_db):
        with pytest.raises(CatalogError):
            small_db.rows("missing")

    def test_bad_type_rejected(self, small_db):
        with pytest.raises(CatalogError):
            small_db.create_table("bad", [("x", "uuid")])

    def test_wrong_arity_rejected(self, small_db):
        with pytest.raises(ExecutionError):
            small_db.insert_rows("u", [(1, 2)])

    def test_values_coerced_to_declared_types(self, small_db):
        row = small_db.rows("t")[0]
        assert isinstance(row[3], datetime.date)

    def test_columnar_view_cached_and_typed(self, small_db):
        view = small_db.columnar("t")
        assert view.length == 4
        assert view.columns["price"].dtype.kind == "f"
        assert small_db.columnar("t") is view

    def test_unknown_engine_kind_rejected(self, small_db):
        with pytest.raises(EngineError):
            create_engine("graph", small_db)


class TestBasicQueries:
    def test_projection_and_filter(self, engine):
        result = engine.execute("select name, price from t where price > 15 order by price")
        assert result.columns == ["name", "price"]
        assert [row[0] for row in result.rows] == ["beta", "gamma", "alpha"]

    def test_star_projection(self, engine):
        result = engine.execute("select * from t where id = 2")
        assert len(result.rows) == 1 and len(result.rows[0]) == 4

    def test_arithmetic_and_alias(self, engine):
        result = engine.execute("select price * 2 as doubled from t where id = 1")
        assert result.scalar() == pytest.approx(20.0)

    def test_aggregates(self, engine):
        result = engine.execute(
            "select count(*), sum(price), avg(price), min(price), max(price) from t")
        assert normalise(result.rows) == [(4, 100.0, 25.0, 10.0, 40.0)]

    def test_group_by_and_having(self, engine):
        result = engine.execute(
            "select name, count(*) as n, sum(price) as total from t "
            "group by name having count(*) > 1 order by name")
        assert normalise(result.rows) == [("alpha", 2, 50.0)]

    def test_count_distinct(self, engine):
        result = engine.execute("select count(distinct name) from t")
        assert result.scalar() == 3

    def test_join(self, engine):
        result = engine.execute(
            "select t.name, u.tag from t, u where t.id = u.t_id order by tag")
        assert result.rows == [("alpha", "x"), ("alpha", "y"), ("gamma", "z")]

    def test_left_join_keeps_unmatched(self, engine):
        result = engine.execute(
            "select t.id, count(u.id) as tags from t left join u on t.id = u.t_id "
            "group by t.id order by t.id")
        assert result.rows == [(1, 2), (2, 0), (3, 1), (4, 0)]

    def test_date_comparison_and_interval(self, engine):
        result = engine.execute(
            "select count(*) from t where day >= date '2020-01-01' + interval '1' month")
        assert result.scalar() == 3

    def test_between_like_in(self, engine):
        result = engine.execute(
            "select count(*) from t where price between 10 and 30 "
            "and name like '%a%' and id in (1, 2, 3, 4)")
        assert result.scalar() == 3

    def test_case_expression(self, engine):
        result = engine.execute(
            "select sum(case when name = 'alpha' then 1 else 0 end) from t")
        assert result.scalar() == 2

    def test_distinct(self, engine):
        result = engine.execute("select distinct name from t order by name")
        assert [row[0] for row in result.rows] == ["alpha", "beta", "gamma"]

    def test_limit_offset(self, engine):
        result = engine.execute("select id from t order by id limit 2 offset 1")
        assert [row[0] for row in result.rows] == [2, 3]

    def test_scalar_subquery(self, engine):
        result = engine.execute(
            "select count(*) from t where price > (select avg(price) from t)")
        assert result.scalar() == 2

    def test_in_subquery(self, engine):
        result = engine.execute(
            "select count(*) from t where id in (select t_id from u)")
        assert result.scalar() == 2

    def test_exists_correlated(self, engine):
        result = engine.execute(
            "select count(*) from t where exists (select * from u where u.t_id = t.id)")
        assert result.scalar() == 2

    def test_derived_table(self, engine):
        result = engine.execute(
            "select max(total) from (select name, sum(price) as total from t group by name) s")
        assert result.scalar() == pytest.approx(50.0)

    def test_empty_aggregate_returns_one_row(self, engine):
        result = engine.execute("select count(*), sum(price) from t where id > 100")
        assert result.rows[0][0] == 0
        assert result.rows[0][1] is None

    def test_syntax_error_propagates(self, engine):
        with pytest.raises(SQLSyntaxError):
            engine.execute("selectt 1")

    def test_explain_reports_strategy(self, engine):
        plan = engine.explain("select count(*) from t")
        assert plan["strategy"] in ("row", "column")
        assert plan["aggregated"] is True

    def test_result_helpers(self, engine):
        result = engine.execute("select id, name from t order by id")
        assert result.column("name")[0] == "alpha"
        assert result.as_dicts()[0] == {"id": 1, "name": "alpha"}
        assert len(result) == 4


class TestOrderingAndDelivery:
    """ORDER BY / OFFSET / LIMIT and the python values a result delivers."""

    @pytest.fixture()
    def sparse_db(self) -> Database:
        database = Database("sparse")
        database.create_table("s", [("id", "int"), ("grade", "str"), ("score", "float"),
                                    ("day", "date"), ("flag", "bool"), ("n", "int")])
        database.insert_rows("s", [
            (1, "b", 2.5, "2020-03-01", True, 7),
            (2, None, None, None, None, None),
            (3, "a", 2.5, "2020-01-01", False, 7),
            (4, "b", 1.0, None, True, 3),
            (5, None, 9.0, "2020-02-01", None, None),
            (6, "a", None, "2020-01-01", False, 3),
        ])
        return database

    @pytest.mark.parametrize("order_by,expected", [
        ("grade, id", [3, 6, 1, 4, 2, 5]),                # NULLs last ascending
        ("grade desc, id", [2, 5, 1, 4, 3, 6]),           # ... first descending
        ("score desc, day, id desc", [6, 2, 5, 3, 1, 4]),
        ("n, score desc, id", [6, 4, 1, 3, 2, 5]),
        ("flag desc, grade", [2, 5, 1, 4, 3, 6]),         # ties keep scan order
        ("2 desc, 1", [2, 5, 1, 4, 3, 6]),                # positions
    ])
    def test_order_by_null_placement_and_ties(self, sparse_db, order_by, expected):
        sql = f"select id, grade, score, day, flag, n from s order by {order_by}"
        for kind in ("row", "column"):
            rows = create_engine(kind, sparse_db).execute(sql).rows
            assert [row[0] for row in rows] == expected, f"{kind}: {order_by}"

    @pytest.mark.parametrize("tail,expected", [
        ("limit 2", [1, 2]), ("limit 2 offset 3", [4, 5]), ("offset 4", [5, 6]),
        ("limit 0", []), ("limit 10 offset 5", [6]), ("offset 9", []),
    ])
    def test_limit_and_offset_with_and_without_order(self, sparse_db, tail, expected):
        for kind in ("row", "column"):
            engine = create_engine(kind, sparse_db)
            assert [row[0] for row in engine.execute(
                f"select id from s {tail}").rows] == expected
            assert [row[0] for row in engine.execute(
                f"select id from s order by id {tail}").rows] == expected

    def test_delivered_values_are_plain_python(self, sparse_db):
        """Column-wise delivery hands out what the row engine holds: python
        scalars, ``datetime.date`` for dates, None for every NULL."""
        sql = "select id, grade, score, day, flag, n, n + 1 from s order by id"
        reference = create_engine("row", sparse_db).execute(sql).rows
        for compile_expressions in (True, False):
            engine = ColumnEngine(sparse_db, options=EngineOptions(
                compile_expressions=compile_expressions))
            rows = engine.execute(sql).rows
            assert rows == reference
            assert [[type(value) for value in row] for row in rows] == \
                [[type(value) for value in row] for row in reference]
        assert reference[0][3] == datetime.date(2020, 3, 1) and reference[1][3] is None

    @pytest.mark.parametrize("kind", ["row", "column"])
    def test_bad_sort_key_fails_before_any_scan(self, kind, small_db, monkeypatch):
        """ORDER BY is resolved against the select list before the first scan:
        a variant the morpher broke costs a PlanError, not a query."""
        from repro.errors import PlanError

        scanned = []
        for reader in ("rows", "columnar"):
            original = getattr(Database, reader)

            def spy(self, name, *args, _original=original, **kwargs):
                scanned.append(name)
                return _original(self, name, *args, **kwargs)

            monkeypatch.setattr(Database, reader, spy)
        engine = create_engine(kind, small_db)
        with pytest.raises(PlanError, match=r"ORDER BY expression 'price' is not "
                                            r"part of the select list"):
            engine.execute("select name, count(*) from t group by name order by price")
        assert scanned == []
        assert engine.execute("select name from t order by name limit 1").rows \
            == [("alpha",)]
        assert scanned  # the spy does see a query that runs


class TestComputedDates:
    """A date the select list *computes* -- not a bare column -- leaves the
    column engine as a ``datetime.date`` too: its type is the plan's to know
    (the array is ``int64`` day ordinals like any integer's).  Values and
    python types against the row engine, one morsel and four, compiled and
    interpreted."""

    @pytest.fixture(scope="class")
    def dated_db(self) -> Database:
        database = Database("dated", chunk_rows=8)
        database.create_table("a", [("id", "int"), ("x", "int"), ("d", "date")])
        start = datetime.date(2020, 1, 1)
        database.insert_rows("a", [
            (index, index % 4, None if index % 7 == 3
             else (start + datetime.timedelta(days=(index * 37) % 300)).isoformat())
            for index in range(40)])
        return database

    @pytest.mark.parametrize("sql", [
        "select max(a.d), min(a.d) from a",
        "select x, max(d) as latest from a group by x order by x",
        "select max(d) from a where id < 0",
        "select count(*) from a where d = (select max(d) from a)",
        "select id, d + interval '1' day, d - interval '2' month from a order by id",
        "select id, case when x > 1 then d else null end from a order by id",
        "select id, case when x > 1 then d when x = 0 then date '2021-01-01' end "
        "from a order by id",
        "select t.m, t.n from (select min(a.d) as m, count(*) as n from a) as t",
        "select min(t.d), max(t.e) from (select d, d + interval '1' day as e from a) as t",
        "select t.x, t.m + interval '1' day from (select x, min(d) as m from a group by x) "
        "as t order by t.x",
    ])
    def test_values_and_types_match_the_row_engine(self, dated_db, sql):
        reference = RowEngine(dated_db).execute(sql).rows
        assert reference
        for compile_expressions in (True, False):
            options = EngineOptions(compile_expressions=compile_expressions)
            rows = ColumnEngine(dated_db, options=options).execute(sql).rows
            assert rows == reference, options.describe()
            assert [[type(value) for value in row] for row in rows] == \
                [[type(value) for value in row] for row in reference], options.describe()

    def test_the_issue_texts_on_tpch(self, tpch_db, row_engine, column_engine):
        for sql in ("select max(o_orderdate) from orders",
                    "select count(*) from orders "
                    "where o_orderdate = (select max(o_orderdate) from orders)"):
            assert column_engine.execute(sql).rows == row_engine.execute(sql).rows
        assert column_engine.execute("select max(o_orderdate) from orders").rows == \
            [(datetime.date(1998, 11, 22),)]


class TestJoinShapes:
    """Join pipelines the fuzzer's two-table forms do not reach: outer-join
    padding that is joined, grouped or de-duplicated again, RIGHT joins,
    empty sides, derived tables on both sides -- compiled and interpreted,
    against the nested-loop interpreted row engine."""

    QUERIES = [
        "select a.id, b.id, c.id from a left join b on a.k = b.k join c on b.s = c.s",
        "select a.id, b.id, c.id from a left join b on a.k = b.k "
        "left join c on b.s = c.s",
        "select a.id, b.id, c.id, c.d from a left join b on a.k = b.k, c "
        "where a.s = c.s",
        "select a.id, b.id, c.id from c, a left join b on a.k = b.k "
        "where a.s = c.s and c.id > 1",
        "select a.id, b.id from a right join b on a.k = b.k and a.s = b.s",
        "select a.id, e.id from a left join e on a.k = e.k",
        "select e.id, a.id from e left join a on a.k = e.k",
        "select a.id, e.id from a, e where a.k = e.k",
        "select b.s, count(*), sum(a.f) from a left join b on a.k = b.k group by b.s",
        "select c.s, c.d, count(*) from a left join b on a.k = b.k "
        "left join c on b.s = c.s group by c.s, c.d",
        "select distinct b.s, c.d from a left join b on a.k = b.k "
        "left join c on b.s = c.s",
        "select a.id, b.id from a left join b on a.k = b.k and b.id > 1",
        "select a.id, b.id from a left join b on a.id < b.id",
        "select a.id, b.id from a left join b on a.k = b.k "
        "where b.s is null or b.s = 'y'",
        "select t.s, u.s, count(*) from "
        "(select b.s as s, a.k as k from a, b where a.k = b.k) t, "
        "(select s, id from c) u where t.s = u.s group by t.s, u.s",
        "select * from a left join b on a.k = b.k order by 1 desc, 5 limit 4 offset 1",
        "select a.id, b.id from a, b where a.f = b.k",
        "select a.id, b.id from a, b",
    ]

    @pytest.fixture(scope="class")
    def join_db(self) -> Database:
        database = Database("joins", chunk_rows=4)
        database.create_table("a", [("id", "int"), ("k", "int"), ("s", "str"),
                                    ("f", "float")])
        database.insert_rows("a", [
            (1, 10, "x", 10.0), (2, None, "y", None), (3, 20, None, 2.5),
            (4, None, None, 0.5), (5, 10, "y", 20.0), (6, 30, "z", None)])
        database.create_table("b", [("id", "int"), ("k", "int"), ("s", "str")])
        database.insert_rows("b", [
            (1, 10, "y"), (2, None, "y"), (3, None, None), (4, 20, "z"), (5, 10, "x")])
        database.create_table("c", [("id", "int"), ("s", "str"), ("d", "date")])
        database.insert_rows("c", [
            (1, "y", "2020-01-01"), (2, "z", None), (3, None, "2020-02-02"),
            (4, "q", "2020-03-03")])
        database.create_table("e", [("id", "int"), ("k", "int")])  # stays empty
        return database

    @pytest.mark.parametrize("sql", QUERIES)
    def test_every_toggle_agrees_with_the_nested_loop_reference(self, join_db, sql):
        def canonical(rows):
            if "order by" in sql:
                return rows
            return sorted(rows, key=lambda row: [(value is None, str(value))
                                                 for value in row])

        reference = RowEngine(join_db, options=EngineOptions(
            hash_joins=False, compile_expressions=False)).execute(sql)
        for compile_expressions in (True, False):
            options = EngineOptions(compile_expressions=compile_expressions)
            for engine in (RowEngine(join_db, options=options),
                           ColumnEngine(join_db, options=options)):
                result = engine.execute(sql)
                assert result.columns == reference.columns
                assert canonical(result.rows) == canonical(reference.rows), \
                    f"{engine.strategy()} compile={compile_expressions}"


class TestEngineVersions:
    def test_options_are_the_four_versions_the_platform_compares(self):
        """Every field is an engine version an experiment can be asked to
        measure (and a doubling of what the differential tests walk): a new
        one has to argue its case here."""
        import dataclasses

        assert [field.name for field in dataclasses.fields(EngineOptions)] == [
            "predicate_pushdown", "hash_joins", "overflow_guard", "compile_expressions"]
        assert list(EngineOptions().describe()) == [
            field.name for field in dataclasses.fields(EngineOptions)]

    def test_with_version_overrides_options(self, small_db):
        base = ColumnEngine(small_db)
        guarded = base.with_version("1.1-guarded", overflow_guard=True)
        assert guarded.options.overflow_guard and not base.options.overflow_guard
        assert guarded.label == "columnstore-1.1-guarded"

    def test_pushdown_off_gives_same_results(self, small_db):
        plain = RowEngine(small_db)
        no_pushdown = RowEngine(small_db, version="nopd",
                                options=EngineOptions(predicate_pushdown=False))
        sql = "select name, sum(price) from t where price > 5 group by name order by name"
        assert plain.execute(sql).rows == no_pushdown.execute(sql).rows

    def test_overflow_guard_gives_same_results(self, small_db):
        plain = ColumnEngine(small_db)
        guarded = ColumnEngine(small_db, version="guard",
                               options=EngineOptions(overflow_guard=True))
        sql = "select sum(price * (1 - 0.1) * (1 + 0.2)) from t"
        assert normalise(plain.execute(sql).rows) == normalise(guarded.execute(sql).rows)


class TestEnginesAgreeOnTPCH:
    """Both engines must produce identical results: the discriminative signal
    has to come from performance, never from semantics."""

    TPCH_SUBSET = [1, 3, 5, 6, 10, 12, 13, 14, 16]

    @pytest.mark.parametrize("query_id", TPCH_SUBSET)
    def test_row_and_column_agree(self, query_id, row_engine, column_engine):
        row_result = row_engine.execute(QUERIES[query_id])
        column_result = column_engine.execute(QUERIES[query_id])
        assert normalise(row_result.rows) == normalise(column_result.rows)

    def test_q1_aggregates_nonempty(self, column_engine):
        result = column_engine.execute(QUERIES[1])
        assert len(result.rows) >= 3
        assert all(row[2] > 0 for row in result.rows)  # sum_qty positive


@pytest.fixture(scope="module")
def sales_db() -> Database:
    """Many small chunks, NULLs in both a group key and an aggregate input."""
    database = Database("concurrent-unit", chunk_rows=32)
    database.create_table("sales", [("id", "int"), ("region", "str"),
                                    ("amount", "float"), ("qty", "int")])
    rng = random.Random(20260807)
    rows = []
    for index in range(1000):
        region = rng.choice(["north", "south", "east", "west", None])
        amount = None if index % 97 == 0 else round(rng.uniform(1, 500), 2)
        rows.append((index, region, amount, rng.randrange(1, 9)))
    database.insert_rows("sales", rows)
    return database


EDGE_QUERIES = [
    "select count(*) from sales where amount > 100",
    "select region, count(*) as n, sum(qty) as q from sales "
    "where amount > 50 group by region order by n desc, region",
    "select region, avg(amount) as a from sales group by region "
    "having count(*) > 150 order by region",
    "select count(*) as n, sum(amount) as s, min(amount) as lo, "
    "max(amount) as hi from sales where id < 0",
    "select count(distinct region) as r, count(distinct qty) as q from sales "
    "where amount > 10",
    "select qty, sum(distinct qty) as s, avg(distinct amount) as a "
    "from sales group by qty order by qty",
    "select min(region) as lo, max(region) as hi from sales where qty > 2",
    "select qty % 3 as bucket, count(*) as n from sales "
    "where id >= 13 group by qty % 3 order by bucket",
    # a CASE that is numbers in the first chunks and all NULL (an object
    # array) in the last
    "select max(case when id < 500 then qty end) as hi, "
    "min(case when id < 500 then qty end) as lo from sales",
    "select region, max(case when id < 500 then amount end) as hi from sales "
    "group by region order by region",
    "select sum(qty) + count(*) as both, max(amount) - min(amount) as spread, "
    "count(*) * 2 as twice from sales where qty > 1",
]


class TestAggregateEdges:
    """Edges the fuzzer is unlikely to hit -- NULL group keys, empty inputs,
    DISTINCT aggregates, HAVING, a CASE that turns all-NULL part way through
    the table -- over many small chunks, against the interpreted nested-loop
    row engine."""

    @pytest.mark.parametrize("compile_expressions", [True, False])
    @pytest.mark.parametrize("sql", EDGE_QUERIES)
    def test_column_engine_matches_the_reference(self, sales_db, sql, compile_expressions):
        reference = RowEngine(sales_db, options=EngineOptions(
            hash_joins=False, compile_expressions=False)).execute(sql)
        result = ColumnEngine(sales_db, options=EngineOptions(
            compile_expressions=compile_expressions)).execute(sql)
        assert result.columns == reference.columns
        assert len(result.rows) == len(reference.rows)
        for expected, got in zip(reference.rows, result.rows):
            for want, have in zip(expected, got):
                if isinstance(want, float) and isinstance(have, float):
                    assert have == pytest.approx(want, rel=1e-9, abs=1e-12)
                else:
                    assert have == want, f"{sql}: {have!r} != {want!r}"


class TestConcurrentExecution:
    """The batched driver's threads share one engine: its plans' scan state,
    columnar views and zone index are built and read concurrently."""

    def test_one_prepared_plan_across_threads_and_an_insert(self, sales_db):
        """Eight threads execute one prepared plan -- its scan state (frame,
        zone gate, scan window, dictionary kernels) is the plan's, shared --
        then an insert into the window's range, then eight threads again:
        every answer is the interpreted column engine's of the data as it is."""
        engine = ColumnEngine(sales_db)
        interpreted = ColumnEngine(sales_db, options=EngineOptions(compile_expressions=False))
        sql = ("select region, count(*) as n, sum(qty) as q, sum(amount) as s from sales "
               "where id >= 200 and id < 400 and region <> 'east' "
               "group by region order by region")
        plan = engine.prepare(sql)
        assert plan.root.window is not None
        failures: list[str] = []

        def hammer(expected) -> None:
            def worker() -> None:
                for _ in range(5):
                    rows = engine.execute(plan).rows
                    if rows != expected:
                        failures.append(f"{rows!r} != {expected!r}")

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        before = interpreted.execute(sql).rows
        hammer(before)
        sales_db.insert_rows("sales", [(300 + index, "north", 7.5, 3) for index in range(20)])
        after = interpreted.execute(sql).rows
        assert after != before
        hammer(after)
        assert not failures
        states = [key for key in plan._kernels if key[1:3] == ("col", "state")]
        assert len(states) == len(plan.blocks)

    def test_concurrent_queries_one_engine(self, sales_db):
        """Eight driver threads sharing one engine (shared plans, columnar
        views, zone maps) must all see the answer of one thread."""
        engine = ColumnEngine(sales_db)
        sql = "select region, count(*) as n, sum(qty) as q from sales " \
              "where amount > 25 group by region order by region"
        expected = engine.execute(sql).rows
        failures: list[str] = []

        def worker() -> None:
            for _ in range(5):
                rows = engine.execute(sql).rows
                if rows != expected:
                    failures.append(f"{rows!r} != {expected!r}")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


@given(st.lists(st.tuples(st.integers(-100, 100), st.floats(0, 1000)), min_size=1,
                max_size=40))
@settings(max_examples=20, deadline=None)
def test_engines_agree_on_random_data(rows):
    """Property: on random data both engines compute the same aggregate."""
    database = Database("prop")
    database.create_table("v", [("k", "int"), ("x", "float")])
    database.insert_rows("v", [(k, round(x, 3)) for k, x in rows])
    sql = "select count(*), sum(x), min(k), max(k) from v where k >= 0"
    row_result = RowEngine(database).execute(sql)
    column_result = ColumnEngine(database).execute(sql)
    assert normalise(row_result.rows, 3) == normalise(column_result.rows, 3)
