"""Tests for the logical-plan IR, the planner and the engine plan cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ColumnEngine,
    Database,
    EngineOptions,
    JoinStep,
    PlanCache,
    Planner,
    QueryPlan,
    RowEngine,
    normalize_sql,
)
from repro.sqlparser.parser import parse_select
from repro.tpch import QUERIES
from tests.conftest import normalise


@pytest.fixture()
def small_db() -> Database:
    database = Database("plan-unit")
    database.create_table("t", [("id", "int"), ("name", "str"), ("price", "float")])
    database.insert_rows("t", [
        (1, "alpha", 10.0), (2, "beta", 20.0), (3, "gamma", 30.0), (4, "alpha", 40.0),
    ])
    database.create_table("u", [("id", "int"), ("t_id", "int"), ("tag", "str")])
    database.insert_rows("u", [(1, 1, "x"), (2, 1, "y"), (3, 3, "z")])
    return database


# ---------------------------------------------------------------------------
# planner / plan IR
# ---------------------------------------------------------------------------


class TestPlanner:
    def test_plan_contains_root_block(self, small_db):
        planner = Planner(small_db.catalog)
        select = parse_select("select name, price from t where price > 15")
        plan = planner.plan(select, sql_text="select name, price from t where price > 15")
        root = plan.root
        assert root.output_names == ["name", "price"]
        assert root.pushdown == {"t": root.classified.single["t"]}
        assert not root.needs_aggregation
        assert [step.frame_index for step in root.join_order] == [0]

    def test_plan_covers_nested_subquery_blocks(self, small_db):
        planner = Planner(small_db.catalog)
        select = parse_select(
            "select count(*) from t where price > (select avg(price) from t) "
            "and exists (select * from u where u.t_id = t.id)")
        plan = planner.plan(select)
        # root + scalar subquery + correlated EXISTS subquery
        assert len(plan.blocks) == 3
        for node in select.walk():
            if type(node).__name__ == "Select":
                assert plan.block(node) is not None

    def test_equi_join_drives_join_order(self, small_db):
        planner = Planner(small_db.catalog)
        select = parse_select("select t.name, u.tag from u, t where t.id = u.t_id")
        plan = planner.plan(select)
        root = plan.root
        assert len(root.classified.equi_joins) == 1
        order = [step.frame_index for step in root.join_order]
        assert order == [0, 1]
        assert len(root.join_order[1].connecting) == 1

    def test_pushdown_disabled_moves_predicates_to_residual(self, small_db):
        planner = Planner(small_db.catalog, predicate_pushdown=False)
        select = parse_select("select name from t where price > 15")
        root = planner.plan(select).root
        assert root.pushdown == {}
        assert len(root.residual) == 1

    def test_disjunction_implies_single_relation_predicates(self, small_db, tpch_db):
        """Every disjunct of Q7's nation predicate pins both ``n1`` and ``n2``:
        each scan gets the OR of its own conjuncts, the disjunction stays."""
        from repro.sqlparser.printer import to_sql

        inner = next(block for block in ColumnEngine(tpch_db).prepare(QUERIES[7])
                     .blocks.values() if len(block.item_columns) == 6)
        assert [to_sql(predicate) for predicate in inner.pushdown["n1"]] == [
            "(n1.n_name = 'FRANCE') or (n1.n_name = 'GERMANY')"]
        assert [to_sql(predicate) for predicate in inner.pushdown["n2"]] == [
            "(n2.n_name = 'GERMANY') or (n2.n_name = 'FRANCE')"]
        assert inner.classified.single.keys() == {"lineitem"}  # not WHERE conjuncts
        assert len(inner.residual) == 1

        planner = Planner(small_db.catalog)
        root = planner.plan(parse_select(
            "select t.id from t, u where t.id = u.t_id and "
            "((t.price > 15 and t.name = 'alpha' and u.tag = 'x') or (t.price < 5 and u.id = 2))"
        )).root
        assert [to_sql(predicate) for predicate in root.pushdown["t"]] == [
            "((t.price > 15) and (t.name = 'alpha')) or (t.price < 5)"]
        assert [to_sql(predicate) for predicate in root.pushdown["u"]] == [
            "(u.tag = 'x') or (u.id = 2)"]

    @pytest.mark.parametrize("where", [
        # a disjunct without a conjunct over t alone / over u alone
        "(t.price > 15 and u.tag = 'x') or t.id + u.id = 4",
        # a subquery anywhere in the disjunction
        "(t.price > 15 and u.tag = 'x') or (t.price < 5 and u.id in (select id from u))",
    ])
    def test_disjunction_that_implies_nothing(self, small_db, where):
        root = Planner(small_db.catalog).plan(parse_select(
            f"select t.id from t, u where t.id = u.t_id and ({where})")).root
        assert root.pushdown == {} and len(root.residual) == 1

    def test_nothing_is_implied_without_pushdown(self, small_db):
        root = Planner(small_db.catalog, predicate_pushdown=False).plan(parse_select(
            "select t.id from t, u where t.id = u.t_id and "
            "((t.price > 15 and u.tag = 'x') or (t.price < 5 and u.id = 2))")).root
        assert root.pushdown == {} and len(root.residual) == 1

    def test_implied_predicates_keep_null_semantics(self, small_db):
        """A disjunct whose own conjunct is UNKNOWN (``u.tag`` NULL) cannot make
        the disjunction TRUE, so dropping its rows early changes nothing."""
        small_db.insert_rows("u", [(4, 3, None), (5, None, "x")])
        sql = ("select t.id, u.id from t, u where t.id = u.t_id and "
               "((t.price > 15 and u.tag <> 'x') or (t.name = 'alpha' and not (u.tag = 'y')))")
        expected = RowEngine(small_db, options=EngineOptions(
            predicate_pushdown=False, hash_joins=False, compile_expressions=False)).execute(sql)
        assert sorted(expected.rows) == [(1, 1), (3, 3)]
        for engine in (RowEngine(small_db), ColumnEngine(small_db)):
            assert engine.prepare(sql).root.pushdown.keys() == {"t", "u"}
            assert sorted(engine.execute(sql).rows) == sorted(expected.rows)

    def test_intra_item_equality_is_residual_not_a_join_key(self, small_db):
        root = Planner(small_db.catalog).plan(parse_select(
            "select t.id from t join u on t.id = u.t_id where t.id = u.id")).root
        assert len(root.classified.equi_joins) == 1 and len(root.residual) == 1
        assert root.join_order[0].connecting == ()

    def test_describe_is_json_friendly(self, small_db):
        import json

        plan = Planner(small_db.catalog).plan(
            parse_select("select t.name, u.tag from t, u where t.id = u.t_id"))
        description = plan.describe()
        assert json.dumps(description)
        assert description["root"]["equi_joins"] == 1


# ---------------------------------------------------------------------------
# join order from the storage statistics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mix_db() -> Database:
    """TPC-H at the ``tpch-mix`` workload's scale factor."""
    from repro.data import populate_tpch

    database = Database("tpch-mix")
    populate_tpch(database, scale_factor=0.004)
    return database


def _order(planner: Planner, sql: str) -> list[str]:
    return planner.plan(parse_select(sql)).root.join_names()


class TestJoinOrder:
    def test_the_most_selective_table_drives(self, small_db):
        planner = Planner(small_db.catalog)
        join = "select t.name, u.tag from t, u where t.id = u.t_id"
        # unfiltered, the three rows of u cost less to read whole than t's four
        assert _order(planner, join) == ["u", "t"]
        assert _order(planner, join + " and t.id = 3") == ["t", "u"]
        root = planner.plan(parse_select(join + " and t.id = 3")).root
        assert root.estimated_rows() == [1.0, 0.8]  # 4 rows / 4 ids; x 3 rows of u / 4 ids
        assert root.join_order[1].keys == ((0, 1),) and root.join_order[1].cut == 3

    def test_planning_twice_gives_the_same_order(self, mix_db):
        for number in (5, 7, 8):
            orders = {tuple(tuple(block.join_names()) for block in
                            Planner(mix_db.catalog).plan(parse_select(QUERIES[number]))
                            .blocks.values()) for _ in range(3)}
            assert len(orders) == 1, number

    def test_a_tie_keeps_from_order(self):
        database = Database("twins")
        for name in ("a", "b", "c"):
            database.create_table(name, [("k", "int")])
            database.insert_rows(name, [(number,) for number in range(5)])
        planner = Planner(database.catalog)
        for listed in (["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]):
            first, second, third = listed
            sql = (f"select count(*) from {', '.join(listed)} "
                   f"where {first}.k = {second}.k and {second}.k = {third}.k")
            assert _order(planner, sql) == listed

    def test_missing_statistics_keep_from_order_and_cost_nothing(self, small_db):
        from repro.engine import Catalog

        catalog = Catalog()  # schemas only: no storage, so no statistics
        catalog.create_table("t", [("id", "int"), ("name", "str")])
        catalog.create_table("u", [("id", "int"), ("t_id", "int")])
        root = Planner(catalog).plan(parse_select(
            "select t.name from t, u where t.id = u.t_id and u.id = 1")).root
        assert root.join_names() == ["t", "u"] and root.estimated_rows() is None
        # a derived table or an explicit JOIN tree has no size either
        planner = Planner(small_db.catalog)
        for sql in ("select t.name from t, (select t_id from u where id = 1) d "
                    "where t.id = d.t_id",
                    "select t.name from t, u join t t2 on u.t_id = t2.id where t.id = u.id"):
            root = planner.plan(parse_select(sql)).root
            assert [step.frame_index for step in root.join_order] == [0, 1], sql
            assert root.estimated_rows() is None, sql
        assert root.join_names() == ["t", "(u join t2)"]

    def test_single_item_block_is_untouched(self, small_db):
        root = Planner(small_db.catalog).plan(parse_select(
            "select name from t where price > 15")).root
        assert root.join_order == [JoinStep(0)] and root.estimated_rows() is None

    def test_a_cross_product_item_goes_last(self, mix_db):
        planner = Planner(mix_db.catalog)
        assert _order(planner, "select count(*) from region, orders, customer "
                               "where o_custkey = c_custkey and c_acctbal > 9000") \
            == ["customer", "orders", "region"]
        # nothing but cross products: smallest first
        assert _order(planner, "select count(*) from supplier, region, nation") \
            == ["region", "nation", "supplier"]

    @pytest.mark.parametrize("number", (3, 9, 10, 12))
    def test_toggled_engines_still_plan_and_agree(self, number):
        from repro.data import populate_tpch

        tpch_db = Database("tpch-tiny")  # nested loops without push-down: keep them short
        populate_tpch(tpch_db, scale_factor=0.0002)
        expected = normalise(sorted(RowEngine(tpch_db).execute(QUERIES[number]).rows))
        assert expected
        for options in (EngineOptions(predicate_pushdown=False),
                        EngineOptions(hash_joins=False),
                        EngineOptions(predicate_pushdown=False, hash_joins=False,
                                      compile_expressions=False)):
            for factory in (RowEngine, ColumnEngine):
                engine = factory(tpch_db, options=options)
                assert any(block.estimated_rows() is not None  # costed all the same
                           for block in engine.prepare(QUERIES[number]).blocks.values())
                assert normalise(sorted(engine.execute(QUERIES[number]).rows)) == expected

    @pytest.mark.parametrize("number,driving", [
        (3, {"customer"}), (5, {"region"}), (7, {"n1", "n2"}), (8, {"part"}), (9, {"part"}),
        (10, {"orders"}), (12, {"lineitem"}), (14, {"lineitem"})])
    def test_tpch_mix_texts_drive_from_their_most_selective_table(self, mix_db, number,
                                                                  driving):
        plan = RowEngine(mix_db).prepare(QUERIES[number])
        (block,) = [block for block in plan.blocks.values() if len(block.join_order) > 1]
        assert block.join_names()[0] in driving
        assert block.describe()["join_order"] == block.join_names()
        # both engines read the one order
        column = ColumnEngine(mix_db).prepare(QUERIES[number])
        assert [block.join_names() for block in column.blocks.values()] \
            == [block.join_names() for block in plan.blocks.values()]


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_hit_miss_stats(self, small_db):
        engine = RowEngine(small_db)
        first = engine.prepare("select id from t")
        second = engine.prepare("select id from t")
        assert first is second
        stats = engine.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["size"] == 1

    def test_whitespace_normalisation_shares_plans(self, small_db):
        engine = RowEngine(small_db)
        first = engine.prepare("select id from t where id = 1")
        second = engine.prepare("select  id\n from   t where id = 1;")
        assert first is second
        assert normalize_sql("select  1 ;") == normalize_sql("select 1")

    def test_whitespace_inside_string_literals_is_significant(self, small_db):
        engine = RowEngine(small_db)
        spaced = engine.prepare("select count(*) from t where name = 'a  b'")
        single = engine.prepare("select count(*) from t where name = 'a b'")
        assert spaced is not single  # literals differ: must not share a plan
        assert normalize_sql("select '' || 'x  y'") == "select '' || 'x  y'"
        assert normalize_sql("select 'it''s  ok'  from t") == "select 'it''s  ok' from t"

    @staticmethod
    def _normalize_by_character(sql: str) -> str:
        """The loop ``normalize_sql`` was before it became two regex passes:
        the reference the property below holds it to."""
        parts: list[str] = []
        index, length = 0, len(sql)
        while index < length:
            char = sql[index]
            if char == "'":
                # copy the quoted literal verbatim ('' is an escaped quote)
                end = index + 1
                while end < length:
                    if sql[end] == "'":
                        if end + 1 < length and sql[end + 1] == "'":
                            end += 2
                            continue
                        break
                    end += 1
                parts.append(sql[index:min(end + 1, length)])
                index = end + 1
            elif char.isspace():
                if parts and parts[-1] != " ":
                    parts.append(" ")
                index += 1
            else:
                parts.append(char)
                index += 1
        return "".join(parts).strip().rstrip("; ")

    def test_normalisation_equals_the_per_character_loop_on_tpch(self):
        for number, sql in QUERIES.items():
            assert normalize_sql(sql) == self._normalize_by_character(sql), number
            padded = f"\n  {sql} ;\n; "
            assert normalize_sql(padded) == self._normalize_by_character(padded) \
                == normalize_sql(sql), number

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(
        ["select", "x", "'", "''", " ", "  ", "\n", "\t", ";", "; ", "'a  b'", "'it''s'",
         "=", "\r\n", "'\n'", "' ;'"]), max_size=14).map("".join))
    def test_normalisation_equals_the_per_character_loop(self, sql):
        """Generated texts: blanks and newlines inside and outside literals,
        ``''`` escapes, unterminated quotes, leading / trailing blanks and ``;``."""
        assert normalize_sql(sql) == self._normalize_by_character(sql)

    def test_eviction_lru(self, small_db):
        engine = RowEngine(small_db, plan_cache_size=2)
        engine.prepare("select id from t")
        engine.prepare("select name from t")
        engine.prepare("select price from t")  # evicts "select id from t"
        stats = engine.cache_stats()
        assert stats["evictions"] == 1 and stats["size"] == 2
        engine.prepare("select id from t")  # miss again after eviction
        assert engine.cache_stats()["misses"] == 4

    def test_disabled_cache_retains_nothing(self, small_db):
        engine = RowEngine(small_db, plan_cache_size=0)
        engine.prepare("select id from t")
        engine.prepare("select id from t")
        stats = engine.cache_stats()
        assert stats["size"] == 0 and stats["hits"] == 0 and stats["misses"] == 2

    def test_with_version_starts_with_fresh_cache(self, small_db):
        base = ColumnEngine(small_db)
        base.prepare("select count(*) from t")
        variant = base.with_version("no-pd", predicate_pushdown=False)
        assert variant.cache_stats()["size"] == 0
        plan = variant.prepare("select name from t where price > 15")
        assert plan.root.pushdown == {}  # planned under the new options
        assert base.prepare("select name from t where price > 15").root.pushdown
        assert base.cache_stats()["size"] == 2  # the base cache was untouched

    def test_clear_resets_stats(self, small_db):
        engine = RowEngine(small_db)
        engine.prepare("select id from t")
        engine.clear_plan_cache()
        stats = engine.cache_stats()
        assert stats == {"size": 0, "maxsize": 128, "enabled": True,
                         "hits": 0, "misses": 0, "evictions": 0}

    def test_plan_cache_standalone(self):
        cache = PlanCache(maxsize=1)
        sentinel = object()
        cache.put("a", sentinel)
        cache.put("b", sentinel)
        assert cache.get("a") is None and cache.get("b") is sentinel
        assert cache.stats.evictions == 1
        assert len(cache) == 1


# ---------------------------------------------------------------------------
# cached vs. uncached execution equivalence
# ---------------------------------------------------------------------------


QUERY_SET = [
    "select name, price from t where price > 15 order by price",
    "select count(*), sum(price), min(price), max(price) from t",
    "select name, count(*) as n from t group by name having count(*) > 1 order by name",
    "select t.name, u.tag from t, u where t.id = u.t_id order by tag",
    "select count(*) from t where price > (select avg(price) from t)",
    "select count(*) from t where exists (select * from u where u.t_id = t.id)",
    "select max(total) from (select name, sum(price) as total from t group by name) s",
    "select t.id, count(u.id) as tags from t left join u on t.id = u.t_id "
    "group by t.id order by t.id",
]


class TestCachedExecutionEquivalence:
    @pytest.mark.parametrize("kind", ["row", "column"])
    def test_cache_on_and_off_agree(self, small_db, kind):
        factory = RowEngine if kind == "row" else ColumnEngine
        cached = factory(small_db)
        uncached = factory(small_db, plan_cache_size=0)
        for sql in QUERY_SET:
            cold = uncached.execute(sql)
            for _ in range(3):  # repeated executions hit the cache after round one
                warm = cached.execute(sql)
                assert warm.columns == cold.columns
                assert normalise(warm.rows) == normalise(cold.rows)
        assert cached.cache_stats()["hits"] >= 2 * len(QUERY_SET)

    def test_prepared_plan_is_reusable_across_executions(self, small_db):
        engine = ColumnEngine(small_db)
        plan = engine.prepare(QUERY_SET[3])
        assert isinstance(plan, QueryPlan)
        results = [engine.execute(plan).rows for _ in range(3)]
        assert results[0] == results[1] == results[2]
        # prepare() is idempotent on plans
        assert engine.prepare(plan) is plan

    def test_row_and_column_agree_through_shared_plan_ir(self, row_engine, column_engine):
        for query_id in (1, 6, 13):
            sql = QUERIES[query_id]
            row_result = row_engine.execute(row_engine.prepare(sql))
            column_result = column_engine.execute(column_engine.prepare(sql))
            assert normalise(row_result.rows) == normalise(column_result.rows)
            assert row_result.columns == column_result.columns

    def test_explain_reports_plan_and_cache(self, small_db):
        engine = RowEngine(small_db)
        report = engine.explain("select t.name, u.tag from t, u where t.id = u.t_id")
        assert report["plan"]["equi_joins"] == 1
        # by binding name; u (3 rows) drives, t's four are probed
        assert report["plan"]["join_order"] == ["u", "t"]
        assert report["plan"]["estimated_rows"] == [3.0, 3.0]
        assert report["plan_cache"]["misses"] >= 1
