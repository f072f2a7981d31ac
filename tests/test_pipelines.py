"""The row engine's generated pipelines.

* a Hypothesis property: a generated expression kernel and the interpreter
  agree on random expression trees over rows with NULLs -- values, types and
  the ``ExecutionError`` they raise;
* every query the platform benchmarks (TPC-H Q1, the ``q1-pool`` variants,
  the nine ``tpch-mix`` texts) runs on generated pipelines only and returns
  the interpreter's rows;
* access paths: which join sides probe a storage key index and which are
  built per execution, and that a cached plan follows the table's mutations;
* plan-owned state: correlation, and outer columns bound once per run;
* what a pipeline shows of itself: source in ``linecache``, structure in
  ``explain``, fused operators in ``EXPLAIN ANALYZE``.
"""

from __future__ import annotations

import datetime
import linecache
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import populate_tpch
from repro.engine import Database, EngineOptions, RowEngine
from repro.engine.compile import Layout, compile_row_kernel, row_pipeline
from repro.engine.expression import evaluate
from repro.engine.planner import ColumnInfo
from repro.errors import ExecutionError, PlanError
from repro.platform import PlatformService
from repro.pool import Morpher
from repro.sqlparser import ast
from repro.tpch import QUERIES

# ---------------------------------------------------------------------------
# (a) generated expression kernels == the interpreter
# ---------------------------------------------------------------------------

COLUMNS = [ColumnInfo("t", "i1", "int"), ColumnInfo("t", "i2", "int"),
           ColumnInfo("t", "f1", "float"), ColumnInfo("t", "s1", "str"),
           ColumnInfo("t", "d1", "date")]
LAYOUT = Layout(COLUMNS)

ROWS = st.tuples(
    st.none() | st.integers(-3, 3),
    st.none() | st.integers(0, 40),
    st.none() | st.sampled_from([-2.5, 0.0, 0.25, 7.5]),
    st.none() | st.sampled_from(["", "abba", "axle", "Box", "1994-05-01"]),
    st.none() | st.dates(datetime.date(1994, 1, 1), datetime.date(1995, 12, 31)),
)


class _Env:
    def __init__(self, row: tuple):
        self.row = row

    def lookup(self, ref: ast.ColumnRef):
        return self.row[LAYOUT.position(ref)]


def _column(name: str):
    return st.just(ast.ColumnRef(name=name))


NULL = st.just(ast.Literal(None, "null"))
INTERVALS = st.builds(ast.IntervalLiteral, st.integers(-3, 14),
                      st.sampled_from(["day", "month", "year"]))
COMPARISONS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def _case(conditions, results):
    return st.builds(ast.CaseWhen,
                     st.lists(st.tuples(conditions, results), min_size=1, max_size=2),
                     st.none() | results)


def _numbers(numbers, strings, dates, booleans):
    return st.one_of(
        st.builds(ast.UnaryOp, st.just("-"), numbers),
        st.builds(ast.BinaryOp, st.sampled_from(["+", "-", "*", "/", "%"]), numbers, numbers),
        st.builds(ast.BinaryOp, st.just("-"), dates, dates),  # date - date -> days
        st.builds(ast.Cast, numbers, st.sampled_from(["int", "float"])),
        st.builds(ast.Extract, st.sampled_from(["year", "month", "day"]), dates),
        st.builds(ast.FunctionCall, st.sampled_from(["abs", "coalesce"]),
                  st.lists(numbers, min_size=1, max_size=1)),
        st.builds(ast.FunctionCall, st.just("coalesce"),
                  st.lists(numbers, min_size=2, max_size=3)),
        st.builds(ast.FunctionCall, st.just("length"), st.lists(strings, min_size=1, max_size=1)),
        _case(booleans, numbers),
    )


def _strings(numbers, strings, dates, booleans):
    start = st.builds(ast.Literal, st.integers(0, 4), st.just("number"))
    return st.one_of(
        st.builds(ast.BinaryOp, st.just("||"), strings, strings | numbers),
        st.builds(ast.FunctionCall, st.sampled_from(["lower", "upper"]),
                  st.lists(strings, min_size=1, max_size=1)),
        st.builds(ast.Substring, strings, start, st.none() | start),
        st.builds(ast.Cast, numbers | dates, st.just("varchar")),
        _case(booleans, strings),
    )


def _dates(numbers, strings, dates, booleans):
    return st.one_of(
        st.builds(ast.BinaryOp, st.sampled_from(["+", "-"]), dates, INTERVALS),
        # the two ways interval arithmetic goes wrong
        st.builds(ast.BinaryOp, st.just("+"), numbers, INTERVALS),
        st.builds(ast.BinaryOp, st.just("+"), INTERVALS, dates),
        st.builds(ast.Cast, dates | st.just(ast.Literal("1995-02-28", "string")),
                  st.just("date")),
        _case(booleans, dates),
    )


def _booleans(numbers, strings, dates, booleans):
    date_text = st.builds(ast.Literal, st.sampled_from(["1994-06-30", "1995-01-01"]),
                          st.just("string"))
    patterns = st.builds(ast.Literal, st.sampled_from(["a%", "%a", "_x%", "abba", "%"]),
                         st.just("string"))
    return st.one_of(
        st.builds(ast.Comparison, COMPARISONS, numbers, numbers),
        st.builds(ast.Comparison, COMPARISONS, strings, strings),
        st.builds(ast.Comparison, COMPARISONS, dates, dates | date_text),  # date coercion
        st.builds(ast.Between, numbers, numbers, numbers, st.booleans()),
        st.builds(ast.Between, dates, dates | date_text, dates, st.booleans()),
        st.builds(ast.InList, numbers, st.lists(numbers, min_size=1, max_size=3),
                  st.booleans()),
        st.builds(ast.InList, strings, st.lists(strings, min_size=1, max_size=3),
                  st.booleans()),
        st.builds(ast.Like, strings, patterns | NULL, st.booleans()),
        st.builds(ast.IsNull, numbers | strings | dates | booleans, st.booleans()),
        st.builds(ast.UnaryOp, st.just("not"), booleans),
        st.builds(ast.BoolOp, st.sampled_from(["and", "or"]),
                  st.lists(booleans, min_size=2, max_size=3)),
    )


@st.composite
def expressions(draw, depth: int = 3):
    """A random, mostly well-typed expression tree of any of the four kinds."""
    number = NULL | st.builds(ast.Literal, st.sampled_from([0, 1, 2, 3.5, -1]),
                              st.just("number")) \
        | _column("i1") | _column("i2") | _column("f1")
    string = NULL | st.builds(ast.Literal, st.sampled_from(["abba", "x", ""]),
                              st.just("string")) | _column("s1")
    date = NULL | st.builds(ast.DateLiteral, st.sampled_from(["1994-12-31", "1995-03-15"])) \
        | _column("d1")
    boolean = NULL | st.builds(ast.Literal, st.booleans(), st.just("boolean"))
    for _ in range(depth):
        kinds = (number, string, date, boolean)
        number, string, date, boolean = (
            number | _numbers(*kinds), string | _strings(*kinds),
            date | _dates(*kinds), boolean | _booleans(*kinds))
    return draw(st.one_of(number, string, date, boolean))


def _outcome(thunk):
    try:
        value = thunk()
    except ExecutionError as error:
        return "ExecutionError", str(error)
    except Exception as error:  # both sides must fail alike, whatever it is
        return type(error).__name__, None
    return type(value).__name__, value


@settings(max_examples=150, deadline=None)
@given(expression=expressions(), row=ROWS)
def test_generated_kernel_matches_interpreter(expression, row):
    expected = _outcome(lambda: evaluate(expression, _Env(row)))
    actual = _outcome(lambda: compile_row_kernel(expression, LAYOUT)(row))
    assert actual == expected


@pytest.mark.parametrize("expression,row,message", [
    (ast.BinaryOp("/", ast.ColumnRef("i2"), ast.ColumnRef("i1")),
     (0, 5, None, None, None), "division by zero"),
    (ast.BinaryOp("+", ast.ColumnRef("i1"), ast.IntervalLiteral(1, "day")),
     (1, None, None, None, None), "interval arithmetic requires a date operand"),
    (ast.BinaryOp("+", ast.IntervalLiteral(1, "day"), ast.ColumnRef("d1")),
     (None, None, None, None, datetime.date(1995, 1, 1)),
     "an interval may only appear on the right-hand side"),
])
def test_generated_kernel_raises_the_interpreters_errors(expression, row, message):
    with pytest.raises(ExecutionError, match=message):
        evaluate(expression, _Env(row))
    with pytest.raises(ExecutionError, match=message):
        compile_row_kernel(expression, LAYOUT)(row)
    # ... and NULL wins over the error, as in the interpreter
    nulls = (None,) * len(row)
    assert compile_row_kernel(expression, LAYOUT)(nulls) is None
    assert evaluate(expression, _Env(nulls)) is None


# ---------------------------------------------------------------------------
# (b) the benchmarked queries run on generated pipelines, and only on them
# ---------------------------------------------------------------------------

#: bench/workloads.py: the fixed ``tpch-mix`` texts and the ``q1-pool`` recipe.
TPCH_MIX = (3, 5, 6, 7, 8, 9, 10, 12, 14)
POOL_SEED, POOL_RANDOM, POOL_SIZE = 7, 8, 24


def _q1_pool_variants() -> list[str]:
    service = PlatformService()
    owner = service.register_user("owner", "owner@example.org")
    project = service.create_project(owner, "tpch", synopsis="q1-pool")
    experiment = service.add_experiment(owner, project, "q1-pool", QUERIES[1], repeats=5,
                                        timeout_seconds=30)
    pool = service.build_pool(experiment, seed=POOL_SEED)
    pool.seed_baseline()
    pool.seed_random(POOL_RANDOM)
    Morpher(pool, seed=POOL_SEED).grow_to(POOL_SIZE)
    return [entry.sql for entry in pool.entries()]


def _assert_generated(database: Database, sql: str) -> bool:
    """Generated == interpreted, with no block and no expression interpreted.

    Returns False for a text both configurations reject while planning.
    """
    reference = RowEngine(database, options=EngineOptions(compile_expressions=False))
    generated = RowEngine(database)
    try:
        expected = reference.execute(sql)
    except PlanError:
        with pytest.raises(PlanError):
            generated.execute(sql)
        return False
    plan = generated.prepare(sql)
    result = generated.execute(plan)
    assert result.columns == expected.columns
    assert result.rows == expected.rows, sql
    assert result.metrics.get("row.pipeline.interpreted_blocks") == 0, sql
    assert result.metrics.get("row.pipeline.generated") == len(plan.blocks), sql
    assert expected.metrics.get("row.pipeline.generated") == 0
    assert expected.metrics.get("row.pipeline.interpreted_blocks") == len(plan.blocks)
    for block in plan.blocks.values():
        pipeline = row_pipeline(plan, block)
        assert pipeline.run is not None, pipeline.fallback
        assert pipeline.interpreted == [], sql
    return True


@pytest.mark.parametrize("number", (1,) + TPCH_MIX)
def test_benchmark_texts_run_generated(tpch_db, number):
    assert _assert_generated(tpch_db, QUERIES[number])


def test_q1_pool_variants_run_generated(tpch_db):
    variants = _q1_pool_variants()
    assert len(variants) == POOL_SIZE
    valid = sum(_assert_generated(tpch_db, sql) for sql in variants)
    assert valid == 16  # bench/README: 8 of the 24 sort on a key they do not select


@pytest.mark.parametrize("number", (1, 3, 4, 10, 11, 12, 14, 16))
@pytest.mark.parametrize("options", [
    EngineOptions(hash_joins=False), EngineOptions(predicate_pushdown=False)],
    ids=["nested-loops", "no-pushdown"])
def test_toggles_are_emitted_not_interpreted(tpch_db, number, options):
    reference = RowEngine(tpch_db, options=EngineOptions(
        compile_expressions=False, hash_joins=options.hash_joins,
        predicate_pushdown=options.predicate_pushdown))
    engine = RowEngine(tpch_db, options=options)
    result = engine.execute(QUERIES[number])
    assert result.rows == reference.execute(QUERIES[number]).rows
    assert result.metrics.get("row.pipeline.interpreted_blocks") == 0
    sides = [side for pipeline in engine.explain(QUERIES[number])["pipelines"]
             for side in pipeline["joins"]]
    if not options.hash_joins:  # no key, nothing to probe an index with
        assert {side["join"] for side in sides} <= {"nested loop"}
    else:  # nothing is pushed down, so every keyed base-table side is unfiltered
        assert not any(side["built"] for side in sides if side["table"])


def test_all_22_tpch_texts_generate(tpch_db):
    """Subqueries ride along through the interpreter hook; no block falls back."""
    engine = RowEngine(tpch_db)
    for number in sorted(QUERIES):
        plan = engine.prepare(QUERIES[number])
        for block in plan.blocks.values():
            assert row_pipeline(plan, block).run is not None, number


def test_empty_global_group_keeps_interpreter_semantics(tpch_db):
    sql = ("select count(*), sum(l_quantity), l_returnflag, max(l_tax) + 1 "
           "from lineitem where l_quantity < 0")
    expected = RowEngine(tpch_db, options=EngineOptions(compile_expressions=False)).execute(sql)
    result = RowEngine(tpch_db).execute(sql)
    assert result.rows == expected.rows == [(0, None, None, None)]
    assert result.metrics.get("row.pipeline.generated") == 1


def test_unsupported_aggregate_shape_falls_back_as_a_block(tpch_db):
    """What evaluate_aggregate rejects is rejected, not quietly computed."""
    engine = RowEngine(tpch_db)
    sql = "select abs(sum(l_quantity)) from lineitem"
    plan = engine.prepare(sql)
    assert row_pipeline(plan, plan.root).fallback == \
        "cannot compile aggregate expression node FunctionCall"
    with pytest.raises(ExecutionError, match="cannot evaluate aggregate expression"):
        engine.execute(plan)


# ---------------------------------------------------------------------------
# access paths: storage key indexes vs per-execution builds
# ---------------------------------------------------------------------------


def _join_sides(engine: RowEngine, number: int) -> dict[str, dict]:
    return {side["source"]: side for pipeline in engine.explain(QUERIES[number])["pipelines"]
            for side in pipeline["joins"]}


def test_unfiltered_sides_probe_an_index_and_build_nothing(tpch_db):
    engine = RowEngine(tpch_db)
    for number in (8, 9):  # every side is unfiltered, or filtered under a filtered part
        sides = _join_sides(engine, number)
        assert sides and all(side["join"].startswith("index ") and not side["built"]
                             for side in sides.values()), number
        (pipeline, _) = engine.explain(QUERIES[number])["pipelines"]
        assert "for r0 in s0:" in pipeline["source"]
        assert pipeline["source"].count(" in s") == 1  # the driving scan, no build loop
    assert _join_sides(engine, 9)["partsupp"]["join"] == "index partsupp(ps_suppkey, ps_partkey)"
    # Q5 drives from its one-row region: the filtered orders, five levels down,
    # is probed like every other side and nothing is built
    (pipeline,) = engine.explain(QUERIES[5])["pipelines"]
    assert pipeline["driving"] == "region"
    sides = _join_sides(engine, 5)
    assert list(sides) == ["nation", "supplier", "customer", "orders", "lineitem"]
    assert sides["orders"] == {"source": "orders", "join": "index orders(o_custkey)",
                               "table": "orders", "built": False, "filtered": True}
    assert not any(side["built"] for side in sides.values())
    assert "for r5 in s5:" in pipeline["source"] and pipeline["source"].count(" in s") == 1


@pytest.mark.parametrize("number,driving", [(7, "nation as n2"), (12, "lineitem")])
def test_filtered_tables_drive_and_nothing_is_built(tpch_db, number, driving):
    """At the parent Q7 and Q12 built their filtered ``lineitem`` per execution
    under an unfiltered driving table; costed, the filtered table drives."""
    engine = RowEngine(tpch_db)
    pipeline = next(pipeline for pipeline in engine.explain(QUERIES[number])["pipelines"]
                    if pipeline["joins"])
    assert pipeline["driving"] == driving
    assert not any(side["built"] for side in pipeline["joins"])
    warm = engine.execute(engine.prepare(QUERIES[number]), trace=True)
    assert warm.metrics.get("join.build_rows") == 0
    assert warm.trace.find("join").attributes["build_rows"] == 0


def test_filtered_side_under_unfiltered_upstream_keeps_its_build(tpch_db):
    """Where the order leaves a filtered side under an unfiltered upstream --
    25 unfiltered nations cost less to drive from than 1 500 orders do --
    the side is still built per execution, over the rows that pass."""
    engine = RowEngine(tpch_db)
    sql = ("select n_name, count(*) from nation, customer, orders where n_nationkey = "
           "c_nationkey and c_custkey = o_custkey and o_orderstatus = 'F' group by n_name")
    (pipeline,) = engine.explain(sql)["pipelines"]
    assert pipeline["driving"] == "nation"
    assert pipeline["joins"][1] == {"source": "orders", "join": "hash on 1 key",
                                    "table": "orders", "built": True, "filtered": True}
    warm = engine.execute(engine.prepare(sql), trace=True)
    scans = {span.attributes["source"]: span for span in warm.trace.find_all("scan")}
    assert warm.metrics.get("join.build_rows") == scans["orders"].rows_out > 0
    assert warm.trace.find("join").attributes["build_rows"] == scans["orders"].rows_out


def test_self_join_bindings_share_one_index():
    database = Database("self-join")
    populate_tpch(database, scale_factor=0.0003)
    engine = RowEngine(database)
    plan = engine.prepare(
        "select n1.n_name, n2.n_name from supplier, customer, nation n1, nation n2 "
        "where s_nationkey = n1.n_nationkey and c_nationkey = n2.n_nationkey "
        "and s_suppkey = c_custkey")
    assert plan.root.join_names() == ["supplier", "customer", "n1", "n2"]
    pipeline = row_pipeline(plan, plan.root)
    nations = [probe for probe in pipeline.probes if probe and probe.table == "nation"]
    assert [probe.positions for probe in nations] == [(0,), (0,)]
    cold = engine.execute(plan)
    assert list(database.storage("nation").key_indexes()) == [(0,)]
    # customer and one nation index: built by the cold run, found by the next
    assert cold.metrics.get("join.index_builds") == 2
    assert engine.execute(plan).metrics.get("join.index_builds") == 0
    summary = database.size_summary()["nation"]["indexes"]
    assert summary == [{"columns": ["n_nationkey"], "keys": 25, "rows": 25}]


def test_cached_plan_sees_rows_inserted_between_executions():
    database = Database("mutating")
    database.create_table("parent", [("id", "int"), ("name", "str")])
    database.create_table("child", [("id", "int"), ("parent_id", "int"), ("v", "int")])
    database.insert_rows("parent", [(1, "one"), (2, "two"), (3, "three")])
    database.insert_rows("child", [(1, 1, 10), (2, 1, 11), (3, 2, 20), (4, None, 99)])
    engine = RowEngine(database)
    reference = RowEngine(database, options=EngineOptions(compile_expressions=False,
                                                          hash_joins=False))
    plans = [engine.prepare(sql) for sql in (
        # an unfiltered index side; a filtered one under a filtered driving scan
        "select name, v from parent, child where parent.id = parent_id order by v",
        "select name, v from parent, child where parent.id = parent_id "
        "and name <> 'two' and v > 10 order by v")]
    assert [side["join"] for plan in plans for pipeline in engine.pipelines(plan)
            for side in pipeline["joins"]] == ["index child(parent_id)"] * 2

    def check(index_builds: int) -> None:
        builds = 0
        for plan in plans:
            result = engine.execute(plan)
            assert result.rows == reference.execute(plan.sql).rows, plan.sql
            builds += result.metrics.get("join.index_builds")
            assert result.metrics.get("join.build_rows") == 0
            assert result.metrics.get("join.index_probes") > 0
        assert builds == index_builds

    check(index_builds=1)  # the two plans share child(parent_id)
    check(index_builds=0)
    database.insert_rows("child", [(5, 3, 30), (6, 1, 12)])
    check(index_builds=1)  # dropped with the rows it referenced, rebuilt once
    assert engine.execute(plans[0]).rows[-1] == ("three", 30)
    # re-created: the plan cache is the caller's to clear, the index is not
    database.drop_table("child")
    database.create_table("child", [("id", "int"), ("parent_id", "int"), ("v", "int")])
    database.insert_rows("child", [(1, 2, 7)])
    assert engine.execute(plans[0]).rows == [("two", 7)]


def test_join_keys_compare_as_dict_keys_do():
    """NULL keys match nothing; ``1 == 1.0 == True`` match each other, as in
    the per-execution hash table the index replaces."""
    database = Database("keys")
    database.create_table("l", [("k", "float"), ("k2", "int")])
    database.create_table("r", [("k", "int"), ("k2", "int"), ("flag", "bool")])
    database.insert_rows("l", [(1.0, 1), (2.0, None), (None, 3), (4.5, 4)])
    database.insert_rows("r", [(1, 1, True), (2, None, False), (None, 3, None), (4, 4, True)])
    engine = RowEngine(database)
    reference = RowEngine(database, options=EngineOptions(compile_expressions=False))
    for sql, expected in [
        ("select l.k, r.k from l, r where l.k = r.k", [(1.0, 1), (2.0, 2)]),
        ("select l.k, r.k from l, r where l.k = r.k and l.k2 = r.k2", [(1.0, 1)]),
        ("select l.k, r.flag from l, r where l.k = r.flag", [(1.0, True), (1.0, True)]),
    ]:
        result = engine.execute(sql)
        assert result.rows == expected == reference.execute(sql).rows, sql
        assert result.metrics.get("join.index_probes") == 4


# ---------------------------------------------------------------------------
# plan-owned state
# ---------------------------------------------------------------------------


def test_correlation_is_decided_at_plan_time(tpch_db):
    engine = RowEngine(tpch_db)
    correlated = engine.prepare(QUERIES[17])  # ... where p_partkey = l_partkey (outer)
    assert not correlated.root.correlated
    inner = [block for block in correlated.blocks.values() if block is not correlated.root]
    assert [block.correlated for block in inner] == [True]
    uncorrelated = engine.prepare(
        "select count(*) from orders where o_totalprice > "
        "(select avg(o_totalprice) from orders)")
    assert [block.correlated for block in uncorrelated.blocks.values()] == [False, False]
    # an uncorrelated subquery runs once per execution, a correlated one per outer row
    assert engine.execute(uncorrelated).metrics.get("row.pipeline.generated") == 2
    assert engine.execute(correlated).metrics.get("row.pipeline.generated") > 2


def test_order_by_alias_is_not_an_outer_reference(tpch_db):
    engine = RowEngine(tpch_db)
    # Q3 4 5 7 8 9 10 11 13 15 16 20 21 22 order by a select-list alias
    for number in sorted(QUERIES):
        assert engine.explain(QUERIES[number])["plan"]["correlated"] is False, number
    sql = ("select n_name from nation where n_regionkey = "
           "(select r_regionkey as rk from region where r_name = 'ASIA' order by rk limit 1)")
    plan = engine.prepare(sql)
    assert [block.correlated for block in plan.blocks.values()] == [False, False]
    result = engine.execute(plan)
    assert len(result.rows) == 5
    assert result.metrics.get("row.pipeline.generated") == 2  # not once per nation


@pytest.fixture(scope="module")
def tiny_tpch() -> Database:
    database = Database("tpch-tiny")
    populate_tpch(database, scale_factor=0.0003)
    return database


@pytest.mark.parametrize("number,scale", [(17, "test"), (20, "test"), (21, "tiny"), (2, "tiny")])
def test_outer_columns_are_bound_once_per_run(tpch_db, tiny_tpch, number, scale):
    database = tpch_db if scale == "test" else tiny_tpch  # Q21 interprets for 10 s on the larger
    engine = RowEngine(database)
    plan = engine.prepare(QUERIES[number])
    hoisted = []
    for block in plan.blocks.values():
        pipeline = row_pipeline(plan, block)
        assert not any(isinstance(expression, ast.ColumnRef)
                       for expression, _ in pipeline.interpreted), number
        assert {ref.qualified for ref in pipeline.outer_refs} == \
            {ref.qualified for ref in block.outer_refs}
        hoisted += pipeline.outer_refs
        if pipeline.outer_refs:
            assert "= outers\n" in pipeline.source and block.correlated
    assert hoisted, number
    reference = RowEngine(database, options=EngineOptions(compile_expressions=False))
    assert engine.execute(plan).rows == reference.execute(QUERIES[number]).rows


def test_outer_null_and_unknown_columns_keep_interpreter_semantics():
    database = Database("outer")
    database.create_table("a", [("id", "int"), ("x", "int")])
    database.create_table("b", [("a_id", "int"), ("v", "int")])
    database.insert_rows("a", [(1, 5), (2, None), (3, 7)])
    database.insert_rows("b", [(1, 5), (1, 9), (2, 5), (3, None), (3, 7)])
    engine = RowEngine(database)
    reference = RowEngine(database, options=EngineOptions(compile_expressions=False))
    for sql in (
        "select id, (select count(*) from b where v = x) from a",
        "select id from a where exists (select 1 from b where a_id = id and v >= x)",
        "select id from a where x in (select v from b where a_id = a.id)",
    ):
        assert engine.execute(sql).rows == reference.execute(sql).rows, sql
    # a column no enclosing block resolves is not hoisted: it fails where the
    # interpreter fails, when a row reaches it
    for engine_ in (engine, reference):
        assert engine_.execute("select id from a where exists "
                               "(select 1 from b where v < 0 and v = nosuch)").rows == []
        with pytest.raises(ExecutionError, match="unknown column 'nosuch'"):
            engine_.execute("select id from a where exists "
                            "(select 1 from b where v = nosuch)")


# ---------------------------------------------------------------------------
# observability of generated code
# ---------------------------------------------------------------------------


def test_traceback_shows_the_generated_line(tpch_db):
    engine = RowEngine(tpch_db)
    with pytest.raises(ExecutionError, match="division by zero") as caught:
        engine.execute("select l_tax / (l_quantity - l_quantity) from lineitem")
    frames = [frame for frame in traceback.extract_tb(caught.value.__traceback__)
              if frame.filename.startswith("<rowpipe:")]
    assert frames, "no generated frame in the traceback"
    assert "_div(" in frames[-1].line
    assert linecache.getline(frames[-1].filename, frames[-1].lineno).strip() == frames[-1].line


def test_explain_exposes_structure_and_source(tpch_db):
    engine = RowEngine(tpch_db)
    (pipeline,) = engine.explain(QUERIES[3])["pipelines"]
    assert pipeline["generated"] and pipeline["driving"] == "customer"
    # all three carry push-down predicates, so both probed sides run theirs in the loop
    assert pipeline["joins"] == [
        {"source": "orders", "join": "index orders(o_custkey)", "table": "orders",
         "built": False, "filtered": True},
        {"source": "lineitem", "join": "index lineitem(l_orderkey)", "table": "lineitem",
         "built": False, "filtered": True}]
    assert pipeline["fused"] == ["scan", "join", "aggregate"]
    assert pipeline["source"].startswith("def pipeline(scans, indexes, outers, interp):")
    assert pipeline["interpreted"] == [] and pipeline["hoisted"] == []
    text = "\n".join(line for (line,) in engine.execute("explain " + QUERIES[3]).rows)
    assert f"generated pipeline {pipeline['file']}" in text
    assert "  join lineitem: index lineitem(l_orderkey)" in text
    assert "| def pipeline(scans, indexes, outers, interp):" in text
    text = "\n".join(line for (line,) in engine.execute("explain " + QUERIES[12]).rows)
    # the join order by binding name, with the rows the planner expects per level
    assert "Join (order: lineitem -> orders, estimated rows: " in text
    assert "  join orders: index orders(o_orderkey)" in text
    text = "\n".join(line for (line,) in engine.execute(
        "explain select count(*) from nation, customer, orders where n_nationkey = "
        "c_nationkey and c_custkey = o_custkey and o_orderstatus = 'F'").rows)
    assert "  join orders: hash on 1 key, built per execution" in text
    hooked = engine.explain(QUERIES[4])["pipelines"][0]
    assert len(hooked["interpreted"]) == 1 and hooked["interpreted"][0].startswith("exists")
    interpreted = RowEngine(tpch_db, options=EngineOptions(compile_expressions=False))
    assert interpreted.explain(QUERIES[3])["pipelines"] == []


def test_explain_analyze_marks_the_fused_operators(tpch_db):
    result = RowEngine(tpch_db).execute(QUERIES[3], trace=True)
    pipeline = result.trace.find("pipeline")
    filename = pipeline.attributes["source"]
    assert filename.startswith("<rowpipe:")
    assert [child.name for child in pipeline.children] == ["join", "aggregate"]
    for name in ("scan", "join", "aggregate"):
        for span in result.trace.find_all(name):
            assert span.attributes["fused"] == filename
    scans = {span.attributes["source"]: span for span in result.trace.find_all("scan")}
    assert scans["customer"].rows_in == tpch_db.row_count("customer")
    assert "access" not in scans["customer"].attributes
    # an index-probed side reads the rows its probes reach, not the table
    assert scans["orders"].attributes["access"] == "index"
    assert scans["orders"].attributes["index"] == "index orders(o_custkey)"
    assert "chunks_scanned" not in scans["orders"].attributes
    assert 0 < scans["orders"].rows_in < tpch_db.row_count("orders")
    assert scans["orders"].rows_out < scans["orders"].rows_in  # o_orderdate in the probe loop
    join = result.trace.find("join")
    assert join.attributes["build_rows"] == 0  # nothing is built per execution
    assert join.rows_in == scans["customer"].rows_out + scans["orders"].rows_out
    assert result.metrics.get("join.index_probes") == join.rows_in
    assert "join.build_rows" not in result.metrics.snapshot()
    aggregate = result.trace.find("aggregate")
    assert aggregate.rows_in == join.rows_out and aggregate.rows_out >= len(result.rows)
    # the interpreter's spans claim their own time and say nothing of fusion
    plain = RowEngine(tpch_db, options=EngineOptions(compile_expressions=False)).execute(
        QUERIES[3], trace=True)
    assert plain.trace.find("pipeline") is None
    assert "fused" not in plain.trace.find("join").attributes
    assert plain.trace.find("join").rows_out == join.rows_out


# ---------------------------------------------------------------------------
# partition, then fold; NULL-free flavours
# ---------------------------------------------------------------------------


def _engines(database: Database) -> tuple[RowEngine, RowEngine]:
    return RowEngine(database), RowEngine(database, options=EngineOptions(
        compile_expressions=False))


def test_float_sum_and_avg_fold_as_the_builtin_does():
    """``sum`` over the values in row order on both paths: from CPython 3.12
    the builtin compensates (1.0 here); a ``+=`` chain would say 0.0."""
    values = [1e16, 1.0, -1e16]
    database = Database("floats")
    for table, extra in (("plain", (2, 0.5)), ("nullable", (2, None))):
        database.create_table(table, [("k", "int"), ("x", "float")])
        database.insert_rows(table, [(1, value) for value in values] + [extra])
    engine, interpreter = _engines(database)
    total = sum(values)
    for sql, first in (
            ("select k, sum(x), avg(x), sum(x * 1.0), count(x) from {} group by k order by k",
             (1, total, total / 3, total, 3)),
            ("select sum(x), avg(x) from {} where k = 1", (total, total / 3))):
        for table in ("plain", "nullable"):
            rows = engine.execute(sql.format(table)).rows
            assert repr(rows) == repr(interpreter.execute(sql.format(table)).rows), table
            assert rows[0] == first, table
    assert engine.explain("select k, sum(x) from plain group by k")["pipelines"][0][
        "null_free"] == ["plain"]


def _ordered_as_before(rows: list[tuple], keys: list[tuple[int, bool]]) -> list[tuple]:
    """The sort the row engine did before it sorted NULL-free keys on the value."""
    ordered = list(rows)
    for position, descending in reversed(keys):
        ordered.sort(key=lambda row: (row[position] is None, row[position]),
                     reverse=descending)
    return ordered


@pytest.mark.parametrize("nulls", [False, True], ids=["null-free", "with-nulls"])
@pytest.mark.parametrize("order,keys", [
    ("a", [(1, False)]), ("a desc", [(1, True)]), ("b desc, a", [(2, True), (1, False)]),
    ("a, b desc, c", [(1, False), (2, True), (3, False)])])
def test_order_by_sorts_as_before_ties_included(nulls, order, keys):
    database = Database("order")
    database.create_table("t", [("id", "int"), ("a", "int"), ("b", "str"), ("c", "float")])
    rows = [(index, index % 3, "xyz"[index % 2], float(index % 4)) for index in range(24)]
    if nulls:
        rows = [(i, None if i % 5 == 0 else a, None if i % 7 == 0 else b, c)
                for i, a, b, c in rows]
    database.insert_rows("t", rows)
    for engine in _engines(database):
        unordered = engine.execute("select id, a, b, c from t").rows
        assert engine.execute(f"select id, a, b, c from t order by {order}").rows \
            == _ordered_as_before(unordered, keys)


def _generations(monkeypatch) -> list:
    """Every pipeline generated from here on, in order."""
    import repro.engine.compile as compile_module

    generated = []
    original = compile_module.compile_row_block

    def counting(*arguments, **keywords):
        generated.append(original(*arguments, **keywords))
        return generated[-1]

    monkeypatch.setattr(compile_module, "compile_row_block", counting)
    return generated


def _tests_for_null(source: str) -> bool:
    """Whether generated source tests a value for NULL (a group lookup is no test)."""
    source = source.replace("if g is None: groups[k]", "")
    return any(test in source for test in ("is None", "is not None", "None in"))


def test_a_null_an_insert_brings_makes_the_next_execution_test_for_it(monkeypatch):
    database = Database("flavours")
    database.create_table("li", [("flag", "str"), ("qty", "float"), ("disc", "float"),
                                 ("ship", "int"), ("pid", "int")])
    database.create_table("part", [("id", "int"), ("name", "str")])
    database.insert_rows("li", [("AR"[i % 2], float(i % 7), i % 3 / 10, i % 12, i % 4)
                                for i in range(40)])
    database.insert_rows("part", [(i, f"p{i % 2}") for i in range(4)])
    engine, interpreter = _engines(database)
    texts = [
        # Q1's shape: a filter, a group key and folds over NULL-free columns
        "select flag, sum(qty), avg(qty), sum(qty * (1 - disc)), avg(disc), count(qty), "
        "count(*), min(disc), max(qty) from li where ship <= 10 group by flag order by flag",
        # an index-probed side
        "select name, sum(qty), count(disc) from part, li where id = pid group by name "
        "order by name",
        # a derived table: always NULL-aware
        "select f, sum(q), count(q) from (select flag as f, qty as q from li) d "
        "group by f order by f"]
    plans = [engine.prepare(sql) for sql in texts]
    assert [side["join"] for side in engine.pipelines(plans[1])[0]["joins"]] == \
        ["index li(pid)"]
    generated = _generations(monkeypatch)

    def run() -> list[list[dict]]:
        for plan in plans:
            assert repr(engine.execute(plan).rows) == repr(interpreter.execute(plan.sql).rows)
        return [engine.pipelines(plan) for plan in plans]

    first = run()
    assert generated == []  # prepare generated the flavour the table's version asks for
    assert not _tests_for_null(first[0][0]["source"]) and first[0][0]["null_free"] == ["li"]
    assert not _tests_for_null(first[1][0]["source"])
    assert sorted(first[1][0]["null_free"]) == ["li", "part"]
    inner, outer = first[2]
    assert inner["null_free"] == ["li"] and not _tests_for_null(inner["source"])
    assert outer["null_free"] == [] and _tests_for_null(outer["source"])
    assert run() == first and generated == []  # warm: nothing is generated

    database.insert_rows("li", [(None, None, None, 5, 1)])
    second = run()
    assert len(generated) == 3  # one NULL-testing flavour per block that reads li
    assert _tests_for_null(second[0][0]["source"]) and second[0][0]["null_free"] == []
    assert _tests_for_null(second[1][0]["source"])
    assert second[1][0]["null_free"] == ["part"]
    assert second[2][1]["source"] == outer["source"]  # the derived table's did not change
    run()
    assert len(generated) == 3


def test_only_what_cannot_be_one_expression_loops_per_group(tpch_db):
    engine = RowEngine(tpch_db)
    (q1,) = engine.explain(QUERIES[1])["pipelines"]
    assert [(fold["argument"], fold["fold"]) for fold in q1["folds"]] == [
        ("l_quantity", "builtin"), ("l_extendedprice", "builtin"),
        ("l_extendedprice * (1 - l_discount)", "comprehension"),
        ("(l_extendedprice * (1 - l_discount)) * (1 + l_tax)", "comprehension"),
        ("l_discount", "builtin")]
    assert "+=" not in q1["source"].split("for g in groups:")[0].replace("n0 += 1", "")
    (q14,) = engine.explain(QUERIES[14])["pipelines"]  # a join; CASE over LIKE loops
    assert [fold["fold"] for fold in q14["folds"]] == ["comprehension", "loop"]
    text = "\n".join(line for (line,) in engine.execute("explain " + QUERIES[1]).rows)
    assert "  NULL-free scans: lineitem\n" in text
    assert "  aggregate arguments: 3 builtin, 2 comprehension, 0 loop\n" in text


def test_pipeline_table_reports_folds_and_null_free_scans(capsys):
    from repro.cli.main import main

    assert main(["pipelines"]) == 0
    header, q1 = capsys.readouterr().out.splitlines()[:2]
    assert "folds builtin/loop  NULL-free scans" in header
    assert q1.startswith("Q1 ") and "5 / 0            1 / 1  |" in q1


def test_a_null_inserted_while_the_rows_are_fetched_is_tested_for(monkeypatch):
    """The flavour is checked again once the inputs are in hand: a NULL that
    arrives between picking it and reading the rows is in the rows read."""
    from repro.engine.executor_row import RowExecutor

    database = Database("racing")
    database.create_table("t", [("k", "str"), ("x", "float")])
    database.insert_rows("t", [("a", 1.5), ("b", 2.0), ("a", 4.0)])
    engine, interpreter = _engines(database)
    plan = engine.prepare("select k, sum(x), min(x) from t group by k order by k")
    scan_rows, arrivals = RowExecutor._scan_rows, [("a", None), (None, 3.0)]

    def racing(self, item, *access):
        if self.compile_expressions and arrivals:
            database.insert_rows("t", [arrivals.pop()])
        return scan_rows(self, item, *access)

    monkeypatch.setattr(RowExecutor, "_scan_rows", racing)
    for _ in range(2):
        rows = engine.execute(plan).rows
        assert repr(rows) == repr(interpreter.execute(plan.sql).rows)
