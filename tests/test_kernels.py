"""Tests for the compiled-kernel layer and selection-vector execution.

Covers the kernel-compilation subsystem (``engine/compile.py``), the
``compile_expressions`` engine option, the ambiguous-column fix in
``ColFrame.position``, the O(1) subquery-cache keying, and a row/column
parity sweep over every TPC-H query, compiled and interpreted.
"""

from __future__ import annotations

import pytest

from repro.data import populate_tpch
from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine
from repro.engine.compile import CompileFallback, Layout, compile_row_kernel
from repro.engine.planner import ColumnInfo
from repro.engine.vector import ColFrame
from repro.errors import ExecutionError
from repro.sqlparser import ast
from repro.tpch import QUERIES
from tests.conftest import normalise

#: the kernel engine option (compile_expressions), off and on.
TOGGLES = [(False,), (True,)]


def _options(compile_expressions: bool) -> EngineOptions:
    return EngineOptions(compile_expressions=compile_expressions)


@pytest.fixture(scope="module")
def parity_db() -> Database:
    """A very small TPC-H instance: the parity sweep runs many configurations
    per query, so the interpreted row engine must stay fast on the join-heavy
    queries (Q19/Q21 walk a cross product).  The odd chunk size forces
    multiple (and partial) storage chunks so zone maps and chunk boundaries
    are genuinely exercised."""
    database = Database("tpch-parity", chunk_rows=53)
    populate_tpch(database, scale_factor=0.0003)
    return database


@pytest.fixture()
def small_db() -> Database:
    database = Database("kernel-unit")
    database.create_table("t", [("id", "int"), ("name", "str"), ("price", "float"),
                                ("day", "date")])
    database.insert_rows("t", [
        (1, "alpha", 10.0, "2020-01-01"),
        (2, "beta", 20.0, "2020-02-01"),
        (3, "gamma", 30.0, "2020-03-01"),
    ])
    database.create_table("u", [("id", "int"), ("t_id", "int"), ("tag", "str")])
    database.insert_rows("u", [(1, 1, "x"), (2, 3, "y")])
    return database


class TestTPCHParity:
    """Row and column engines agree on every TPC-H query with compiled
    kernels and without: kernels -- and the column engine's zone-map chunk
    skipping and dictionary-code predicates, which every execution takes --
    must change performance, never semantics."""

    @pytest.mark.parametrize("query_id", sorted(QUERIES))
    def test_all_toggle_combinations_agree(self, query_id, parity_db):
        sql = QUERIES[query_id]
        reference = RowEngine(parity_db, options=_options(False)).execute(sql)
        expected = (reference.columns, normalise(reference.rows))
        for (compile_expressions,) in TOGGLES:
            options = _options(compile_expressions)
            for engine in (RowEngine(parity_db, options=options),
                           ColumnEngine(parity_db, options=options)):
                result = engine.execute(sql)
                label = f"Q{query_id} {engine.strategy()} compile={compile_expressions}"
                assert result.columns == reference.columns, f"{label}: columns differ"
                assert normalise(result.rows) == expected[1], f"{label}: rows differ"

    @pytest.mark.parametrize("query_id", sorted(QUERIES))
    def test_compiled_and_interpreted_rows_are_identical(self, query_id, parity_db):
        """Unrounded: on each engine the compiled and the interpreted plan
        return the same values bit for bit, and a prepared plan's warm second
        execution (memoised scan kernels, zone survivors, key orders) returns
        what its first one did."""
        sql = QUERIES[query_id]
        for engine_cls in (RowEngine, ColumnEngine):
            interpreted = repr(engine_cls(parity_db, options=_options(False)).execute(sql).rows)
            engine = engine_cls(parity_db, options=_options(True))
            plan = engine.prepare(sql)
            first = repr(engine.execute(plan).rows)
            warm = repr(engine.execute(plan).rows)
            label = f"Q{query_id} {engine.strategy()}"
            assert first == interpreted, f"{label}: compiled rows differ from interpreted"
            assert warm == first, f"{label}: warm execution differs from the first"


class TestAmbiguousColumns:
    def test_colframe_position_raises_on_ambiguity(self):
        import numpy as np

        frame = ColFrame(
            columns=[ColumnInfo("t", "id", "int"), ColumnInfo("u", "id", "int")],
            arrays=[np.array([1]), np.array([2])], length=1)
        with pytest.raises(ExecutionError, match="ambiguous column 'id'"):
            frame.position(ast.ColumnRef(name="id"))
        # qualified references still resolve
        assert frame.position(ast.ColumnRef(name="id", table="u")) == 1

    def test_column_engine_rejects_ambiguous_reference(self, small_db):
        engine = ColumnEngine(small_db)
        with pytest.raises(ExecutionError, match="ambiguous column"):
            engine.execute("select id from t, u where t.id = u.t_id")

    def test_qualified_reference_still_works(self, small_db):
        engine = ColumnEngine(small_db)
        result = engine.execute(
            "select t.id from t, u where t.id = u.t_id order by t.id")
        assert [row[0] for row in result.rows] == [1, 3]


class TestSubqueryCacheKeying:
    @pytest.mark.parametrize("kind", ["row", "column"])
    def test_uncorrelated_subquery_never_reprints_sql(self, kind, small_db, monkeypatch):
        """The per-row cache hit must be an id() lookup, not a to_sql render."""
        import repro.engine.plan as plan_module
        import repro.sqlparser.printer as printer

        calls = {"count": 0}
        original = printer.to_sql

        def counting(node):
            calls["count"] += 1
            return original(node)

        monkeypatch.setattr(printer, "to_sql", counting)
        monkeypatch.setattr(plan_module, "to_sql", counting)

        engine = (RowEngine if kind == "row" else ColumnEngine)(small_db)
        plan = engine.prepare(
            "select count(*) from t where id in (select t_id from u)")
        calls["count"] = 0
        result = engine.execute(plan)
        assert result.scalar() == 2
        assert calls["count"] == 0, "execution re-printed subquery SQL"


class TestSelectionVectors:
    def _frames_per_execution(self, engine, sql) -> int:
        plan = engine.prepare(sql)
        engine.execute(plan)  # warm kernels and columnar views
        result = engine.execute(plan)
        return int(result.metrics.get("frame.materialisations"))

    def test_no_intermediate_frame_per_residual_predicate(self, parity_db):
        """A query with four predicates allocates exactly as many ColFrames
        as one with none: predicates refine the selection index instead of
        materialising a masked frame each.  Interpreted,
        the selected rows are gathered once, for whatever is evaluated after
        the predicates, not once per predicate."""
        unfiltered = "select sum(l_extendedprice * l_discount) as revenue from lineitem"
        engine = ColumnEngine(parity_db)
        assert self._frames_per_execution(engine, QUERIES[6]) == 2  # scan + result
        assert self._frames_per_execution(engine, unfiltered) == 2
        interpreted = ColumnEngine(parity_db, options=_options(False))
        assert self._frames_per_execution(interpreted, QUERIES[6]) == 3
        assert self._frames_per_execution(interpreted, unfiltered) == 2

    def test_join_pipeline_composes_selections(self, parity_db):
        """Q3's three filtered scans and two joins: a frame per scan, one per
        join and the result -- the filtered scans are joined through their
        selections, never materialised to be gathered again."""
        assert self._frames_per_execution(ColumnEngine(parity_db), QUERIES[3]) == 6


class TestEmptyAggregates:
    """Regression: Q17's correlated-subquery filter can empty the frame; the
    column engine used to crash combining aggregates over zero groups."""

    @pytest.mark.parametrize("kind", ["row", "column"])
    @pytest.mark.parametrize("toggles", TOGGLES)
    def test_arithmetic_over_empty_aggregate(self, kind, toggles, small_db):
        engine = (RowEngine if kind == "row" else ColumnEngine)(
            small_db, options=_options(*toggles))
        result = engine.execute("select sum(price) / 7.0 as avg_x from t where id > 99")
        assert result.rows == [(None,)]

    @pytest.mark.parametrize("toggles", TOGGLES)
    def test_count_over_empty_input(self, toggles, small_db):
        engine = ColumnEngine(small_db, options=_options(*toggles))
        result = engine.execute("select count(*), sum(price) from t where id > 99")
        assert result.rows == [(0, None)]


    @pytest.mark.parametrize("toggles", TOGGLES)
    def test_expressions_over_empty_aggregates(self, toggles, small_db):
        """What is computed from the aggregates of an empty input is computed
        from them (0 + 0 is 0, not NULL); a NULL aggregate stays NULL through
        a unary minus; what is not an aggregate -- a literal too -- has no
        row to be read from and is NULL."""
        sql = ("select count(*) + count(price), - sum(price), 7, count(*) * 2 "
               "from t where id > 99")
        grouped = ("select name, - sum(case when id > 5 then price end), - sum(price) "
                   "from t group by name order by name")
        for engine in (RowEngine(small_db, options=_options(*toggles)),
                       ColumnEngine(small_db, options=_options(*toggles))):
            assert engine.execute(sql).rows == [(0, None, None, None)], engine.label
            assert engine.execute(grouped).rows == [
                ("alpha", None, -10.0), ("beta", None, -20.0), ("gamma", None, -30.0)]


class TestAggregateResultTypes:
    """``sum`` / ``min`` / ``max`` keep their input's type, ``avg`` is a float,
    ``count`` an int and an all-NULL input NULL -- on both engines, compiled
    and interpreted, grouped or not, DISTINCT or not."""

    @pytest.fixture(scope="class")
    def typed_db(self) -> Database:
        database = Database("types", chunk_rows=3)
        database.create_table("t", [("g", "str"), ("i", "int"), ("f", "float"),
                                    ("n", "int")])
        database.insert_rows("t", [
            ("a" if index % 3 else "b", None if index == 4 else index % 5,
             None if index == 7 else index / 4.0, None) for index in range(11)])
        return database

    @pytest.mark.parametrize("function,column,expected", [
        ("sum", "i", int), ("min", "i", int), ("max", "i", int), ("avg", "i", float),
        ("count", "i", int),
        ("sum", "f", float), ("min", "f", float), ("max", "f", float), ("avg", "f", float),
        ("count", "f", int),
        ("sum", "n", type(None)), ("min", "n", type(None)), ("max", "n", type(None)),
        ("avg", "n", type(None)), ("count", "n", int),
    ])
    @pytest.mark.parametrize("compile_expressions", [True, False])
    def test_result_type(self, typed_db, function, column, expected, compile_expressions):
        options = _options(compile_expressions)
        engines = [RowEngine(typed_db, options=options),
                   ColumnEngine(typed_db, options=options)]
        for sql in (f"select {function}({column}) from t",
                    f"select g, {function}({column}) from t group by g",
                    f"select {function}(distinct {column}) from t",
                    f"select g, {function}(distinct {column}) from t group by g"):
            results = [engine.execute(sql).rows for engine in engines]
            assert results[0] == results[1], sql
            for engine, rows in zip(engines, results):
                assert [type(row[-1]) for row in rows] == [expected] * len(rows), \
                    f"{engine.label} {engine.options.describe()}: {sql}"

    @pytest.mark.parametrize("function", ["sum", "min", "max", "avg"])
    @pytest.mark.parametrize("argument,expected", [
        # integers in the first rows, floats in the later ones (and the
        # other way round): the first rows' type does not type the result
        ("case when i < 12 then 0 else f end", float),
        ("case when i < 28 then f else 1 end", float),
        ("case when i < 12 then 0 else i end", int),
    ])
    @pytest.mark.parametrize("compile_expressions", [True, False])
    def test_mixed_case_argument(self, function, argument, expected, compile_expressions):
        database = Database("mixed", chunk_rows=4)
        database.create_table("t", [("g", "str"), ("i", "int"), ("f", "float")])
        database.insert_rows("t", [("a" if index % 3 else "b", index, index + 0.25)
                                   for index in range(40)])
        reference = RowEngine(database, options=EngineOptions(
            compile_expressions=False))
        options = _options(compile_expressions)
        engines = [RowEngine(database, options=options),
                   ColumnEngine(database, options=options)]
        for sql in (f"select {function}({argument}) from t",
                    f"select g, {function}({argument}) from t group by g",
                    f"select {function}(distinct {argument}) from t",
                    f"select {function}({argument}) from t where i > 7"):
            wanted = reference.execute(sql).rows
            for engine in engines:
                rows = engine.execute(sql).rows
                assert rows == wanted, f"{engine.label}: {sql}"
                # min / max of a mixed CASE may pick the int 0 on the row
                # engine and 0.0 from a float64 column: equal, so not pinned
                if function in ("sum", "avg"):
                    assert {type(row[-1]) for row in rows} == {
                        float if function == "avg" else expected}, \
                        f"{engine.label}: {sql}"


class TestKernelCompilation:
    def test_options_describe_includes_new_toggles(self, small_db):
        described = ColumnEngine(small_db).options.describe()
        assert described["compile_expressions"] is True

    def test_with_version_overrides_toggles(self, small_db):
        base = ColumnEngine(small_db)
        interpreted = base.with_version("interp", compile_expressions=False,
                                        hash_joins=False)
        assert not interpreted.options.compile_expressions
        assert not interpreted.options.hash_joins
        assert base.options.compile_expressions

    def test_kernels_cached_on_plan(self, small_db):
        from repro.engine.compile import compile_row_block

        engine = RowEngine(small_db)
        plan = engine.prepare("select name from t where price > 15")
        block = plan.root
        first = plan.kernels(block, ("row",), compile_row_block)
        second = plan.kernels(block, ("row",), compile_row_block)
        assert first is second

    def test_prepare_leaves_no_compile_work_to_the_first_execution(self, monkeypatch):
        """``measure_query`` times executions of a prepared plan: the column
        engine's dictionary-code kernels (a ``compile()`` and a walk over the
        dictionary per string predicate) and zone-map survivor sets are keyed
        by the identity of the plan's predicates, so a fresh plan has to build
        them -- in ``prepare``, not inside its first timed repetition."""
        import builtins

        database = Database("tpch-prepare")
        populate_tpch(database, scale_factor=0.001)
        engine = ColumnEngine(database)
        texts = [QUERIES[number] for number in (3, 5, 6, 7, 8, 9, 10, 12, 14)]
        compiled: list[str] = []
        real_compile = builtins.compile

        def spy(source, filename, *args, **kwargs):
            compiled.append(filename)
            return real_compile(source, filename, *args, **kwargs)

        for round_ in range(2):  # a text prepared again has new predicates
            engine.clear_plan_cache()
            built = 0
            for sql in texts:
                plan = engine.prepare(sql)
                built += len(database.storage("lineitem").scan_kernel_cache)
                monkeypatch.setattr(builtins, "compile", spy)
                first = engine.execute(plan)
                monkeypatch.setattr(builtins, "compile", real_compile)
                assert first.metrics.get("scan.dictionary_kernel.misses") == 0, sql
                assert first.metrics.get("scan.zone_memo.misses") == 0, sql
            assert compiled == []
            assert built  # there were kernels to build, and prepare built them
        # a mutation after prepare drops them; the next execution rebuilds, as before
        plan = engine.prepare(QUERIES[3])  # c_mktsegment = 'BUILDING'
        database.insert_rows("customer", [database.rows("customer")[0]])
        assert engine.execute(plan).metrics.get("scan.dictionary_kernel.misses") == 1

    def test_row_kernel_matches_interpreter(self):
        layout = Layout([ColumnInfo("t", "a", "int"), ColumnInfo("t", "b", "float")])
        expression = ast.BinaryOp(
            "*", ast.ColumnRef(name="a"),
            ast.BinaryOp("+", ast.Literal(1, "number"), ast.ColumnRef(name="b")))
        kernel = compile_row_kernel(expression, layout)
        assert kernel((3, 0.5)) == pytest.approx(4.5)
        assert kernel((None, 0.5)) is None  # NULL propagation

    def test_subquery_expressions_fall_back(self):
        layout = Layout([ColumnInfo("t", "a", "int")])
        subquery = ast.ScalarSubquery(ast.Select())
        with pytest.raises(CompileFallback):
            compile_row_kernel(ast.Comparison("=", ast.ColumnRef(name="a"), subquery),
                               layout)

    def test_constant_folding(self):
        kernel = compile_row_kernel(
            ast.BinaryOp("+", ast.Literal(1, "number"), ast.Literal(2, "number")),
            Layout([]))
        assert kernel(()) == 3
