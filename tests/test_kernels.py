"""Tests for the compiled-kernel layer and selection-vector execution.

Covers the kernel-compilation subsystem (``engine/compile.py``), the
``compile_expressions`` engine option, the ambiguous-column fix in
``ColFrame.position``, the O(1) subquery-cache keying, and a row/column
parity sweep over every TPC-H query, compiled and interpreted.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        execution (the plan's scan state, stored key orders) returns
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
        # the result: the scan's frame is the plan's, built by prepare
        assert self._frames_per_execution(engine, QUERIES[6]) == 1
        assert self._frames_per_execution(engine, unfiltered) == 1
        interpreted = ColumnEngine(parity_db, options=_options(False))
        assert self._frames_per_execution(interpreted, QUERIES[6]) == 2
        assert self._frames_per_execution(interpreted, unfiltered) == 1

    def test_join_pipeline_composes_selections(self, parity_db):
        """Q3's three filtered scans and two joins: a frame per join and the
        result -- the scans' frames are the plan's, and the filtered scans
        are joined through their selections, never materialised to be
        gathered again."""
        assert self._frames_per_execution(ColumnEngine(parity_db), QUERIES[3]) == 3


_GLOBAL_VALUES = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=40),
    st.lists(st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, 0.1, -2.5]), max_size=12),
    st.lists(st.integers(-2**40, 2**40), max_size=40))


@given(values=_GLOBAL_VALUES, name=st.sampled_from(["sum", "avg", "min", "max", "count"]))
@settings(max_examples=300, deadline=None)
def test_one_group_folds_as_the_grouped_fold_does(values, name):
    """A block without GROUP BY folds without a group-id vector; what comes
    out is what ``np.bincount`` / ``minimum.at`` over one group of ids gave,
    bit for bit -- a sum of nothing but -0.0 included."""
    import numpy as np

    from repro.engine.executor_column import _Folds

    array = np.array(values, dtype=np.int64 if values and isinstance(values[0], int)
                     else np.float64)
    call = ast.FunctionCall(name, [ast.ColumnRef(name="x")])
    uses = frozenset({"sum" if name == "avg" else name})
    sizes = np.array([len(array)], dtype=np.int64)
    one = _Folds(array, uses, None, sizes, len(array) > 0).value(call)
    grouped = _Folds(array, uses, np.zeros(len(array), dtype=np.int64), sizes,
                     len(array) > 0).value(call)
    assert repr(one.tolist()) == repr(grouped.tolist())
    assert one.dtype == grouped.dtype


_CODED_STRINGS = st.lists(
    st.one_of(st.none(), st.sampled_from(["", "a", "A", "b", "ab", "é", "z"]),
              st.text(max_size=3)), max_size=30)


def _view_dictionary(values: list):
    """The int32 codes of ``values`` (-1 for None) and their dictionary, as a
    columnar view hands them out."""
    import numpy as np

    from repro.engine.database import ViewDictionary
    from repro.engine.storage import Dictionary

    dictionary = Dictionary()
    codes, _ = dictionary.encode(values)
    return codes, ViewDictionary(dictionary)


@given(columns=st.lists(_CODED_STRINGS, min_size=1, max_size=3), data=st.data())
@settings(max_examples=200, deadline=None)
def test_order_over_codes_is_the_order_over_strings(columns, data):
    """ORDER BY over dictionary codes ranks them by the dictionary's sorted
    strings, NULL last: the permutation is the one ranking the strings
    themselves gives -- and the one a stable sort of the rows, one key at a
    time from the least significant, gives -- over ties, NULLs and either
    direction, for one to three keys."""
    import numpy as np

    from repro.engine.keys import Ranked, order_index

    rows = min(map(len, columns))
    columns = [column[:rows] for column in columns]
    descending = data.draw(st.lists(st.booleans(), min_size=len(columns),
                                    max_size=len(columns)))
    coded, objects = [], []
    for column, desc in zip(columns, descending):
        codes, dictionary = _view_dictionary(column)
        rank = dictionary.rank()
        coded.append((Ranked(rank[codes]), desc))
        objects.append((np.array(column, dtype=object), desc))
    expected = list(range(rows))
    for column, desc in reversed(list(zip(columns, descending))):
        expected.sort(key=lambda row: (column[row] is None, column[row] or ""), reverse=desc)
    if rows:
        assert order_index(coded).tolist() == order_index(objects).tolist() == expected


@given(values=_CODED_STRINGS, data=st.data())
@settings(max_examples=100, deadline=None)
def test_rows_decoded_from_codes_are_the_object_rows(values, data):
    """``ColFrame.rows`` decodes a coded column from the codes of the rows it
    delivers; what comes out is what the object array delivered, ``repr``
    for ``repr`` -- all rows, a permutation, a LIMIT's slice."""
    import numpy as np

    from repro.engine.vector import DecodedColumns

    codes, dictionary = _view_dictionary(values)
    columns = [ColumnInfo("t", "s", "str"), ColumnInfo("t", "n", "int")]
    numbers = np.arange(len(values), dtype=np.int64)
    plain = ColFrame(columns, [np.array(values, dtype=object), numbers], len(values))
    coded = ColFrame(columns, DecodedColumns([None, numbers], [codes, None], [dictionary, None]),
                     len(values), codes=[codes, None], dictionaries=[dictionary, None])
    permutation = np.array(data.draw(st.permutations(range(len(values)))), dtype=np.int64)
    for index in (None, permutation, slice(1, 4)):
        assert repr(coded.rows(index)) == repr(plain.rows(index))
    # read as an array, the column is the object array
    assert repr(coded.arrays[0].tolist()) == repr(values)


class TestFoldsAndCodesAgreeWithTheRowEngine:
    """Each aggregate argument folds once for all of its calls, over one
    count of the groups' rows (an argument with NULLs counts its own), and
    dictionary-coded strings stay codes through ORDER BY to delivery: the
    rows are the row engine's, compiled and interpreted."""

    QUERIES = [
        "select k, count(v), sum(v), avg(v), min(v), max(v), count(*) from t "
        "group by k order by k desc",
        "select k, count(w), sum(w), avg(w), min(w), max(w), count(*) from t "
        "group by k order by k desc",
        "select s, k from t order by s desc, k",
        "select count(v), sum(v), avg(v), min(s), max(s), count(distinct s), "
        "sum(distinct v), avg(v) + sum(w) from t",
        "select s, count(*), avg(w) from t where k > 1 group by s "
        "having count(v) > 0 order by s",
        "select count(v), sum(v), min(s) from t where k > 99",
        "select distinct s from t order by s desc limit 3",
    ]

    @pytest.fixture(scope="class")
    def nulls_db(self) -> Database:
        database = Database("folds", chunk_rows=4)
        database.create_table("t", [("k", "int"), ("s", "str"), ("v", "float"),
                                    ("w", "float")])
        database.insert_rows("t", [
            (index % 4, None if index % 5 == 0 else "xyzab"[index % 3:index % 3 + 2],
             None if index % 3 == 0 else index / 8.0, index * 0.25) for index in range(23)])
        return database

    @pytest.mark.parametrize("sql", QUERIES)
    def test_rows_are_the_row_engines(self, nulls_db, sql):
        expected = repr(RowEngine(nulls_db, options=_options(False)).execute(sql).rows)
        for (compile_expressions,) in TOGGLES:
            for engine_cls in (RowEngine, ColumnEngine):
                engine = engine_cls(nulls_db, options=_options(compile_expressions))
                assert repr(engine.execute(sql).rows) == expected, \
                    f"{engine.strategy()} compile={compile_expressions}"

    def test_each_argument_folds_once(self, nulls_db):
        """Five calls over ``v`` (NULLs: its own count) and a ``count(*)``:
        the group count, ``v``'s count, sum, min and max."""
        result = ColumnEngine(nulls_db).execute(self.QUERIES[0])
        assert result.metrics.get("aggregate.folds") == 5
        result = ColumnEngine(nulls_db).execute(self.QUERIES[1])
        assert result.metrics.get("aggregate.folds") == 4  # ``w`` has no NULL

    def test_order_by_a_coded_column_ranks_its_codes(self, nulls_db):
        result = ColumnEngine(nulls_db).execute(self.QUERIES[2])
        assert result.metrics.get("sort.kernel_rows") == 23
        assert not result.metrics.get("sort.fallback_rows")

    @pytest.mark.parametrize("toggles", TOGGLES)
    def test_substring_with_a_row_varying_start(self, toggles, parity_db):
        """A start or length that varies by row is sliced row by row."""
        sql = "select substring(n_name from n_regionkey + 1 for 1) from nation"
        expected = RowEngine(parity_db, options=_options(False)).execute(sql).rows
        assert ColumnEngine(parity_db, options=_options(*toggles)).execute(sql).rows == expected


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
        engine's kernels and each block's scans -- the frame, the
        dictionary-code kernels (a ``compile()`` and a walk over the
        dictionary per string predicate), the zone gate, the scan window's
        rows -- are the plan's, built in ``prepare``, not inside its first
        timed repetition.  They stay current until a mutation; the next
        execution rebuilds them, once."""
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

        def scans(plan) -> list:
            executor = engine._executor(plan)
            return [executor.state(block).tables.current(database)
                    for block in plan.blocks.values()]

        earlier: dict[str, list] = {}
        for round_ in range(2):  # a text prepared again builds a state of its own
            engine.clear_plan_cache()
            for sql in texts:
                plan = engine.prepare(sql)
                built = scans(plan)
                assert all(found is not None for found in built), sql
                assert all(found is not before
                           for found, before in zip(built, earlier.get(sql, ()))), sql
                earlier[sql] = built
                monkeypatch.setattr(builtins, "compile", spy)
                engine.execute(plan)
                monkeypatch.setattr(builtins, "compile", real_compile)
                assert all(map(operator.is_, scans(plan), built)), sql
            assert compiled == []
        # a mutation after prepare: the next execution rebuilds the state, once
        plan = engine.prepare(QUERIES[3])  # c_mktsegment = 'BUILDING'
        built = scans(plan)
        database.insert_rows("customer", [database.rows("customer")[0]])
        assert scans(plan) == [None] * len(plan.blocks)
        engine.execute(plan)
        rebuilt = scans(plan)
        assert all(found is not None and found is not before
                   for found, before in zip(rebuilt, built))
        engine.execute(plan)
        assert all(map(operator.is_, scans(plan), rebuilt))

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
