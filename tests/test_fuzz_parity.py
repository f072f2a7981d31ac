"""Differential query fuzzer: row-vs-column parity under random queries.

A seeded generator produces ~200 random queries -- filters with nested
NOT/AND/OR over NULL-heavy literals, IN/BETWEEN/LIKE (negations included),
IS NULL, arithmetic and CASE projections, aggregates with GROUP BY/HAVING
(DISTINCT forms, a CASE that is an integer in some rows and a float in
others, arithmetic over aggregates, MIN / MAX of a date), equi-joins (on a
never-NULL key, on one and on two nullable keys, as a LEFT JOIN, under an OR
of ANDs over both tables) and aggregation over those joins -- against a
small database whose every column carries NULLs.  Each query is executed by
the row and the column engine under the full EngineOptions toggle matrix
(deduplicated by the options each engine actually consumes; the column
engine with one morsel per block and with four) and every result multiset
must match the interpreted, nested-loop row engine exactly: a reference that
evaluates ``a.k = b.k`` as the predicate it is, so the hash joins cannot
share a misreading of NULL keys with it.

Determinism: the corpus derives from a fixed seed, so a failure always
reproduces under the same iteration index (printed in the assertion
message).  ``FUZZ_ITERATIONS`` overrides the corpus size -- CI's smoke step
runs 50, the tier-1 suite the full 200.
"""

from __future__ import annotations

import dataclasses
import datetime
import itertools
import os
import random

import numpy as np
import pytest

from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine

FUZZ_SEED = 20260730
FUZZ_ITERATIONS = int(os.environ.get("FUZZ_ITERATIONS", "200"))

#: the full toggle matrix (compile_expressions, zone_maps,
#: dictionary_encoding); the column engine runs each row of it with
#: ``workers`` 1 and 4: 16 configurations per query.
ALL_TOGGLES = list(itertools.product([False, True], repeat=3))


def _options(compile_expressions, zone_maps, dictionary_encoding,
             workers=1) -> EngineOptions:
    return EngineOptions(compile_expressions=compile_expressions,
                         zone_maps=zone_maps,
                         dictionary_encoding=dictionary_encoding,
                         workers=workers)


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_db() -> Database:
    return _fuzz_database()


def _fuzz_database() -> Database:
    """Two small NULL-heavy tables; odd chunk size forces chunk boundaries.

    The first chunk of ``a.x`` is entirely NULL, so zone-map refutation runs
    against an all-NULL chunk in almost every generated filter.
    """
    rng = random.Random(FUZZ_SEED ^ 0x5EED)
    database = Database("fuzz", chunk_rows=17)
    database.create_table("a", [("id", "int"), ("x", "int"), ("y", "float"),
                                ("s", "str"), ("d", "date")])
    words = ["alpha", "beta", "gamma", "delta", "abba", "axle", "box", "ibex"]
    start = datetime.date(2020, 1, 1)
    rows = []
    for index in range(90):
        x = None if index < 17 or rng.random() < 0.3 else rng.randrange(0, 40)
        y = None if rng.random() < 0.3 else rng.randrange(0, 160) / 4.0
        s = None if rng.random() < 0.3 else rng.choice(words)
        d = None if rng.random() < 0.3 else \
            (start + datetime.timedelta(days=rng.randrange(0, 300))).isoformat()
        rows.append((index + 1, x, y, s, d))
    database.insert_rows("a", rows)

    database.create_table("b", [("id", "int"), ("a_id", "int"), ("v", "int"),
                                ("t", "str")])
    rows = []
    for index in range(45):
        a_id = None if rng.random() < 0.25 else rng.randrange(1, 91)
        v = None if rng.random() < 0.3 else rng.randrange(0, 25)
        t = None if rng.random() < 0.3 else rng.choice(words)
        rows.append((index + 1, a_id, v, t))
    database.insert_rows("b", rows)
    return database


# ---------------------------------------------------------------------------
# query generator
# ---------------------------------------------------------------------------


class QueryGenerator:
    """Deterministic random SQL over the fuzz schema.

    Stays inside the dialect both engines share bit-for-bit: no division or
    modulo (numpy and Python disagree on division-by-zero faulting), date
    columns only in comparison position and under MIN / MAX, numeric values
    small enough that ``int64`` cannot overflow.
    """

    NUM_COLS = ["a.id", "a.x"]
    FLOAT_COLS = ["a.y"]
    STR_COL = "a.s"
    DATE_COL = "a.d"
    PATTERNS = ["a%", "%a", "_e%", "ab_a", "%x%", "ibex"]
    WORDS = ["alpha", "beta", "gamma", "delta", "abba", "axle", "box", "ibex"]

    def __init__(self, rng: random.Random):
        self.rng = rng

    # -- literals ------------------------------------------------------------

    def _int_literal(self) -> str:
        if self.rng.random() < 0.2:
            return "null"  # NULL-heavy literals are the point of the corpus
        return str(self.rng.randrange(-5, 45))

    def _float_literal(self) -> str:
        if self.rng.random() < 0.2:
            return "null"
        return f"{self.rng.randrange(0, 160) / 4.0}"

    def _str_literal(self) -> str:
        if self.rng.random() < 0.2:
            return "null"
        return f"'{self.rng.choice(self.WORDS)}'"

    def _date_literal(self) -> str:
        day = datetime.date(2020, 1, 1) + datetime.timedelta(
            days=self.rng.randrange(0, 300))
        return f"date '{day.isoformat()}'"

    # -- predicates ----------------------------------------------------------

    def predicate(self, depth: int = 2, joined: bool = False) -> str:
        roll = self.rng.random()
        if depth <= 0 or roll < 0.35:
            return self._leaf(joined)
        if roll < 0.55:
            return f"not ({self.predicate(depth - 1, joined)})"
        connective = self.rng.choice(["and", "or"])
        return (f"({self.predicate(depth - 1, joined)}) {connective} "
                f"({self.predicate(depth - 1, joined)})")

    def _leaf(self, joined: bool) -> str:
        choices = [self._num_cmp, self._num_cmp, self._between, self._in_list,
                   self._is_null, self._like, self._str_cmp, self._date_cmp,
                   self._col_cmp]
        if joined:
            choices.append(self._b_cmp)
        return self.rng.choice(choices)()

    def _num_col(self) -> str:
        if self.rng.random() < 0.3:
            return self.FLOAT_COLS[0]
        return self.rng.choice(self.NUM_COLS)

    def _cmp_op(self) -> str:
        return self.rng.choice(["=", "<>", "<", "<=", ">", ">="])

    def _num_cmp(self) -> str:
        column = self._num_col()
        literal = self._float_literal() if column == "a.y" else self._int_literal()
        return f"{column} {self._cmp_op()} {literal}"

    def _col_cmp(self) -> str:
        return f"a.x {self._cmp_op()} a.id"

    def _b_cmp(self) -> str:
        return f"b.v {self._cmp_op()} {self._int_literal()}"

    def _between(self, ) -> str:
        negated = "not " if self.rng.random() < 0.4 else ""
        low, high = sorted([self.rng.randrange(-5, 45) for _ in range(2)])
        bounds = [str(low), str(high)]
        if self.rng.random() < 0.25:
            bounds[self.rng.randrange(2)] = "null"
        return f"a.x {negated}between {bounds[0]} and {bounds[1]}"

    def _in_list(self) -> str:
        negated = "not " if self.rng.random() < 0.4 else ""
        if self.rng.random() < 0.4:
            items = [self._str_literal() for _ in range(self.rng.randrange(1, 4))]
            return f"{self.STR_COL} {negated}in ({', '.join(items)})"
        items = [self._int_literal() for _ in range(self.rng.randrange(1, 5))]
        return f"a.x {negated}in ({', '.join(items)})"

    def _is_null(self) -> str:
        column = self.rng.choice(self.NUM_COLS + self.FLOAT_COLS
                                 + [self.STR_COL, self.DATE_COL])
        negated = "not " if self.rng.random() < 0.4 else ""
        return f"{column} is {negated}null"

    def _like(self) -> str:
        negated = "not " if self.rng.random() < 0.4 else ""
        return f"{self.STR_COL} {negated}like '{self.rng.choice(self.PATTERNS)}'"

    def _str_cmp(self) -> str:
        operator = self.rng.choice(["=", "<>"])
        return f"{self.STR_COL} {operator} {self._str_literal()}"

    def _date_cmp(self) -> str:
        return f"{self.DATE_COL} {self._cmp_op()} {self._date_literal()}"

    # -- projections ---------------------------------------------------------

    def projection(self) -> str:
        roll = self.rng.random()
        if roll < 0.25:
            return self.rng.choice(["a.id", "a.x", "a.y", "a.s"])
        if roll < 0.45:
            left = self._num_col()
            operator = self.rng.choice(["+", "-", "*"])
            return f"{left} {operator} {self._small_term()}"
        if roll < 0.6:
            return self.rng.choice([
                "abs(a.x - 7)", "length(a.s)", "upper(a.s)", "lower(a.s)",
                "coalesce(a.x, -1)", "- a.x", "a.s || '!'",
            ])
        if roll < 0.8:
            return (f"case when {self.predicate(1)} then {self._small_term()} "
                    f"else {self._small_term()} end")
        return f"({self.predicate(1)})"

    def _small_term(self) -> str:
        if self.rng.random() < 0.5:
            return str(self.rng.randrange(0, 9))
        return self.rng.choice(["a.x", "a.id"])

    # -- full queries --------------------------------------------------------

    def query(self) -> str:
        roll = self.rng.random()
        if roll < 0.35:
            return self._filter_query()
        if roll < 0.6:
            return self._aggregate_query()
        if roll < 0.78:
            return self._join_query()
        return self._join_aggregate_query()

    def _filter_query(self) -> str:
        items = ", ".join(["a.id"] + [self.projection()
                                      for _ in range(self.rng.randrange(0, 3))])
        distinct = "distinct " if self.rng.random() < 0.15 else ""
        return f"select {distinct}{items} from a where {self.predicate(3)}"

    AGGREGATES = ["count(*)", "count(a.x)", "sum(a.x)", "sum(a.y)",
                  "min(a.x)", "max(a.y)", "avg(a.y)", "min(a.s)",
                  "count(distinct a.s)"]
    JOINED_AGGREGATES = ["sum(b.v)", "count(b.id)", "max(b.t)", "count(distinct b.v)"]

    def _aggregate(self, joined: bool = False) -> str:
        """One select item over the groups: what the column engine's single
        aggregator owns -- plain and DISTINCT calls, a CASE argument that is
        an integer in some rows (and morsels) and a float or NULL in others,
        arithmetic between aggregates, MIN / MAX of a date."""
        roll = self.rng.random()
        if roll < 0.4:
            return self.rng.choice(self.AGGREGATES
                                   + (self.JOINED_AGGREGATES if joined else []))
        if roll < 0.55:
            function = self.rng.choice(["sum", "avg", "min", "max", "count"])
            columns = ["a.x", "a.y"] + (["a.s"] if function in ("min", "max", "count")
                                        else [])
            return f"{function}(distinct {self.rng.choice(columns)})"
        if roll < 0.75:
            function = self.rng.choice(["sum", "avg", "min", "max"])
            tail = self.rng.choice([" else a.y", " else 2.5", " else null", ""])
            return (f"{function}(case when {self._leaf(joined)} "
                    f"then {self.rng.choice(['a.x', 'a.id', '3'])}{tail} end)")
        if roll < 0.9:
            return self.rng.choice([
                "sum(a.x) + count(*)", "max(a.x) - min(a.x)", "count(*) * 2",
                "sum(a.y) - min(a.y)", "count(a.x) + count(a.s)",
                "- sum(a.x)", "sum(a.x) * count(distinct a.s)"])
        return f"{self.rng.choice(['min', 'max'])}(a.d)"

    def _aggregate_query(self) -> str:
        items = [self._aggregate() for _ in range(self.rng.randrange(1, 4))]
        where = f" where {self.predicate(2)}" if self.rng.random() < 0.7 else ""
        return f"select {self._grouped(items, f'a{where}', ['a.s', 'a.x'])}"

    def _grouped(self, items: list[str], source: str, keys: list[str]) -> str:
        """``items from source``, grouped (and filtered by HAVING) or global."""
        if self.rng.random() < 0.55:
            key = self.rng.choice(keys)
            having = ""
            if self.rng.random() < 0.5:
                having = f" having {self._having_predicate()}"
            return f"{key}, {', '.join(items)} from {source} group by {key}{having}"
        return f"{', '.join(items)} from {source}"

    def _having_predicate(self) -> str:
        leaves = [
            f"count(*) {self._cmp_op()} {self.rng.randrange(0, 6)}",
            f"sum(a.x) {self._cmp_op()} {self._int_literal()}",
            f"min(a.y) {self._cmp_op()} {self._float_literal()}",
            f"count(distinct a.s) {self._cmp_op()} {self.rng.randrange(0, 4)}",
            f"sum(a.x) + count(*) {self._cmp_op()} {self.rng.randrange(0, 60)}",
            f"max(a.d) {self._cmp_op()} {self._date_literal()}",
        ]
        first = self.rng.choice(leaves)
        roll = self.rng.random()
        if roll < 0.4:
            return f"not ({first})"
        if roll < 0.7:
            second = self.rng.choice(leaves)
            connective = self.rng.choice(["and", "or"])
            return f"({first}) {connective} ({second})"
        return first

    def _or_of_ands(self) -> str:
        """``(a-leaf and b-leaf) or ...``: every disjunct pins both tables, so
        the planner pushes the OR of each table's own conjuncts below the join
        (NULL-heavy on purpose: an UNKNOWN conjunct must not keep a row)."""
        return " or ".join(f"({self._leaf(False)} and {self._b_cmp()})"
                           for _ in range(self.rng.randrange(2, 4)))

    def _joined_source(self) -> str:
        """``a`` joined to ``b``, as a comma join or a LEFT JOIN, filtered."""
        keys = self.rng.choice(["a.id = b.a_id", "a.x = b.v",
                                "a.x = b.v and a.s = b.t", "a.s = b.t"])
        predicate = self._or_of_ands() if self.rng.random() < 0.3 \
            else self.predicate(2, joined=True)
        if self.rng.random() < 0.3:
            return f"a left join b on {keys} where {predicate}"
        return f"a, b where {keys} and ({predicate})"

    def _join_query(self) -> str:
        items = ", ".join(["a.id", "b.id"] + self.rng.sample(
            ["a.x", "a.s", "b.v", "b.t"], self.rng.randrange(1, 3)))
        return f"select {items} from {self._joined_source()}"

    def _join_aggregate_query(self) -> str:
        """GROUP BY / HAVING over the join shapes: the group keys and the
        aggregate arguments read the joined frame's lazily gathered (and,
        under a LEFT JOIN, NULL-padded) columns and dictionary codes."""
        items = [self._aggregate(joined=True) for _ in range(self.rng.randrange(1, 4))]
        keys = ["a.s", "a.x", "b.t", "b.v"]
        return f"select {self._grouped(items, self._joined_source(), keys)}"


# ---------------------------------------------------------------------------
# differential harness
# ---------------------------------------------------------------------------


def _canonical(rows) -> list[tuple]:
    """Engine-independent result multiset: python scalars, rounded, sorted."""
    out = []
    for row in rows:
        values = []
        for value in row:
            if isinstance(value, np.generic):
                value = value.item()
            if isinstance(value, bool):
                pass
            elif isinstance(value, float):
                value = round(value, 6)
                if value == int(value):
                    value = int(value)  # 10.0 (bincount) == 10 (python sum)
            values.append(value)
        out.append(tuple(values))
    out.sort(key=repr)
    return out


def _assert_trace_invariants(database: Database, result, context: str) -> None:
    """Structural invariants every execution trace must satisfy.

    * the root span reports exactly the rows the query returned,
    * every span is closed and nests strictly within its parent's window,
    * scan spans over base tables account for every storage chunk:
      ``chunks_scanned + chunks_skipped == total chunks``.
    """
    trace = result.trace
    assert trace is not None, f"{context}: tracing requested but absent"
    assert trace.root.rows_out == len(result.rows), \
        f"{context}: root span rows_out != result rows"
    for span in trace.spans():
        assert span.ended is not None, f"{context}: span {span.name} never closed"
        for child in span.children:
            assert child.started >= span.started, \
                f"{context}: span {child.name} starts before parent {span.name}"
            assert child.ended is not None and child.ended <= span.ended, \
                f"{context}: span {child.name} outlives parent {span.name}"
    for span in trace.find_all("scan"):
        scanned = span.attributes.get("chunks_scanned")
        skipped = span.attributes.get("chunks_skipped")
        table = str(span.attributes.get("source", "")).split(" ")[0]
        if scanned is None or skipped is None or table not in database:
            continue
        total = len(database.storage(table).chunks)
        assert scanned + skipped == total, \
            f"{context}: scan of {table} covers {scanned}+{skipped} != {total} chunks"
    # morsel-parallel operators: per-worker lane attributes must sum back to
    # the operator span's totals (chunk accounting and row counts alike).
    for span in trace.spans():
        lanes = [child for child in span.children if child.name == "worker"]
        if not lanes or span.name not in ("scan", "filter"):
            continue
        assert sum(lane.rows_out or 0 for lane in lanes) == span.rows_out, \
            f"{context}: {span.name} worker lanes do not sum to rows_out"
        if span.name == "scan":
            lane_scanned = sum(lane.attributes.get("chunks_scanned", 0)
                               for lane in lanes)
            lane_skipped = sum(lane.attributes.get("chunks_skipped", 0)
                               for lane in lanes)
            assert lane_scanned == span.attributes.get("chunks_scanned"), \
                f"{context}: worker lanes scanned {lane_scanned} chunks, " \
                f"span says {span.attributes.get('chunks_scanned')}"
            assert lane_skipped == span.attributes.get("chunks_skipped"), \
                f"{context}: worker lanes skipped {lane_skipped} chunks, " \
                f"span says {span.attributes.get('chunks_skipped')}"


def _assert_parity(database: Database, sql: str, label: str) -> None:
    reference = RowEngine(database, options=dataclasses.replace(
        _options(False, True, True), hash_joins=False)).execute(sql)
    expected = _canonical(reference.rows)
    seen: set[tuple] = set()
    for toggles in ALL_TOGGLES:
        for workers in (1, 4):
            options = _options(*toggles, workers=workers)
            engines = [ColumnEngine(database, options=options)]
            if workers == 1:
                engines.insert(0, RowEngine(database, options=options))
            for engine in engines:
                effective = (engine.strategy(), toggles[0]) \
                    if engine.strategy() == "row" \
                    else (engine.strategy(), *toggles, workers)
                if effective in seen:
                    continue
                seen.add(effective)
                result = engine.execute(sql, trace=True)
                config = (f"{engine.strategy()} compile={toggles[0]} "
                          f"zones={toggles[1]} dict={toggles[2]} workers={workers}")
                assert result.columns == reference.columns, \
                    f"{label} [{config}] columns differ on: {sql}"
                assert _canonical(result.rows) == expected, \
                    f"{label} [{config}] rows differ on: {sql}"
                _assert_trace_invariants(database, result,
                                         f"{label} [{config}] on: {sql}")


def test_differential_fuzz_parity(fuzz_db):
    rng = random.Random(FUZZ_SEED)
    generator = QueryGenerator(rng)
    for iteration in range(FUZZ_ITERATIONS):
        sql = generator.query()
        _assert_parity(fuzz_db, sql, f"iteration {iteration}")


def test_join_sample_holds_after_an_insert():
    """Derived views (row lists, columnar arrays, the key indexes the row
    engine's joins probe and the key orders the column engine's do) are
    dropped by a mutation: the join queries of the corpus agree with the
    reference before an insert and after it -- on fresh engines, and on two
    whose cached plans ran against the old views."""
    database = _fuzz_database()
    generator = QueryGenerator(random.Random(FUZZ_SEED))
    corpus = [generator.query() for _ in range(FUZZ_ITERATIONS)]
    sample = [sql for sql in corpus if " b " in sql][:8]
    assert sample
    warm = [RowEngine(database), ColumnEngine(database)]
    reference = RowEngine(database, options=dataclasses.replace(
        _options(False, True, True), hash_joins=False))

    def assert_warm_engines(label: str) -> None:
        for number, sql in enumerate(sample):
            expected = _canonical(reference.execute(sql).rows)
            for engine in warm:
                assert _canonical(engine.execute(engine.prepare(sql)).rows) == expected, \
                    f"{label}, cached {engine.strategy()} plan of join {number}: {sql}"

    assert_warm_engines("before insert")
    for number, sql in enumerate(sample):
        _assert_parity(database, sql, f"before insert, join {number}")
    # new matches for every key shape: duplicate keys, NULL keys, a new a.id
    database.insert_rows("a", [(91, 7, 1.5, "abba", "2020-03-01"),
                               (92, None, None, None, None)])
    database.insert_rows("b", [(46, 91, 7, "abba"), (47, 91, None, None),
                               (48, None, 7, "abba"), (49, 3, 12, "box")])
    assert_warm_engines("after insert")
    for number, sql in enumerate(sample):
        _assert_parity(database, sql, f"after insert, join {number}")


def test_corpus_is_deterministic():
    first = QueryGenerator(random.Random(FUZZ_SEED))
    second = QueryGenerator(random.Random(FUZZ_SEED))
    corpus_a = [first.query() for _ in range(25)]
    corpus_b = [second.query() for _ in range(25)]
    assert corpus_a == corpus_b
