"""Exhaustive Kleene three-valued-logic truth tables, both engines.

Every unary/binary boolean combination over {TRUE, FALSE, NULL} is driven
through the four positions a predicate can appear in -- WHERE filter,
projection, HAVING, and CASE condition -- and checked against a Python
reference implementation of the Kleene tables, for the row *and* the column
engine under the full toggle matrix.  This pins the PR's headline fix: a
bare ``NOT (expr)`` over a NULL operand used to differ between the engines
(ROADMAP "Three-valued NOT").
"""

from __future__ import annotations

import itertools

import pytest

from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine

#: the full storage/kernel toggle matrix (compile_expressions, zone_maps,
#: dictionary_encoding).
ALL_TOGGLES = list(itertools.product([False, True], repeat=3))

#: the kernel toggle alone (the storage toggles cannot affect projection /
#: HAVING / CASE positions, which run after the scan).
KERNEL_TOGGLES = [(False,), (True,)]

#: the nine (a, b) value combinations; 1 encodes TRUE, 0 FALSE, None NULL
#: (through the predicate ``a = 1`` / ``b = 1``).
COMBOS = list(itertools.product([1, 0, None], repeat=2))


def _truth(value):
    """Three-valued truth of the encoded column value under ``col = 1``."""
    return None if value is None else (value == 1)


def k_not(a):
    return None if a is None else (not a)


def k_and(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def k_or(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


#: every boolean shape exercised, as (sql-template, reference-fn) pairs.
#: ``{A}`` / ``{B}`` expand to the base predicates per position.
EXPRESSIONS = [
    ("not {A}", lambda a, b: k_not(a)),
    ("not (not {A})", lambda a, b: k_not(k_not(a))),
    ("{A} and {B}", k_and),
    ("{A} or {B}", k_or),
    ("not ({A} and {B})", lambda a, b: k_not(k_and(a, b))),
    ("not ({A} or {B})", lambda a, b: k_not(k_or(a, b))),
    ("(not {A}) or {B}", lambda a, b: k_or(k_not(a), b)),
    ("{A} and (not {B})", lambda a, b: k_and(a, k_not(b))),
]


def _options(compile_expressions, zone_maps=True, dictionary_encoding=True):
    return EngineOptions(compile_expressions=compile_expressions,
                         zone_maps=zone_maps,
                         dictionary_encoding=dictionary_encoding)


@pytest.fixture(scope="module")
def truth_db() -> Database:
    """One row per (a, b) combination; small chunks to exercise zone maps."""
    database = Database("kleene", chunk_rows=4)
    database.create_table("tv", [("id", "int"), ("a", "int"), ("b", "int")])
    database.insert_rows("tv", [
        (index + 1, a, b) for index, (a, b) in enumerate(COMBOS)
    ])
    return database


def _engines(database, toggles):
    for combo in toggles:
        options = _options(*combo)
        yield RowEngine(database, options=options), combo
        yield ColumnEngine(database, options=options), combo


class TestFilterPosition:
    @pytest.mark.parametrize("template,reference", EXPRESSIONS,
                             ids=[sql for sql, _ in EXPRESSIONS])
    def test_truth_table_in_where(self, template, reference, truth_db):
        predicate = template.format(A="(a = 1)", B="(b = 1)")
        expected = [
            (index + 1,) for index, (a, b) in enumerate(COMBOS)
            if reference(_truth(a), _truth(b)) is True  # UNKNOWN drops the row
        ]
        sql = f"select id from tv where {predicate} order by id"
        for engine, combo in _engines(truth_db, ALL_TOGGLES):
            result = engine.execute(sql)
            assert result.rows == expected, \
                f"{engine.strategy()} {combo}: {predicate}"


class TestProjectionPosition:
    @pytest.mark.parametrize("template,reference", EXPRESSIONS,
                             ids=[sql for sql, _ in EXPRESSIONS])
    def test_truth_table_projected(self, template, reference, truth_db):
        expression = template.format(A="(a = 1)", B="(b = 1)")
        expected = [
            (index + 1, reference(_truth(a), _truth(b)))
            for index, (a, b) in enumerate(COMBOS)
        ]
        sql = f"select id, {expression} as verdict from tv order by id"
        for engine, combo in _engines(truth_db, KERNEL_TOGGLES):
            result = engine.execute(sql)
            assert result.rows == expected, \
                f"{engine.strategy()} {combo}: {expression}"


class TestHavingPosition:
    """Per-id groups: min(col) over the single row keeps the NULL, so the
    aggregate-position predicates hit the same nine combinations."""

    @pytest.mark.parametrize("template,reference", EXPRESSIONS,
                             ids=[sql for sql, _ in EXPRESSIONS])
    def test_truth_table_in_having(self, template, reference, truth_db):
        predicate = template.format(A="(min(a) = 1)", B="(min(b) = 1)")
        expected = [
            (index + 1,) for index, (a, b) in enumerate(COMBOS)
            if reference(_truth(a), _truth(b)) is True
        ]
        sql = f"select id from tv group by id having {predicate} order by id"
        for engine, combo in _engines(truth_db, KERNEL_TOGGLES):
            result = engine.execute(sql)
            assert result.rows == expected, \
                f"{engine.strategy()} {combo}: {predicate}"


class TestCasePosition:
    @pytest.mark.parametrize("template,reference", EXPRESSIONS,
                             ids=[sql for sql, _ in EXPRESSIONS])
    def test_truth_table_in_case(self, template, reference, truth_db):
        predicate = template.format(A="(a = 1)", B="(b = 1)")
        expected = [
            (index + 1, 1 if reference(_truth(a), _truth(b)) is True else 0)
            for index, (a, b) in enumerate(COMBOS)  # UNKNOWN takes the ELSE
        ]
        sql = (f"select id, case when {predicate} then 1 else 0 end as branch "
               f"from tv order by id")
        for engine, combo in _engines(truth_db, KERNEL_TOGGLES):
            result = engine.execute(sql)
            assert result.rows == expected, \
                f"{engine.strategy()} {combo}: {predicate}"


class TestScalarKleeneOperands:
    """NULL literals inside the connectives (no column involved at all)."""

    @pytest.mark.parametrize("sql,expected", [
        ("select count(*) from tv where null and 1 = 2", 0),   # U AND F = F
        ("select count(*) from tv where null or 1 = 1", 9),    # U OR T = T
        ("select count(*) from tv where not null", 0),         # NOT U = U
        ("select count(*) from tv where null or 1 = 2", 0),    # U OR F = U
    ])
    def test_null_literal_connectives(self, sql, expected, truth_db):
        for engine, combo in _engines(truth_db, KERNEL_TOGGLES):
            assert engine.execute(sql).scalar() == expected, \
                f"{engine.strategy()} {combo}: {sql}"


# ---------------------------------------------------------------------------
# NULL join keys: ``NULL = NULL`` is UNKNOWN, so a hash join must not pair them
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def null_key_db() -> Database:
    """Two tables whose join columns carry NULLs on both sides."""
    database = Database("null-keys", chunk_rows=4)
    database.create_table("a", [("id", "int"), ("k", "int"), ("s", "str")])
    database.insert_rows("a", [
        (1, 10, "x"), (2, None, "y"), (3, 20, None), (4, None, None), (5, 10, "y"),
    ])
    database.create_table("b", [("id", "int"), ("k", "int"), ("s", "str")])
    database.insert_rows("b", [
        (1, 10, "y"), (2, None, "y"), (3, None, None), (4, 20, "z"), (5, 10, "x"),
    ])
    return database


def _join_engines(database):
    """Both engines under every toggle that picks a different join path."""
    for hash_joins, (compile_expressions,) in \
            itertools.product([True, False], KERNEL_TOGGLES):
        options = EngineOptions(hash_joins=hash_joins,
                                compile_expressions=compile_expressions)
        yield RowEngine(database, options=options), options
        yield ColumnEngine(database, options=options), options


class TestNullJoinKeys:
    @pytest.mark.parametrize("sql,expected", [
        # inner, one integer key: the two NULL-keyed a rows pair with nothing
        ("select a.id, b.id from a, b where a.k = b.k",
         [(1, 1), (1, 5), (3, 4), (5, 1), (5, 5)]),
        # string keys: a.s is NULL for ids 3 and 4, b.s for id 3
        ("select a.id, b.id from a, b where a.s = b.s",
         [(1, 5), (2, 1), (2, 2), (5, 1), (5, 2)]),
        # two keys: a NULL in either one rules the pair out
        ("select a.id, b.id from a, b where a.k = b.k and a.s = b.s",
         [(1, 5), (5, 1)]),
        # LEFT JOIN: a NULL-keyed left row is NULL-padded, not matched
        ("select a.id, b.id from a left join b on a.s = b.s",
         [(1, 5), (2, 1), (2, 2), (3, None), (4, None), (5, 1), (5, 2)]),
        ("select a.id, b.id from a left join b on a.k = b.k and a.s = b.s",
         [(1, 5), (2, None), (3, None), (4, None), (5, 1)]),
        # ... and IS NULL over the padding sees it
        ("select a.id from a left join b on a.k = b.k where b.id is null",
         [(2,), (4,)]),
    ])
    def test_null_keys_never_match(self, sql, expected, null_key_db):
        for engine, options in _join_engines(null_key_db):
            rows = sorted(engine.execute(sql).rows,
                          key=lambda row: tuple((value is None, value) for value in row))
            assert rows == expected, f"{engine.strategy()} {options}: {sql}"


def test_none_positions_is_an_identity_test():
    """Falsy and NaN cells are values; only ``None`` itself is NULL."""
    import datetime

    import numpy as np

    from repro.engine.mask import none_positions

    cells = [None, 0, 0.0, "", False, float("nan"), np.float64(0), np.int64(0),
             datetime.date(2020, 1, 1), "None", None]
    mask = none_positions(np.array(cells, dtype=object))
    assert mask.dtype == bool
    assert mask.tolist() == [cell is None for cell in cells]
    assert none_positions(np.array([], dtype=object)).tolist() == []
