"""Shared fixtures: a tiny TPC-H database, engines, and a measured pool."""

from __future__ import annotations

import datetime
import re
import sqlite3

import pytest

from repro.core import parse_grammar
from repro.core.dsl import FIGURE1_GRAMMAR
from repro.data import populate_tpch
from repro.engine import ColumnEngine, Database, RowEngine
from repro.pool.pool import QueryPool
from repro.sqlparser import extract_grammar
from repro.tpch import QUERIES


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    """A deterministic, tiny TPC-H instance shared by the whole session."""
    database = Database("tpch-test")
    populate_tpch(database, scale_factor=0.001)
    return database


@pytest.fixture(scope="session")
def row_engine(tpch_db) -> RowEngine:
    return RowEngine(tpch_db)


@pytest.fixture(scope="session")
def column_engine(tpch_db) -> ColumnEngine:
    return ColumnEngine(tpch_db)


@pytest.fixture(scope="session")
def engines(row_engine, column_engine):
    return [row_engine, column_engine]


@pytest.fixture()
def figure1_grammar():
    """The grammar of Figure 1 in the paper."""
    return parse_grammar(FIGURE1_GRAMMAR, name="figure1")


@pytest.fixture()
def q1_grammar():
    """The grammar extracted from TPC-H Q1 (the paper's running example)."""
    return extract_grammar(QUERIES[1])


@pytest.fixture()
def q1_pool(q1_grammar) -> QueryPool:
    """A small pool seeded from the Q1 grammar."""
    pool = QueryPool(q1_grammar, seed=13)
    pool.seed_baseline()
    pool.seed_random(4)
    return pool


def normalise(rows, digits: int = 2):
    """Round floats so results from the two engines can be compared."""
    out = []
    for row in rows:
        out.append(tuple(
            round(value, digits) if isinstance(value, float) else value for value in row
        ))
    return out


# ---------------------------------------------------------------------------
# an outside voter: the same tables in stdlib sqlite3
# ---------------------------------------------------------------------------

_SQLITE_TYPES = {"int": "INTEGER", "float": "REAL", "str": "TEXT", "date": "TEXT",
                 "bool": "INTEGER"}


def sqlite_mirror(database: Database, tables: list[str] | None = None) -> sqlite3.Connection:
    """``tables`` of ``database`` (all of them by default) loaded into an
    in-memory SQLite, rows in storage order, dates as ISO text.

    The engines are tested against each other everywhere else; this is the
    voter that shares no code with them.  It speaks the subset of the dialect
    both understand -- Kleene logic, comparisons, ``BETWEEN``, ``IN``,
    ``LIKE``, the five aggregates, ``LIMIT`` in scan order -- through
    :func:`sqlite_rows`, which rewrites the date literals.
    """
    connection = sqlite3.connect(":memory:")
    for name in tables or database.table_names():
        columns = database.catalog.table(name).columns
        connection.execute(f"create table {name} (" + ", ".join(
            f"{column.name} {_SQLITE_TYPES[column.type_name]}" for column in columns) + ")")
        connection.executemany(
            f"insert into {name} values ({', '.join('?' * len(columns))})",
            [tuple(value.isoformat() if isinstance(value, datetime.date) else value
                   for value in row) for row in database.rows(name)])
    return connection


def sqlite_rows(connection: sqlite3.Connection, sql: str) -> list[tuple]:
    """What SQLite answers to ``sql``, written in this repo's dialect:
    ``date '2020-03-01'`` becomes ``'2020-03-01'`` (ISO text orders as dates do)."""
    return connection.execute(
        re.sub(r"\bdate\s+'", "'", sql, flags=re.IGNORECASE)).fetchall()


def comparable(rows) -> list[tuple]:
    """Engine rows as SQLite would hand them back: dates as ISO text."""
    return [tuple(value.isoformat() if isinstance(value, datetime.date) else value
                  for value in row) for row in rows]
