"""The join order is the planner's business, never the result's.

The planner costs left-deep orders from the storage statistics, so which
table a block drives from now varies with the data.  Nothing a query returns
may vary with it:

* every permutation of a comma FROM list -- of the differential fuzzer's
  join grammar and of all 22 TPC-H texts -- returns the same column names and
  the same row multiset (ties in the cost go to FROM order, so permuting the
  list does move the join order);
* an oracle that bypasses the ordering altogether: the same join written as an
  explicit ``JOIN ... ON`` tree in FROM order, which both engines execute as
  written, equals the comma form;
* ``*`` and an unqualified name two bindings share follow the FROM clause,
  whichever table drives.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine
from repro.errors import PlanError
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_select
from repro.sqlparser.printer import to_sql
from repro.tpch import QUERIES
from tests.test_fuzz_parity import FUZZ_SEED, QueryGenerator, _fuzz_database


@pytest.fixture(scope="module")
def fuzz_db() -> Database:
    return _fuzz_database()


def _canonical(rows: list[tuple]) -> list[tuple]:
    """The rows as a multiset: sorted on a key that last-digit float noise
    (a sum taken in another order) does not move."""
    return sorted(rows, key=lambda row: repr(tuple(
        float(f"{value:.6g}") if isinstance(value, float) else value for value in row)))


def _assert_same(result, expected, context: str) -> None:
    assert result.columns == expected.columns, context
    got, want = _canonical(result.rows), _canonical(expected.rows)
    assert len(got) == len(want), context
    for have, row in zip(got, want):
        assert have == pytest.approx(row, rel=1e-9, abs=1e-12), context


def _comma_blocks(select: ast.Select) -> list[ast.Select]:
    """The blocks of a query whose FROM clause lists several items."""
    return [node for node in select.walk()
            if isinstance(node, ast.Select) and len(node.from_items) > 1]


def _reshaped(select: ast.Select, reshape) -> ast.Select:
    """``select`` built anew, nested blocks first, with ``reshape(block)`` in
    place of each block whose FROM clause lists several items (AST nodes are
    frozen values: a reshaped query is a new tree)."""
    def visit(node: ast.Node) -> ast.Node:
        node = ast.rebuild(node, visit)
        if isinstance(node, ast.Select) and len(node.from_items) > 1:
            return reshape(node)
        return node
    return visit(select)


def _kept(node: ast.Node) -> ast.Node:
    return node


def _engines(database: Database, interpreter: bool = True) -> list:
    engines = [RowEngine(database), ColumnEngine(database)]
    if interpreter:  # it joins frame by frame, the generator in one loop nest
        engines.append(RowEngine(database, options=EngineOptions(compile_expressions=False)))
    return engines


# ---------------------------------------------------------------------------
# (a) permuting a comma FROM list changes nothing
# ---------------------------------------------------------------------------


#: what each TPC-H text returns as it is written, per engine label.
_AS_WRITTEN: dict[tuple[str, int], object] = {}


@settings(max_examples=44, deadline=None)
@given(number=st.sampled_from(sorted(QUERIES)), data=st.data())
def test_tpch_texts_do_not_depend_on_from_order(tpch_db, number, data):
    select = parse_select(QUERIES[number])
    blocks = _comma_blocks(select)
    sql = to_sql(_reshaped(select, lambda block: ast.rebuild(
        block, _kept, from_items=data.draw(st.permutations(block.from_items)))))
    for engine in _engines(tpch_db, interpreter=False) if blocks else []:
        key = (engine.label, number)
        if key not in _AS_WRITTEN:
            _AS_WRITTEN[key] = engine.execute(QUERIES[number])
        _assert_same(engine.execute(sql), _AS_WRITTEN[key],
                     f"Q{number} on {engine.label}: {sql}")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fuzzed_joins_do_not_depend_on_from_order(fuzz_db, seed):
    generator = QueryGenerator(random.Random(FUZZ_SEED ^ seed))
    sql = generator._join_query()
    select = parse_select(sql)
    if len(select.from_items) < 2:
        return  # a LEFT JOIN: one FROM item, executed as written
    select.from_items.reverse()
    for engine in _engines(fuzz_db):
        _assert_same(engine.execute(to_sql(select)), engine.execute(sql),
                     f"{engine.label} {engine.options}: {sql}")


# ---------------------------------------------------------------------------
# (b) the explicit-JOIN oracle
# ---------------------------------------------------------------------------


def _as_join_tree(block: ast.Select, database: Database) -> ast.Select:
    """``block`` with its comma FROM list as one ``JOIN ... ON`` tree in FROM order.

    An ``a.x = b.y`` conjunct of the WHERE clause moves into the ON condition
    of the first join whose two sides hold its columns; an item nothing links
    to the ones before it is a CROSS JOIN.  Names are resolved here, from the
    catalog, not by the planner.
    """
    def owner(ref: ast.ColumnRef) -> int | None:
        for index, item in enumerate(block.from_items):
            if ref.table is not None and ref.table.lower() != item.binding.lower():
                continue
            if database.catalog.table(item.name).has_column(ref.name):
                return index
        return None

    conjuncts = ast.conjuncts(block.where)
    tree = block.from_items[0]
    for index in range(1, len(block.from_items)):
        linking = [conjunct for conjunct in conjuncts
                   if isinstance(conjunct, ast.Comparison) and conjunct.operator == "="
                   and isinstance(conjunct.left, ast.ColumnRef)
                   and isinstance(conjunct.right, ast.ColumnRef)
                   and None not in (owner(conjunct.left), owner(conjunct.right))
                   and max(owner(conjunct.left), owner(conjunct.right)) == index
                   and min(owner(conjunct.left), owner(conjunct.right)) < index]
        conjuncts = [conjunct for conjunct in conjuncts
                     if not any(conjunct is moved for moved in linking)]
        condition = None if not linking else linking[0] if len(linking) == 1 \
            else ast.BoolOp("and", linking)
        tree = ast.Join(tree, block.from_items[index], "inner" if linking else "cross",
                        condition)
    return ast.rebuild(block, _kept, from_items=[tree],
                       where=None if not conjuncts else conjuncts[0] if len(conjuncts) == 1
                       else ast.BoolOp("and", conjuncts))


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_explicit_join_trees_equal_the_comma_form(tpch_db, number):
    select = parse_select(QUERIES[number])
    blocks = [block for block in _comma_blocks(select)
              if all(isinstance(item, ast.TableRef) for item in block.from_items)]
    if not blocks:
        pytest.skip("no comma join over base tables")
    sql = to_sql(_reshaped(select, lambda block: _as_join_tree(block, tpch_db) if all(
        isinstance(item, ast.TableRef) for item in block.from_items) else block))
    for engine in _engines(tpch_db, interpreter=False):
        plan = engine.prepare(sql)
        assert all(step.estimated_rows is None  # executed as written, nothing costed
                   for block in plan.blocks.values() for step in block.join_order
                   if any(isinstance(item, ast.Join) for item in block.select.from_items))
        _assert_same(engine.execute(plan), engine.execute(QUERIES[number]),
                     f"Q{number} on {engine.label}: {sql}")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fuzzed_explicit_joins_equal_the_comma_form(fuzz_db, seed):
    generator = QueryGenerator(random.Random(FUZZ_SEED ^ seed))
    sql = generator._join_query()
    select = parse_select(sql)
    if len(select.from_items) < 2:
        return
    select = _as_join_tree(select, fuzz_db)
    for engine in _engines(fuzz_db):
        _assert_same(engine.execute(to_sql(select)), engine.execute(sql),
                     f"{engine.label} {engine.options}: {sql}")


# ---------------------------------------------------------------------------
# output shape: stars and shared names follow the FROM clause
# ---------------------------------------------------------------------------


def test_star_expands_in_from_order_whatever_drives(tpch_db):
    sql = ("select * from region, supplier, nation "
           "where r_regionkey = n_regionkey and s_nationkey = n_nationkey")
    tables = ("region", "supplier", "nation")
    expected = [column.name for table in tables
                for column in tpch_db.catalog.table(table).columns]
    results = [engine.execute(sql) for engine in _engines(tpch_db)]
    plan = RowEngine(tpch_db).prepare(sql)
    assert plan.root.join_names() != list(tables)  # joined in another order than listed
    assert plan.root.output_names == expected
    reference = RowEngine(tpch_db, options=EngineOptions(
        compile_expressions=False, hash_joins=False)).execute(
        "select * from region join nation on r_regionkey = n_regionkey "
        "join supplier on s_nationkey = n_nationkey")
    width = len(tpch_db.catalog.table("region").columns)
    nation = len(tpch_db.catalog.table("nation").columns)
    for result in results:
        assert result.columns == expected
        # the explicit tree lists nation before supplier: move its columns back
        assert _canonical(result.rows) == _canonical([
            row[:width] + row[width + nation:] + row[width:width + nation]
            for row in reference.rows])
    qualified = RowEngine(tpch_db).execute(
        "select nation.*, region.* from region, supplier, nation "
        "where r_regionkey = n_regionkey and s_nationkey = n_nationkey")
    assert qualified.columns == expected[-nation:] + expected[:width]


@pytest.fixture()
def people() -> Database:
    """``boss`` points into the same table; the two sizes of filter make
    either binding the cheaper one to drive from."""
    database = Database("people")
    database.create_table("person", [("id", "int"), ("boss", "int"), ("name", "str")])
    database.insert_rows("person", [(number, number // 4 if number else None, f"p{number}")
                                    for number in range(40)])
    return database


@pytest.mark.parametrize("where,driving", [
    ("w.id >= 36", "w"), ("w.id >= 5 and b.id = 1", "b")])
def test_shared_unqualified_names_are_refused_whatever_the_driving_table(people, where,
                                                                          driving):
    """``name``, ``id`` and ``boss`` are columns of both bindings.  Qualified,
    the rows do not depend on the table the statistics drive from.
    Unqualified, each is ambiguous: ``prepare`` refuses it on both engines,
    as SQLite does -- in the select list, the join key and the residual --
    where the row engine used to take ``w``'s (the binding listed first) and
    the column engine refused the select list only when it ran."""
    qualified = (f"select w.name, b.name, w.id from person w, person b "
                 f"where w.boss = b.id and {where} and w.id + b.id > 0")
    expected = None
    for options in (EngineOptions(), EngineOptions(compile_expressions=False),
                    EngineOptions(hash_joins=False),
                    EngineOptions(compile_expressions=False, hash_joins=False)):
        for engine in (RowEngine(people, options=options),
                       ColumnEngine(people, options=options)):
            assert engine.prepare(qualified).root.join_names()[0] == driving
            rows = sorted(engine.execute(qualified).rows)
            assert rows == (expected or rows) and len(rows) == (4 if driving == "w" else 3)
            expected = rows
            for shared in ("name, b.name, w.id", "w.name, b.name, id"):
                with pytest.raises(PlanError, match="ambiguous column name"):
                    engine.prepare(qualified.replace("w.name, b.name, w.id", shared))
            for shared in ("boss = b.id", "id + b.id > 0"):
                unqualified = qualified.replace(f"w.{shared}", shared)
                assert unqualified != qualified
                with pytest.raises(PlanError, match="ambiguous column name"):
                    engine.prepare(unqualified)


def test_equality_between_bindings_of_one_from_item_still_filters(people):
    """``w.id = b.id`` names two bindings of the one explicit JOIN tree: no
    join step can take it as a key, so it filters the joined rows (it used to
    be dropped)."""
    sql = "select w.id, b.id from person w join person b on w.boss = b.id where w.name = b.name"
    for engine in _engines(people):
        assert engine.execute(sql).rows == []  # nobody is their own boss
        assert len(engine.prepare(sql).root.residual) == 1
    kept = "select w.id, b.id from person w join person b on w.boss = b.id where w.boss = b.id"
    assert len(RowEngine(people).execute(kept).rows) == 39
