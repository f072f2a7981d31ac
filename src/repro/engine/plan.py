"""The logical-plan intermediate representation shared by both engines.

Historically each executor re-derived the same analysis from the raw AST on
every execution: name resolution of the FROM bindings, classification of the
WHERE conjuncts into push-down / equi-join / residual sets, the greedy
equi-join-connected join order, and the output column names.  SQALPEL's
driver runs every pool query five-plus times per target system, so that work
was repeated on every single repetition.

This module factors the analysis into a *plan-once/execute-many* pipeline:

* :class:`Planner` walks a parsed SELECT once and produces a
  :class:`QueryPlan` -- one :class:`BlockPlan` per query block (the root
  SELECT plus every nested subquery), each holding the resolved scope
  columns, the classified predicates, the push-down assignment, the join
  schedule (a left-deep order costed from the storage statistics, with every
  key position resolved) and the output names,
* :class:`RowExecutor` / :class:`ColumnExecutor` consume the shared plan and
  only perform the *physical* work (materialise, filter, join, aggregate),
* :class:`PlanCache` is a keyed LRU (normalised SQL text -> plan) that
  engines consult in :meth:`Engine.prepare`, so the driver's repetition loop
  and the pool's morph/re-measure cycle lex, parse and plan exactly once per
  distinct query.

The plan is *logical*: access paths and the representation of intermediate
frames stay each backend's own; the plan fixes the decisions both share --
among them that the joined columns stay in FROM order whatever the join order,
and so the position of every join key.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import accumulate

from repro.engine.catalog import Catalog
from repro.engine.planner import (
    ClassifiedPredicates,
    ColumnInfo,
    Layout,
    Scope,
    classify_conjuncts,
    output_columns,
    output_types,
    probes_index,
)
from repro.engine.storage.skipping import (
    column_intervals,
    estimate_conjunction,
    estimate_selectivity,
)
from repro.engine.types import ordinal_to_date
from repro.errors import PlanError
from repro.sqlparser import ast
from repro.sqlparser.printer import to_sql

#: Equi-join conjunct as classified from the WHERE clause.
EquiJoin = tuple[ast.ColumnRef, ast.ColumnRef, ast.Expression]

#: the kinds of explicit JOIN the executors run (the parser also reads FULL).
JOIN_KINDS = ("inner", "cross", "left", "right")


#: a quoted literal: ``''`` is an escaped quote, an unterminated one runs to
#: the end of the text.
_LITERAL = re.compile(r"('(?:[^']|'')*(?:'|\Z))")
_BLANKS = re.compile(r"\s+")


def normalize_sql(sql: str) -> str:
    """Whitespace-collapsed cache key for a SQL text (case preserved).

    Whitespace inside single-quoted string literals is preserved -- two
    queries differing only inside a literal must never share a cache key.
    Every ``prepare`` of a text pays this, plan-cache hit or not, so it is
    two regex passes and no loop over characters: cut the text at its
    literals, collapse each run of blanks between them to one space.
    """
    pieces = _LITERAL.split(sql)  # every other piece is a literal
    pieces[::2] = [_BLANKS.sub(" ", piece) for piece in pieces[::2]]
    return "".join(pieces).strip().rstrip("; ")


def order_positions(select: ast.Select, output_names: list[str]) -> list[int]:
    """Output-column position of every ORDER BY item of ``select``.

    An item names an output column, gives its 1-based position, or repeats
    a select-list expression.  The planner resolves the items of every block
    once (:attr:`BlockPlan.order_positions`; the executors only read them), so
    a sort key that is not part of the select list is refused by ``prepare``
    with a :class:`PlanError`: the text never reaches ``execute``, on any block.
    """
    lowered = [name.lower() for name in output_names]
    positions: list[int] = []
    for item in select.order_by:
        expression = item.expression
        if isinstance(expression, ast.ColumnRef) and expression.table is None \
                and expression.name.lower() in lowered:
            positions.append(lowered.index(expression.name.lower()))
            continue
        if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
            positions.append(expression.value - 1)
            continue
        rendered = to_sql(expression)
        for index, select_item in enumerate(select.items):
            if to_sql(select_item.expression) == rendered:
                positions.append(index)
                break
        else:
            raise PlanError(
                f"ORDER BY expression '{rendered}' is not part of the select list")
    return positions


@dataclass(frozen=True)
class JoinStep:
    """One step of a block's join schedule.

    ``frame_index`` names the FROM item to bring in next; ``connecting`` are
    the equi-join conjuncts linking it to the frames joined so far (empty for
    the first step and for cross joins).

    Whatever the join order, the columns joined so far stay in FROM order:
    the item's go in at ``cut``.  An unqualified name two bindings share then
    resolves to the binding the FROM clause lists first, as it did when the
    conjuncts were classified, and ``*`` expands as the text reads -- neither
    may depend on which table the statistics chose to drive from.
    """

    frame_index: int
    connecting: tuple[EquiJoin, ...] = ()
    #: per connecting conjunct, the key's position among the columns joined
    #: so far and among the item's own.
    keys: tuple[tuple[int, int], ...] = ()
    #: where the item's columns go among the columns joined so far.
    cut: int = 0
    #: the rows the planner expects this level to put out (None when the
    #: block was not costed); EXPLAIN ANALYZE prints the actual rows beside it.
    estimated_rows: float | None = None


@dataclass(frozen=True)
class ScanWindow:
    """The range of one int / date column a block's driving scan is confined to.

    The narrowest interval the driving base table's push-down conjuncts put
    on one column -- comparisons against constants, ``BETWEEN`` and ``=``,
    intersected (:func:`~repro.engine.storage.skipping.column_intervals`) --
    as half-open integers ``[low, high)`` on the encoded scale (day ordinals
    for a date; None = open on that side; ``high <= low`` = no row).  Both
    engines read the rows inside it through the column's storage key order,
    in row order, instead of walking the table, and do not evaluate the
    conjuncts in ``subsumed``: each is TRUE exactly on the rows in the window.
    """

    column: str
    #: of the column in the table's rows.
    position: int
    type_name: str
    low: int | None
    high: int | None
    #: the push-down conjuncts the window decides alone.
    subsumed: tuple[ast.Expression, ...]
    #: what the statistics said when the block was planned.
    estimated_rows: float
    table_rows: int

    #: the cost model's constant: a windowed row costs about 1.5 visits (the
    #: slice of the order, its sort back into row order, the fetch of the
    #: tuples), so a window pays up to two thirds of the table -- taken under
    #: half, for the estimate's error.
    MAX_TABLE_SHARE = 0.5

    def decides(self, predicate: ast.Expression) -> bool:
        return any(predicate is subsumed for subsumed in self.subsumed)

    def interval(self) -> str:
        """``l_shipdate [1994-01-01, 1995-01-01)``: what EXPLAIN and the
        traced scan span print."""
        def bound(value: int) -> str:
            if self.type_name == "date":
                try:
                    return ordinal_to_date(value).isoformat()
                except OverflowError:  # a day no calendar has: print the ordinal
                    pass
            return str(value)

        low = "(-inf" if self.low is None else f"[{bound(self.low)}"
        high = "+inf" if self.high is None else bound(self.high)
        return f"{self.column} {low}, {high})"

    def describe(self) -> dict:
        return {"column": self.column, "interval": self.interval(),
                "estimated_rows": round(self.estimated_rows, 1),
                "table_rows": self.table_rows, "subsumed": len(self.subsumed)}


@dataclass
class BlockPlan:
    """The shared analysis of one SELECT block.

    Beside what both engines execute -- classified predicates, push-down
    assignment, join order, output names, the output position of every ORDER
    BY item -- it carries one access-path decision, ``window``: either
    engine's driving scan reads the rows in the window's range.
    """

    select: ast.Select
    #: the columns each FROM item contributes, in FROM order.
    item_columns: list[list[ColumnInfo]]
    #: all locally visible columns (concatenated item columns, FROM order).
    columns: list[ColumnInfo]
    #: WHERE conjuncts split into push-down / equi-join / residual sets.
    classified: ClassifiedPredicates
    #: push-down predicates keyed by binding ({} when push-down is disabled).
    pushdown: dict[str, list[ast.Expression]]
    #: predicates evaluated after all joins (includes the single-relation
    #: ones when push-down is disabled, preserving their evaluation order).
    residual: list[ast.Expression]
    #: left-deep join order over the FROM items: costed from the storage
    #: statistics where the catalog knows every item's size, else FROM order
    #: along the equi-join edges (see :meth:`Planner._schedule_joins`).
    join_order: list[JoinStep]
    #: output column names, in projection order (stars expanded).
    output_names: list[str]
    #: True when the block needs the grouping/aggregation path.
    needs_aggregation: bool
    #: per ORDER BY item, the position of its output column (see
    #: :func:`order_positions`); empty when the block does not sort.
    order_positions: list[int]
    #: the column references of the block, nested blocks included, that no
    #: block from the referencing one up to this one resolves (ORDER BY items
    #: name output columns and are not among them).
    free_refs: list[ast.ColumnRef] = field(default_factory=list)
    #: the block's own references that an enclosing block resolves: constant
    #: for as long as the block runs once.
    outer_refs: list[ast.ColumnRef] = field(default_factory=list)
    #: the range of one column the driving scan is confined to (None: the
    #: block scans its driving table whole; see :meth:`Planner._scan_window`).
    window: ScanWindow | None = None

    @property
    def correlated(self) -> bool:
        """True when, run as a subquery, the block's result depends on the
        outer row and cannot be cached across rows."""
        return bool(self.free_refs)

    def filtered(self, frame_index: int) -> bool:
        """True when push-down predicates apply to the FROM item at ``frame_index``."""
        return any(self.pushdown.get(column.binding.lower())
                   for column in self.item_columns[frame_index])

    def window_of(self, frame_index: int) -> ScanWindow | None:
        """The scan window the scan of the FROM item at ``frame_index`` is
        confined to: the block's, for the item its join order drives from."""
        if self.window is not None and self.join_order[0].frame_index == frame_index:
            return self.window
        return None

    def join_names(self) -> list[str]:
        """The join order by the names the FROM items go by."""
        return [from_item_name(self.select.from_items[step.frame_index])
                for step in self.join_order]

    def estimated_rows(self) -> list[float] | None:
        """The rows the planner expects out of each join level (None when the
        block was not costed)."""
        if not self.join_order or self.join_order[0].estimated_rows is None:
            return None
        return [round(step.estimated_rows, 1) for step in self.join_order]

    def join_levels(self, rows: list[int]) -> dict:
        """What a traced ``join`` span says of the schedule: the order by
        name, the rows that came out of each level and, beside them, the rows
        the planner expected -- an estimate gone wrong shows as the pair
        drifting apart."""
        attributes = {"order": " -> ".join(self.join_names()), "level_rows": list(rows)}
        estimated = self.estimated_rows()
        if estimated is not None:
            attributes["estimated_rows"] = estimated
        return attributes

    def describe(self) -> dict:
        """Compact, JSON-friendly description (used by ``Engine.explain``)."""
        return {
            "from_items": len(self.item_columns),
            "join_order": self.join_names(),
            "estimated_rows": self.estimated_rows(),
            "pushdown": {binding: len(preds) for binding, preds in self.pushdown.items()},
            "window": None if self.window is None else self.window.describe(),
            "equi_joins": len(self.classified.equi_joins),
            "residual": len(self.residual),
            "output": list(self.output_names),
            "aggregated": self.needs_aggregation,
            "correlated": self.correlated,
        }


class Stamped:
    """A value a plan keeps of the tables as they are: built by the first
    reader after ``Database.mutations`` moved (or for another database), and
    rebuilt in place -- one value per entry, not one per table version.

    The stamp is read before the tables are and the database bumps it again
    once a mutation has taken effect, so a value built while one lands is
    stale for the next reader.  The database lets go of the values built
    from its tables at its next mutation (:meth:`release`), so a plan that
    does not run again keeps no old arrays alive.  Readers on several
    threads may build the value at once; each gets a whole value.  A value
    is never None.
    """

    __slots__ = ("_found", "__weakref__")

    def __init__(self) -> None:
        self._found: tuple | None = None

    def get(self, database, build, *arguments):
        """The value, built by ``build(*arguments)`` when it is not current."""
        value = self.current(database)
        if value is None:
            mutations = database.mutations
            value = build(*arguments)
            self._found = (database, mutations, value)
            database.track(self)
        return value

    def current(self, database):
        """The value while it is the tables' as they are, else None."""
        found = self._found  # read once: another thread may replace it meanwhile
        if found is None or found[0] is not database or found[1] != database.mutations:
            return None
        return found[2]

    def release(self, database) -> None:
        """Let go of the value if ``database`` has mutated since it was built."""
        found = self._found
        if found is not None and found[0] is database and found[1] != database.mutations:
            self._found = None


@dataclass
class QueryPlan:
    """A fully analysed query: the AST plus one :class:`BlockPlan` per block.

    Blocks are keyed by the identity of their ``ast.Select`` node; the plan
    keeps the root AST alive, so the keys stay stable for the plan's
    lifetime.  The analysis is immutable once built; what the executors
    derive from it is cached on it (:meth:`kernels`), the part that reads
    the tables :class:`Stamped` with the database's mutations.  Plans are
    safe to share between the row and column backends and across driver
    worker threads.
    """

    select: ast.Select
    sql: str
    blocks: dict[int, BlockPlan]
    predicate_pushdown: bool = True
    #: compiled physical kernels keyed by (block id, flavour); populated
    #: lazily by the executors (see :meth:`kernels`) and therefore amortised
    #: by the plan cache exactly like the logical analysis itself.
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _kernels_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                          repr=False, compare=False)

    def kernels(self, block: "BlockPlan", flavour: tuple, build=None):
        """Get-or-build the compiled kernels of ``block`` for ``flavour``.

        ``flavour`` distinguishes kernel families that cannot be shared (row
        vs column, overflow-guarded vs not).  ``build(block)`` runs at most
        once per (block, flavour) for the lifetime of the plan; the result is
        shared across executions and across driver worker threads.  Without
        ``build``, what is there (None: nothing yet).  The lock is not
        reentrant: ``build`` must not ask for another entry.
        """
        key = (id(block.select),) + flavour
        found = self._kernels.get(key)
        if found is None and build is not None:
            with self._kernels_lock:
                found = self._kernels.get(key)
                if found is None:
                    found = build(block)
                    self._kernels[key] = found
        return found

    def block(self, select: ast.Select) -> BlockPlan | None:
        """The plan of one query block (None when the block is unknown)."""
        return self.blocks.get(id(select))

    @property
    def root(self) -> BlockPlan:
        return self.blocks[id(self.select)]

    def describe(self) -> dict:
        return {
            "sql": self.sql,
            "blocks": len(self.blocks),
            "tables": [ref.name for ref in self.select.table_refs()],
            "root": self.root.describe(),
        }


class Planner:
    """Produces :class:`QueryPlan` objects from parsed SELECT statements.

    The planner owns every analysis decision both executors share: scope and
    binding resolution, conjunct classification, the push-down assignment
    (honouring the engine's ``predicate_pushdown`` option) and the join
    order, costed from the statistics storage binds on the catalog.  It is
    stateless across :meth:`plan` calls and therefore safe to share between
    threads.
    """

    def __init__(self, catalog: Catalog, predicate_pushdown: bool = True):
        self.catalog = catalog
        self.predicate_pushdown = predicate_pushdown

    # -- public API -----------------------------------------------------------

    def plan(self, select: ast.Select, sql_text: str | None = None) -> QueryPlan:
        """Analyse ``select`` (and every nested block) into a :class:`QueryPlan`."""
        blocks: dict[int, BlockPlan] = {}
        self._plan_block(select, None, blocks)
        root_scope = Scope(columns=list(blocks[id(select)].columns))
        # Safety net: plan any block the structured walk did not reach (an
        # exotic AST shape) with the root scope as its outer context.
        for node in select.walk():
            if isinstance(node, ast.Select) and id(node) not in blocks:
                self._plan_block(node, root_scope, blocks)
        return QueryPlan(select=select, sql=sql_text or to_sql(select), blocks=blocks,
                         predicate_pushdown=self.predicate_pushdown)

    def plan_block(self, select: ast.Select, outer_scope: Scope | None = None,
                   registry: dict[int, BlockPlan] | None = None) -> BlockPlan:
        """Plan a single block (used by executors for blocks outside a plan)."""
        return self._plan_block(select, outer_scope, registry if registry is not None else {})

    # -- block analysis ----------------------------------------------------------

    def _plan_block(self, select: ast.Select, outer_scope: Scope | None,
                    blocks: dict[int, BlockPlan]) -> BlockPlan:
        existing = blocks.get(id(select))
        if existing is not None:
            return existing
        item_columns = [self._item_columns(item, outer_scope, blocks)
                        for item in select.from_items]
        local_columns = [column for columns in item_columns for column in columns]
        scope = Scope(columns=local_columns, outer=outer_scope)
        classified = classify_conjuncts(select.where, scope)

        if self.predicate_pushdown:
            binding_tables = _binding_tables(select.from_items)
            # the WHERE clause's own single-relation conjuncts, then what its
            # residual disjunctions imply (those stay residual as well)
            pushdown = {
                binding: self._order_pushdown(
                    binding, classified.single.get(binding, [])
                    + classified.implied.get(binding, []), binding_tables)
                for binding in dict.fromkeys([*classified.single, *classified.implied])
            }
            residual = list(classified.residual)
        else:
            pushdown = {}
            residual = [
                predicate
                for predicates in classified.single.values()
                for predicate in predicates
            ] + list(classified.residual)

        graph = _JoinGraph(item_columns, classified.equi_joins)
        # an equality between two bindings of one FROM item (an explicit JOIN
        # tree) joins no two items: it filters the joined rows
        residual += graph.internal
        join_order = self._schedule_joins(select.from_items, graph, pushdown)
        output_names = output_columns(select, scope)  # a star expands in FROM order
        needs_aggregation = (bool(select.group_by) or select.having is not None
                             or select.has_aggregates())
        block = BlockPlan(
            select=select,
            item_columns=item_columns,
            columns=local_columns,
            classified=classified,
            pushdown=pushdown,
            residual=residual,
            join_order=join_order,
            output_names=output_names,
            needs_aggregation=needs_aggregation,
            order_positions=order_positions(select, output_names),
            window=self._scan_window(select.from_items, join_order, pushdown),
        )
        blocks[id(select)] = block

        # Subqueries inside expressions see the block's own columns as their
        # outer scope (they are evaluated against the joined frame).
        for expression in self._block_expressions(select):
            for subselect in _direct_subselects(expression):
                self._plan_block(subselect, scope, blocks)

        # ORDER BY items resolve to output columns (order_positions), never
        # against a row, so an alias there is not an outer reference.
        local = _ColumnSet(local_columns)
        for part in select.children():
            if isinstance(part, ast.OrderItem):
                continue
            for node in ast.walk_local(part):
                if isinstance(node, ast.ColumnRef) and not local.has(node):
                    block.free_refs.append(node)
                    if outer_scope is not None and outer_scope.is_visible(node):
                        block.outer_refs.append(node)
                for child in node.children():
                    if isinstance(child, ast.Select):
                        # a derived table sees this block's outer scope, not its columns
                        block.free_refs += [
                            ref for ref in self._plan_block(child, scope, blocks).free_refs
                            if isinstance(node, ast.SubqueryRef) or not local.has(ref)]
        return block

    def _order_pushdown(self, binding: str, predicates: list[ast.Expression],
                        binding_tables: dict[str, str]) -> list[ast.Expression]:
        """Order one scan's push-down conjuncts by estimated selectivity.

        Consults the table statistics the storage layer binds on the catalog;
        without statistics (or with a single predicate) the textual order is
        preserved.  The sort is stable, so ties keep their original order and
        plans stay deterministic.
        """
        if len(predicates) < 2:
            return predicates
        table = binding_tables.get(binding)
        statistics = self.catalog.table_statistics(table) if table else None
        if statistics is None or not statistics.row_count:
            return predicates
        return sorted(predicates,
                      key=lambda predicate: estimate_selectivity(predicate, statistics))

    def _scan_window(self, items: list[ast.TableExpression], join_order: list[JoinStep],
                     pushdown: dict[str, list[ast.Expression]]) -> ScanWindow | None:
        """The block's scan window: the narrowest interval the driving table's
        push-down conjuncts put on one of its int / date columns, if any.

        Taken when the statistics say it holds under half the table's rows
        (:attr:`ScanWindow.MAX_TABLE_SHARE`) -- a fact of the plan, not an
        option; of several columns' the fewest estimated rows win, ties to
        column order.  None without push-down, statistics or a base table to
        drive from.  The join order was costed with the driving table read
        whole and stays as it is.
        """
        if not join_order or not isinstance(items[join_order[0].frame_index], ast.TableRef):
            return None
        item = items[join_order[0].frame_index]
        predicates = pushdown.get(item.binding.lower())
        statistics = self.catalog.table_statistics(item.name)
        if not predicates or statistics is None or not statistics.row_count:
            return None
        schema = self.catalog.table(item.name)
        candidates = []
        for interval in column_intervals(predicates, statistics)[0]:
            window = interval.window()
            if window is not None:
                estimated = statistics.row_count * interval.fraction(statistics)
                candidates.append((estimated, schema.column_index(interval.column.name),
                                   window, interval))
        if not candidates:
            return None
        estimated, position, (low, high), interval = min(candidates, key=lambda found: found[:2])
        if estimated >= statistics.row_count * ScanWindow.MAX_TABLE_SHARE:
            return None
        return ScanWindow(interval.column.name, position, interval.column.type_name, low, high,
                          tuple(interval.decided), estimated, statistics.row_count)

    def _block_expressions(self, select: ast.Select) -> list[ast.Expression]:
        expressions: list[ast.Expression] = []
        if select.where is not None:
            expressions.append(select.where)
        if select.having is not None:
            expressions.append(select.having)
        for item in select.items:
            if not isinstance(item.expression, ast.Star):
                expressions.append(item.expression)
        expressions.extend(select.group_by)
        expressions.extend(order.expression for order in select.order_by)
        return expressions

    # -- FROM item columns -------------------------------------------------------

    def _item_columns(self, item: ast.TableExpression, outer_scope: Scope | None,
                      blocks: dict[int, BlockPlan]) -> list[ColumnInfo]:
        if isinstance(item, ast.TableRef):
            schema = self.catalog.table(item.name)
            return [
                ColumnInfo(binding=item.binding, name=column.name,
                           type_name=column.type_name)
                for column in schema.columns
            ]
        if isinstance(item, ast.SubqueryRef):
            # Derived tables see the enclosing block's *outer* scope, not the
            # enclosing block's own columns (mirroring execution order).
            inner = self._plan_block(item.subquery, outer_scope, blocks)
            return [
                ColumnInfo(binding=item.alias, name=name, type_name=type_name or "str")
                for name, type_name in zip(inner.output_names,
                                           output_types(item.subquery, inner.columns))
            ]
        if isinstance(item, ast.Join):
            if item.kind not in JOIN_KINDS:
                raise PlanError(f"unsupported join kind '{item.kind}'")
            left = self._item_columns(item.left, outer_scope, blocks)
            right = self._item_columns(item.right, outer_scope, blocks)
            combined = left + right
            if item.condition is not None:
                condition_scope = Scope(columns=combined, outer=outer_scope)
                for subselect in _direct_subselects(item.condition):
                    self._plan_block(subselect, condition_scope, blocks)
            return combined
        raise PlanError(f"unsupported FROM item {type(item).__name__}")

    # -- join scheduling ---------------------------------------------------------

    def _schedule_joins(self, items: list[ast.TableExpression], graph: "_JoinGraph",
                        pushdown: dict[str, list[ast.Expression]]) -> list[JoinStep]:
        """The block's left-deep join order, costed from the storage statistics.

        The incumbent is the order the text suggests (:meth:`_JoinGraph.from_order`).
        Greedy orders -- extend by the item with the smallest estimated output
        along the equi-join edges, started once from every linked item -- are costed
        by the same model (:class:`_JoinCosts`) and replace it only when
        strictly cheaper; every tie goes to the lower FROM index, so the same
        text and data always plan the same way.  A block with a single item,
        or with an item whose size the catalog cannot state, keeps the
        incumbent and is not costed at all.
        """
        if not items:
            return []
        order = graph.from_order()
        costs = self._join_costs(items, graph, pushdown) if len(items) > 1 else None
        if costs is None:
            return graph.steps(order)
        cost, estimated = costs.schedule(order)
        # an item no equi-join links to any other is a cross product: it goes
        # last, so no candidate starts from one (unless nothing is linked)
        linked = [index for index, edges in enumerate(graph.edges) if edges]
        for start in linked or range(len(items)):
            candidate = costs.greedy(start)
            candidate_cost, candidate_rows = costs.schedule(candidate)
            if candidate_cost < cost:
                order, cost, estimated = candidate, candidate_cost, candidate_rows
        return graph.steps(order, estimated)

    def _join_costs(self, items: list[ast.TableExpression], graph: "_JoinGraph",
                    pushdown: dict[str, list[ast.Expression]]) -> "_JoinCosts | None":
        """The cost model over the block's FROM items; None when one of them
        is not a base table with statistics bound on the catalog (a derived
        table, an explicit JOIN tree, a table without storage)."""
        statistics = []
        for item in items:
            found = self.catalog.table_statistics(item.name) \
                if isinstance(item, ast.TableRef) else None
            if found is None:
                return None
            statistics.append(found)
        return _JoinCosts(graph, items, statistics,
                          [pushdown.get(item.binding.lower(), []) for item in items])


class _ColumnSet:
    """Static column-membership test mirroring frame position lookup."""

    def __init__(self, columns: list[ColumnInfo]):
        self._qualified = {(column.binding.lower(), column.name.lower())
                           for column in columns}
        self._names = {column.name.lower() for column in columns}

    def has(self, ref: ast.ColumnRef) -> bool:
        if ref.table:
            return (ref.table.lower(), ref.name.lower()) in self._qualified
        return ref.name.lower() in self._names


class _JoinGraph:
    """A block's equi-join conjuncts as edges between its FROM items.

    Every reference is resolved once, against all of the block's columns in
    FROM order -- the scope the conjuncts were classified in -- so neither a
    schedule nor a cost ever looks a name up in the columns joined so far.
    """

    def __init__(self, item_columns: list[list[ColumnInfo]], equi_joins: list[EquiJoin]):
        self.item_columns = item_columns
        self.widths = [len(columns) for columns in item_columns]
        layout = Layout([column for columns in item_columns for column in columns])
        owner = [index for index, width in enumerate(self.widths) for _ in range(width)]
        starts = [0, *accumulate(self.widths)]
        #: per item, in WHERE order: (the item at the other end, the own key
        #: column, the other item's, the conjunct as classified).
        self.edges: list[list[tuple[int, int, int, EquiJoin]]] = [[] for _ in self.widths]
        #: the conjuncts whose two sides are bindings of one FROM item.
        self.internal: list[ast.Expression] = []
        for entry in equi_joins:
            left, right = layout.position(entry[0]), layout.position(entry[1])
            left_item, right_item = owner[left], owner[right]
            if left_item == right_item:
                self.internal.append(entry[2])
                continue
            left, right = left - starts[left_item], right - starts[right_item]
            self.edges[left_item].append((right_item, left, right, entry))
            self.edges[right_item].append((left_item, right, left, entry))

    def from_order(self) -> list[int]:
        """The order the text suggests: FROM item 0, then always the first
        item in FROM order that an equi-join links to those joined so far
        (the first one left, when none is: a cross product)."""
        order, remaining = [0], list(range(1, len(self.widths)))
        while remaining:
            chosen = next((index for index in remaining
                           if any(other in order for other, *_ in self.edges[index])),
                          remaining[0])
            remaining.remove(chosen)
            order.append(chosen)
        return order

    def steps(self, order: list[int], estimated: list[float] | None = None
              ) -> list[JoinStep]:
        """The schedule joining the items in ``order``: per step the conjuncts
        linking it to the items before it and where their keys sit."""
        steps: list[JoinStep] = []
        joined: list[int] = []

        def start(item: int) -> int:  # of an item's columns among those joined so far
            return sum(self.widths[other] for other in joined if other < item)

        for level, index in enumerate(order):
            linked = [edge for edge in self.edges[index] if edge[0] in joined]
            steps.append(JoinStep(
                index, tuple(entry for *_, entry in linked),
                tuple((start(other) + theirs, own) for other, own, theirs, _ in linked),
                start(index), None if estimated is None else estimated[level]))
            joined.append(index)
        return steps


class _JoinCosts:
    """What a left-deep join order over base tables costs: the rows touched.

    Per item the catalog's row count and the share of it that passes the
    item's push-down conjuncts (:func:`estimate_conjunction`); per key column
    its NDV.  The driving table is read whole.  A join side probed through a
    storage index is reached at ``rows in x rows / NDV(key)`` rows, the NDV
    being the larger of the two sides' (keys the item does not hold reach
    nothing); one that :func:`probes_index` says is built per execution pays
    all of its rows and then the matches among those it keeps.  A level puts
    out ``rows in x kept / NDV(key)``.  A composite key's NDV is the product
    of its columns' clipped by the row count of the table they belong to; an
    item no equi-join links to the ones before it multiplies.
    """

    def __init__(self, graph: _JoinGraph, items: list[ast.TableRef], statistics: list,
                 pushdown: list[list[ast.Expression]]):
        self.graph = graph
        self.items = items
        self.rows = [found.row_count for found in statistics]
        self.filtered = [bool(predicates) for predicates in pushdown]
        self.kept = [found.row_count * estimate_conjunction(predicates, found)
                     if predicates else found.row_count
                     for found, predicates in zip(statistics, pushdown)]
        #: per item, the NDV of each key column one of its edges names.
        self.ndv = [{own: max(found.column(columns[own].name).distinct_estimate, 1)
                     for _, own, _, _ in edges}
                    for found, columns, edges in zip(statistics, graph.item_columns, graph.edges)]
        #: per item, the items its edges lead to, as a bit set.
        self.linked = [sum({1 << other for other, *_ in edges}) for edges in graph.edges]
        self._levels: dict[tuple[int, int, bool], tuple[float, float, float]] = {}

    def level(self, joined: int, rows_in: float, upstream_filtered: bool, index: int
              ) -> tuple[float, float]:
        """``(rows touched, rows out)`` of joining item ``index`` to the items
        in the bit set ``joined``, which put out ``rows_in`` rows."""
        # both are linear in the rows in, and the terms the same for every
        # prefix that holds the same neighbours: worked out once per block
        key = (index, joined & self.linked[index], upstream_filtered)
        terms = self._levels.get(key)
        if terms is None:
            terms = self._levels[key] = self._level_terms(*key)
        fixed, touched, out = terms
        return fixed + rows_in * touched, rows_in * out

    def _level_terms(self, index: int, neighbours: int, upstream_filtered: bool
                     ) -> tuple[float, float, float]:
        """Joining ``index`` to a prefix holding its ``neighbours``: the rows
        touched whatever comes in, and per row in the rows touched and put out."""
        rows, kept = self.rows[index], self.kept[index]
        if not neighbours:  # a cross product, over a filtered list built first
            return (rows if self.filtered[index] else 0), kept, kept
        keys, own_ndv, their_ndv = 0, 1, {}
        for other, own, theirs, _ in self.graph.edges[index]:
            if neighbours >> other & 1:
                keys += 1
                own_ndv *= self.ndv[index][own]
                their_ndv[other] = their_ndv.get(other, 1) * self.ndv[other][theirs]
        own_ndv = min(own_ndv, rows)
        left_ndv = 1
        for other, ndv in their_ndv.items():
            left_ndv *= min(ndv, self.rows[other])
        if keys > 1 and len(their_ndv) == 1:
            # several columns between two tables are one foreign key and
            # correlated, their NDVs' product far too many: neither end holds
            # more distinct keys than the smaller table has rows
            own_ndv = left_ndv = min(own_ndv, left_ndv)
        # with more distinct keys on the left than in the item, the probes of
        # the others find nothing: one divisor for the rows reached and put out
        ndv = max(left_ndv, own_ndv, 1)
        if probes_index(self.items[index], True, self.filtered[index], upstream_filtered):
            return 0, rows / ndv, kept / ndv
        return rows, kept / ndv, kept / ndv

    def schedule(self, order: list[int]) -> tuple[float, list[float]]:
        """The rows ``order`` touches in all, and the rows out of each level."""
        first = order[0]
        cost, estimated = float(self.rows[first]), [float(self.kept[first])]
        joined, upstream_filtered = 1 << first, self.filtered[first]
        for index in order[1:]:
            touched, out = self.level(joined, estimated[-1], upstream_filtered, index)
            cost += touched
            estimated.append(out)
            joined |= 1 << index
            upstream_filtered = upstream_filtered or self.filtered[index]
        return cost, estimated

    def greedy(self, start: int) -> list[int]:
        """From ``start``, always the linked item with the smallest estimated
        output next (the lower FROM index on a tie); unlinked items last."""
        order = [start]
        remaining = [index for index in range(len(self.rows)) if index != start]
        joined, rows_in, upstream_filtered = 1 << start, self.kept[start], self.filtered[start]
        while remaining:
            linked = [index for index in remaining if joined & self.linked[index]]
            chosen, rows_out = None, 0.0
            for index in linked or remaining:
                out = self.level(joined, rows_in, upstream_filtered, index)[1]
                if chosen is None or out < rows_out:
                    chosen, rows_out = index, out
            remaining.remove(chosen)
            order.append(chosen)
            joined |= 1 << chosen
            rows_in = rows_out
            upstream_filtered = upstream_filtered or self.filtered[chosen]
        return order


def from_item_name(item: ast.TableExpression) -> str:
    """The name a FROM item goes by in a printed join order: a table's
    binding, a derived table's alias, an explicit JOIN tree's in brackets."""
    if isinstance(item, ast.Join):
        return f"({from_item_name(item.left)} join {from_item_name(item.right)})"
    return item.binding if isinstance(item, ast.TableRef) else item.alias


def _binding_tables(items: list[ast.TableExpression]) -> dict[str, str]:
    """Map each FROM binding (lower-cased) to its base table name."""
    tables: dict[str, str] = {}

    def collect(item: ast.TableExpression) -> None:
        if isinstance(item, ast.TableRef):
            tables[item.binding.lower()] = item.name
        elif isinstance(item, ast.Join):
            collect(item.left)
            collect(item.right)

    for item in items:
        collect(item)
    return tables


def _direct_subselects(expression: ast.Expression) -> list[ast.Select]:
    """SELECT nodes nested directly in ``expression`` (not inside another SELECT)."""
    selects = [node for node in expression.walk() if isinstance(node, ast.Select)]
    direct: list[ast.Select] = []
    for candidate in selects:
        contained = any(
            other is not candidate and any(node is candidate for node in other.walk())
            for other in selects
        )
        if not contained:
            direct.append(candidate)
    return direct


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------


@dataclass
class PlanCacheStats:
    """Hit/miss/eviction counters of a :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def describe(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


class PlanCache:
    """Thread-safe LRU cache mapping normalised SQL keys to query plans.

    A ``maxsize`` of 0 (or less) disables caching entirely: every lookup is
    a miss and nothing is retained, which is what benchmarks use to compare
    cold planning against the plan-once/execute-many path.
    """

    def __init__(self, maxsize: int = 128):
        self.maxsize = maxsize
        self.stats = PlanCacheStats()
        self._plans: OrderedDict[str, QueryPlan] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def get(self, key: str) -> QueryPlan | None:
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.stats.misses += 1
                return None
            self._plans.move_to_end(key)
            self.stats.hits += 1
            return plan

    def put(self, key: str, plan: QueryPlan) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every cached plan and reset the counters."""
        with self._lock:
            self._plans.clear()
            self.stats = PlanCacheStats()

    def describe(self) -> dict:
        with self._lock:
            return {
                "size": len(self._plans),
                "maxsize": self.maxsize,
                "enabled": self.enabled,
                **self.stats.describe(),
            }
