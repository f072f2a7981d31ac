"""Vectorised (column store) physical backend.

Like :mod:`repro.engine.executor_row`, this executor consumes the shared
logical plan (:mod:`repro.engine.plan`) -- scope resolution, conjunct
classification, the push-down assignment and the join schedule all come from
the :class:`BlockPlan` of each query block -- but every physical step
operates on numpy column arrays, and every block runs through the one
pipeline of :meth:`ColumnExecutor._execute_block`:

1. **scan** -- FROM items are :class:`ColFrame` column sets that are never
   filtered in place (base tables come from the database's cached columnar
   views, string columns with their dictionary codes and the view's
   :class:`~repro.engine.database.ViewDictionary`; derived tables are
   executed recursively).  The push-down predicates narrow a selection
   vector -- an ``int64`` index of the selected rows (None: all of them, the
   first predicate then runs over the arrays as they are) -- that starts from
   the rows of the chunks the zone maps do not refute and, for the driving
   scan of a block the planner gave a scan window, from the window's rows,
   without the conjuncts the window decides.  An equality / IN / LIKE over a
   string column runs over its codes.  What of this is fixed by the plan and
   the tables' version -- the frame, the predicates with their dictionary
   kernels, the zone gate's and the window's rows -- is the plan's: one
   :class:`ColumnState` per block, built by ``prepare`` and rebuilt by the
   first execution after a mutation,
2. **refine** -- residual predicates narrow the selection further;
   predicates containing subqueries fall back to row-at-a-time evaluation
   for that predicate only (an uncorrelated subquery runs once on this
   pipeline, a correlated or FROM-less one on a row executor),
3. **join** -- the scheduled equi-joins (and explicit ``JOIN``s) ask the key
   kernels of :mod:`repro.engine.keys` for the matching row pairs (a stored
   key order through its direct table); a join level keeps one row index
   per FROM item (:class:`_Rows`), gathered through the level's pairs, the
   plan's join slots say which item and position each joined column is,
   and the joined frame gathers a column the first time something reads it,
4. **aggregate** -- an aggregated block groups the selected rows (ids from
   the same key kernels; a dictionary-coded key groups on its codes),
   counts every group's rows once, evaluates each distinct aggregate
   argument once and folds it once per fold its calls need -- ``np.bincount``
   / ``minimum.at`` style accumulators; an argument without NULLs takes the
   group counts as its count -- and finishes every call from those (AVG is
   its argument's sum over its count).  A block without GROUP BY folds its
   one group without ids, adding in the same order.  HAVING and the select
   list are kernels like any other, over the group rows: the joined columns
   at each group's first row beside the calls' values
   (:class:`_GroupColumns`); a select item that is a coded column keeps the
   codes of each group's first row.  A block that does not
   aggregate projects over the selection instead, a coded column as its
   codes, decoded only if something reads it,
5. ORDER BY sorts a row index over the result columns -- a coded column by
   its dictionary's ranks, no string compared -- OFFSET / LIMIT cut that
   index, and only the surviving rows are materialised, a column at a time:
   a coded column is decoded from the codes of the rows delivered.

Expressions run as the compiled kernels of :mod:`repro.engine.compile`.
Where a block has none (all of them with ``compile_expressions`` off), the
expression is lowered the same way for that one evaluation, over the whole
frame; what cannot be lowered -- a subquery -- is evaluated row by row.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from itertools import repeat
from typing import Any, NamedTuple

import numpy as np

from repro.engine.compile import (
    ColumnBlockKernels,
    ColumnBlockShape,
    ColumnContext,
    ColumnJoin,
    CompileFallback,
    Layout,
    as_mask,
    column_kernels,
    column_shape,
    compile_column_kernel,
    dictionary_column,
)
from repro.engine.database import ColumnarTable, Database, ViewDictionary
from repro.engine.executor_row import RowExecutor, _RowEnv, null_free_columns, scan_source
from repro.engine.expression import evaluate as row_evaluate
from repro.engine.keys import (
    KeyOrder,
    group_rows,
    integer_kind,
    join_indexes,
    order_index,
    probe_direct,
    probe_order,
)
from repro.engine.mask import Kleene, Nullable, as_objects, none_positions, truth_mask
from repro.engine.plan import BlockPlan, QueryPlan, ScanWindow, Stamped
from repro.engine.planner import ColumnInfo, split_join_condition
from repro.obs import QueryTrace
from repro.obs.metrics import count_all
from repro.engine.vector import ColFrame, DecodedColumns, isnull_mask
from repro.errors import PlanError
from repro.sqlparser import ast

_INT64 = np.dtype(np.int64)
#: a frame column typed where the plan does not know the type (a frozen
#: ``ColumnInfo``: one serves every frame that has such a column).
_column_info = functools.lru_cache(maxsize=4096)(ColumnInfo)
#: the first row of the one group of a block without GROUP BY, all rows selected.
_FIRST_ROW = np.zeros(1, dtype=np.int64)
_FIRST_ROW.flags.writeable = False
#: the output type read off an array, where the plan knows none.
_DTYPE_TYPES = {np.dtype(np.int64): "int", np.dtype(np.float64): "float",
                np.dtype(np.bool_): "bool"}


class _FallbackRowEnv:
    """Row environment over one index of a ColFrame (for subquery
    predicates), in the ``frame`` / ``row`` / ``outer`` shape the row
    executor reads an outer row in (a correlated subquery runs there), so
    the row executor's lookup and subquery call serve it."""

    __slots__ = ("executor", "frame", "index", "outer", "_row")

    def __init__(self, executor: "ColumnExecutor", frame: ColFrame, index: int):
        self.executor = executor
        self.frame = frame
        self.index = index
        self.outer = None  # a block the column pipeline runs is uncorrelated
        self._row: tuple | None = None

    @property
    def row(self) -> tuple:
        if self._row is None:
            self._row = self.frame.row(self.index)
        return self._row

    lookup = _RowEnv.lookup
    run_subquery = _RowEnv.run_subquery


def _from_less(select: ast.Select) -> bool:
    """True when ``select`` or a derived table under it has no FROM item: a
    block the column pipeline (:meth:`ColumnExecutor._execute_block`) does
    not run."""
    if not select.from_items:
        return True
    pending = list(select.from_items)
    while pending:
        item = pending.pop()
        if isinstance(item, ast.Join):
            pending += [item.left, item.right]
        elif isinstance(item, ast.SubqueryRef) and _from_less(item.subquery):
            return True
    return False


def require_from_items(select: ast.Select) -> None:
    """Refuse the one planned text this backend does not run: a FROM-less
    block as the root or as a derived table under it (a FROM-less subquery
    inside an expression runs on the row executor).  ``ColumnEngine.prepare``
    asks, so the refusal is not left to ``execute``."""
    if _from_less(select):
        raise PlanError("a query block needs at least one FROM item")


def describe_column_pipeline(block: BlockPlan, shape: ColumnBlockShape) -> dict:
    """How one block's joins run on the column engine, for ``Engine.explain`` /
    EXPLAIN: per join step what is probed -- a storage key order, or the build
    side sorted per execution."""
    items = block.select.from_items

    def join(step: ColumnJoin) -> str:
        if step.probe is None:
            keys = len(step.positions)
            return f"sorted per execution on {keys} key{'s' if keys != 1 else ''}" \
                if keys else "cross product"
        # under a selection the row counts of each execution decide between
        # the stored order (pairs filtered) and a sort of the selected rows
        return step.probe.describe() + (
            ", selected rows only (or their sort, by row counts)"
            if block.filtered(step.frame_index) else "")

    return {
        "output": list(block.output_names),
        "driving": scan_source(items[block.join_order[0].frame_index])
        if block.join_order else None,
        # the range of one column the driving scan starts from instead of the table
        "window": None if block.window is None else block.window.interval(),
        # "table": the base table (None for a derived one); "built": the build
        # side is sorted on every execution, whatever its row counts
        "joins": [{"source": scan_source(items[step.frame_index]), "join": join(step),
                   "table": items[step.frame_index].name
                   if isinstance(items[step.frame_index], ast.TableRef) else None,
                   "built": step.probe is None,
                   "filtered": block.filtered(step.frame_index)}
                  for step in shape.joins],
    }


class _Scan(NamedTuple):
    """A base-table FROM item's scan as far as the plan and the table's
    version decide it: everything but the predicates' data work."""

    frame: ColFrame
    #: the push-down predicates left to evaluate, in order -- not those the
    #: scan window decides -- with the dictionary-code kernels swapped in.
    pairs: list
    #: the rows the first of them starts from, ascending: the window's, those
    #: of the chunks the zone maps did not refute, or both (None: every row).
    base: np.ndarray | None
    #: (scanned, skipped) chunks; their sum is the table's chunk total.
    chunks: tuple[int, int]
    #: the scan window the rows come from (None: the scan reads the table).
    window: ScanWindow | None
    #: the counters every execution of the scan adds: with push-down
    #: predicates, the chunks the zone maps let through and refuted and the
    #: predicates over dictionary codes.
    counts: tuple[tuple[str, int], ...]


#: a join step's key order before an execution has looked it up.
_UNSEEN = object()


class _Tables(NamedTuple):
    """What a block runs through that the tables' version decides."""

    #: per FROM item a :class:`_Scan`, None for a derived table or an
    #: explicit JOIN, which run per execution.
    scans: list[_Scan | None]
    #: the block's kernels for the NULL-free columns of these tables.
    kernels: ColumnBlockKernels
    #: per join step, the storage key order it probes and that order's
    #: direct table (None: it sorts its build side), looked up by the first
    #: execution that reaches the step (:data:`_UNSEEN` before): storage
    #: builds one only when asked.  Two executions racing to it look up the
    #: same order.
    orders: list


class ColumnState:
    """What one block of a plan runs through on the column engine.

    The shape is a function of the plan.  The rest is a function of the
    tables too (:class:`_Tables`): the scans, the kernels lowered for the
    columns that hold no NULL in this version -- one flavour at a time, as
    the row engine's pipelines -- and each join step's storage key order.
    It is :class:`~repro.engine.plan.Stamped` with ``Database.mutations``
    and rebuilt in place by the first execution after it moved, so an
    insert that brings a NULL re-picks the flavour.  ``ColumnEngine.prepare``
    builds both (:meth:`ColumnExecutor.warm_scans`), so a warm execution
    looks the state up once and does only data work.  A mutation lets go
    of the tables' part, so no plan keeps an old version's arrays.
    """

    __slots__ = ("block", "shape", "kernels", "tables")

    def __init__(self, block: BlockPlan, shape: ColumnBlockShape,
                 kernels: Callable[[tuple], ColumnBlockKernels]):
        self.block = block
        self.shape = shape
        #: the block's kernels for a NULL-free set (see ``compile.column_kernels``).
        self.kernels = kernels
        self.tables = Stamped()

    def driving_scan(self, database: Database) -> dict | None:
        """Where the block's driving scan starts while its scans are current:
        ``access`` (``window <interval>`` or ``table``), the ``rows`` its first
        predicate starts from and the ``table_rows`` (None: the scans are not
        current, or the block drives from no base table)."""
        tables = self.tables.current(database)
        if tables is None or not self.block.join_order:
            return None
        scan = tables.scans[self.block.join_order[0].frame_index]
        if scan is None:
            return None
        return {"access": "table" if scan.window is None else f"window {scan.window.interval()}",
                "rows": _rows(scan.frame, scan.base), "table_rows": scan.frame.length}


class ColumnExecutor:
    """Executes the blocks of one :class:`QueryPlan` against a
    :class:`Database` column-at-a-time."""

    def __init__(self, database: Database, plan: QueryPlan, hash_joins: bool = True,
                 overflow_guard: bool = False, compile_expressions: bool = True,
                 trace: QueryTrace | None = None):
        self.database = database
        self.hash_joins = hash_joins
        self.overflow_guard = overflow_guard
        self.compile_expressions = compile_expressions
        self._plan = plan
        self._trace = trace
        #: the plan entry a block's :class:`ColumnState` is kept under.
        self._flavour = ("col", "state", overflow_guard, compile_expressions)
        self._fallback: RowExecutor | None = None
        self._uncorrelated_cache: dict[int, list[tuple]] = {}
        #: the counters an execution adds up, added to the query's at its end.
        self._tally: dict[str, int] = {}

    def _interpret(self, expression: ast.Expression, frame: ColFrame) -> Any:
        """``expression`` over all of ``frame``'s rows, lowered for this one
        evaluation (an expression the block has no kernel for); raises
        :class:`CompileFallback` where it cannot be lowered."""
        return compile_column_kernel(expression, frame.layout, self.overflow_guard)(
            ColumnContext(frame.arrays, frame.length))

    @property
    def _row_executor(self) -> RowExecutor:
        """The row executor correlated and FROM-less subqueries run on,
        built the first time one does."""
        if self._fallback is None:
            self._fallback = RowExecutor(
                self.database, self._plan, hash_joins=self.hash_joins,
                compile_expressions=self.compile_expressions, trace=self._trace)
        return self._fallback

    # -- public API -----------------------------------------------------------

    def execute(self) -> tuple[list[str], list[tuple]]:
        """Execute the plan."""
        select = self._plan.select
        self._uncorrelated_cache = {}
        self._tally = {}
        block = self._block(select)
        positions = block.order_positions
        frame, names = self._execute_block(select, block)
        index = None
        if positions and frame.length > 1:  # one row or none is in order
            index = self._order(select, positions, frame)
        elif positions and self._trace is not None:
            with self._trace.span("order") as span:
                span.set(rows_out=frame.length)
        if select.offset or select.limit is not None:
            start = select.offset or 0
            window = slice(start, None if select.limit is None
                           else start + select.limit)
            index = window if index is None else index[window]
        count_all(self._tally)
        return names, frame.rows(index)

    def _order(self, select: ast.Select, positions: list[int], frame: ColFrame) -> np.ndarray:
        """The row order ORDER BY puts ``frame``'s rows in."""
        keys = [(frame.sort_key(position), item.descending)
                for position, item in zip(positions, select.order_by)]
        if self._trace is None:
            return order_index(keys, self._tally)
        with self._trace.span("order") as span:
            index = order_index(keys, self._tally)
            span.set(rows_out=frame.length)
        return index

    def run_subquery(self, select: ast.Select, outer: _FallbackRowEnv) -> list[tuple]:
        """Execute a nested SELECT for a fallback predicate (row semantics).

        Where it runs is the plan's to say: a correlated block, or one the
        column pipeline does not run (FROM-less), goes to the row executor
        with the current row as its outer row; any other runs on the column
        pipeline once per execution, its rows cached by the block's number.
        """
        key = select.block
        cached = self._uncorrelated_cache.get(key)
        if cached is not None:
            return cached
        block = self._block(select)
        if block.correlated or _from_less(select):
            return self._row_executor.run_subquery(select, outer=outer)
        rows = self._uncorrelated_cache[key] = self._execute_block(select, block)[0].rows()
        return rows

    # -- block execution -------------------------------------------------------

    def _block(self, select: ast.Select) -> BlockPlan:
        """The plan's analysis of ``select`` (the planner plans every block)."""
        return self._plan.blocks[select.block]

    def state(self, block: BlockPlan) -> ColumnState:
        """The block's :class:`ColumnState`, kept on the plan."""
        plan = self._plan
        state = plan.kernels(block, self._flavour)
        if state is not None:
            return state
        # resolved before the build: the plan's lock is not reentrant
        shape = column_shape(plan, block)
        guard, compiled = self.overflow_guard, self.compile_expressions

        def kernels(null_free: tuple) -> ColumnBlockKernels:
            return column_kernels(plan, block, guard, compiled, null_free)
        return plan.kernels(block, self._flavour,
                            lambda planned: ColumnState(planned, shape, kernels))

    def _execute_block(self, select: ast.Select, block: BlockPlan | None = None
                       ) -> tuple[ColFrame, list[str]]:
        """Run one block: scan -> refine -> join -> aggregate, or project.

        Scans stay unmaterialised: push-down and residual predicates narrow
        the ``int64`` selection over the base arrays, joins gather through
        the composed selection, and only aggregation / projection produce a
        new :class:`ColFrame`.
        """
        if block is None:
            block = self._block(select)
        if not select.from_items:
            raise PlanError("a query block needs at least one FROM item")
        state = self.state(block)
        shape = state.shape
        tables = state.tables.get(self.database, self._build_tables, state)
        kernels = tables.kernels
        trace = self._trace

        # each scan span covers the push-down refinement of that scan's
        # selection (and a derived table's execution).
        frames: list[ColFrame] = []
        selections: list[np.ndarray | None] = []
        for index, scan in enumerate(tables.scans):
            if trace is None:
                frame, selection = self._scan(block, shape, kernels, index, scan)
            else:
                with trace.span("scan", source=scan_source(select.from_items[index])) as span:
                    frame, selection = self._scan(block, shape, kernels, index, scan)
                    _trace_scan(span, frame, scan, selection)
            frames.append(frame)
            selections.append(selection)
        if shape.joins:
            frame, selection = self._join_frames(frames, selections, block, shape, tables), None
        else:
            frame, selection = frames[0], selections[0]

        if block.residual:
            if trace is None:
                selection = self._refine(frame, selection, kernels.residual)
            else:
                with trace.span("filter") as span:
                    rows_in = _rows(frame, selection)
                    selection = self._refine(frame, selection, kernels.residual)
                    rows_out = _rows(frame, selection)
                    span.set(rows_in=rows_in, rows_out=rows_out, selection_size=rows_out)

        finish = self._aggregate if block.needs_aggregation else self._project
        if trace is None:
            frame = finish(select, shape, kernels, frame, selection)
        else:
            with trace.span("aggregate" if block.needs_aggregation else "project") as span:
                rows_in = _rows(frame, selection)
                frame = finish(select, shape, kernels, frame, selection)
                span.set(rows_in=rows_in, rows_out=frame.length)

        if select.distinct:
            frame = self._distinct(frame)
        return frame, block.output_names

    def _scan(self, block: BlockPlan, shape: ColumnBlockShape, kernels: ColumnBlockKernels,
              index: int, scan: _Scan | None) -> tuple[ColFrame, np.ndarray | None]:
        """FROM item ``index``'s frame and the selection its push-down
        predicates leave of it."""
        if scan is None:
            frame = self._materialise(block.select.from_items[index],
                                      block.item_columns[index], block.item_layouts[index])
            return frame, self._refine(frame, None, kernels.pushdown[index])
        tally = self._tally
        for name, amount in scan.counts:
            tally[name] = tally.get(name, 0) + amount
        return scan.frame, \
            self._refine(scan.frame, scan.base, scan.pairs) if scan.pairs else scan.base

    # -- plan-owned scans ---------------------------------------------------------

    def warm_scans(self) -> None:
        """Build the :class:`ColumnState` of every block of the plan and its
        scans for the tables as they are, so the plan's first execution finds
        them (best-effort: a block that fails here fails, or not, when it
        runs)."""
        for block in self._plan.blocks.values():
            try:
                state = self.state(block)
                state.tables.get(self.database, self._build_tables, state)
            except Exception:
                continue

    def _build_tables(self, state: ColumnState) -> _Tables:
        """The block's :class:`_Tables` for the tables as they are.

        The NULL-free set is read before the scans' arrays; a mutation that
        overlaps the two (``mutations`` odd, or moved) may have brought a
        NULL in between, so the scans are then built for the kernels that
        test every column -- and are stale for the next execution anyway.
        """
        database, block = self.database, state.block
        mutations = database.mutations
        null_free = () if mutations % 2 else null_free_columns(database, block)
        while True:
            kernels = state.kernels(null_free)
            scans = [self._build_scan(block, index, item, block.item_layouts[index],
                                      kernels.pushdown[index])
                     if isinstance(item, ast.TableRef) else None
                     for index, item in enumerate(block.select.from_items)]
            if not null_free or database.mutations == mutations:
                return _Tables(scans, kernels, [_UNSEEN] * len(state.shape.joins))
            null_free = ()

    def _build_scan(self, block: BlockPlan, index: int, item: ast.TableRef,
                    layout: Layout, pairs: list) -> _Scan:
        """The scan of the base table at FROM position ``index``: its frame,
        the rows the scan window holds, the chunks the zone maps cannot
        refute, and the push-down ``pairs`` left to run, dictionary-code
        kernels swapped in.

        Storage is read in that order -- key order, zone maps, columnar view
        -- each no older than the one before it, so every row id the first
        two give is a row of the frame.
        """
        storage = self.database.storage(item.name)
        window, rows = block.window_of(index), None
        if window is not None:
            order = storage.key_order((window.position,), "scan")
            if order is None:
                window = None
            else:
                rows = order.range_rows(window.low, window.high)
        chunks = None
        if pairs:
            def resolve(ref: ast.ColumnRef) -> tuple[str, str] | None:
                position = layout.position(ref)
                if position is None:
                    return None
                column = layout.columns[position]
                return column.name, column.type_name

            zones = storage.zone_index()
            survivors, *chunks = zones.survivors([predicate for _, predicate in pairs],
                                                 resolve)
            if survivors is not None:
                rows = zones.rows_of(survivors) if rows is None \
                    else zones.within(survivors, rows)
        view = self.database.columnar(item.name)
        frame = self._table_frame(item, view, block.item_columns[index], layout)
        coded = 0
        if pairs:
            pairs, coded = self._dictionary_pairs(view, layout, pairs)
            if window is not None:
                pairs = [pair for pair in pairs if not window.decides(pair[1])]
        if rows is not None and len(rows):
            rows.flags.writeable = False  # every execution starts from them
        # the zone maps ran (push-down predicates) or not: what the scan counts
        counts = () if chunks is None else (
            (("scan.dictionary_predicates", coded),) if coded else ()) + (
            ("scan.chunks_scanned", chunks[0]), ("scan.chunks_skipped", chunks[1]))
        return _Scan(frame, pairs, rows,
                     (len(storage.chunks), 0) if chunks is None else tuple(chunks), window,
                     counts)

    @staticmethod
    def _dictionary_pairs(view: ColumnarTable, layout: Layout, pairs: list
                          ) -> tuple[list, int]:
        """The scan's push-down ``pairs`` with a kernel for every predicate
        over one dictionary-coded string column (:func:`dictionary_column`;
        the lowering reads its codes), and how many such predicates there
        are.  Compiled kernels have that already; interpreted ones lower
        those predicates here."""
        swapped, coded = [], 0
        for kernel, predicate in pairs:
            position = dictionary_column(predicate, layout)
            if position is not None \
                    and view.codes.get(layout.columns[position].name) is not None:
                try:
                    kernel = kernel or compile_column_kernel(predicate, layout)
                    coded += 1
                except CompileFallback:
                    pass
            swapped.append((kernel, predicate))
        return swapped, coded

    def _refine(self, frame: ColFrame, selection: np.ndarray | None,
                pairs: list) -> np.ndarray | None:
        """Narrow ``selection`` by each predicate without materialising.

        Compiled kernels evaluate over the already-selected rows; interpreted
        predicates evaluate over the full base columns and are sliced at the
        selected positions; subquery predicates fall back row-at-a-time over
        the selected rows only.  One predicate is enough for the result to be
        an index: None comes back only where ``pairs`` is empty.
        """
        for kernel, predicate in pairs:
            if selection is None:
                length = frame.length
            else:
                length = len(selection)
                if not length:
                    break
            if kernel is not None:
                mask = kernel(ColumnContext(frame.arrays, length, selection, frame))
                if type(mask) is not np.ndarray or mask.dtype != np.bool_:
                    mask = as_mask(mask, length)
            else:
                try:
                    mask = as_mask(self._interpret(predicate, frame), frame.length)
                    if selection is not None:
                        mask = mask[selection]
                except CompileFallback:
                    mask = self._fallback_predicate(frame, selection, predicate)
            selection = mask.nonzero()[0] if selection is None else selection[mask]
        return selection

    def _fallback_predicate(self, frame: ColFrame, selection: np.ndarray | None,
                            predicate: ast.Expression) -> np.ndarray:
        """Row-at-a-time predicate over the selected rows only."""
        indexes = range(frame.length) if selection is None else selection
        mask = np.zeros(len(indexes), dtype=bool)
        for position, base_index in enumerate(indexes):
            env = _FallbackRowEnv(self, frame, int(base_index))
            mask[position] = bool(row_evaluate(predicate, env))
        return mask

    def _join_frames(self, frames: list[ColFrame], selections: list[np.ndarray | None],
                     block: BlockPlan, shape: ColumnBlockShape, tables: _Tables) -> ColFrame:
        """Join the scans following the schedule, composing their selections.

        Keys are read from the base arrays through the selection indexes and
        the joined frame gathers its columns lazily, so a filtered scan is
        never materialised just to be gathered again by the join.  The frames
        still are their FROM items' base arrays: a base table among them is
        probed through its storage key order.
        """
        if self._trace is None:
            return self._join_levels(frames, selections, block, shape, tables)[0]
        with self._trace.span("join") as span:
            frame, levels, build_rows = self._join_levels(frames, selections, block, shape,
                                                          tables)
            span.set(rows_in=sum(levels[:-1]), rows_out=frame.length,
                     build_rows=build_rows, **block.join_levels(levels))
        return frame

    def _join_levels(self, frames: list[ColFrame], selections: list[np.ndarray | None],
                     block: BlockPlan, shape: ColumnBlockShape, tables: _Tables
                     ) -> tuple[ColFrame, list[int], int]:
        """:meth:`_join_frames`, and the rows of each level and the build-side
        rows sorted, for the trace.  A level is its row pairs (:class:`_Rows`):
        one row index per source, gathered through each level's matches."""
        sources = [frames[index] for index in shape.sources]
        indexes = [selections[shape.sources[0]]]
        length = _rows(sources[0], indexes[0])
        levels, build_rows, probes, tally = [length], 0, 0, self._tally
        for number, step in enumerate(shape.joins):
            right, right_sel = sources[number + 1], selections[step.frame_index]
            probe = []
            for source, position in step.left_keys:
                column, index = sources[source].arrays[position], indexes[source]
                probe.append(column if index is None else column[index])
            order = self._stored_order(step, number, tables, probe, length, right, right_sel)
            if order is not None:
                probes += 1
                order, direct = order
                column = probe[0]
                if direct is not None and type(column) is np.ndarray \
                        and column.dtype == _INT64:
                    left_idx, right_idx = probe_direct(order, direct, column, tally)
                else:
                    left_idx, right_idx, _ = probe_order(order, probe, tally)
                if right_sel is not None:  # the pairs whose build row is selected
                    selected = np.zeros(right.length, dtype=bool)
                    selected[right_sel] = True
                    keep = selected[right_idx]
                    left_idx = keep.nonzero()[0] if left_idx is None else left_idx[keep]
                    right_idx = right_idx[keep]
            else:
                if step.positions:
                    build_rows += _rows(right, right_sel)
                    left_idx, right_idx, _ = join_indexes(
                        probe, [_selected(right.arrays[position], right_sel)
                                for _, position in step.positions], tally)
                else:
                    left_idx, right_idx = _cross(length, _rows(right, right_sel))
                if right_sel is not None:
                    right_idx = right_sel[right_idx]
            if left_idx is not None:
                indexes = [left_idx if index is None else index[left_idx] for index in indexes]
            indexes.append(right_idx)
            length = len(right_idx)
            levels.append(length)
        if probes:
            tally["join.order_probes"] = tally.get("join.order_probes", 0) + probes
        if build_rows:
            tally["join.build_rows"] = tally.get("join.build_rows", 0) + build_rows
        joined = block.layout
        return _joined_frame(_Rows(sources, indexes, None, length), shape.slots,
                             joined.columns, joined), levels, build_rows

    def _stored_order(self, step: ColumnJoin, number: int, tables: _Tables, probe: list,
                      probe_rows: int, right: ColFrame, right_sel: np.ndarray | None
                      ) -> tuple[KeyOrder, Any] | None:
        """The storage key order a join step probes and its direct table
        (``KeyOrder.direct``), or None: sort its build side.

        A base table joined on integer-kind keys has one, looked up once per
        table version (``tables.orders``).  All of its rows selected, it is
        probed as it is.  Under a selection it is probed, and the pairs whose
        build row is selected kept, when the probes are expected to reach
        fewer rows than are selected -- ``probe rows x indexed rows /
        distinct keys``, three exact counts -- since sorting the selection
        costs its rows; else the selection is sorted as before.
        """
        if step.probe is None or not (step.typed_keys or integer_kind(probe)):
            return None
        found = tables.orders[number]
        if found is _UNSEEN:
            order = self.database.key_order(step.probe.table, step.probe.columns)
            if order is not None and order.rows != right.length:
                order = None  # the table moved on under the frame: sort what was scanned
            found = tables.orders[number] = None if order is None else (order, order.direct())
        if found is None or (right_sel is not None and probe_rows * found[0].indexed_rows
                             >= len(right_sel) * found[0].distinct):
            return None
        return found

    def _join(self, left: ColFrame, right: ColFrame, equi: list[tuple[int, int]],
              residual: Sequence[ast.Expression] = (), keep_unmatched_left: bool = False,
              layout: Layout | None = None) -> ColFrame:
        """Join two frames (an explicit ``JOIN``) on ``equi`` position pairs.

        The key kernels pick the row pairs, sorting ``right``'s keys;
        ``residual`` predicates then filter the candidate pairs; a LEFT join
        appends its unmatched left rows, NULL-padded on the right, after the
        matches.  ``layout`` is the joined frame's: ``left``'s columns, then
        ``right``'s.
        """
        unmatched = None
        if equi:
            if right.length:
                self._tally["join.build_rows"] = \
                    self._tally.get("join.build_rows", 0) + right.length
            left_idx, right_idx, unmatched = join_indexes(
                [left.arrays[position] for position, _ in equi],
                [right.arrays[position] for _, position in equi], self._tally)
        else:
            left_idx, right_idx = _cross(left.length, right.length)
        if residual:
            if left_idx is None:
                left_idx = np.arange(left.length, dtype=np.int64)
            candidates = _joined(left, left_idx, right, right_idx)
            keep = self._refine(candidates, None, [(None, predicate) for predicate in residual])
            left_idx, right_idx = left_idx[keep], right_idx[keep]
        padded = False
        if keep_unmatched_left:
            if residual or not equi:
                matched = np.zeros(left.length, dtype=bool)
                matched[left_idx] = True
                unmatched = np.flatnonzero(~matched)
            padded = len(unmatched) > 0
            if padded:
                left_idx = np.concatenate([left_idx, unmatched])
                right_idx = np.concatenate(
                    [right_idx, np.full(len(unmatched), -1, dtype=np.int64)])
        return _joined(left, left_idx, right, right_idx, padded, layout)

    # -- projection ---------------------------------------------------------------------

    def _vector(self, kernel: Callable | None, expression: ast.Expression,
                context: ColumnContext, materialised: "_LazySelection") -> Any:
        """``expression`` over the selected rows, one value each: its kernel's
        or, without one, lowered for this evaluation over the (lazily)
        materialised rows."""
        if kernel is not None:
            value = kernel(context)
            if isinstance(value, np.ndarray):
                return value
        else:
            frame = materialised.frame()
            try:
                value = self._interpret(expression, frame)
            except CompileFallback:
                value = self._fallback_column(frame, expression)
        return self._as_array(value, context.length)

    def _project(self, select: ast.Select, shape: ColumnBlockShape,
                 kernels: ColumnBlockKernels, frame: ColFrame,
                 selection: np.ndarray | None) -> ColFrame:
        length = frame.length if selection is None else len(selection)
        context = ColumnContext(frame.arrays, length, selection, frame)
        materialised = _LazySelection(frame, selection) if None in kernels.projection else None
        arrays: list[np.ndarray | None] = []
        columns: list[ColumnInfo] = []
        # a projected dictionary-encoded column is its codes (None in
        # ``arrays``): a block grouping over this one (a derived table)
        # groups on int32, ORDER BY ranks them, delivery decodes them, and
        # only what reads the strings decodes them first.
        codes: list[np.ndarray | None] = []
        dictionaries: list[ViewDictionary | None] = []
        frame_codes = frame.codes
        for position, (item, kernel, column) in enumerate(
                zip(select.items, kernels.projection, shape.output_coded)):
            if isinstance(item.expression, ast.Star):
                star = item.expression
                for index, info in enumerate(frame.columns):
                    if star.table is None or info.binding.lower() == star.table.lower():
                        coded, dictionary = _coded(frame, index, selection)
                        arrays.append(None if coded is not None else context.column(index))
                        columns.append(_column_info("", info.name, info.type_name))
                        codes.append(coded)
                        dictionaries.append(dictionary)
                continue
            coded = None if column is None or frame_codes is None else frame_codes[column]
            if coded is None:
                array = self._vector(kernel, item.expression, context, materialised)
                dictionaries.append(None)
            else:
                array, coded = None, coded if selection is None else coded[selection]
                dictionaries.append(frame.dictionaries[column])
            arrays.append(array)
            columns.append(shape.output_infos[position] or _column_info(
                "", shape.output_names[position],
                "str" if array is None else _DTYPE_TYPES.get(array.dtype, "str")))
            codes.append(coded)
        if dictionaries.count(None) == len(dictionaries):
            return ColFrame(columns=columns, arrays=arrays, length=length)
        return ColFrame(columns=columns, arrays=DecodedColumns(arrays, codes, dictionaries),
                        length=length, codes=codes, dictionaries=dictionaries)

    def _fallback_column(self, frame: ColFrame, expression: ast.Expression) -> np.ndarray:
        values = []
        for index in range(frame.length):
            env = _FallbackRowEnv(self, frame, index)
            values.append(row_evaluate(expression, env))
        return np.array(values, dtype=object)

    def _as_array(self, value: Any, length: int) -> np.ndarray:
        if isinstance(value, Kleene):
            # projected predicates deliver row-engine booleans: True/False/None
            return as_objects(value)
        if isinstance(value, (np.ndarray, Nullable)):
            return value
        return np.full(length, value, dtype=object if isinstance(value, str) else None)

    # -- aggregation ---------------------------------------------------------------------

    def _aggregate(self, select: ast.Select, shape: ColumnBlockShape,
                   kernels: ColumnBlockKernels, frame: ColFrame,
                   selection: np.ndarray | None) -> ColFrame:
        """Group the selected rows, fold each distinct aggregate argument once
        per group and finish every call from its argument's folds, then
        evaluate HAVING and the select list over the group rows
        (:class:`_GroupColumns`).  A select item that is a coded column keeps
        the codes of each group's first row."""
        block = self._block(select)
        aggregation = block.aggregation
        length = frame.length if selection is None else len(selection)
        context = ColumnContext(frame.arrays, length, selection, frame)
        materialised = _LazySelection(frame, selection) \
            if None in kernels.keys or None in kernels.arguments else None
        frame_codes = frame.codes
        if select.group_by:
            # a key that is a plain dictionary-encoded column groups on its
            # int32 code vector (codes biject to values, with -1 for NULL, so
            # the partition -- and the first-seen order -- is identical to
            # grouping on the decoded strings); everything else evaluates.
            factors = []
            for key, column, kernel in zip(select.group_by, shape.key_columns, kernels.keys):
                key_codes = None if column is None or frame_codes is None \
                    else frame_codes[column]
                if key_codes is not None:
                    factors.append(key_codes if selection is None else key_codes[selection])
                else:
                    factors.append(self._vector(kernel, key, context, materialised))
            group_ids, first_index = group_rows(factors, length, self._tally)
            count = len(first_index)
            first_rows = first_index if selection is None else selection[first_index]
        else:  # one group: the arguments fold without a group id per row
            group_ids, count = None, 1
            # the empty global group has no first row: its joined columns read NULL
            first_rows = None if not length else _FIRST_ROW if selection is None \
                else selection[:1]
        calls = []
        if aggregation.calls:
            # every group's rows, counted once: the count of count(*) and of
            # any argument without a NULL among the selected rows
            sizes = np.array([length], dtype=np.int64) if group_ids is None \
                else np.bincount(group_ids, minlength=count)
            # every group has a row, unless it is the one group of no rows
            filled = group_ids is not None or length > 0
            folded, passes = [], int(group_ids is not None)
            for argument, kernel, uses in zip(aggregation.arguments, kernels.arguments,
                                              aggregation.folds):
                folds = _Folds(self._vector(kernel, argument, context, materialised), uses,
                               group_ids, sizes, filled)
                folded.append(folds)
                passes += folds.passes
            tally = self._tally
            tally["aggregate.folds"] = tally.get("aggregate.folds", 0) + passes
            for call, number in zip(aggregation.calls, aggregation.call_arguments):
                calls.append(sizes if number is None else folded[number].value(call))
        groups = _GroupColumns(frame, first_rows, calls, count, block.group_layout)
        context = ColumnContext(groups, count)
        if aggregation.having is not None:
            # HAVING keeps only groups where the predicate is TRUE; UNKNOWN
            # collapses to False here, exactly like the filter position.
            keep = truth_mask(self._over_groups(kernels.having, aggregation.having, groups,
                                                context), count)
            kept = keep.nonzero()[0]
            if len(kept) < count:
                groups = groups.take(kept)
                context = ColumnContext(groups, groups.count)
        arrays, coded = [], None
        for position, (item, kernel, column) in enumerate(
                zip(aggregation.items, kernels.projection, shape.output_coded)):
            # a string column may be coded: its codes at the first rows
            item_codes = None if column is None or groups.first_rows is None \
                or frame_codes is None else frame_codes[column]
            if item_codes is not None:
                coded = coded or [None] * len(aggregation.items)
                coded[position] = item_codes[groups.first_rows]
                arrays.append(None)
            else:
                arrays.append(self._over_groups(kernel, item, groups, context))
        columns = shape.output_infos
        if None in shape.output_types:  # a type the plan does not know: read off the values
            columns = [info or _column_info("", name, _DTYPE_TYPES.get(array.dtype, "str"))
                       for info, name, array in zip(columns, shape.output_names, arrays)]
        if coded is None:
            return ColFrame(columns=columns, arrays=arrays, length=groups.count)
        dictionaries = [None if codes is None else frame.dictionaries[column]
                        for codes, column in zip(coded, shape.output_coded)]
        return ColFrame(columns=columns, arrays=DecodedColumns(arrays, coded, dictionaries),
                        length=groups.count, codes=coded, dictionaries=dictionaries)

    def _over_groups(self, kernel: Callable | None, expression: ast.Expression,
                     groups: "_GroupColumns", context: ColumnContext) -> np.ndarray:
        """``expression`` over the group rows (``context`` reads ``groups``),
        one value each (Nullable and Kleene results as objects): its kernel's
        or, without one, lowered for this evaluation -- row by row where it
        cannot be."""
        if kernel is None:
            try:
                kernel = compile_column_kernel(expression, groups.layout, self.overflow_guard)
            except CompileFallback:
                return self._fallback_column(groups.frame(), expression)
        value = kernel(context)
        if not isinstance(value, np.ndarray):
            value = self._as_array(value, groups.count)
        return as_objects(value) if isinstance(value, Nullable) else value

    # -- FROM materialisation ----------------------------------------------------

    def _materialise(self, item: ast.TableExpression,
                     columns: list[ColumnInfo] | None = None,
                     layout: Layout | None = None) -> ColFrame:
        """The frame of one FROM item; ``columns`` / ``layout`` are the
        plan's for it, when the item is one the block's plan resolved."""
        if isinstance(item, ast.TableRef):
            return self._table_frame(item, self.database.columnar(item.name), columns,
                                     layout)
        if isinstance(item, ast.SubqueryRef):
            frame, names = self._execute_block(item.subquery)
            columns = [
                _column_info(item.alias, name, column.type_name)
                for name, column in zip(names, frame.columns)
            ]
            return ColFrame(columns=columns, arrays=frame.arrays, length=frame.length,
                            codes=frame.codes, layout=layout,
                            dictionaries=frame.dictionaries)
        if isinstance(item, ast.Join):
            return self._materialise_join(item, layout)
        raise PlanError(f"unsupported FROM item {type(item).__name__}")

    @staticmethod
    def _table_frame(item: ast.TableRef, view: ColumnarTable,
                     columns: list[ColumnInfo] | None = None,
                     layout: Layout | None = None) -> ColFrame:
        """The frame over a base table's columnar view (string columns with
        their dictionary codes)."""
        if columns is None:
            columns = [ColumnInfo(binding=item.binding, name=column.name,
                                  type_name=column.type_name)
                       for column in view.schema.columns]
        arrays = [view.columns[column.name] for column in view.schema.columns]
        codes = dictionaries = None
        if view.codes:
            codes = [view.codes.get(column.name) for column in view.schema.columns]
            dictionaries = [view.decoder(column.name) for column in view.schema.columns]
        return ColFrame(columns=columns, arrays=arrays, length=view.length,
                        codes=codes, layout=layout, dictionaries=dictionaries)

    def _materialise_join(self, join: ast.Join, layout: Layout | None = None) -> ColFrame:
        left = self._materialise(join.left)
        right = self._materialise(join.right)
        equi, _, residual = split_join_condition(join.condition, left, right)

        if join.kind == "right":
            swapped = ast.Join(left=join.right, right=join.left, kind="left",
                               condition=join.condition)
            joined = self._materialise_join(swapped).arrays
            width = len(right.columns)  # the swapped join's columns: right's, then left's
            return _joined_frame(joined.rows, joined.slots[width:] + joined.slots[:width],
                                 left.columns + right.columns, layout)

        return self._join(left, right, equi, residual,
                          keep_unmatched_left=join.kind == "left", layout=layout)

    # -- distinct --------------------------------------------------------------------------

    def _distinct(self, frame: ColFrame) -> ColFrame:
        """Keep the first of every set of equal rows."""
        keys = list(frame.arrays) if frame.codes is None else [
            array if codes is None else codes
            for array, codes in zip(frame.arrays, frame.codes)]
        return frame.take(group_rows(keys, frame.length, self._tally)[1])


def _trace_scan(span, frame: ColFrame, scan: _Scan | None,
                selection: np.ndarray | None) -> None:
    """What a traced ``scan`` span says: the rows the scan starts from and
    keeps and, of a base table, its chunks and access path."""
    attributes = {}
    if scan is not None:
        attributes["chunks_scanned"], attributes["chunks_skipped"] = scan.chunks
        if scan.window is not None:
            attributes.update(access="window", window=scan.window.interval())
    if selection is not None:
        attributes["selection_size"] = len(selection)
    span.set(rows_in=_rows(frame, None if scan is None else scan.base),
             rows_out=_rows(frame, selection), **attributes)


def _selected(array: Any, selection: np.ndarray | None) -> Any:
    """``array`` at the selected rows (None stays None, no selection = all)."""
    if array is None or selection is None:
        return array
    return array[selection]


def _rows(frame: ColFrame, selection: np.ndarray | None) -> int:
    """The rows ``selection`` selects of ``frame`` (None: all of them)."""
    return frame.length if selection is None else len(selection)


def _coded(frame: ColFrame, column: int | None, selection: np.ndarray | None
           ) -> tuple[np.ndarray | None, ViewDictionary | None]:
    """The dictionary codes of ``frame``'s column at position ``column`` at the
    selected rows, and what they decode to ((None, None): no column, or not
    a dictionary-encoded one)."""
    codes = None if column is None or frame.codes is None else frame.codes[column]
    if codes is None:
        return None, None
    return codes if selection is None else codes[selection], frame.dictionaries[column]


def _pad_values(gathered: Any, missing: np.ndarray) -> Any:
    """A gathered column with NULL at the rows an outer join padded."""
    values, valid = (gathered.values, gathered.valid) \
        if isinstance(gathered, Nullable) else (gathered, None)
    if values.dtype == np.float64:
        # an explicit validity mask, not bare NaN: predicates over the
        # padded rows must evaluate UNKNOWN (in-band NaN would compare
        # False and make NOT over the comparison wrongly TRUE).
        return Nullable(values, ~missing if valid is None else valid & ~missing)
    # integers, dates and booleans have no in-band null in the columnar
    # layout, so the padded side switches to object arrays holding None.
    padded = gathered.to_objects() if isinstance(gathered, Nullable) \
        else gathered.astype(object)
    padded[missing] = None
    return padded


def _pad_codes(gathered: np.ndarray, missing: np.ndarray) -> np.ndarray:
    return np.where(missing, np.int32(-1), gathered)


def _gather_padded(source: Any, index: np.ndarray, pad) -> Any:
    """``source`` at the rows ``index`` lists, NULL (``pad``) at the -1s."""
    missing = index < 0
    # an empty source has nothing to gather: every row is padding
    return pad(source[np.where(missing, 0, index)] if len(source)
               else np.zeros(len(index), dtype=source.dtype), missing)


def _compose(inner: np.ndarray | None, outer: np.ndarray | None,
             padded: bool) -> np.ndarray | None:
    """The row index ``inner[outer]``; None stands for "every row, in order"
    and, with ``padded``, a -1 in ``outer`` stays -1."""
    if inner is None or outer is None:
        return outer if inner is None else inner
    if not padded:
        return inner[outer]
    if not len(inner):
        return outer  # nothing to index: every row is padding
    return np.where(outer < 0, -1, inner[np.maximum(outer, 0)])


class _Rows(NamedTuple):
    """Which row of each source frame every row of a join result is made of.

    A join result's columns are columns of its sources -- the frames of the
    FROM items it joined, in the order the joins met them -- each read at
    its source's row index: ``indexes[source]`` (None: every row, in
    order), with -1 where an outer join padded the row (NULL in every
    column of that source: ``padded[source]``; ``padded`` None: no padding
    anywhere).  A join gathers each index through its row pairs, once per
    source however many of its columns are read.
    """

    sources: list[ColFrame]
    indexes: list
    padded: list[bool] | None
    length: int


def _cross(left_rows: int, right_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The row pairs of a cross join, left row by left row."""
    return (np.repeat(np.arange(left_rows, dtype=np.int64), right_rows),
            np.tile(np.arange(right_rows, dtype=np.int64), left_rows))


class _JoinedColumns(dict):
    """One part of a join result's columns -- their ``arrays``, ``codes`` or
    ``dictionaries`` -- by position, each column read off its source
    (``slots``: per column, its source and its position there) the first
    time it is read; a column read before is a plain dict lookup.  As a
    sequence (``len``, iteration) it is every column, in order.

    A join decides *which rows* pair up; most of the columns riding along
    are never looked at again (TPC-H Q8's eight-way join ends in 58 columns
    and reads ten).
    """

    __slots__ = ("rows", "slots", "_part")

    def __init__(self, rows: _Rows, slots: list[tuple[int, int]], part: str):
        super().__init__()
        self.rows = rows
        self.slots = slots
        self._part = part

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self):
        return (self[position] for position in range(len(self.slots)))

    def __missing__(self, position: int) -> Any:
        source, column = self.slots[position]
        rows = self.rows
        frame = rows.sources[source]
        part = self._part
        if part == "dictionaries":
            value = None if frame.dictionaries is None else frame.dictionaries[column]
        else:
            columns = frame.arrays if part == "arrays" else frame.codes
            value = None if columns is None else columns[column]
            if value is not None:
                index = rows.indexes[source]
                if rows.padded is not None and rows.padded[source]:
                    value = _gather_padded(value, index,
                                           _pad_values if part == "arrays" else _pad_codes)
                elif index is not None:
                    value = value[index]
        self[position] = value
        return value


def _joined_frame(rows: _Rows, slots: list[tuple[int, int]], columns: list[ColumnInfo],
                  layout: Layout | None) -> ColFrame:
    """The frame of a join's ``rows`` whose columns are ``slots``; it carries
    dictionary codes when a source does."""
    coded = False
    for source in rows.sources:
        coded = coded or source.codes is not None
    return ColFrame(columns=columns, arrays=_JoinedColumns(rows, slots, "arrays"),
                    length=rows.length, layout=layout,
                    codes=_JoinedColumns(rows, slots, "codes") if coded else None,
                    dictionaries=_JoinedColumns(rows, slots, "dictionaries") if coded else None)


def _sources(frame: ColFrame) -> tuple[_Rows, list[tuple[int, int]]]:
    """``frame`` as the rows and slots of a join result: its own, or one
    source whose columns are its columns."""
    if isinstance(frame.arrays, _JoinedColumns):
        return frame.arrays.rows, frame.arrays.slots
    return _Rows([frame], [None], None, frame.length), \
        [(0, position) for position in range(len(frame.columns))]


def _joined(left: ColFrame, left_idx: np.ndarray | None, right: ColFrame,
            right_idx: np.ndarray, padded: bool = False,
            layout: Layout | None = None) -> ColFrame:
    """The frame of ``left`` rows ``left_idx`` beside ``right`` rows
    ``right_idx`` (no ``left_idx``: every left row, once, in order;
    ``padded``: -1 in ``right_idx`` stands for an all-NULL right row):
    ``left``'s columns, then ``right``'s."""
    left_rows, left_slots = _sources(left)
    right_rows, right_slots = _sources(right)
    shift = len(left_rows.sources)
    flags = [*(left_rows.padded or [False] * shift),
             *(padded or flag for flag in right_rows.padded or [False] * len(right_rows.sources))]
    return _joined_frame(
        _Rows(left_rows.sources + right_rows.sources,
              [_compose(index, left_idx, False) for index in left_rows.indexes]
              + [_compose(index, right_idx, padded) for index in right_rows.indexes],
              flags if any(flags) else None, len(right_idx)),
        left_slots + [(source + shift, position) for source, position in right_slots],
        left.columns + right.columns, layout)


class _LazySelection:
    """Materialises a (frame, selection) pair at most once, on demand.

    Interpreter fallbacks inside the selection-vector path need a real
    :class:`ColFrame`; this defers (and shares) that gather so the common
    all-kernels case never pays it.
    """

    __slots__ = ("_base", "_selection", "_frame")

    def __init__(self, base: ColFrame, selection: np.ndarray | None):
        self._base = base
        self._selection = selection
        self._frame: ColFrame | None = None

    def frame(self) -> ColFrame:
        if self._frame is None:
            self._frame = self._base if self._selection is None \
                else self._base.take(self._selection)
        return self._frame


class _GroupColumns(dict):
    """The columns of an aggregated block's group rows, by position (see
    :class:`~repro.engine.plan.Aggregation`): the aggregate calls' values
    after the joined frame's columns, and those at the groups'
    ``first_rows`` (None: the empty global group, which has none and reads
    NULL), each read the first time something reads it -- a coded one from
    its codes."""

    __slots__ = ("joined", "first_rows", "count", "layout")

    def __init__(self, joined: ColFrame, first_rows: np.ndarray | None, calls: list,
                 count: int, layout: Layout):
        width = len(joined.columns)
        super().__init__(zip(range(width, width + len(calls)), calls))
        self.joined = joined
        self.first_rows = first_rows
        self.count = count
        self.layout = layout

    def __missing__(self, position: int) -> Any:
        if self.first_rows is None:
            read = np.full(self.count, None, dtype=object)
        else:
            joined = self.joined
            codes = None if joined.codes is None \
                or joined.columns[position].type_name != "str" else joined.codes[position]
            read = joined.arrays[position][self.first_rows] if codes is None \
                else joined.dictionaries[position].array(codes[self.first_rows])
        self[position] = read
        return read

    def take(self, groups: np.ndarray) -> "_GroupColumns":
        """The group rows at the positions ``groups`` lists."""
        taken = _GroupColumns(self.joined, None if self.first_rows is None
                              else self.first_rows[groups], [], len(groups), self.layout)
        taken.update((position, values[groups]) for position, values in self.items())
        return taken

    def frame(self) -> ColFrame:
        """The group rows as a frame, for an expression evaluated row by row."""
        return ColFrame(self.layout.columns, [self[position] for position
                                              in range(len(self.layout.columns))],
                        self.count, layout=self.layout)


# ---------------------------------------------------------------------------
# aggregation: one argument's folds per group
# ---------------------------------------------------------------------------


def _null_mask(values: np.ndarray) -> np.ndarray:
    # one representation dispatch for NULL detection, shared with IS NULL
    return isnull_mask(values, len(values), negated=False)


def _empty(counts: np.ndarray) -> np.ndarray | None:
    """The groups without a value to fold (None: there are none)."""
    empty = counts == 0
    return empty if np.logical_or.reduce(empty) else None


def _retyped(values: np.ndarray, empty: np.ndarray | None, dtype: np.dtype) -> np.ndarray:
    """Per-group float64 SUM / MIN / MAX accumulations as the input's type again:
    integers over integer inputs, as on the row engine (0 stands in for the
    ``empty`` groups, which :func:`_mask_empty` turns into NULL)."""
    if dtype.kind not in "iub":
        return values
    return np.rint(values if empty is None else np.where(empty, 0, values)).astype(np.int64)


def _mask_empty(values: np.ndarray, empty: np.ndarray | None) -> np.ndarray:
    """Replace aggregate outputs of ``empty`` groups with None."""
    if empty is None:
        return values
    result = values.astype(object)
    result[empty] = None
    return result


def _better(name: str, value: Any, current: Any) -> bool:
    """Whether ``value`` replaces ``current`` (None: nothing yet) as the MIN / MAX."""
    return current is None or ((value < current) if name == "min" else (value > current))


def _summed(name: str, sums: np.ndarray, counts: np.ndarray, empty: np.ndarray | None,
            dtype: np.dtype) -> np.ndarray:
    """SUM / AVG per group from the float64 sums and the counts of the values."""
    if name == "avg":
        if empty is None:  # no count is 0
            return sums / counts
        with np.errstate(invalid="ignore", divide="ignore"):
            return _mask_empty(sums / counts, empty)
    if empty is None and dtype.kind not in "iub":
        return sums  # float sums, every group with a value
    return _mask_empty(_retyped(sums, empty, dtype), empty)


def _sequential_sum(values: np.ndarray) -> float:
    """The float64 sum of ``values`` added left to right onto 0.0 -- what
    ``np.bincount(..., weights=values)`` puts in a group holding them all,
    bit for bit (``np.sum`` adds pairwise, which rounds differently)."""
    if not len(values):
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf / nan, as bincount's, unwarned
        total = np.add.accumulate(values)[-1]
    # + 0.0: a sum of nothing but -0.0 is 0.0 when it starts from 0.0
    return float(total) + 0.0


class _Folds:
    """One aggregate argument folded per group, once per fold its calls need:
    what every call over it reads.

    ``values`` is the argument over the selected rows, ``group_ids`` their
    groups (None: all of them are the one group) and ``sizes`` the groups'
    row counts.  SUM / MIN / MAX accumulate in float64, one ``np.bincount``
    / ``at`` per fold (left to right over the one group); a NULL-free
    argument's count is ``sizes``, any other's one more ``np.bincount`` over
    its valid rows.  DISTINCT collects each group's distinct values once for
    every DISTINCT call.  ``passes`` counts the per-group vectors computed.
    """

    __slots__ = ("counts", "empty", "dtype", "sums", "extremes", "buckets", "distinct_dtype",
                 "passes")

    def __init__(self, values: Any, uses: frozenset[str], group_ids: np.ndarray | None,
                 sizes: np.ndarray, filled: bool):
        self.passes = 0
        groups = len(sizes)
        # an int / bool array has no in-band NULL: nothing to test; a plain
        # float array's is NaN (see ``vector.isnull_mask``)
        if isinstance(values, np.ndarray):
            nulls = np.isnan(values) if values.dtype == np.float64 \
                else none_positions(values) if values.dtype == object else None
        else:
            nulls = _null_mask(values)
        if "distinct" in uses:
            underlying = values.values if isinstance(values, Nullable) else values
            self.distinct_dtype = underlying.dtype if isinstance(underlying, np.ndarray) \
                and underlying.dtype.kind in ("i", "f") else None
            self.buckets = [{} for _ in range(groups)]
            for index, group in zip(range(len(values)),
                                    repeat(0) if group_ids is None else group_ids):
                if nulls is None or not nulls[index]:
                    self.buckets[group].setdefault(values[index], None)
            self.passes += 1
            if len(uses) == 1:
                return
        grouped, numeric, counts = group_ids, values, sizes
        if nulls is not None and np.logical_or.reduce(nulls):
            valid = ~nulls
            grouped, numeric = (None if group_ids is None else group_ids[valid]), values[valid]
            counts = np.array([len(numeric)], dtype=np.int64) if grouped is None \
                else np.bincount(grouped, minlength=groups)
            self.passes += 1
            self.empty = _empty(counts)
        else:  # every group's rows are its values
            self.empty = None if filled else _empty(sizes)
        if isinstance(numeric, Nullable):
            numeric = numeric.values  # no NULL is left among them
        self.counts, self.dtype = counts, numeric.dtype
        if "sum" in uses:
            weights = numeric.astype(np.float64, copy=False)
            self.sums = np.array([_sequential_sum(weights)]) if grouped is None \
                else np.bincount(grouped, weights=weights, minlength=groups)
            self.passes += 1
        if "min" in uses or "max" in uses:
            self.extremes = {name: _extremes(name, numeric, grouped, groups, self.empty)
                             for name in ("min", "max") if name in uses}
            self.passes += len(self.extremes)

    def value(self, call: ast.FunctionCall) -> np.ndarray:
        """The call's value per group; SUM / MIN / MAX go out in the input's
        type, AVG is the sum over the count."""
        name = call.name.lower()
        if call.distinct:
            return _distinct_aggregate(name, self.buckets, self.distinct_dtype)
        if name == "count":
            return self.counts
        if name in ("sum", "avg"):
            return _summed(name, self.sums, self.counts, self.empty, self.dtype)
        return self.extremes[name]


def _extremes(name: str, numeric: np.ndarray, grouped: np.ndarray | None, groups: int,
              empty: np.ndarray | None) -> np.ndarray:
    """MIN / MAX per group over NULL-free ``numeric`` (``grouped`` None: one
    group), None for an ``empty`` group."""
    if numeric.dtype.kind in ("i", "f"):
        fold = np.minimum if name == "min" else np.maximum
        extremes = np.full(groups, np.inf if name == "min" else -np.inf)
        as_float = numeric.astype(np.float64, copy=False)
        if grouped is not None:
            fold.at(extremes, grouped, as_float)
        elif len(as_float):  # the same pairwise steps, left to right
            extremes[0] = fold.accumulate(as_float)[-1]
        return _mask_empty(_retyped(extremes, empty, numeric.dtype), empty)
    # strings / objects: python loop per row, None where a group had none
    best: list[Any] = [None] * groups
    for value, group in zip(numeric, repeat(0) if grouped is None else grouped):
        if _better(name, value, best[group]):
            best[group] = value
    return np.array(best, dtype=object)


def _distinct_aggregate(name: str, buckets: list[dict], dtype: np.dtype | None
                        ) -> np.ndarray:
    """A DISTINCT aggregate from each group's distinct values, accumulated one
    by one in first-occurrence order; ``dtype`` is the input's (None: not a
    numeric array)."""
    counts = np.array([len(bucket) for bucket in buckets], dtype=np.int64)
    if name == "count":
        return counts
    empty = _empty(counts)
    if name in ("sum", "avg"):
        sums = np.empty(len(buckets), dtype=np.float64)
        for index, bucket in enumerate(buckets):
            total = 0.0
            for value in bucket:
                total += float(value)
            sums[index] = total
        return _summed(name, sums, counts, empty, dtype or np.dtype(object))
    best: list[Any] = [None] * len(buckets)
    for index, bucket in enumerate(buckets):
        for value in bucket:
            if _better(name, value, best[index]):
                best[index] = value
    if dtype is None:
        return np.array(best, dtype=object)
    extremes = np.array([0.0 if value is None else float(value) for value in best])
    return _mask_empty(_retyped(extremes, empty, dtype), empty)
