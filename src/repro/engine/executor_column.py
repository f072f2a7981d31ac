"""Vectorised (column store) physical backend.

Like :mod:`repro.engine.executor_row`, this executor consumes the shared
logical plan (:mod:`repro.engine.plan`) -- scope resolution, conjunct
classification, the push-down assignment and the join schedule all come from
the :class:`BlockPlan` of each query block -- but every physical step
operates on numpy column arrays, and every block runs through the one
pipeline of :meth:`ColumnExecutor._execute_block`:

1. **scan** -- FROM items are :class:`ColFrame` column sets that are never
   filtered in place (base tables come from the database's cached columnar
   views, string columns with their dictionary codes; derived tables are
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
   for that predicate only (subqueries themselves run through a row
   executor, built the first time one needs it),
3. **join** -- the scheduled equi-joins (and explicit ``JOIN``s) ask the key
   kernels of :mod:`repro.engine.keys` for the matching row pairs; the joined
   frame gathers a column through those index vectors the first time
   something reads it,
4. **aggregate** -- an aggregated block groups the selected rows (ids from
   the same key kernels), folds each aggregate call per group with
   ``np.bincount`` / ``minimum.at`` style accumulators (a block without GROUP
   BY folds its one group without ids, adding in the same order) and
   evaluates HAVING and the select list per group; a block that does not
   aggregate projects over the selection instead,
5. ORDER BY sorts a row index over the result columns, OFFSET / LIMIT cut
   that index, and only the surviving rows are materialised, column-wise.

Expressions run as the compiled kernels of :mod:`repro.engine.compile` or,
kernel by kernel where there is none (all of them with
``compile_expressions`` off), through the :class:`VectorEvaluator`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Sequence
from itertools import accumulate, repeat
from typing import Any, NamedTuple

import numpy as np

from repro.engine.compile import (
    ColumnBlockKernels,
    ColumnBlockShape,
    ColumnContext,
    ColumnJoin,
    GroupValues,
    Layout,
    as_mask,
    column_block_shape,
    column_kernels,
    column_shape,
    compile_column_block,
    compile_row_kernel,
    group_values,
)
from repro.engine.database import ColumnarTable, Database
from repro.engine.executor_row import RowExecutor, scan_source
from repro.engine.expression import evaluate as row_evaluate
from repro.engine.keys import (
    KeyOrder,
    group_rows,
    integer_kind,
    join_indexes,
    order_index,
    probe_order,
)
from repro.engine.mask import Kleene, Nullable, as_objects, truth_mask
from repro.engine.plan import BlockPlan, Planner, QueryPlan, ScanWindow, Stamped
from repro.engine.planner import ColumnInfo
from repro.obs import NULL_SPAN, QueryTrace
from repro.obs.metrics import count as count_metric
from repro.engine.vector import ColFrame, VectorEvaluator, VectorFallback, isnull_mask
from repro.errors import ExecutionError, PlanError
from repro.sqlparser import ast

#: the output type read off an array, where the plan knows none.
_DTYPE_TYPES = {np.dtype(np.int64): "int", np.dtype(np.float64): "float",
                np.dtype(np.bool_): "bool"}


class _FallbackRowEnv:
    """Row environment over one index of a ColFrame (for subquery predicates)."""

    __slots__ = ("executor", "frame", "index", "_row_cache")

    def __init__(self, executor: "ColumnExecutor", frame: ColFrame, index: int):
        self.executor = executor
        self.frame = frame
        self.index = index
        self._row_cache: tuple | None = None

    def lookup(self, ref: ast.ColumnRef) -> Any:
        position = self.frame.position(ref)
        if position is None:
            raise ExecutionError(f"unknown column '{ref.qualified}'")
        if self._row_cache is None:
            self._row_cache = self.frame.row(self.index)
        return self._row_cache[position]

    def run_subquery(self, select: ast.Select) -> list[tuple]:
        return self.executor.run_subquery(select, outer_env=self)


def require_from_items(select: ast.Select) -> None:
    """Refuse the one planned text this backend does not run: a block without
    FROM items as the root or as a derived table under it
    (:meth:`ColumnExecutor._execute_block`; a FROM-less subquery inside an
    expression falls back to the row executor, which runs one).
    ``ColumnEngine.prepare`` asks, so the refusal is not left to ``execute``."""
    if not select.from_items:
        raise PlanError("a query block needs at least one FROM item")
    pending = list(select.from_items)
    while pending:
        item = pending.pop()
        if isinstance(item, ast.Join):
            pending += [item.left, item.right]
        elif isinstance(item, ast.SubqueryRef):
            require_from_items(item.subquery)


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
    #: whether push-down predicates put the zone maps before the scan.
    gated: bool
    #: how many of the predicates run over dictionary codes.
    coded: int
    #: the scan window the rows come from (None: the scan reads the table).
    window: ScanWindow | None


class ColumnState:
    """What one block of a plan runs through on the column engine.

    The shape and the kernels are functions of the plan.  The scans -- per
    FROM item a :class:`_Scan`, None for a derived table or an explicit JOIN,
    which run per execution -- are functions of the tables too: they are
    :class:`~repro.engine.plan.Stamped` with ``Database.mutations`` and
    rebuilt in place by the first execution after it moved.
    ``ColumnEngine.prepare`` builds both (:meth:`ColumnExecutor.warm_scans`),
    so a warm execution looks the state up once and does only data work.  A
    mutation lets go of the scans, so no plan keeps an old version's arrays.
    """

    __slots__ = ("block", "shape", "kernels", "tables")

    def __init__(self, block: BlockPlan, shape: ColumnBlockShape,
                 kernels: ColumnBlockKernels):
        self.block = block
        self.shape = shape
        self.kernels = kernels
        self.tables = Stamped()

    def scans(self, executor: "ColumnExecutor") -> list[_Scan | None]:
        return self.tables.get(executor.database, executor._build_scans, self)

    def driving_scan(self, database: Database) -> dict | None:
        """Where the block's driving scan starts while its scans are current:
        ``access`` (``window <interval>`` or ``table``), the ``rows`` its first
        predicate starts from and the ``table_rows`` (None: the scans are not
        current, or the block drives from no base table)."""
        scans = self.tables.current(database)
        if scans is None or not self.block.join_order:
            return None
        scan = scans[self.block.join_order[0].frame_index]
        if scan is None:
            return None
        return {"access": "table" if scan.window is None else f"window {scan.window.interval()}",
                "rows": _rows(scan.frame, scan.base), "table_rows": scan.frame.length}


class ColumnExecutor:
    """Executes SELECT blocks against a :class:`Database` column-at-a-time."""

    def __init__(self, database: Database, predicate_pushdown: bool = True,
                 hash_joins: bool = True, overflow_guard: bool = False,
                 compile_expressions: bool = True, plan: QueryPlan | None = None,
                 trace: QueryTrace | None = None):
        self.database = database
        self.predicate_pushdown = predicate_pushdown
        self.hash_joins = hash_joins
        self.overflow_guard = overflow_guard
        self.compile_expressions = compile_expressions
        self._plan = plan
        self._trace = trace
        self._planner: Planner | None = None
        self._extra_blocks: dict[int, BlockPlan] = {}
        #: the plan entry a block's :class:`ColumnState` is kept under.
        self._flavour = ("col", "state", overflow_guard, compile_expressions)
        self._fallback: RowExecutor | None = None
        self._uncorrelated_cache: dict[int, list[tuple]] = {}
        self._vector_subquery_failed: set[int] = set()

    def _span(self, name: str, **attributes):
        """An operator span when tracing, the shared no-op span otherwise."""
        trace = self._trace
        if trace is None:
            return NULL_SPAN
        return trace.span(name, **attributes)

    def _evaluator(self, frame: ColFrame) -> VectorEvaluator:
        return VectorEvaluator(frame, overflow_guard=self.overflow_guard)

    @property
    def _row_executor(self) -> RowExecutor:
        """The row executor the subqueries the vectorised path cannot run go
        to, built the first time one does."""
        if self._fallback is None:
            self._fallback = RowExecutor(
                self.database, predicate_pushdown=self.predicate_pushdown,
                hash_joins=self.hash_joins, compile_expressions=self.compile_expressions,
                plan=self._plan, trace=self._trace)
        return self._fallback

    # -- public API -----------------------------------------------------------

    def execute(self, query: "ast.Select | QueryPlan") -> tuple[list[str], list[tuple]]:
        """Execute a planned query (or a bare SELECT, planned on the fly)."""
        if isinstance(query, QueryPlan):
            self._plan = query
            if self._fallback is not None:
                self._fallback._plan = query
            select = query.select
        else:
            select = query
        self._uncorrelated_cache = {}
        self._vector_subquery_failed = set()
        positions = self._block(select).order_positions
        frame, names = self._execute_block(select)
        index = None
        if positions:
            with self._span("order") as span:
                index = order_index([
                    (frame.arrays[position], item.descending)
                    for position, item in zip(positions, select.order_by)])
                span.set(rows_out=frame.length)
        if select.offset or select.limit is not None:
            start = select.offset or 0
            window = slice(start, None if select.limit is None
                           else start + select.limit)
            index = window if index is None else index[window]
        return names, frame.rows(index)

    def run_subquery(self, select: ast.Select, outer_env: _FallbackRowEnv | None
                     ) -> list[tuple]:
        """Execute a nested SELECT for a fallback predicate (row semantics).

        Uncorrelated results are cached by ``id(select)`` for the duration of
        one execution -- the plan keeps the AST alive, so the key is stable
        and the per-row cache hit is an O(1) dict lookup instead of
        re-printing the subquery's SQL text.  Subqueries the vectorised path
        already failed on route straight to the row executor.
        """
        key = id(select)
        cached = self._uncorrelated_cache.get(key)
        if cached is not None:
            return cached
        if key not in self._vector_subquery_failed:
            try:
                frame, _names = self._execute_block(select)
                rows = frame.rows()
                self._uncorrelated_cache[key] = rows
                return rows
            except (VectorFallback, ExecutionError, PlanError):
                self._vector_subquery_failed.add(key)
        # correlated (or otherwise non-vectorisable) subquery: delegate to
        # the row executor with the current fallback row as outer context.
        return self._row_executor.run_subquery(
            select, outer=None if outer_env is None else _RowEnvBridge(outer_env))

    # -- block execution -------------------------------------------------------

    def _block(self, select: ast.Select) -> BlockPlan:
        """The shared analysis of ``select`` (planned on demand when absent)."""
        if self._plan is not None:
            block = self._plan.block(select)
            if block is not None:
                return block
        block = self._extra_blocks.get(id(select))
        if block is None:
            if self._planner is None:
                self._planner = Planner(self.database.catalog,
                                        predicate_pushdown=self.predicate_pushdown)
            block = self._planner.plan_block(select, registry=self._extra_blocks)
        return block

    def state(self, block: BlockPlan) -> ColumnState:
        """The block's :class:`ColumnState`, kept on the shared plan when the
        block is part of it; a block planned on the spot gets one of its own
        for this execution, interpreted."""
        plan = self._plan
        if plan is not None:
            state = plan.kernels(block, self._flavour)
            if state is not None:
                return state
            if plan.block(block.select) is block:
                # resolved before the build: the plan's lock is not reentrant
                shape, kernels = self._block_kernels(plan, block)
                return plan.kernels(block, self._flavour,
                                    lambda planned: ColumnState(planned, shape, kernels))
        shape = column_block_shape(block)
        return ColumnState(block, shape, compile_column_block(block, shape, compiled=False))

    def _block_kernels(self, plan: QueryPlan, block: BlockPlan
                       ) -> tuple[ColumnBlockShape, ColumnBlockKernels]:
        """The block's shape -- frame layouts, join keys, outputs, aggregate
        sites -- and its kernels, both cached on ``plan``.  Compilation is
        best-effort: a failure leaves the block on the vectorised
        interpreter."""
        shape = column_shape(plan, block)
        try:
            return shape, column_kernels(plan, block, self.overflow_guard,
                                         self.compile_expressions)
        except ExecutionError:
            raise
        except Exception:
            return shape, compile_column_block(block, shape, compiled=False)

    def _execute_block(self, select: ast.Select) -> tuple[ColFrame, list[str]]:
        """Run one block: scan -> refine -> join -> aggregate, or project.

        Scans stay unmaterialised: push-down and residual predicates narrow
        the ``int64`` selection over the base arrays, joins gather through
        the composed selection, and only aggregation / projection produce a
        new :class:`ColFrame`.
        """
        block = self._block(select)
        if not select.from_items:
            raise PlanError("a query block needs at least one FROM item")
        state = self.state(block)
        shape, kernels = state.shape, state.kernels
        scans = state.scans(self)
        trace = self._trace

        # each scan span covers the push-down refinement of that scan's
        # selection (and a derived table's execution).
        frames: list[ColFrame] = []
        selections: list[np.ndarray | None] = []
        for index, item in enumerate(select.from_items):
            span_cm = (trace.span("scan", source=scan_source(item))
                       if trace is not None else NULL_SPAN)
            with span_cm as span:
                scan = scans[index]
                if scan is None:
                    frame = self._materialise(item, block.item_columns[index],
                                              shape.item_layouts[index])
                    selection = self._refine(frame, None, kernels.pushdown[index])
                else:
                    frame, selection = scan.frame, self._scan(scan)
                if trace is not None:
                    _trace_scan(span, frame, scan, selection)
            frames.append(frame)
            selections.append(selection)
        if shape.joins:
            frame, selection = self._join_frames(frames, selections, block, shape), None
        else:
            frame, selection = frames[0], selections[0]

        if block.residual:
            with self._span("filter") as span:
                rows_in = _rows(frame, selection)
                selection = self._refine(frame, selection, kernels.residual)
                if trace is not None:
                    rows_out = _rows(frame, selection)
                    span.set(rows_in=rows_in, rows_out=rows_out, selection_size=rows_out)

        with self._span("aggregate" if block.needs_aggregation else "project") as span:
            rows_in = _rows(frame, selection)
            if block.needs_aggregation:
                frame = self._aggregate(select, shape, kernels, frame, selection)
            else:
                frame = self._project(select, shape, kernels, frame, selection)
            if trace is not None:
                span.set(rows_in=rows_in, rows_out=frame.length)

        if select.distinct:
            frame = self._distinct(frame)
        return frame, block.output_names

    def _scan(self, scan: _Scan) -> np.ndarray | None:
        """The selection the push-down predicates leave of a base table."""
        if scan.gated:
            if scan.coded:
                count_metric("scan.dictionary_predicates", scan.coded)
            count_metric("scan.chunks_scanned", scan.chunks[0])
            count_metric("scan.chunks_skipped", scan.chunks[1])
        return self._refine(scan.frame, scan.base, scan.pairs)

    # -- plan-owned scans ---------------------------------------------------------

    def warm_scans(self, plan: QueryPlan) -> None:
        """Build the :class:`ColumnState` of every block of ``plan`` and its
        scans for the tables as they are, so the plan's first execution finds
        them (best-effort: a block that fails here fails, or not, when it
        runs)."""
        for block in plan.blocks.values():
            try:
                self.state(block).scans(self)
            except Exception:
                continue

    def _build_scans(self, state: ColumnState) -> list[_Scan | None]:
        block = state.block
        return [self._build_scan(block, index, item, state.shape.item_layouts[index],
                                 state.kernels.pushdown[index])
                if isinstance(item, ast.TableRef) else None
                for index, item in enumerate(block.select.from_items)]

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
            swapped = self._dictionary_pairs(view, layout, pairs)
            coded = sum(new is not old for (new, _), (old, _) in zip(swapped, pairs))
            pairs = swapped if window is None \
                else [pair for pair in swapped if not window.decides(pair[1])]
        if rows is not None and len(rows):
            rows.flags.writeable = False  # every execution starts from them
        gated = chunks is not None
        return _Scan(frame, pairs, rows,
                     tuple(chunks) if gated else (len(storage.chunks), 0), gated, coded, window)

    def _dictionary_pairs(self, view: ColumnarTable, layout: Layout, pairs: list) -> list:
        """Swap scan predicates over string columns to dictionary-code kernels.

        Equality / IN / LIKE (and their negations) over a stored string
        column are evaluated once over the table-wide dictionary via a
        compiled *row* kernel -- giving exact row-engine NULL semantics --
        and then applied to the int32 code vector instead of the object
        array.
        """
        if not view.codes:
            return pairs
        return [(self._dictionary_kernel(view, layout, predicate) or kernel, predicate)
                for kernel, predicate in pairs]

    def _dictionary_kernel(self, view: ColumnarTable, layout: Layout,
                           predicate: ast.Expression):
        if isinstance(predicate, ast.Comparison):
            if predicate.operator not in ("=", "<>") or predicate.quantifier is not None:
                return None
        elif not isinstance(predicate, (ast.InList, ast.Like)):
            return None
        refs = [node for node in predicate.walk() if isinstance(node, ast.ColumnRef)]
        if not refs:
            return None
        positions = set()
        for ref in refs:
            try:
                position = layout.position(ref)
            except ExecutionError:
                return None
            if position is None:
                return None
            positions.add(position)
        if len(positions) != 1:
            return None
        column = layout.columns[positions.pop()]
        codes = view.codes.get(column.name)
        if codes is None:
            return None
        dictionary = view.dictionaries[column.name]
        try:
            evaluate = compile_row_kernel(predicate, Layout([column]))
            null_matches = bool(evaluate((None,)))
            matching = [code for code, value in enumerate(dictionary.values)
                        if evaluate((value,))]
        except Exception:
            # includes CompileFallback: predicate stays on its generic kernel
            return None
        matching_codes = np.array(matching, dtype=np.int32)

        def kernel(ctx, _codes=codes, _matching=matching_codes, _null=null_matches):
            gathered = _codes if ctx.sel is None else _codes[ctx.sel]
            if len(_matching) == 1:
                mask = gathered == _matching[0]
            else:
                mask = np.isin(gathered, _matching)
            if _null:
                mask = mask | (gathered == -1)
            return mask
        return kernel

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
            if selection is not None and len(selection) == 0:
                break
            if kernel is not None:
                length = frame.length if selection is None else len(selection)
                mask = as_mask(kernel(ColumnContext(frame.arrays, length, selection)), length)
            else:
                try:
                    mask = self._evaluator(frame).evaluate_predicate(predicate)
                    if selection is not None:
                        mask = mask[selection]
                except VectorFallback:
                    mask = self._fallback_predicate(frame, selection, predicate)
            selection = np.flatnonzero(mask) if selection is None else selection[mask]
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

    def _join_frames(self, frames: list[ColFrame],
                     selections: list[np.ndarray | None],
                     block: BlockPlan, shape: ColumnBlockShape) -> ColFrame:
        """Join the scans following the schedule, composing their selections.

        Keys are read from the base arrays through the selection indexes and
        the joined frame gathers its columns lazily, so a filtered scan is
        never materialised just to be gathered again by the join.  The frames
        still are their FROM items' base arrays: a base table among them is
        probed through its storage key order.
        """
        first = block.join_order[0].frame_index
        frame, selection = frames[first], selections[first]
        with self._span("join") as span:
            build_rows = 0
            levels = [frame.length if selection is None else len(selection)]
            for step in shape.joins:
                next_frame = frames[step.frame_index]
                next_selection = selections[step.frame_index]
                order = self._stored_order(step, frame, levels[-1], next_frame,
                                           next_selection)
                if order is None and step.positions:
                    build_rows += next_frame.length if next_selection is None \
                        else len(next_selection)
                frame = self._join(frame, selection, next_frame, next_selection,
                                   step.positions, order=order, layout=step.layout,
                                   cut=step.cut)
                selection = None
                levels.append(frame.length)
            if self._trace is not None:
                span.set(rows_in=sum(levels[:-1]), rows_out=frame.length,
                         build_rows=build_rows, **block.join_levels(levels))
        return frame

    def _stored_order(self, step: ColumnJoin, left: ColFrame, probe_rows: int,
                      right: ColFrame, right_sel: np.ndarray | None
                      ) -> KeyOrder | None:
        """The storage key order a join step probes (None: sort its build side).

        A base table joined on integer-kind keys has one.  All of its rows
        selected, it is probed as it is.  Under a selection it is probed, and
        the pairs whose build row is selected kept, when the probes are
        expected to reach fewer rows than are selected -- ``probe rows x
        indexed rows / distinct keys``, three exact counts -- since sorting
        the selection costs its rows; else the selection is sorted as before.
        """
        if step.probe is None \
                or not integer_kind([left.arrays[position] for position, _ in step.positions]):
            return None
        order = self.database.key_order(step.probe.table, step.probe.columns)
        if order is None or order.rows != right.length:
            return None  # the table moved on under the frame: sort what was scanned
        if right_sel is not None \
                and probe_rows * order.indexed_rows >= len(right_sel) * order.distinct:
            return None
        return order

    def _join(self, left: ColFrame, left_sel: np.ndarray | None,
              right: ColFrame, right_sel: np.ndarray | None,
              equi: list[tuple[int, int]],
              residual: Sequence[ast.Expression] = (),
              keep_unmatched_left: bool = False,
              order: KeyOrder | None = None, layout: Layout | None = None,
              cut: int | None = None) -> ColFrame:
        """Join two (selected) frames on ``equi`` position pairs.

        The key kernels pick the row pairs -- probing ``order``, the key
        order of all of ``right``'s rows (inner joins only), or sorting the
        selected ones -- ``residual`` predicates then filter the candidate
        pairs; a LEFT join appends its unmatched left rows, NULL-padded on
        the right, after the matches.  ``layout`` is the joined frame's,
        whose columns are ``left``'s with ``right``'s put in at ``cut``
        (None: after them).
        """
        left_rows = left.length if left_sel is None else len(left_sel)
        right_rows = right.length if right_sel is None else len(right_sel)
        unmatched = None
        if equi:
            probe = [_selected(left.arrays[position], left_sel) for position, _ in equi]
            if order is not None:
                count_metric("join.order_probes")
                left_idx, right_idx, _ = probe_order(order, probe)
                if right_sel is not None:
                    selected = np.zeros(right.length, dtype=bool)
                    selected[right_sel] = True
                    keep = selected[right_idx]
                    left_idx = np.flatnonzero(keep) if left_idx is None else left_idx[keep]
                    right_idx, right_sel = right_idx[keep], None
            else:
                if right_rows:
                    count_metric("join.build_rows", right_rows)
                left_idx, right_idx, unmatched = join_indexes(
                    probe, [_selected(right.arrays[position], right_sel)
                            for _, position in equi])
        else:  # cross join via index replication
            left_idx = np.repeat(np.arange(left_rows, dtype=np.int64), right_rows)
            right_idx = np.tile(np.arange(right_rows, dtype=np.int64), left_rows)
        if residual:
            if left_idx is None:
                left_idx = np.arange(left_rows, dtype=np.int64)
            candidates = _joined(left, left_sel, left_idx, right, right_sel, right_idx)
            evaluator = self._evaluator(candidates)
            mask = np.ones(candidates.length, dtype=bool)
            for predicate in residual:
                mask &= evaluator.evaluate_predicate(predicate)
            left_idx, right_idx = left_idx[mask], right_idx[mask]
        padded = False
        if keep_unmatched_left:
            if residual or not equi:
                matched = np.zeros(left_rows, dtype=bool)
                matched[left_idx] = True
                unmatched = np.flatnonzero(~matched)
            padded = len(unmatched) > 0
            if padded:
                left_idx = np.concatenate([left_idx, unmatched])
                right_idx = np.concatenate(
                    [right_idx, np.full(len(unmatched), -1, dtype=np.int64)])
        return _joined(left, left_sel, left_idx, right, right_sel, right_idx, padded,
                       layout, cut)

    # -- projection ---------------------------------------------------------------------

    def _vector(self, kernel: Callable | None, expression: ast.Expression,
                context: ColumnContext, materialised: "_LazySelection") -> Any:
        """``expression`` over the selected rows, one value each: its kernel's
        or, without one, the interpreter's over the (lazily) materialised rows."""
        if kernel is not None:
            value = kernel(context)
        else:
            frame = materialised.frame()
            try:
                value = self._evaluator(frame).evaluate(expression)
            except VectorFallback:
                value = self._fallback_column(frame, expression)
        return self._as_array(value, context.length)

    def _project(self, select: ast.Select, shape: ColumnBlockShape,
                 kernels: ColumnBlockKernels, frame: ColFrame,
                 selection: np.ndarray | None) -> ColFrame:
        length = frame.length if selection is None else len(selection)
        context = ColumnContext(frame.arrays, length, selection)
        materialised = _LazySelection(frame, selection)
        arrays: list[np.ndarray] = []
        columns: list[ColumnInfo] = []
        # a projected dictionary-encoded column keeps its codes, so a block
        # grouping over this one (a derived table) still groups on int32.
        codes: list[np.ndarray | None] = []
        for position, item in enumerate(select.items):
            if isinstance(item.expression, ast.Star):
                star = item.expression
                for index, column in enumerate(frame.columns):
                    if star.table is None or column.binding.lower() == star.table.lower():
                        arrays.append(context.column(index))
                        columns.append(ColumnInfo("", column.name, column.type_name))
                        codes.append(_codes_of(frame, index, selection))
                continue
            array = self._vector(kernels.projection[position], item.expression,
                                 context, materialised)
            arrays.append(array)
            columns.append(ColumnInfo("", item.output_name(position),
                                      shape.output_types[position] or _type_of(array)))
            codes.append(_codes_of(frame, shape.output_columns[position], selection))
        return ColFrame(columns=columns, arrays=arrays, length=length,
                        codes=codes if any(code is not None for code in codes)
                        else None)

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
        """Group the selected rows, read each first-row site at the groups'
        first rows, fold each aggregate call per group, then evaluate HAVING
        and the select list per group."""
        sites = shape.sites
        length = frame.length if selection is None else len(selection)
        context = ColumnContext(frame.arrays, length, selection)
        materialised = _LazySelection(frame, selection)
        if sites.keys:
            # a key that is a plain dictionary-encoded column groups on its
            # int32 code vector (codes biject to values, with -1 for NULL, so
            # the partition -- and the first-seen order -- is identical to
            # grouping on the decoded strings); everything else evaluates.
            factors = []
            for key, column, kernel in zip(sites.keys, sites.key_columns, kernels.keys):
                codes = _codes_of(frame, column, selection)
                factors.append(self._vector(kernel, key, context, materialised)
                               if codes is None else codes)
            group_ids, first_index = group_rows(factors, length)
            count = len(first_index)
        else:  # one group: the calls fold without a group id per row
            group_ids = None
            first_index = np.zeros(1 if length else 0, dtype=np.int64)
            count = 1
        firsts = []
        if sites.firsts:  # row by row like any expression: only the groups' first rows are read
            first_rows = first_index if selection is None else selection[first_index]
            first_context = ColumnContext(frame.arrays, len(first_rows), first_rows)
            first_frame = _LazySelection(frame, first_rows)
            firsts = [group_values(self._vector(kernel, expression, first_context, first_frame))
                      for expression, kernel in zip(sites.firsts, kernels.firsts)]
        if not sites.keys:
            # a global aggregate over an empty input still is one group: its
            # counts are 0, its other aggregates NULL and, with no first row
            # to read, so is everything else -- the row engine's empty group.
            firsts = [first if len(first) else np.full(1, None, dtype=object)
                      for first in firsts]
        groups = GroupValues(
            count,
            [_aggregate_call(call, None if argument is None
                             else self._vector(kernel, argument, context, materialised),
                             group_ids, count, length)
             for call, argument, kernel in zip(sites.calls, sites.arguments, kernels.arguments)],
            firsts)
        arrays = [np.asarray(group_values(item(groups))) for item in sites.items]
        if sites.having is None:
            return self._output(select, shape, arrays, count)
        # HAVING keeps only groups where the predicate is TRUE; UNKNOWN
        # (a Kleene mask's invalid rows, or None in an object array)
        # collapses to False here, exactly like the filter position.
        keep = truth_mask(sites.having(groups), count)
        return self._output(select, shape, [values[keep] for values in arrays],
                            int(keep.sum()))

    def _output(self, select: ast.Select, shape: ColumnBlockShape,
                arrays: list[np.ndarray], length: int) -> ColFrame:
        """The frame of an aggregated block's output: one array per select
        item, typed by the plan where it knows (a MIN over dates is an
        ``int64`` array like any other)."""
        return ColFrame(
            columns=[ColumnInfo("", item.output_name(position),
                                shape.output_types[position] or _type_of(array))
                     for position, (item, array) in enumerate(zip(select.items, arrays))],
            arrays=arrays, length=length)

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
                ColumnInfo(binding=item.alias, name=name, type_name=column.type_name)
                for name, column in zip(names, frame.columns)
            ]
            return ColFrame(columns=columns, arrays=frame.arrays, length=frame.length,
                            codes=frame.codes, layout=layout)
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
        codes = [view.codes.get(column.name) for column in view.schema.columns] \
            if view.codes else None
        return ColFrame(columns=columns, arrays=arrays, length=view.length,
                        codes=codes, layout=layout)

    def _materialise_join(self, join: ast.Join, layout: Layout | None = None) -> ColFrame:
        left = self._materialise(join.left)
        right = self._materialise(join.right)
        equi, residual = self._split_join_condition(join.condition, left, right)

        if join.kind == "right":
            swapped = ast.Join(left=join.right, right=join.left, kind="left",
                               condition=join.condition)
            frame = self._materialise_join(swapped)
            width_right = len(right.columns)
            reordered = frame.arrays[width_right:] + frame.arrays[:width_right]
            columns = frame.columns[width_right:] + frame.columns[:width_right]
            return ColFrame(columns=columns, arrays=reordered, length=frame.length,
                            layout=layout)

        return self._join(left, None, right, None, equi, residual,
                          keep_unmatched_left=join.kind == "left", layout=layout)

    def _split_join_condition(self, condition: ast.Expression | None,
                              left: ColFrame, right: ColFrame
                              ) -> tuple[list[tuple[int, int]], list[ast.Expression]]:
        equi: list[tuple[int, int]] = []
        residual: list[ast.Expression] = []
        for conjunct in ast.conjuncts(condition):
            if (isinstance(conjunct, ast.Comparison) and conjunct.operator == "="
                    and isinstance(conjunct.left, ast.ColumnRef)
                    and isinstance(conjunct.right, ast.ColumnRef)):
                left_position = left.position(conjunct.left)
                right_position = right.position(conjunct.right)
                if left_position is not None and right_position is not None:
                    equi.append((left_position, right_position))
                    continue
                left_position = left.position(conjunct.right)
                right_position = right.position(conjunct.left)
                if left_position is not None and right_position is not None:
                    equi.append((left_position, right_position))
                    continue
            residual.append(conjunct)
        return equi, residual

    # -- distinct --------------------------------------------------------------------------

    def _distinct(self, frame: ColFrame) -> ColFrame:
        """Keep the first of every set of equal rows."""
        keys = list(frame.arrays) if frame.codes is None else [
            array if codes is None else codes
            for array, codes in zip(frame.arrays, frame.codes)]
        return frame.take(group_rows(keys, frame.length)[1])


class _RowEnvBridge:
    """Adapts a :class:`_FallbackRowEnv` to the row executor's outer-env shape."""

    def __init__(self, env: _FallbackRowEnv):
        self.frame = env.frame  # a ColFrame resolves positions like a RowFrame
        self.row = env.frame.row(env.index)
        self.outer = None


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


def _codes_of(frame: ColFrame, column: int | None, selection: np.ndarray | None
              ) -> np.ndarray | None:
    """The dictionary codes of ``frame``'s column at position ``column`` at the
    selected rows (None: no column, or not a dictionary-encoded one)."""
    if column is None or frame.codes is None:
        return None
    return _selected(frame.codes[column], selection)


def _type_of(array: Any) -> str:
    return _DTYPE_TYPES.get(array.dtype, "str")


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


class _GatheredColumns(Sequence):
    """The columns of a join result, each gathered the first time it is read.

    A join decides *which rows* pair up; most of the columns riding along
    are never looked at again (TPC-H Q5's six-way join ends in 47 columns
    and reads three).  ``parts`` holds, per source frame, its arrays, the
    row index into them (None: every row, in order) and whether that index
    has -1 entries (a row an outer join padded: NULL in every column of the
    part); joining again only re-indexes the parts.
    """

    __slots__ = ("parts", "_pad", "_ends", "_gathered")

    def __init__(self, parts: list[tuple[Sequence, np.ndarray | None, bool]], pad):
        self.parts = parts
        self._pad = pad
        #: per part, the position after its last column.
        self._ends = list(accumulate(len(arrays) for arrays, _, _ in parts))
        self._gathered: dict[int, Any] = {}

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self[index] for index in range(*position.indices(len(self)))]
        if not -len(self) <= position < len(self):
            raise IndexError(position)  # ends an iteration
        position %= len(self)
        if position not in self._gathered:
            part = bisect_right(self._ends, position)
            arrays, index, padded = self.parts[part]
            source = arrays[position - (self._ends[part - 1] if part else 0)]
            if source is None or not padded:
                column = _selected(source, index)
            else:
                missing = index < 0
                # an empty source has nothing to gather: every row is padding
                column = self._pad(
                    source[np.where(missing, 0, index)] if len(source)
                    else np.zeros(len(index), dtype=source.dtype), missing)
            self._gathered[position] = column
        return self._gathered[position]


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


def _reindexed(arrays: Sequence, selection: np.ndarray | None,
               index: np.ndarray | None, padded: bool
               ) -> list[tuple[Sequence, np.ndarray | None, bool]]:
    """The parts of ``arrays[selection][index]``, without gathering anything."""
    parts = arrays.parts if isinstance(arrays, _GatheredColumns) \
        else [(arrays, None, False)]
    return [(source,
             _compose(_compose(inner, selection, False), index, padded),
             inner_padded or padded)
            for source, inner, inner_padded in parts]


def _split(parts: list[tuple[Sequence, np.ndarray | None, bool]], cut: int
           ) -> tuple[list, list]:
    """``parts`` as those of the columns before position ``cut`` and those of
    the columns from it on (a part astride it is cut in two)."""
    before, after, start = [], [], 0
    for part in parts:
        arrays, index, padded = part
        stop = start + len(arrays)
        if stop <= cut:
            before.append(part)
        elif start >= cut:
            after.append(part)
        else:
            before.append((arrays[:cut - start], index, padded))
            after.append((arrays[cut - start:], index, padded))
        start = stop
    return before, after


def _joined(left: ColFrame, left_sel: np.ndarray | None, left_idx: np.ndarray | None,
            right: ColFrame, right_sel: np.ndarray | None, right_idx: np.ndarray,
            padded: bool = False, layout: Layout | None = None,
            cut: int | None = None) -> ColFrame:
    """The frame of ``left`` rows ``left_idx`` beside ``right`` rows ``right_idx``
    (both counted within their selections; no ``left_idx``: every selected
    left row, once, in order; ``padded``: -1 in ``right_idx`` stands for an
    all-NULL right row).  ``right``'s columns go in at ``cut`` among
    ``left``'s (None: after them)."""
    if cut is None:
        cut = len(left.columns)

    def gathered(left_columns, right_columns, pad):
        before = _reindexed(left_columns, left_sel, left_idx, False)
        after = []
        if cut < len(left.columns):
            before, after = _split(before, cut)
        return _GatheredColumns(
            before + _reindexed(right_columns, right_sel, right_idx, padded) + after, pad)

    codes = None
    if left.codes is not None or right.codes is not None:
        codes = gathered(left.codes or [None] * len(left.columns),
                         right.codes or [None] * len(right.columns), _pad_codes)
    return ColFrame(columns=left.columns[:cut] + right.columns + left.columns[cut:],
                    arrays=gathered(left.arrays, right.arrays, _pad_values),
                    length=len(right_idx), codes=codes, layout=layout)


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


# ---------------------------------------------------------------------------
# aggregation: one call's value per group
# ---------------------------------------------------------------------------


def _null_mask(values: np.ndarray) -> np.ndarray:
    # one representation dispatch for NULL detection, shared with IS NULL
    return isnull_mask(values, len(values), negated=False)


def _retyped(values: np.ndarray, counts: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Per-group float64 SUM / MIN / MAX accumulations as the input's type again:
    integers over integer inputs, as on the row engine (0 stands in for empty
    groups, which :func:`_mask_empty` turns into NULL)."""
    if dtype.kind not in "iub":
        return values
    return np.rint(np.where(counts > 0, values, 0)).astype(np.int64)


def _mask_empty(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Replace aggregate outputs of empty groups with None."""
    if (counts > 0).all():
        return values
    result = values.astype(object)
    result[counts == 0] = None
    return result


def _better(name: str, value: Any, current: Any) -> bool:
    """Whether ``value`` replaces ``current`` (None: nothing yet) as the MIN / MAX."""
    return current is None or ((value < current) if name == "min" else (value > current))


def _summed(name: str, sums: np.ndarray, counts: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """SUM / AVG per group from the float64 sums and the counts of the values."""
    if name == "avg":
        with np.errstate(invalid="ignore", divide="ignore"):
            return _mask_empty(sums / counts, counts)
    return _mask_empty(_retyped(sums, counts, dtype), counts)


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


def _aggregate_call(call: ast.FunctionCall, values: Any, group_ids: np.ndarray | None,
                    group_count: int, rows: int) -> np.ndarray:
    """One aggregate call's value per group; ``values`` is its argument over
    the ``rows`` selected rows (None: ``count(*)``), ``group_ids`` their
    groups (None: all of them are the one group).  SUM / MIN / MAX accumulate
    in float64 and go out in the input's type."""
    name = call.name.lower()
    if values is None:
        if group_ids is None:
            return np.array([rows], dtype=np.int64)
        return np.bincount(group_ids, minlength=group_count).astype(np.int64)
    # an int / bool array has no in-band NULL: nothing to test
    nulls = None if isinstance(values, np.ndarray) and values.dtype.kind in "iub" \
        else _null_mask(values)
    if call.distinct:
        underlying = values.values if isinstance(values, Nullable) else values
        dtype = underlying.dtype if isinstance(underlying, np.ndarray) \
            and underlying.dtype.kind in ("i", "f") else None
        buckets: list[dict] = [{} for _ in range(group_count)]
        groups = repeat(0) if group_ids is None else group_ids
        for index, group in zip(range(len(values)), groups):
            if nulls is None or not nulls[index]:
                buckets[group].setdefault(values[index], None)
        return _distinct_aggregate(name, buckets, dtype)
    grouped, numeric = group_ids, values
    if nulls is not None and nulls.any():
        valid = ~nulls
        grouped, numeric = (None if group_ids is None else group_ids[valid]), values[valid]
    counts = np.array([len(numeric)], dtype=np.int64) if grouped is None \
        else np.bincount(grouped, minlength=group_count)
    if name == "count":
        return counts.astype(np.int64)
    if isinstance(numeric, Nullable):
        numeric = numeric.values  # no NULL is left among them
    if name in ("sum", "avg"):
        weights = numeric.astype(np.float64, copy=False)
        sums = np.array([_sequential_sum(weights)]) if grouped is None \
            else np.bincount(grouped, weights=weights, minlength=group_count)
        return _summed(name, sums, counts, numeric.dtype)
    if name not in ("min", "max"):
        raise ExecutionError(f"unknown aggregate function '{name}'")
    if numeric.dtype.kind in ("i", "f"):
        fold = np.minimum if name == "min" else np.maximum
        extremes = np.full(group_count, np.inf if name == "min" else -np.inf)
        as_float = numeric.astype(np.float64, copy=False)
        if grouped is not None:
            fold.at(extremes, grouped, as_float)
        elif len(as_float):  # the same pairwise steps, left to right
            extremes[0] = fold.accumulate(as_float)[-1]
        return _mask_empty(_retyped(extremes, counts, numeric.dtype), counts)
    # strings / objects: python loop per row, None where a group had none
    best: list[Any] = [None] * group_count
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
    if name in ("sum", "avg"):
        sums = np.empty(len(buckets), dtype=np.float64)
        for index, bucket in enumerate(buckets):
            total = 0.0
            for value in bucket:
                total += float(value)
            sums[index] = total
        return _summed(name, sums, counts, dtype or np.dtype(object))
    best: list[Any] = [None] * len(buckets)
    for index, bucket in enumerate(buckets):
        for value in bucket:
            if _better(name, value, best[index]):
                best[index] = value
    if dtype is None:
        return np.array(best, dtype=object)
    extremes = np.array([0.0 if value is None else float(value) for value in best])
    return _mask_empty(_retyped(extremes, counts, dtype), counts)
