"""Vectorised (column store) physical backend.

Like :mod:`repro.engine.executor_row`, this executor consumes the shared
logical plan (:mod:`repro.engine.plan`) -- scope resolution, conjunct
classification, the push-down assignment and the join schedule all come from
the :class:`BlockPlan` of each query block -- but every physical step
operates on numpy column arrays:

1. FROM items are materialised as :class:`ColFrame` column sets (base tables
   come from the database's cached columnar views, derived tables are
   executed recursively),
2. the plan's push-down predicates are applied as boolean masks at scan time,
3. the scheduled equi-joins (and explicit ``JOIN``s) ask the key kernels of
   :mod:`repro.engine.keys` for the matching row pairs; the joined frame
   gathers a column through those index vectors the first time something
   reads it,
4. the plan's residual predicates are evaluated column-at-a-time; predicates
   containing subqueries fall back to row-at-a-time evaluation for that
   predicate only (subqueries themselves run through a row executor),
5. grouping gets its group-id vector from the same key kernels and computes
   aggregates with ``np.bincount`` / ``minimum.at`` style kernels,
6. ORDER BY sorts a row index over the result columns, OFFSET / LIMIT cut
   that index, and only the surviving rows are materialised, column-wise.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate
from typing import Any

import numpy as np

from repro.engine.compile import (
    ColumnBlockKernels,
    ColumnBlockShape,
    ColumnContext,
    ColumnJoin,
    CompileFallback,
    Layout,
    as_mask,
    column_block_shape,
    column_kernels,
    column_shape,
    compile_row_kernel,
)
from repro.engine.database import ColumnarTable, Database
from repro.engine.executor_row import RowExecutor, scan_source
from repro.engine.expression import evaluate as row_evaluate
from repro.engine.keys import (
    KeyOrder,
    group_rows,
    hash_codes,
    integer_kind,
    join_indexes,
    order_index,
    probe_order,
)
from repro.engine.mask import (
    Kleene,
    Nullable,
    as_objects,
    kleene_and,
    kleene_not,
    kleene_or,
    none_positions,
    truth_mask,
)
from repro.engine.parallel import chunk_ranges, run_tasks, survivor_rows
from repro.engine.plan import BlockPlan, Planner, QueryPlan, order_positions
from repro.engine.planner import ColumnInfo
from repro.engine.types import infer_type
from repro.obs import NULL_SPAN, QueryTrace, Span
from repro.obs.metrics import count as count_metric
from repro.engine.vector import (
    ColFrame,
    VectorEvaluator,
    VectorFallback,
    compare_arrays,
    isnull_mask,
)
from repro.errors import ExecutionError, PlanError
from repro.sqlparser import ast


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
        # "table": the base table (None for a derived one); "built": the build
        # side is sorted on every execution, whatever its row counts
        "joins": [{"source": scan_source(items[step.frame_index]), "join": join(step),
                   "table": items[step.frame_index].name
                   if isinstance(items[step.frame_index], ast.TableRef) else None,
                   "built": step.probe is None,
                   "filtered": block.filtered(step.frame_index)}
                  for step in shape.joins],
    }


class ColumnExecutor:
    """Executes SELECT blocks against a :class:`Database` column-at-a-time."""

    def __init__(self, database: Database, predicate_pushdown: bool = True,
                 hash_joins: bool = True, overflow_guard: bool = False,
                 compile_expressions: bool = True, selection_vectors: bool = True,
                 zone_maps: bool = True, dictionary_encoding: bool = True,
                 null_masks: bool = True, workers: int = 1,
                 plan: QueryPlan | None = None,
                 trace: QueryTrace | None = None):
        self.database = database
        self.predicate_pushdown = predicate_pushdown
        self.hash_joins = hash_joins
        self.overflow_guard = overflow_guard
        self.compile_expressions = compile_expressions
        self.selection_vectors = selection_vectors
        self.zone_maps = zone_maps
        self.dictionary_encoding = dictionary_encoding
        self.null_masks = null_masks
        self.workers = max(1, int(workers))
        self._plan = plan
        self._trace = trace
        self._planner: Planner | None = None
        self._extra_blocks: dict[int, BlockPlan] = {}
        self._row_executor = RowExecutor(database, predicate_pushdown=predicate_pushdown,
                                         hash_joins=hash_joins,
                                         compile_expressions=compile_expressions,
                                         plan=plan, trace=trace)
        self._uncorrelated_cache: dict[int, list[tuple]] = {}
        self._vector_subquery_failed: set[int] = set()

    def _span(self, name: str, **attributes):
        """An operator span when tracing, the shared no-op span otherwise."""
        trace = self._trace
        if trace is None:
            return NULL_SPAN
        return trace.span(name, **attributes)

    def _chunk_total(self, item: ast.TableExpression) -> int | None:
        """Total storage chunks behind a base-table scan (None otherwise)."""
        if isinstance(item, ast.TableRef):
            try:
                return len(self.database.storage(item.name).chunks)
            except Exception:
                return None
        return None

    def _evaluator(self, frame: ColFrame) -> VectorEvaluator:
        return VectorEvaluator(frame, overflow_guard=self.overflow_guard)

    # -- public API -----------------------------------------------------------

    def execute(self, query: "ast.Select | QueryPlan") -> tuple[list[str], list[tuple]]:
        """Execute a planned query (or a bare SELECT, planned on the fly)."""
        if isinstance(query, QueryPlan):
            self._plan = query
            self._row_executor._plan = query
            select = query.select
        else:
            select = query
        self._uncorrelated_cache = {}
        self._vector_subquery_failed = set()
        # a sort key outside the select list fails here, before any scan
        positions = order_positions(select, self._block(select).output_names)
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

    def _block_kernels(self, block: BlockPlan) -> ColumnBlockKernels | None:
        """The block's compiled column kernels (None = interpret).

        Kernels are cached on the shared plan, so repeated executions of a
        prepared plan reuse them.  Compilation is best-effort; failures leave
        the block on the vectorised interpreter.
        """
        if not self.compile_expressions or self._plan is None:
            return None
        if self._plan.block(block.select) is not block:
            return None
        try:
            return column_kernels(self._plan, block, self.overflow_guard)
        except ExecutionError:
            raise
        except Exception:
            return None

    def _block_shape(self, block: BlockPlan) -> ColumnBlockShape:
        """The layouts and join keys of the block's frames: the plan's own
        when the block is part of it, resolved on the spot otherwise."""
        if self._plan is not None and self._plan.block(block.select) is block:
            return column_shape(self._plan, block)
        return column_block_shape(block)

    def _execute_block(self, select: ast.Select) -> tuple[ColFrame, list[str]]:
        block = self._block(select)
        if self.selection_vectors:
            return self._execute_block_sel(select, block)
        trace = self._trace
        shape = self._block_shape(block)

        frames = []
        scans = []  # per FROM item: its frame still is the base table's arrays
        for index, item in enumerate(select.from_items):
            span_cm = (trace.span("scan", source=scan_source(item))
                       if trace is not None else NULL_SPAN)
            with span_cm as span:
                scan = frame = self._materialise(item, block.item_columns[index],
                                                 shape.item_layouts[index])
                rows_in = frame.length
                if block.pushdown:
                    frame = self._apply_pushdown(frame, block.pushdown)
                if trace is not None:
                    total = self._chunk_total(item)
                    attrs = {} if total is None else \
                        {"chunks_scanned": total, "chunks_skipped": 0}
                    span.set(rows_in=rows_in, rows_out=frame.length, **attrs)
            frames.append(frame)
            scans.append(frame is scan)

        frame, _ = self._join_frames(frames, [None] * len(frames), block, shape, scans)

        span_cm = self._span("filter") if block.residual else NULL_SPAN
        with span_cm as span:
            rows_in = frame.length
            frame = self._filter(frame, block.residual)
            if trace is not None and block.residual:
                span.set(rows_in=rows_in, rows_out=frame.length)

        with self._span("aggregate" if block.needs_aggregation else "project") as span:
            rows_in = frame.length
            if block.needs_aggregation:
                frame, names = self._aggregate(select, frame, block.output_names)
            else:
                frame, names = self._project(select, frame, block.output_names)
            if trace is not None:
                span.set(rows_in=rows_in, rows_out=frame.length)

        if select.distinct:
            frame = self._distinct(frame)
        return frame, names

    # -- selection-vector execution ---------------------------------------------

    def _execute_block_sel(self, select: ast.Select, block: BlockPlan
                           ) -> tuple[ColFrame, list[str]]:
        """Execute one block with predicates refining a selection vector.

        Scans stay unmaterialised: push-down and residual predicates narrow an
        ``int64`` selection index over the base arrays, joins gather through
        the composed selection, and only aggregation / projection produce a
        new :class:`ColFrame`.
        """
        kernels = self._block_kernels(block)
        shape = self._block_shape(block)
        trace = self._trace

        if self.workers > 1:
            info = self._parallel_info(select, block)
            if info is not None:
                return self._execute_block_parallel(select, block, kernels, shape, info)

        # each scan span covers materialisation, the zone-map chunk gate and
        # the push-down refinement of that scan's selection vector.
        frames: list[ColFrame] = []
        selections: list[np.ndarray | None] = []
        for index, item in enumerate(select.from_items):
            span_cm = (trace.span("scan", source=scan_source(item))
                       if trace is not None else NULL_SPAN)
            with span_cm as span:
                frame = self._materialise(item, block.item_columns[index],
                                          shape.item_layouts[index])
                selection: np.ndarray | None = None
                scanned = skipped = None
                if block.pushdown:
                    pairs = kernels.pushdown[index] if kernels is not None \
                        else self._interpreted_pushdown(block, frame)
                    if pairs:
                        base = None
                        if isinstance(item, ast.TableRef):
                            if self.dictionary_encoding:
                                pairs = self._dictionary_pairs(item, frame, pairs)
                            if self.zone_maps:
                                base, scanned, skipped = self._zone_map_selection(
                                    item, frame,
                                    [predicate for _, predicate in pairs])
                        selection = self._refine_selection(frame, base, pairs)
                if trace is not None:
                    attrs = {}
                    if scanned is None:
                        total = self._chunk_total(item)
                        if total is not None:
                            scanned, skipped = total, 0
                    if scanned is not None:
                        attrs["chunks_scanned"] = scanned
                        attrs["chunks_skipped"] = skipped
                    if selection is not None:
                        attrs["selection_size"] = len(selection)
                    span.set(rows_in=frame.length,
                             rows_out=frame.length if selection is None
                             else len(selection),
                             **attrs)
            frames.append(frame)
            selections.append(selection)
        frame, selection = self._join_frames(frames, selections, block, shape,
                                             [True] * len(frames))

        if block.residual:
            with self._span("filter") as span:
                rows_in = frame.length if selection is None else len(selection)
                pairs = kernels.residual if kernels is not None \
                    else [(None, predicate) for predicate in block.residual]
                selection = self._refine_selection(frame, selection, pairs)
                if trace is not None:
                    span.set(rows_in=rows_in, rows_out=len(selection),
                             selection_size=len(selection))

        with self._span("aggregate" if block.needs_aggregation else "project") as span:
            rows_in = frame.length if selection is None else len(selection)
            if block.needs_aggregation:
                frame, names = self._aggregate_sel(select, frame, selection, kernels,
                                                   block.output_names)
            else:
                frame, names = self._project_sel(select, frame, selection, kernels,
                                                 block.output_names)
            if trace is not None:
                span.set(rows_in=rows_in, rows_out=frame.length)

        if select.distinct:
            frame = self._distinct(frame)
        return frame, names

    def _interpreted_pushdown(self, block: BlockPlan, frame: ColFrame
                              ) -> list[tuple[None, ast.Expression]]:
        """The (uncompiled) push-down predicates applying to one scan frame."""
        bindings = {column.binding.lower() for column in frame.columns}
        return [(None, predicate)
                for binding in bindings
                for predicate in block.pushdown.get(binding, [])]

    # -- statistics-driven scan skipping ----------------------------------------

    def _zone_map_selection(self, item: ast.TableRef, frame: ColFrame,
                            predicates: list[ast.Expression]
                            ) -> tuple[np.ndarray | None, int, int]:
        """Initial scan selection skipping chunks the zone maps refute.

        Returns ``(selection, scanned, skipped)``: the selection is None when
        no chunk can be skipped (preserving the no-selection fast path),
        otherwise an int64 index covering exactly the rows of the surviving
        chunks; ``scanned``/``skipped`` are the chunk counts attributed to
        the active metrics context (their sum is the table's chunk total).
        """
        zone_index = self.database.storage(item.name).zone_index()

        def resolve(ref: ast.ColumnRef) -> tuple[str, str] | None:
            position = frame.position(ref)
            if position is None:
                return None
            column = frame.columns[position]
            return column.name, column.type_name

        selection, scanned, skipped = zone_index.selection(predicates, resolve)
        count_metric("scan.chunks_scanned", scanned)
        count_metric("scan.chunks_skipped", skipped)
        return selection, scanned, skipped

    def _zone_survivors(self, item: ast.TableRef, frame: ColFrame,
                        predicates: list[ast.Expression]
                        ) -> tuple[np.ndarray | None, int, int]:
        """Chunk-level zone-map gate for the morsel path.

        Same refutation (and metrics attribution) as
        :meth:`_zone_map_selection`, but returns the surviving *chunk
        indexes* rather than a row selection, so the coordinator can split
        them into contiguous per-worker morsel ranges before any row index
        is built.
        """
        zone_index = self.database.storage(item.name).zone_index()

        def resolve(ref: ast.ColumnRef) -> tuple[str, str] | None:
            position = frame.position(ref)
            if position is None:
                return None
            column = frame.columns[position]
            return column.name, column.type_name

        survivors, scanned, skipped = zone_index.survivors(predicates, resolve)
        count_metric("scan.chunks_scanned", scanned)
        count_metric("scan.chunks_skipped", skipped)
        return survivors, scanned, skipped

    def _dictionary_pairs(self, item: ast.TableRef, frame: ColFrame, pairs):
        """Swap scan predicates over dictionary-encoded columns to code kernels.

        Equality / IN / LIKE (and their negations) over a dictionary-encoded
        string column are evaluated once over the table-wide dictionary via a
        compiled *row* kernel -- giving exact row-engine NULL semantics --
        and then applied to the int32 code vector instead of the object
        array.
        """
        view = self.database.columnar(item.name, typed_nulls=self.null_masks)
        if not view.codes:
            return pairs
        cache = self.database.storage(item.name).scan_kernel_cache
        swapped = []
        hits = misses = 0
        for kernel, predicate in pairs:
            hit, dictionary_kernel = cache.get((predicate,))
            if hit:
                hits += 1
            else:
                misses += 1
                dictionary_kernel = self._dictionary_kernel(view, frame, predicate)
                cache.put((predicate,), dictionary_kernel)
            swapped.append((dictionary_kernel or kernel, predicate))
        if hits:
            count_metric("scan.dictionary_kernel.hits", hits)
        if misses:
            count_metric("scan.dictionary_kernel.misses", misses)
        return swapped

    def _dictionary_kernel(self, view: ColumnarTable, frame: ColFrame,
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
                position = frame.position(ref)
            except ExecutionError:
                return None
            if position is None:
                return None
            positions.add(position)
        if len(positions) != 1:
            return None
        column = frame.columns[positions.pop()]
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

    def _refine_selection(self, frame: ColFrame, selection: np.ndarray | None,
                          pairs) -> np.ndarray:
        """Narrow ``selection`` by each predicate without materialising.

        Compiled kernels evaluate over the already-selected rows; interpreted
        predicates evaluate over the full base columns and are sliced at the
        selected positions; subquery predicates fall back row-at-a-time over
        the selected rows only.
        """
        for kernel, predicate in pairs:
            if selection is not None and len(selection) == 0:
                break
            if kernel is not None:
                length = frame.length if selection is None else len(selection)
                context = ColumnContext(frame.arrays, length, selection)
                mask = as_mask(kernel(context), length)
                selection = np.flatnonzero(mask) if selection is None \
                    else selection[mask]
                continue
            try:
                full = self._evaluator(frame).evaluate_predicate(predicate)
                selection = np.flatnonzero(full) if selection is None \
                    else selection[full[selection]]
            except VectorFallback:
                mask = self._fallback_predicate_sel(frame, selection, predicate)
                selection = np.flatnonzero(mask) if selection is None \
                    else selection[mask]
        if selection is None:
            selection = np.arange(frame.length, dtype=np.int64)
        return selection

    def _fallback_predicate_sel(self, frame: ColFrame, selection: np.ndarray | None,
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
                     block: BlockPlan, shape: ColumnBlockShape, scans: list[bool]
                     ) -> tuple[ColFrame, np.ndarray | None]:
        """Join the scans following the schedule, composing their selections.

        Keys are read from the base arrays through the selection indexes and
        the joined frame gathers its columns lazily, so a filtered scan is
        never materialised just to be gathered again by the join.  ``scans``
        marks the frames that still are their FROM item's base arrays: a
        base table among them is probed through its storage key order.
        """
        if not frames:
            raise PlanError("a query block needs at least one FROM item")
        first = block.join_order[0].frame_index
        frame, selection = frames[first], selections[first]
        if not shape.joins:
            return frame, selection
        with self._span("join") as span:
            build_rows = 0
            levels = [frame.length if selection is None else len(selection)]
            for step in shape.joins:
                next_frame = frames[step.frame_index]
                next_selection = selections[step.frame_index]
                order = None
                if scans[step.frame_index]:
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
        return frame, None

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

    def _project_sel(self, select: ast.Select, frame: ColFrame,
                     selection: np.ndarray | None, kernels: ColumnBlockKernels | None,
                     names: list[str]) -> tuple[ColFrame, list[str]]:
        length = frame.length if selection is None else len(selection)
        context = ColumnContext(frame.arrays, length, selection)
        materialised = _LazySelection(frame, selection)
        item_fns = kernels.projection if kernels is not None else None
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
                        codes.append(None if frame.codes is None
                                     else _selected(frame.codes[index], selection))
                continue
            kernel = item_fns[position] if item_fns is not None else None
            if kernel is not None:
                value = kernel(context)
            else:
                value = self._evaluate_materialised(materialised, item.expression)
            array = self._as_array(value, length)
            arrays.append(array)
            columns.append(ColumnInfo("", item.output_name(position),
                                      self._column_type(item.expression, frame, array)))
            codes.append(_column_codes(frame, item.expression, selection))
        return ColFrame(columns=columns, arrays=arrays, length=length,
                        codes=codes if any(code is not None for code in codes)
                        else None), names

    def _aggregate_sel(self, select: ast.Select, frame: ColFrame,
                       selection: np.ndarray | None,
                       kernels: ColumnBlockKernels | None,
                       names: list[str]) -> tuple[ColFrame, list[str]]:
        length = frame.length if selection is None else len(selection)
        if length == 0 and not select.group_by and select.having is None:
            return self._empty_aggregate_result(select, frame, names)
        context = ColumnContext(frame.arrays, length, selection)
        materialised = _LazySelection(frame, selection)
        vectors = kernels.vectors if kernels is not None else {}

        def vector_of(expression: ast.Expression) -> np.ndarray:
            kernel = vectors.get(id(expression))
            if kernel is not None:
                return self._as_array(kernel(context), length)
            value = self._evaluate_materialised(materialised, expression)
            return self._as_array(value, length)

        return self._aggregate_with(select, frame, selection, length, vector_of,
                                    names)

    def _evaluate_materialised(self, materialised: "_LazySelection",
                               expression: ast.Expression) -> Any:
        """Interpreter fallback: evaluate over a (lazily) materialised frame."""
        frame = materialised.frame()
        try:
            return self._evaluator(frame).evaluate(expression)
        except VectorFallback:
            return self._fallback_column(frame, expression)

    # -- morsel-parallel execution ------------------------------------------------

    def _parallel_info(self, select: ast.Select, block: BlockPlan
                       ) -> "_ParallelScan | None":
        """Decide whether this block runs morsel-parallel (None -> serial).

        Eligible blocks scan exactly one base table with at least two sealed
        chunks, contain no subqueries anywhere (workers never recurse into
        the executor, which keeps the shared pool deadlock-free) and have
        parallelisable work: push-down predicates, residual predicates, or
        an aggregation whose expressions decompose into mergeable per-worker
        partials.
        """
        if len(select.from_items) != 1 \
                or not isinstance(select.from_items[0], ast.TableRef):
            return None
        if select.subqueries():
            return None
        item = select.from_items[0]
        try:
            storage = self.database.storage(item.name)
        except Exception:
            return None
        storage.flush()
        if len(storage.chunks) < 2:
            return None
        if not (block.pushdown or block.residual or block.needs_aggregation):
            return None
        sites = None
        if block.needs_aggregation:
            sites = _aggregate_sites(select)
            if sites is None:
                return None
        return _ParallelScan(item, storage, sites)

    def _execute_block_parallel(self, select: ast.Select, block: BlockPlan,
                                kernels: ColumnBlockKernels | None,
                                shape: ColumnBlockShape, info: "_ParallelScan"
                                ) -> tuple[ColFrame, list[str]]:
        """Morsel-driven variant of :meth:`_execute_block_sel`.

        The scan's chunk list is split into contiguous worker ranges (after
        the zone-map gate drops refuted chunks); each worker refines its own
        selection slice through the push-down and residual kernels and,
        under aggregation, folds its rows into partial group states that
        merge deterministically on the coordinating thread.  Workers record
        detached trace lanes the coordinator files under the operator spans;
        per-query metrics stay attributed on the coordinating thread.
        """
        trace = self._trace
        item = info.item
        chunks = info.storage.chunks
        starts = np.array([chunk.start for chunk in chunks], dtype=np.int64)
        counts = np.array([chunk.row_count for chunk in chunks], dtype=np.int64)
        count_metric("parallel.blocks", 1)

        span_cm = (trace.span("scan", source=scan_source(item))
                   if trace is not None else NULL_SPAN)
        with span_cm as span:
            frame = self._materialise(item, block.item_columns[0], shape.item_layouts[0])
            pairs = []
            if block.pushdown:
                pairs = kernels.pushdown[0] if kernels is not None \
                    else self._interpreted_pushdown(block, frame)
                if pairs and self.dictionary_encoding:
                    pairs = self._dictionary_pairs(item, frame, pairs)
            survivors = None
            scanned = skipped = None
            if pairs and self.zone_maps:
                survivors, scanned, skipped = self._zone_survivors(
                    item, frame, [predicate for _, predicate in pairs])
            ranges = chunk_ranges(len(chunks), survivors, self.workers)
            if pairs:
                tasks = [self._scan_task(frame, pairs, chunk_range, starts,
                                         counts, trace is not None)
                         for chunk_range in ranges]
                count_metric("parallel.scan_tasks", len(tasks))
                results = run_tasks(self.workers, tasks)
                selections = [selection for selection, _ in results]
                if trace is not None:
                    span.children.extend(lane for _, lane in results
                                         if lane is not None)
            else:
                # no scan predicates: the per-worker selections are the
                # contiguous row ranges themselves, built inline.
                selections = [
                    np.arange(int(starts[start]),
                              int(starts[start]) + int(counts[start:stop].sum()),
                              dtype=np.int64)
                    for start, stop, _ in ranges]
            total_rows = int(sum(len(selection) for selection in selections))
            if trace is not None:
                if scanned is None:
                    scanned, skipped = len(chunks), 0
                span.set(rows_in=frame.length, rows_out=total_rows,
                         chunks_scanned=scanned, chunks_skipped=skipped,
                         selection_size=total_rows, workers=len(selections))

        if block.residual:
            with self._span("filter") as span:
                rows_in = total_rows
                residual_pairs = kernels.residual if kernels is not None \
                    else [(None, predicate) for predicate in block.residual]
                tasks = [self._refine_task(frame, selection, residual_pairs,
                                           trace is not None)
                         for selection in selections]
                count_metric("parallel.filter_tasks", len(tasks))
                results = run_tasks(self.workers, tasks)
                selections = [selection for selection, _ in results]
                total_rows = int(sum(len(selection) for selection in selections))
                if trace is not None:
                    span.children.extend(lane for _, lane in results
                                         if lane is not None)
                    span.set(rows_in=rows_in, rows_out=total_rows,
                             selection_size=total_rows)

        with self._span("aggregate" if block.needs_aggregation else "project") as span:
            rows_in = total_rows
            if block.needs_aggregation:
                frame, names = self._aggregate_parallel(select, frame, selections,
                                                        kernels, info,
                                                        block.output_names, span)
            else:
                selection = np.concatenate(selections)
                frame, names = self._project_sel(select, frame, selection, kernels,
                                                 block.output_names)
            if trace is not None:
                span.set(rows_in=rows_in, rows_out=frame.length)

        if select.distinct:
            frame = self._distinct(frame)
        return frame, names

    def _scan_task(self, frame: ColFrame, pairs, chunk_range, starts: np.ndarray,
                   counts: np.ndarray, traced: bool):
        """One worker's scan morsel: selection build + push-down refinement."""
        start, stop, piece = chunk_range

        def task():
            lane = Span("worker") if traced else None
            total = int(counts[start:stop].sum())
            if len(piece) == (stop - start):
                base = np.arange(int(starts[start]), int(starts[start]) + total,
                                 dtype=np.int64)
            else:
                base = survivor_rows(piece, starts, counts)
            selection = self._refine_selection(frame, base, pairs)
            if lane is not None:
                survived = len(piece)
                lane.set(rows_in=len(base), rows_out=len(selection),
                         chunks_scanned=survived,
                         chunks_skipped=(stop - start) - survived)
                lane.close()
            return selection, lane

        return task

    def _refine_task(self, frame: ColFrame, selection: np.ndarray, pairs,
                     traced: bool):
        """One worker's residual-filter morsel over its scan selection."""

        def task():
            lane = Span("worker") if traced else None
            refined = self._refine_selection(frame, selection, pairs)
            if lane is not None:
                lane.set(rows_in=len(selection), rows_out=len(refined))
                lane.close()
            return refined, lane

        return task

    def _aggregate_parallel(self, select: ast.Select, frame: ColFrame,
                            selections: list[np.ndarray],
                            kernels: ColumnBlockKernels | None,
                            info: "_ParallelScan", names: list[str], span
                            ) -> tuple[ColFrame, list[str]]:
        """Aggregate via per-worker partial group states merged on the
        coordinator (AVG decomposes into sum/count; HAVING runs post-merge).
        """
        total = int(sum(len(selection) for selection in selections))
        if total == 0 and not select.group_by and select.having is None:
            return self._empty_aggregate_result(select, frame, names)
        aggregates, firsts = info.sites
        traced = self._trace is not None
        tasks = [self._partial_task(select, frame, selection, kernels,
                                    aggregates, firsts, traced)
                 for selection in selections]
        count_metric("parallel.aggregate_tasks", len(tasks))
        results = run_tasks(self.workers, tasks)
        if traced:
            span.children.extend(lane for _, lane in results if lane is not None)
        partials = [partial for partial, _ in results]
        aggregator = _merge_partials(select, partials, aggregates, firsts)
        return self._aggregate_finish(select, frame, aggregator, names)

    def _group_factors(self, select: ast.Select, frame: ColFrame,
                       selection: np.ndarray | None, vector_of) -> list:
        """The GROUP BY key columns, one value per (selected) row.

        A key that is a plain dictionary-encoded column groups on its int32
        code vector (codes biject to values, with -1 for NULL, so the
        partition -- and the first-seen order -- is identical to grouping
        on the decoded strings); everything else evaluates the expression.
        """
        factors = []
        for expression in select.group_by:
            codes = _column_codes(frame, expression, selection)
            factors.append(vector_of(expression) if codes is None else codes)
        return factors

    def _partial_task(self, select: ast.Select, frame: ColFrame,
                      selection: np.ndarray, kernels: ColumnBlockKernels | None,
                      aggregates: dict[int, ast.FunctionCall],
                      firsts: dict[int, ast.Expression], traced: bool):
        """One worker's aggregation morsel: group its rows, fold partials."""
        vectors = kernels.vectors if kernels is not None else {}

        def task():
            lane = Span("worker") if traced else None
            length = len(selection)
            context = ColumnContext(frame.arrays, length, selection)
            materialised = _LazySelection(frame, selection)

            def vector_of(expression: ast.Expression) -> np.ndarray:
                kernel = vectors.get(id(expression))
                if kernel is not None:
                    return self._as_array(kernel(context), length)
                value = self._evaluate_materialised(materialised, expression)
                return self._as_array(value, length)

            if select.group_by:
                factors = self._group_factors(select, frame, selection, vector_of)
                group_ids, first_index = group_rows(factors, length)
                keys = [tuple(factor[index] for factor in factors)
                        for index in first_index]
            else:
                count = 1 if length else 0
                group_ids = np.zeros(length, dtype=np.int64)
                first_index = np.zeros(count, dtype=np.int64)
                keys = [()] * count

            first_values: dict[int, np.ndarray] = {}
            for key, expression in firsts.items():
                values = vector_of(expression)
                if len(first_index) == 0:
                    first_values[key] = np.array(
                        [], dtype=object if isinstance(values, (Nullable, Kleene))
                        else values.dtype)
                    continue
                gathered = values[first_index]
                if isinstance(gathered, (Nullable, Kleene)):
                    gathered = gathered.to_objects()
                first_values[key] = gathered

            group_count = len(keys)
            partial_aggregates = {
                key: _partial_aggregate(call, vector_of, group_ids, group_count)
                for key, call in aggregates.items()}
            if lane is not None:
                lane.set(rows_in=length, rows_out=group_count)
                lane.close()
            return _WorkerPartial(keys, first_values, partial_aggregates), lane

        return task

    # -- FROM materialisation ----------------------------------------------------

    def _materialise(self, item: ast.TableExpression,
                     columns: list[ColumnInfo] | None = None,
                     layout: Layout | None = None) -> ColFrame:
        """The frame of one FROM item; ``columns`` / ``layout`` are the
        plan's for it, when the item is one the block's plan resolved."""
        if isinstance(item, ast.TableRef):
            view = self.database.columnar(item.name, typed_nulls=self.null_masks)
            if columns is None:
                columns = [ColumnInfo(binding=item.binding, name=column.name,
                                      type_name=column.type_name)
                           for column in view.schema.columns]
            arrays = [view.columns[column.name] for column in view.schema.columns]
            codes = [view.codes.get(column.name) for column in view.schema.columns] \
                if self.dictionary_encoding and view.codes else None
            return ColFrame(columns=columns, arrays=arrays, length=view.length,
                            codes=codes, layout=layout)
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

    # -- filtering ---------------------------------------------------------------------

    def _apply_pushdown(self, frame: ColFrame,
                        pushdown: dict[str, list[ast.Expression]]) -> ColFrame:
        bindings = {column.binding.lower() for column in frame.columns}
        predicates: list[ast.Expression] = []
        for binding in bindings:
            predicates.extend(pushdown.get(binding, []))
        if not predicates:
            return frame
        return self._filter(frame, predicates)

    def _filter(self, frame: ColFrame, predicates: list[ast.Expression]) -> ColFrame:
        if not predicates or frame.length == 0:
            return frame
        evaluator = self._evaluator(frame)
        mask = np.ones(frame.length, dtype=bool)
        for predicate in predicates:
            try:
                mask &= evaluator.evaluate_predicate(predicate)
            except VectorFallback:
                mask &= self._fallback_predicate(frame, predicate)
        return frame.mask(mask)

    def _fallback_predicate(self, frame: ColFrame, predicate: ast.Expression) -> np.ndarray:
        """Row-at-a-time evaluation of one predicate (subqueries and friends)."""
        mask = np.zeros(frame.length, dtype=bool)
        for index in range(frame.length):
            env = _FallbackRowEnv(self, frame, index)
            mask[index] = bool(row_evaluate(predicate, env))
        return mask

    # -- projection ---------------------------------------------------------------------

    def _project(self, select: ast.Select, frame: ColFrame,
                 names: list[str]) -> tuple[ColFrame, list[str]]:
        evaluator = self._evaluator(frame)
        arrays: list[np.ndarray] = []
        columns: list[ColumnInfo] = []
        for position, item in enumerate(select.items):
            if isinstance(item.expression, ast.Star):
                star = item.expression
                for column, array in zip(frame.columns, frame.arrays):
                    if star.table is None or column.binding.lower() == star.table.lower():
                        arrays.append(array)
                        columns.append(ColumnInfo("", column.name, column.type_name))
                continue
            try:
                value = evaluator.evaluate(item.expression)
            except VectorFallback:
                value = self._fallback_column(frame, item.expression)
            array = self._as_array(value, frame.length)
            arrays.append(array)
            columns.append(ColumnInfo("", item.output_name(position),
                                      self._column_type(item.expression, frame, array)))
        return ColFrame(columns=columns, arrays=arrays, length=frame.length), names

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

    def _column_type(self, expression: ast.Expression, frame: ColFrame,
                     array: np.ndarray) -> str:
        if isinstance(expression, ast.ColumnRef):
            position = frame.position(expression)
            if position is not None:
                return frame.columns[position].type_name
        if array.dtype == np.int64:
            return "int"
        if array.dtype == np.float64:
            return "float"
        if array.dtype == bool:
            return "bool"
        if len(array):
            return infer_type(array[0])
        return "str"

    # -- aggregation ---------------------------------------------------------------------

    def _aggregate(self, select: ast.Select, frame: ColFrame,
                   names: list[str]) -> tuple[ColFrame, list[str]]:
        if frame.length == 0 and not select.group_by and select.having is None:
            return self._empty_aggregate_result(select, frame, names)
        evaluator = self._evaluator(frame)

        def vector_of(expression: ast.Expression) -> np.ndarray:
            try:
                value = evaluator.evaluate(expression)
            except VectorFallback:
                value = self._fallback_column(frame, expression)
            return self._as_array(value, frame.length)

        return self._aggregate_with(select, frame, None, frame.length, vector_of,
                                    names)

    def _aggregate_with(self, select: ast.Select, frame: ColFrame,
                        selection: np.ndarray | None, length: int,
                        vector_of, names: list[str]) -> tuple[ColFrame, list[str]]:
        """Shared grouping/aggregation tail over a vector provider.

        ``vector_of(expression)`` returns one value per (selected) input row;
        the materialised and selection-vector paths only differ in how that
        provider is built.  Grouping is the one-morsel case of what each
        worker of the parallel path does.
        """
        if select.group_by:
            factors = self._group_factors(select, frame, selection, vector_of)
            group_ids, first_index = group_rows(factors, length)
            group_count = len(first_index)
        else:
            group_ids = np.zeros(length, dtype=np.int64)
            first_index = np.zeros(1 if length else 0, dtype=np.int64)
            group_count = 1

        aggregator = _GroupAggregator(vector_of, group_ids, first_index, group_count)
        return self._aggregate_finish(select, frame, aggregator, names)

    def _aggregate_finish(self, select: ast.Select, frame: ColFrame,
                          aggregator: "_GroupAggregator", names: list[str]
                          ) -> tuple[ColFrame, list[str]]:
        """HAVING + projection over per-group states (serial or merged)."""
        group_count = aggregator.group_count
        if select.having is not None:
            # HAVING keeps only groups where the predicate is TRUE; UNKNOWN
            # (a Kleene mask's invalid rows, or None in an object array)
            # collapses to False here, exactly like the filter position.
            keep = truth_mask(aggregator.evaluate(select.having), group_count)
        else:
            keep = np.ones(group_count, dtype=bool)

        arrays: list[np.ndarray] = []
        columns: list[ColumnInfo] = []
        for position, item in enumerate(select.items):
            values = _group_values(aggregator.evaluate(item.expression))
            values = np.asarray(values)
            arrays.append(values[keep])
            columns.append(ColumnInfo("", item.output_name(position),
                                      self._column_type(item.expression, frame,
                                                        values)))
        return ColFrame(columns=columns, arrays=arrays, length=int(keep.sum())), names

    def _empty_aggregate_result(self, select: ast.Select, frame: ColFrame,
                                names: list[str]) -> tuple[ColFrame, list[str]]:
        """A global aggregate over an empty input still produces one row.

        Count aggregates yield 0, everything else NULL -- matching the row
        interpreter's empty-group semantics exactly.
        """
        arrays: list[np.ndarray] = []
        columns: list[ColumnInfo] = []
        for position, item in enumerate(select.items):
            array = np.array([_empty_aggregate_value(item.expression)], dtype=object)
            arrays.append(array)
            columns.append(ColumnInfo("", item.output_name(position),
                                      self._column_type(item.expression, frame, array)))
        return ColFrame(columns=columns, arrays=arrays, length=1), names

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


def _selected(array: Any, selection: np.ndarray | None) -> Any:
    """``array`` at the selected rows (None stays None, no selection = all)."""
    if array is None or selection is None:
        return array
    return array[selection]


def _column_codes(frame: ColFrame, expression: ast.Expression,
                  selection: np.ndarray | None) -> np.ndarray | None:
    """Dictionary codes of ``expression`` at the selected rows, when it is
    nothing but a dictionary-encoded column of ``frame`` (None otherwise)."""
    if frame.codes is None or not isinstance(expression, ast.ColumnRef):
        return None
    try:
        position = frame.position(expression)
    except ExecutionError:
        return None
    if position is None:
        return None
    return _selected(frame.codes[position], selection)


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


class _GroupAggregator:
    """Evaluates (possibly aggregate) expressions per group, vectorised.

    ``vector_of(expression)`` supplies one value per input row; the caller
    decides whether that comes from compiled kernels over a selection vector
    or from the vectorised interpreter over a materialised frame.
    """

    def __init__(self, vector_of, group_ids: np.ndarray,
                 first_index: np.ndarray, group_count: int):
        self.vector_of = vector_of
        self.group_ids = group_ids
        self.first_index = first_index
        self.group_count = group_count

    # -- public ------------------------------------------------------------------

    def evaluate(self, expression: ast.Expression) -> np.ndarray:
        """Return one value per group for ``expression``."""
        if isinstance(expression, ast.FunctionCall) and expression.is_aggregate:
            return self._aggregate_call(expression)
        if not self._has_aggregate(expression):
            return self._first_row_values(expression)
        if isinstance(expression, ast.BinaryOp):
            left = self.evaluate(expression.left)
            right = self.evaluate(expression.right)
            return _combine(expression.operator, left, right)
        if isinstance(expression, ast.UnaryOp):
            value = self.evaluate(expression.operand)
            if expression.operator == "not":
                return kleene_not(value)
            return -value if expression.operator == "-" else value
        if isinstance(expression, ast.Comparison):
            left = self.evaluate(expression.left)
            right = self.evaluate(expression.right)
            return _compare_groups(expression.operator, left, right)
        if isinstance(expression, ast.BoolOp):
            combine = kleene_and if expression.operator == "and" else kleene_or
            combined = self.evaluate(expression.operands[0])
            for operand in expression.operands[1:]:
                combined = combine(combined, self.evaluate(operand))
            return combined
        if isinstance(expression, ast.CaseWhen):
            result = np.full(self.group_count, None, dtype=object)
            decided = np.zeros(self.group_count, dtype=bool)
            for condition, branch in expression.branches:
                mask = truth_mask(self.evaluate(condition),
                                  self.group_count) & ~decided
                values = _group_values(self.evaluate(branch))
                result[mask] = np.asarray(values, dtype=object)[mask]
                decided |= mask
            if expression.default is not None:
                default = _group_values(self.evaluate(expression.default))
                result[~decided] = np.asarray(default, dtype=object)[~decided]
            return result
        if isinstance(expression, ast.Cast):
            return self.evaluate(expression.operand)
        raise ExecutionError(
            f"cannot aggregate expression node {type(expression).__name__} column-wise")

    # -- internals -------------------------------------------------------------------

    def _has_aggregate(self, expression: ast.Expression) -> bool:
        return ast.has_local_aggregate(expression)

    def _vector(self, expression: ast.Expression) -> np.ndarray:
        return self.vector_of(expression)

    def _first_row_values(self, expression: ast.Expression) -> np.ndarray:
        values = self._vector(expression)
        if len(self.first_index) == 0:
            return np.array([], dtype=object if isinstance(values, (Nullable, Kleene))
                            else values.dtype)
        gathered = values[self.first_index]
        # one value per group: decoding masked pairs to objects is cheap and
        # keeps the per-group combinators on a single representation.
        if isinstance(gathered, (Nullable, Kleene)):
            return gathered.to_objects()
        return gathered

    def _aggregate_call(self, call: ast.FunctionCall) -> np.ndarray:
        name = call.name.lower()
        if name == "count":
            if not call.arguments or isinstance(call.arguments[0], ast.Star):
                return np.bincount(self.group_ids, minlength=self.group_count).astype(np.int64)
            values = self._vector(call.arguments[0])
            if call.distinct:
                return self._count_distinct(values)
            valid = ~_null_mask(values)
            return np.bincount(self.group_ids[valid], minlength=self.group_count).astype(np.int64)

        values = self._vector(call.arguments[0])
        if call.distinct:
            values, group_ids = self._distinct_pairs(values)
        else:
            group_ids = self.group_ids
        valid = ~_null_mask(values)
        group_ids = group_ids[valid]
        numeric = values[valid]
        if isinstance(numeric, Nullable):
            numeric = numeric.values  # all-valid after the null-mask slice
        counts = np.bincount(group_ids, minlength=self.group_count)

        if name in ("sum", "avg"):
            sums = np.bincount(group_ids, weights=numeric.astype(np.float64),
                               minlength=self.group_count)
            if name == "sum":
                return _mask_empty(_retyped(sums, counts, numeric.dtype), counts)
            with np.errstate(invalid="ignore", divide="ignore"):
                averages = sums / counts
            return _mask_empty(averages, counts)
        if name in ("min", "max"):
            return self._min_max(numeric, group_ids, counts, name)
        raise ExecutionError(f"unknown aggregate function '{name}'")

    def _min_max(self, values: np.ndarray, group_ids: np.ndarray,
                 counts: np.ndarray, name: str) -> np.ndarray:
        if values.dtype.kind in ("i", "f"):
            fill = np.inf if name == "min" else -np.inf
            accumulator = np.full(self.group_count, fill, dtype=np.float64)
            operator = np.minimum if name == "min" else np.maximum
            operator.at(accumulator, group_ids, values.astype(np.float64))
            return _mask_empty(_retyped(accumulator, counts, values.dtype), counts)
        # strings / objects: python loop per row
        accumulator: list[Any] = [None] * self.group_count
        for value, group in zip(values, group_ids):
            current = accumulator[group]
            if current is None:
                accumulator[group] = value
            elif (value < current) if name == "min" else (value > current):
                accumulator[group] = value
        return np.array(accumulator, dtype=object)

    def _count_distinct(self, values: np.ndarray) -> np.ndarray:
        sets: list[set] = [set() for _ in range(self.group_count)]
        nulls = _null_mask(values)
        for index in range(len(values)):
            if not nulls[index]:
                sets[self.group_ids[index]].add(values[index])
        return np.array([len(bucket) for bucket in sets], dtype=np.int64)

    def _distinct_pairs(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        seen: set[tuple] = set()
        keep: list[int] = []
        for index in range(len(values)):
            key = (int(self.group_ids[index]), values[index])
            if key not in seen:
                seen.add(key)
                keep.append(index)
        keep_array = np.array(keep, dtype=np.int64)
        return values[keep_array], self.group_ids[keep_array]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _group_values(values: Any) -> Any:
    """Per-group results on a single representation (masks decode to objects)."""
    if isinstance(values, (Nullable, Kleene)):
        return as_objects(values)
    return values


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


def _combine(operator: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    left, left_nulls = _as_float_with_nulls(_group_values(left))
    right, right_nulls = _as_float_with_nulls(_group_values(right))
    if operator == "+":
        result = left + right
    elif operator == "-":
        result = left - right
    elif operator == "*":
        result = left * right
    elif operator == "/":
        with np.errstate(invalid="ignore", divide="ignore"):
            result = left / right
    elif operator == "%":
        result = left % right
    else:
        raise ExecutionError(f"unsupported aggregate operator '{operator}'")
    nulls = left_nulls
    if right_nulls is not None:
        nulls = right_nulls if nulls is None else (nulls | right_nulls)
    if nulls is not None and nulls.any():
        result = result.astype(object)
        result[nulls] = None
    return result


def _as_float_with_nulls(values) -> tuple[np.ndarray, np.ndarray | None]:
    """Float view of per-group values plus the mask of NULL groups."""
    array = np.asarray(values)
    if array.dtype != object:
        return np.asarray(array, dtype=np.float64), None
    nulls = none_positions(array)
    if not nulls.any():
        return array.astype(np.float64), None
    converted = np.fromiter(
        (0.0 if value is None else float(value) for value in array),
        dtype=np.float64, count=len(array))
    return converted, nulls


def _compare_groups(operator: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if operator not in ("=", "<>", "<", "<=", ">", ">="):
        raise ExecutionError(f"unsupported comparison operator '{operator}'")
    return compare_arrays(operator, np.asarray(_group_values(left)),
                          np.asarray(_group_values(right)))


def _empty_aggregate_value(expression: ast.Expression) -> Any:
    if isinstance(expression, ast.FunctionCall) and expression.name.lower() == "count":
        return 0
    return None


# ---------------------------------------------------------------------------
# morsel-parallel aggregation
# ---------------------------------------------------------------------------


class _ParallelScan:
    """Eligibility record of one morsel-parallel single-table block."""

    __slots__ = ("item", "storage", "sites")

    def __init__(self, item: ast.TableRef, storage, sites):
        self.item = item
        self.storage = storage
        self.sites = sites


class _WorkerPartial:
    """One worker's group keys, first-row gathers and aggregate partials."""

    __slots__ = ("keys", "firsts", "aggregates")

    def __init__(self, keys: list[tuple], firsts: dict[int, np.ndarray],
                 aggregates: dict[int, tuple]):
        self.keys = keys
        self.firsts = firsts
        self.aggregates = aggregates


class _MergedAggregator(_GroupAggregator):
    """Per-group evaluation over merged worker partials.

    Inherits the full expression dispatch (combinators, CASE, HAVING
    semantics) from :class:`_GroupAggregator`; only the two leaf lookups
    change -- first-row values and aggregate-call results come from the
    merged per-group states instead of row vectors.
    """

    def __init__(self, group_count: int, firsts: dict[int, np.ndarray],
                 aggregates: dict[int, np.ndarray]):
        empty = np.empty(0, dtype=np.int64)
        super().__init__(None, empty, empty, group_count)
        self._merged_firsts = firsts
        self._merged_aggregates = aggregates

    def _first_row_values(self, expression: ast.Expression) -> np.ndarray:
        try:
            return self._merged_firsts[id(expression)]
        except KeyError:
            raise ExecutionError(
                f"cannot aggregate expression node {type(expression).__name__} "
                f"column-wise") from None

    def _aggregate_call(self, call: ast.FunctionCall) -> np.ndarray:
        return self._merged_aggregates[id(call)]


def _aggregate_sites(select: ast.Select
                     ) -> tuple[dict[int, ast.FunctionCall],
                                dict[int, ast.Expression]] | None:
    """Collect the leaf sites an aggregated block evaluates per group.

    Walks every select item (and HAVING) exactly the way
    :meth:`_GroupAggregator.evaluate` will: aggregate function calls and
    aggregate-free subtrees are the leaves whose per-group values workers
    compute independently and the coordinator merges.  Returns None when
    any node falls outside that dispatch -- the block then runs serial and
    behaves (or raises) identically.
    """
    aggregates: dict[int, ast.FunctionCall] = {}
    firsts: dict[int, ast.Expression] = {}

    def visit(node: ast.Expression) -> bool:
        if isinstance(node, ast.FunctionCall) and node.is_aggregate:
            aggregates[id(node)] = node
            return True
        if not ast.has_local_aggregate(node):
            firsts[id(node)] = node
            return True
        if isinstance(node, ast.BinaryOp):
            return visit(node.left) and visit(node.right)
        if isinstance(node, ast.UnaryOp):
            return visit(node.operand)
        if isinstance(node, ast.Comparison):
            return visit(node.left) and visit(node.right)
        if isinstance(node, ast.BoolOp):
            return all(visit(operand) for operand in node.operands)
        if isinstance(node, ast.CaseWhen):
            for condition, branch in node.branches:
                if not (visit(condition) and visit(branch)):
                    return False
            return node.default is None or visit(node.default)
        if isinstance(node, ast.Cast):
            return visit(node.operand)
        return False

    for item in select.items:
        if isinstance(item.expression, ast.Star):
            return None
        if not visit(item.expression):
            return None
    if select.having is not None and not visit(select.having):
        return None
    return aggregates, firsts


def _partial_aggregate(call: ast.FunctionCall, vector_of, group_ids: np.ndarray,
                       group_count: int) -> tuple:
    """One worker's mergeable partial state for a single aggregate call.

    The per-group shapes mirror :meth:`_GroupAggregator._aggregate_call`
    exactly: COUNT decomposes to counts, SUM/AVG to (sum, count) pairs,
    MIN/MAX to running extremes, and DISTINCT aggregates keep per-group
    insertion-ordered value sets that finalise after the merge.
    """
    name = call.name.lower()
    if name == "count" and (not call.arguments
                            or isinstance(call.arguments[0], ast.Star)):
        return ("counts",
                np.bincount(group_ids, minlength=group_count).astype(np.int64))
    values = vector_of(call.arguments[0])
    if call.distinct:
        underlying = values.values if isinstance(values, Nullable) else values
        dtype = underlying.dtype if isinstance(underlying, np.ndarray) \
            and underlying.dtype.kind in ("i", "f") else None
        buckets: list[dict] = [{} for _ in range(group_count)]
        nulls = _null_mask(values)
        for index in range(len(values)):
            if not nulls[index]:
                buckets[group_ids[index]].setdefault(values[index], None)
        return ("distinct", buckets, dtype)
    valid = ~_null_mask(values)
    if name == "count":
        return ("counts",
                np.bincount(group_ids[valid],
                            minlength=group_count).astype(np.int64))
    grouped = group_ids[valid]
    numeric = values[valid]
    if isinstance(numeric, Nullable):
        numeric = numeric.values  # all-valid after the null-mask slice
    counts = np.bincount(grouped, minlength=group_count)
    if name in ("sum", "avg"):
        sums = np.bincount(grouped, weights=numeric.astype(np.float64),
                           minlength=group_count)
        return ("sums", sums, counts, numeric.dtype)
    if name in ("min", "max"):
        if numeric.dtype.kind in ("i", "f"):
            fill = np.inf if name == "min" else -np.inf
            accumulator = np.full(group_count, fill, dtype=np.float64)
            operator = np.minimum if name == "min" else np.maximum
            operator.at(accumulator, grouped, numeric.astype(np.float64))
            return ("minmax_num", accumulator, counts, numeric.dtype)
        extremes: list[Any] = [None] * group_count
        for value, group in zip(numeric, grouped):
            current = extremes[group]
            if current is None:
                extremes[group] = value
            elif (value < current) if name == "min" else (value > current):
                extremes[group] = value
        return ("minmax_obj", extremes, counts)
    raise ExecutionError(f"unknown aggregate function '{name}'")


def _merge_partials(select: ast.Select, partials: list[_WorkerPartial],
                    aggregates: dict[int, ast.FunctionCall],
                    firsts: dict[int, ast.Expression]) -> _MergedAggregator:
    """Fold per-worker partials into one group state, serial-identical.

    Workers cover contiguous ascending row ranges, so visiting their local
    groups in worker order reproduces the serial first-seen group order
    (and first-row values) exactly.
    """
    groups, seen = hash_codes([key for partial in partials for key in partial.keys])
    bounds = np.cumsum([len(partial.keys) for partial in partials])
    local_maps = np.split(groups, bounds[:-1])
    group_count = seen if select.group_by else 1

    merged_firsts = {
        key: _merge_firsts([partial.firsts[key] for partial in partials],
                           local_maps, seen)
        for key in firsts}
    merged_aggregates = {
        key: _merge_aggregate(call,
                              [partial.aggregates[key] for partial in partials],
                              local_maps, group_count)
        for key, call in aggregates.items()}
    return _MergedAggregator(group_count, merged_firsts, merged_aggregates)


def _merge_firsts(parts: list[np.ndarray], local_maps: list[np.ndarray],
                  seen: int) -> np.ndarray:
    """First-row values per global group (first contributor in worker order)."""
    reference = None
    for part in parts:
        if len(part):
            reference = part
            break
    if reference is None:
        return np.array([], dtype=parts[0].dtype if parts else object)
    dtype = reference.dtype
    for part in parts:
        if len(part) and part.dtype != dtype:
            dtype = object
            break
    merged = np.empty(seen, dtype=dtype)
    filled = np.zeros(seen, dtype=bool)
    for part, local in zip(parts, local_maps):
        if not len(part):
            continue
        wanted = ~filled[local]
        if wanted.any():
            merged[local[wanted]] = part[wanted]
            filled[local[wanted]] = True
    return merged


def _merge_aggregate(call: ast.FunctionCall, parts: list[tuple],
                     local_maps: list[np.ndarray], group_count: int
                     ) -> np.ndarray:
    """Combine one aggregate's worker partials into per-group results."""
    name = call.name.lower()
    kind = parts[0][0]
    if kind == "counts":
        totals = np.zeros(group_count, dtype=np.int64)
        for (_, counts), local in zip(parts, local_maps):
            if len(counts):
                np.add.at(totals, local, counts)
        return totals
    if kind == "distinct":
        dtype = _merged_dtype([(part[2], any(part[1])) for part in parts])
        buckets: list[dict] = [{} for _ in range(group_count)]
        for (_, worker_buckets, _), local in zip(parts, local_maps):
            for position, bucket in enumerate(worker_buckets):
                target = buckets[int(local[position])]
                for value in bucket:
                    target.setdefault(value, None)
        return _finalize_distinct(name, buckets, dtype)
    if kind == "sums":
        sums = np.zeros(group_count, dtype=np.float64)
        counts = np.zeros(group_count, dtype=np.int64)
        for (_, worker_sums, worker_counts, _), local in zip(parts, local_maps):
            if len(worker_sums):
                np.add.at(sums, local, worker_sums)
                np.add.at(counts, local, worker_counts)
        if name == "sum":
            dtype = _merged_dtype([(part[3], part[2].any()) for part in parts])
            return _mask_empty(_retyped(sums, counts, dtype), counts)
        with np.errstate(invalid="ignore", divide="ignore"):
            averages = sums / counts
        return _mask_empty(averages, counts)
    if kind == "minmax_num":
        fill = np.inf if name == "min" else -np.inf
        accumulator = np.full(group_count, fill, dtype=np.float64)
        counts = np.zeros(group_count, dtype=np.int64)
        operator = np.minimum if name == "min" else np.maximum
        for (_, worker_acc, worker_counts, _), local in zip(parts, local_maps):
            if len(worker_acc):
                operator.at(accumulator, local, worker_acc)
                np.add.at(counts, local, worker_counts)
        dtype = _merged_dtype([(part[3], part[2].any()) for part in parts])
        return _mask_empty(_retyped(accumulator, counts, dtype), counts)
    # minmax_obj: python compare loop (None marks still-empty groups)
    extremes: list[Any] = [None] * group_count
    for (_, worker_extremes, _), local in zip(parts, local_maps):
        for position, value in enumerate(worker_extremes):
            if value is None:
                continue
            group = int(local[position])
            current = extremes[group]
            if current is None:
                extremes[group] = value
            elif (value < current) if name == "min" else (value > current):
                extremes[group] = value
    return np.array(extremes, dtype=object)


def _merged_dtype(parts: list[tuple[np.dtype | None, bool]]) -> np.dtype | None:
    """One aggregate's input dtype over its (dtype, contributed) worker partials: a
    CASE may be all-integer in one worker's morsels and float in the next's."""
    dtypes = [dtype for dtype, contributed in parts if contributed] or [parts[0][0]]
    # ``is``: numpy compares a dtype equal to None (None means float64 to it)
    return None if any(dtype is None for dtype in dtypes) else np.result_type(*dtypes)


def _finalize_distinct(name: str, buckets: list[dict], dtype: np.dtype | None
                       ) -> np.ndarray:
    """Final per-group values of a DISTINCT aggregate from merged value sets.

    The buckets hold each group's distinct values in global first-occurrence
    order -- exactly the row order the serial distinct-pair slice feeds its
    kernels -- so sequential accumulation reproduces the serial results
    bit for bit.
    """
    if name == "count":
        return np.array([len(bucket) for bucket in buckets], dtype=np.int64)
    if name in ("sum", "avg"):
        sums = np.empty(len(buckets), dtype=np.float64)
        counts = np.empty(len(buckets), dtype=np.int64)
        for index, bucket in enumerate(buckets):
            total = 0.0
            for value in bucket:
                total += float(value)
            sums[index] = total
            counts[index] = len(bucket)
        if name == "avg":
            with np.errstate(invalid="ignore", divide="ignore"):
                sums = sums / counts
        elif dtype is not None:
            sums = _retyped(sums, counts, dtype)
        return _mask_empty(sums, counts)
    if dtype is not None:
        fill = np.inf if name == "min" else -np.inf
        accumulator = np.full(len(buckets), fill, dtype=np.float64)
        counts = np.empty(len(buckets), dtype=np.int64)
        for index, bucket in enumerate(buckets):
            counts[index] = len(bucket)
            for value in bucket:
                value = float(value)
                if (value < accumulator[index]) if name == "min" \
                        else (value > accumulator[index]):
                    accumulator[index] = value
        return _mask_empty(_retyped(accumulator, counts, dtype), counts)
    results = np.full(len(buckets), None, dtype=object)
    for index, bucket in enumerate(buckets):
        best = None
        for value in bucket:
            if best is None:
                best = value
            elif (value < best) if name == "min" else (value > best):
                best = value
        results[index] = best
    return results
