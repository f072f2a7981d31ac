"""Tuple-at-a-time (row store) physical backend.

The executor is a thin *physical* backend over the shared logical plan
(:mod:`repro.engine.plan`): all analysis -- scope resolution, conjunct
classification, the push-down assignment and the join order -- is read from
the :class:`BlockPlan` of each query block instead of being re-derived from
the AST per execution.  The physical pipeline for one block is:

1. materialise every FROM item into a :class:`RowFrame` (base tables read
   the chunk row-views the columnar storage layer decodes -- NULLs arrive
   as real ``None`` -- derived tables are executed recursively, explicit
   JOINs folded into a frame),
2. apply the plan's per-binding push-down predicates at scan time,
3. join the frames following the plan's join schedule, preferring hash joins
   on the scheduled equi-join conditions, falling back to nested loops,
4. apply the plan's residual predicates (including all predicates that
   contain subqueries -- correlated subqueries are re-executed per row,
   uncorrelated ones are cached),
5. group / aggregate / HAVING,
6. project, de-duplicate (DISTINCT), sort, LIMIT/OFFSET.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.engine.compile import (
    RowAggregation,
    RowBlockKernels,
    RowPredicates,
    compile_row_block,
)
from repro.engine.database import Database
from repro.engine.expression import evaluate, evaluate_aggregate
from repro.engine.plan import BlockPlan, JoinStep, Planner, QueryPlan, order_positions
from repro.engine.planner import ColumnInfo, Scope, output_columns
from repro.errors import ExecutionError, PlanError
from repro.obs import NULL_SPAN, QueryTrace
from repro.sqlparser import ast


def scan_source(item: ast.TableExpression) -> str:
    """Human-readable label of a FROM item for scan spans."""
    if isinstance(item, ast.TableRef):
        if item.binding and item.binding.lower() != item.name.lower():
            return f"{item.name} as {item.binding}"
        return item.name
    if isinstance(item, ast.SubqueryRef):
        return f"derived {item.alias}"
    if isinstance(item, ast.Join):
        return f"{item.kind} join"
    return type(item).__name__


def _hash_table(rows: list[tuple], positions: list[int]) -> dict[tuple, list[tuple]]:
    """Build side of a hash join: rows by key, NULL-keyed rows left out.

    ``NULL = anything`` is UNKNOWN, so a row with a NULL in any key column
    can match nothing; probes with such a key find no entry either.
    """
    table: dict[tuple, list[tuple]] = {}
    for row in rows:
        key = tuple(row[position] for position in positions)
        if None not in key:
            table.setdefault(key, []).append(row)
    return table


@dataclass
class RowFrame:
    """An intermediate relation: visible columns plus row tuples."""

    columns: list[ColumnInfo]
    rows: list[tuple]
    _index: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)
    _by_name: dict[str, list[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.reindex()

    def reindex(self) -> None:
        """Rebuild the column lookup structures after columns changed."""
        self._index = {}
        self._by_name = {}
        for position, column in enumerate(self.columns):
            self._index[(column.binding.lower(), column.name.lower())] = position
            self._by_name.setdefault(column.name.lower(), []).append(position)

    def position(self, ref: ast.ColumnRef) -> int | None:
        """Column position of ``ref`` in this frame, or None when absent."""
        if ref.table:
            return self._index.get((ref.table.lower(), ref.name.lower()))
        positions = self._by_name.get(ref.name.lower())
        if not positions:
            return None
        return positions[0]

    def scope(self, outer: Scope | None = None) -> Scope:
        """Build a name-resolution scope over this frame."""
        return Scope(columns=list(self.columns), outer=outer)


class _RowEnv:
    """Expression environment for one row of a frame (plus outer rows)."""

    __slots__ = ("executor", "frame", "row", "outer")

    def __init__(self, executor: "RowExecutor", frame: RowFrame, row: tuple,
                 outer: "_RowEnv | None" = None):
        self.executor = executor
        self.frame = frame
        self.row = row
        self.outer = outer

    def lookup(self, ref: ast.ColumnRef) -> Any:
        env: _RowEnv | None = self
        while env is not None:
            position = env.frame.position(ref)
            if position is not None:
                return env.row[position]
            env = env.outer
        raise ExecutionError(f"unknown column '{ref.qualified}'")

    def run_subquery(self, select: ast.Select) -> list[tuple]:
        return self.executor.run_subquery(select, outer=self)


class RowExecutor:
    """Executes planned SELECT blocks against a :class:`Database`, tuple at a time."""

    def __init__(self, database: Database, predicate_pushdown: bool = True,
                 hash_joins: bool = True, compile_expressions: bool = True,
                 plan: QueryPlan | None = None, trace: QueryTrace | None = None):
        self.database = database
        self.predicate_pushdown = predicate_pushdown
        self.hash_joins = hash_joins
        self.compile_expressions = compile_expressions
        self._plan = plan
        self._trace = trace
        self._planner: Planner | None = None
        self._extra_blocks: dict[int, BlockPlan] = {}
        self._uncorrelated_cache: dict[int, list[tuple]] = {}
        self._correlated: dict[int, bool] = {}

    def _span(self, name: str, **attributes):
        """An operator span when tracing, the shared no-op span otherwise."""
        trace = self._trace
        if trace is None:
            return NULL_SPAN
        return trace.span(name, **attributes)

    def _chunk_attrs(self, item: ast.TableExpression) -> dict:
        """Chunk accounting for a scan span: the row engine reads every chunk."""
        if isinstance(item, ast.TableRef):
            try:
                chunks = len(self.database.storage(item.name).chunks)
            except Exception:
                return {}
            return {"chunks_scanned": chunks, "chunks_skipped": 0}
        return {}

    # -- public API -----------------------------------------------------------

    def execute(self, query: "ast.Select | QueryPlan") -> tuple[list[str], list[tuple]]:
        """Execute a planned query (or a bare SELECT, planned on the fly)."""
        if isinstance(query, QueryPlan):
            self._plan = query
            select = query.select
        else:
            select = query
        self._uncorrelated_cache = {}
        return self._execute_block(select, outer=None)

    def run_subquery(self, select: ast.Select, outer: "_RowEnv | None") -> list[tuple]:
        """Execute a nested SELECT, caching uncorrelated results.

        The per-execution cache (and the correlation analysis) is keyed by
        ``id(select)`` -- the plan keeps the AST alive, so the key is stable
        and the per-row lookup does not re-print the subquery's SQL.
        """
        correlated = self._is_correlated(select, outer)
        cache_key = id(select) if not correlated else None
        if cache_key is not None and cache_key in self._uncorrelated_cache:
            return self._uncorrelated_cache[cache_key]
        _, rows = self._execute_block(select, outer=outer if correlated else None)
        if cache_key is not None:
            self._uncorrelated_cache[cache_key] = rows
        return rows

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

    def _block_kernels(self, block: BlockPlan) -> RowBlockKernels | None:
        """The block's compiled kernels (None = interpret).

        Only blocks owned by a shared plan get kernels: the plan caches the
        compiled closures, so repeated executions -- and the column engine's
        row-fallback subqueries -- reuse them.  Compilation is best-effort;
        any failure leaves the block on the interpreter.
        """
        if not self.compile_expressions or self._plan is None:
            return None
        if self._plan.block(block.select) is not block:
            return None
        try:
            return self._plan.kernels(block, ("row",), compile_row_block)
        except Exception:
            return None

    def _execute_block(self, select: ast.Select, outer: "_RowEnv | None"
                       ) -> tuple[list[str], list[tuple]]:
        block = self._block(select)
        # a sort key outside the select list fails here, before any scan
        positions = order_positions(select, block.output_names)
        kernels = self._block_kernels(block)
        trace = self._trace

        # single-relation predicates are applied while scanning each input, so
        # each scan span covers materialisation plus push-down filtering.
        frames: list[RowFrame] = []
        for index, item in enumerate(select.from_items):
            span_cm = (trace.span("scan", source=scan_source(item))
                       if trace is not None else NULL_SPAN)
            with span_cm as span:
                frame = self._materialise(item, outer)
                rows_in = len(frame.rows)
                if block.pushdown:
                    if kernels is not None:
                        compiled = kernels.pushdown[index]
                        if compiled is not None:
                            frame = self._filter_kernels(frame, compiled, outer)
                    else:
                        frame = self._apply_pushdown(frame, block.pushdown, outer)
                if trace is not None:
                    span.set(rows_in=rows_in, rows_out=len(frame.rows),
                             **self._chunk_attrs(item))
            frames.append(frame)

        frame = self._join_frames(frames, block.join_order, outer)

        has_residual = bool(block.residual)
        span_cm = self._span("filter") if has_residual else NULL_SPAN
        with span_cm as span:
            rows_in = len(frame.rows)
            if kernels is not None and kernels.residual is not None:
                frame = self._filter_kernels(frame, kernels.residual, outer)
            else:
                frame = self._filter(frame, block.residual, outer)
            if trace is not None and has_residual:
                span.set(rows_in=rows_in, rows_out=len(frame.rows))

        with self._span("aggregate" if block.needs_aggregation else "project") as span:
            if block.needs_aggregation:
                aggregation = kernels.aggregation if kernels is not None else None
                if aggregation is not None and (frame.rows or select.group_by):
                    columns, rows = self._aggregate_kernels(select, frame, aggregation,
                                                            block.output_names)
                else:
                    # the empty global group keeps the interpreter's semantics
                    # (non-aggregate subexpressions evaluate to NULL).
                    columns, rows = self._aggregate(select, frame, outer,
                                                    block.output_names)
            elif kernels is not None and kernels.projection is not None:
                columns, rows = self._project_kernels(select, frame, outer,
                                                      block.output_names,
                                                      kernels.projection)
            else:
                columns, rows = self._project(select, frame, outer, block.output_names)
            if trace is not None:
                span.set(rows_in=len(frame.rows), rows_out=len(rows))

        if select.distinct:
            rows = list(dict.fromkeys(rows))
        if positions:
            with self._span("order") as span:
                rows = self._order(select, positions, rows)
                span.set(rows_out=len(rows))
        rows = self._limit(select, rows)
        return columns, rows

    # -- compiled physical operators ---------------------------------------------

    def _filter_kernels(self, frame: RowFrame, predicates: RowPredicates,
                        outer: "_RowEnv | None") -> RowFrame:
        """Filter a frame through a compiled conjunction (+ interpreter rest)."""
        rows = frame.rows
        if predicates.fused is not None:
            fused = predicates.fused
            rows = [row for row in rows if fused(row)]
        if predicates.interpreted:
            rows = [row for row in rows
                    if self._passes(predicates.interpreted, frame, row, outer)]
        if rows is frame.rows:
            return frame
        return RowFrame(columns=frame.columns, rows=rows)

    def _project_kernels(self, select: ast.Select, frame: RowFrame,
                         outer: "_RowEnv | None", columns: list[str],
                         item_fns: list) -> tuple[list[str], list[tuple]]:
        star_positions = self._star_positions(select, frame)
        items = list(zip(select.items, item_fns))
        need_env = any(fn is None and not isinstance(item.expression, ast.Star)
                       for item, fn in items)
        rows: list[tuple] = []
        for row in frame.rows:
            env = _RowEnv(self, frame, row, outer) if need_env else None
            values: list[Any] = []
            for item, fn in items:
                if fn is not None:
                    values.append(fn(row))
                elif isinstance(item.expression, ast.Star):
                    values.extend(row[position]
                                  for position in star_positions[id(item)])
                else:
                    values.append(evaluate(item.expression, env))
            rows.append(tuple(values))
        return columns, rows

    def _aggregate_kernels(self, select: ast.Select, frame: RowFrame,
                           aggregation: RowAggregation, columns: list[str]
                           ) -> tuple[list[str], list[tuple]]:
        """Fused grouping + accumulation + finalisation over compiled kernels."""
        key_fn = aggregation.key_fn
        inits = aggregation.inits
        updates = aggregation.updates
        groups: dict[tuple, tuple[list, tuple]] = {}
        for row in frame.rows:
            key = key_fn(row) if key_fn is not None else ()
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = ([init() for init in inits], row)
            states = entry[0]
            for state, update in zip(states, updates):
                update(state, row)

        rows: list[tuple] = []
        finals = aggregation.finals
        having_fn = aggregation.having_fn
        for states, first_row in groups.values():
            combined = tuple(final(state)
                             for final, state in zip(finals, states)) + first_row
            if having_fn is not None and not bool(having_fn(combined)):
                continue
            rows.append(tuple(finaliser(combined)
                              for finaliser in aggregation.finalisers))
        return columns, rows

    # -- FROM materialisation ----------------------------------------------------

    def _materialise(self, item: ast.TableExpression, outer: "_RowEnv | None") -> RowFrame:
        if isinstance(item, ast.TableRef):
            schema = self.database.catalog.table(item.name)
            columns = [
                ColumnInfo(binding=item.binding, name=column.name, type_name=column.type_name)
                for column in schema.columns
            ]
            return RowFrame(columns=columns, rows=list(self.database.rows(item.name)))
        if isinstance(item, ast.SubqueryRef):
            names, rows = self._execute_block(item.subquery, outer=outer)
            columns = [
                ColumnInfo(binding=item.alias, name=name, type_name="str")
                for name in names
            ]
            return RowFrame(columns=columns, rows=rows)
        if isinstance(item, ast.Join):
            return self._materialise_join(item, outer)
        raise PlanError(f"unsupported FROM item {type(item).__name__}")

    def _materialise_join(self, join: ast.Join, outer: "_RowEnv | None") -> RowFrame:
        left = self._materialise(join.left, outer)
        right = self._materialise(join.right, outer)
        columns = left.columns + right.columns
        combined = RowFrame(columns=columns, rows=[])

        condition = join.condition
        equi, residual = self._split_join_condition(condition, left, right)

        if join.kind in ("inner", "cross"):
            rows = self._hash_join_rows(left, right, equi, residual, combined, outer,
                                        keep_unmatched_left=False)
        elif join.kind == "left":
            rows = self._hash_join_rows(left, right, equi, residual, combined, outer,
                                        keep_unmatched_left=True)
        elif join.kind == "right":
            # express RIGHT as LEFT with the operands swapped, then reorder.
            swapped_columns = right.columns + left.columns
            swapped = RowFrame(columns=swapped_columns, rows=[])
            swapped_equi = [(r, l) for (l, r) in equi]
            swapped_rows = self._hash_join_rows(right, left, swapped_equi, residual, swapped,
                                                outer, keep_unmatched_left=True)
            width_right = len(right.columns)
            rows = [row[width_right:] + row[:width_right] for row in swapped_rows]
        else:
            raise PlanError(f"unsupported join kind '{join.kind}'")
        combined.rows = rows
        return combined

    def _split_join_condition(self, condition: ast.Expression | None,
                              left: RowFrame, right: RowFrame
                              ) -> tuple[list[tuple[ast.ColumnRef, ast.ColumnRef]],
                                         list[ast.Expression]]:
        """Separate hashable equi-conjuncts of an explicit JOIN condition."""
        equi: list[tuple[ast.ColumnRef, ast.ColumnRef]] = []
        residual: list[ast.Expression] = []
        for conjunct in ast.conjuncts(condition):
            if (isinstance(conjunct, ast.Comparison) and conjunct.operator == "="
                    and isinstance(conjunct.left, ast.ColumnRef)
                    and isinstance(conjunct.right, ast.ColumnRef)):
                left_ref, right_ref = conjunct.left, conjunct.right
                if left.position(left_ref) is not None and right.position(right_ref) is not None:
                    equi.append((left_ref, right_ref))
                    continue
                if left.position(right_ref) is not None and right.position(left_ref) is not None:
                    equi.append((right_ref, left_ref))
                    continue
            residual.append(conjunct)
        return equi, residual

    def _hash_join_rows(self, left: RowFrame, right: RowFrame,
                        equi: list[tuple[ast.ColumnRef, ast.ColumnRef]],
                        residual: list[ast.Expression], combined: RowFrame,
                        outer: "_RowEnv | None", keep_unmatched_left: bool) -> list[tuple]:
        """Join two frames with an optional hash phase plus residual filtering."""
        null_padding = (None,) * len(right.columns)
        rows: list[tuple] = []

        if equi and self.hash_joins:
            right_positions = [right.position(ref) for _, ref in equi]
            left_positions = [left.position(ref) for ref, _ in equi]
            table = _hash_table(right.rows, right_positions)
            for left_row in left.rows:
                key = tuple(left_row[position] for position in left_positions)
                matched = False
                for right_row in table.get(key, ()):
                    candidate = left_row + right_row
                    if self._passes(residual, combined, candidate, outer):
                        rows.append(candidate)
                        matched = True
                if keep_unmatched_left and not matched:
                    rows.append(left_row + null_padding)
            return rows

        for left_row in left.rows:
            matched = False
            for right_row in right.rows:
                candidate = left_row + right_row
                condition = residual + [
                    ast.Comparison("=", left_ref, right_ref) for left_ref, right_ref in equi
                ]
                if self._passes(condition, combined, candidate, outer):
                    rows.append(candidate)
                    matched = True
            if keep_unmatched_left and not matched:
                rows.append(left_row + null_padding)
        return rows

    def _passes(self, predicates: list[ast.Expression], frame: RowFrame, row: tuple,
                outer: "_RowEnv | None") -> bool:
        if not predicates:
            return True
        env = _RowEnv(self, frame, row, outer)
        return all(bool(evaluate(predicate, env)) for predicate in predicates)

    # -- filtering / joining ---------------------------------------------------------

    def _apply_pushdown(self, frame: RowFrame, pushdown: dict[str, list[ast.Expression]],
                        outer: "_RowEnv | None") -> RowFrame:
        bindings = {column.binding.lower() for column in frame.columns}
        predicates: list[ast.Expression] = []
        for binding in bindings:
            predicates.extend(pushdown.get(binding, []))
        if not predicates:
            return frame
        kept = [row for row in frame.rows if self._passes(predicates, frame, row, outer)]
        return RowFrame(columns=frame.columns, rows=kept)

    def _join_frames(self, frames: list[RowFrame], join_order: list[JoinStep],
                     outer: "_RowEnv | None") -> RowFrame:
        if not frames:
            return RowFrame(columns=[], rows=[()])
        current = frames[join_order[0].frame_index]
        if len(join_order) == 1:
            return current
        with self._span("join") as span:
            probe_rows = build_rows = 0
            for step in join_order[1:]:
                probe_rows += len(current.rows)
                build_rows += len(frames[step.frame_index].rows)
                current = self._pairwise_join(current, frames[step.frame_index],
                                              list(step.connecting), outer)
            span.set(rows_in=probe_rows, rows_out=len(current.rows),
                     build_rows=build_rows)
        return current

    def _pairwise_join(self, left: RowFrame, right: RowFrame,
                       connecting: list[tuple[ast.ColumnRef, ast.ColumnRef, ast.Expression]],
                       outer: "_RowEnv | None") -> RowFrame:
        columns = left.columns + right.columns
        combined = RowFrame(columns=columns, rows=[])
        if connecting and self.hash_joins:
            left_positions = []
            right_positions = []
            for left_ref, right_ref, _ in connecting:
                if left.position(left_ref) is not None:
                    left_positions.append(left.position(left_ref))
                    right_positions.append(right.position(right_ref))
                else:
                    left_positions.append(left.position(right_ref))
                    right_positions.append(right.position(left_ref))
            table = _hash_table(right.rows, right_positions)
            rows = []
            for left_row in left.rows:
                key = tuple(left_row[position] for position in left_positions)
                for right_row in table.get(key, ()):
                    rows.append(left_row + right_row)
            combined.rows = rows
            return combined
        # cross join (with any connecting predicates applied per pair)
        predicates = [conjunct for _, _, conjunct in connecting]
        rows = []
        for left_row in left.rows:
            for right_row in right.rows:
                candidate = left_row + right_row
                if self._passes(predicates, combined, candidate, outer):
                    rows.append(candidate)
        combined.rows = rows
        return combined

    def _filter(self, frame: RowFrame, predicates: list[ast.Expression],
                outer: "_RowEnv | None") -> RowFrame:
        if not predicates:
            return frame
        kept = [row for row in frame.rows if self._passes(predicates, frame, row, outer)]
        return RowFrame(columns=frame.columns, rows=kept)

    # -- projection / aggregation ----------------------------------------------------

    def _project(self, select: ast.Select, frame: RowFrame, outer: "_RowEnv | None",
                 columns: list[str]) -> tuple[list[str], list[tuple]]:
        rows: list[tuple] = []
        star_positions = self._star_positions(select, frame)
        for row in frame.rows:
            env = _RowEnv(self, frame, row, outer)
            values: list[Any] = []
            for item in select.items:
                if isinstance(item.expression, ast.Star):
                    values.extend(row[position] for position in star_positions[id(item)])
                else:
                    values.append(evaluate(item.expression, env))
            rows.append(tuple(values))
        return columns, rows

    def _star_positions(self, select: ast.Select, frame: RowFrame) -> dict[int, list[int]]:
        positions: dict[int, list[int]] = {}
        for item in select.items:
            if isinstance(item.expression, ast.Star):
                star = item.expression
                selected = [
                    index for index, column in enumerate(frame.columns)
                    if star.table is None or column.binding.lower() == star.table.lower()
                ]
                positions[id(item)] = selected
        return positions

    def _aggregate(self, select: ast.Select, frame: RowFrame, outer: "_RowEnv | None",
                   columns: list[str]) -> tuple[list[str], list[tuple]]:
        groups: dict[tuple, list[_RowEnv]] = {}
        if select.group_by:
            for row in frame.rows:
                env = _RowEnv(self, frame, row, outer)
                key = tuple(evaluate(expression, env) for expression in select.group_by)
                groups.setdefault(key, []).append(env)
        else:
            groups[()] = [_RowEnv(self, frame, row, outer) for row in frame.rows]

        rows: list[tuple] = []
        for envs in groups.values():
            if select.having is not None:
                if not bool(evaluate_aggregate(select.having, envs)):
                    continue
            rows.append(tuple(
                evaluate_aggregate(item.expression, envs) for item in select.items
            ))
        return columns, rows

    # -- ordering / limits -----------------------------------------------------------------

    def _order(self, select: ast.Select, positions: list[int],
               rows: list[tuple]) -> list[tuple]:
        """Sort on the resolved output positions, NULLs as the largest value."""
        ordered = list(rows)
        for item, position in reversed(list(zip(select.order_by, positions))):
            ordered.sort(key=lambda row: (row[position] is None, row[position]),
                         reverse=item.descending)
        return ordered

    def _limit(self, select: ast.Select, rows: list[tuple]) -> list[tuple]:
        start = select.offset or 0
        if select.limit is None:
            return rows[start:] if start else rows
        return rows[start:start + select.limit]

    # -- helpers ----------------------------------------------------------------------------

    def _is_correlated(self, select: ast.Select, outer: "_RowEnv | None") -> bool:
        """Heuristic correlation test: any column not resolvable locally.

        The walk is memoised by ``id(select)`` -- the driver re-runs the same
        subquery once per outer row, and the answer never changes.
        """
        if outer is None:
            return False
        cached = self._correlated.get(id(select))
        if cached is not None:
            return cached
        local_bindings: list[ColumnInfo] = []
        for item in select.from_items:
            local_bindings.extend(self._item_columns(item))
        local = Scope(columns=local_bindings)
        correlated = any(
            isinstance(node, ast.ColumnRef) and local.resolve_local(node) is None
            for node in select.walk()
        )
        self._correlated[id(select)] = correlated
        return correlated

    def _item_columns(self, item: ast.TableExpression) -> list[ColumnInfo]:
        if isinstance(item, ast.TableRef):
            try:
                schema = self.database.catalog.table(item.name)
            except Exception:
                return []
            return [
                ColumnInfo(binding=item.binding, name=column.name, type_name=column.type_name)
                for column in schema.columns
            ]
        if isinstance(item, ast.SubqueryRef):
            scope = Scope(columns=[])
            names = output_columns(item.subquery, scope) if not any(
                isinstance(entry.expression, ast.Star) for entry in item.subquery.items
            ) else []
            return [ColumnInfo(binding=item.alias, name=name, type_name="str") for name in names]
        if isinstance(item, ast.Join):
            return self._item_columns(item.left) + self._item_columns(item.right)
        return []
