"""Tuple-at-a-time (row store) physical backend.

A thin *physical* backend over the shared logical plan (:mod:`repro.engine.plan`):
scope resolution, conjunct classification, the push-down assignment, the join
order and the correlation of every block are read from its :class:`BlockPlan`.
A block runs one of two ways:

* **Generated pipeline** (``compile_expressions=True``, the default).  The
  block's :class:`~repro.engine.compile.RowPipeline` -- one Python function
  generated from the plan and cached on it -- gets its inputs and does the
  rest in one pass: one loop nest over the driving scan and the probes, the
  push-down and residual predicates, then the projection or -- partition,
  then fold -- each passing row appended to its group's list, each aggregate
  argument gathered per group and folded with the builtins the interpreter
  folds with.  No joined tuple is materialised.  A base table's columns that
  hold no NULL in the version being read (its statistics) are not tested:
  the plan caches one flavour of the function per NULL-free set
  (:func:`null_free_columns`), so a NULL an insert brings makes the next
  execution generate the NULL-testing flavour once.  The executor fetches
  the inputs per run -- a scanned base
  table is the storage layer's cached row view or, where the plan confined the
  driving scan to a scan window, the rows in that range of one column read
  through its key order and kept on the plan until the next mutation
  (:meth:`RowExecutor._scan_rows`, which counts ``scan.rows_visited`` /
  ``scan.window_probes`` on every execution); a probed one its key index
  (:meth:`Database.key_index`); derived tables and explicit JOINs are executed
  into row lists -- looks up the columns of enclosing blocks the function
  binds once, lends it an interpreter hook for the subexpressions it could not
  lower (a subquery), and turns its integer counters into the ``join.*``
  counters and the ``scan`` / ``join`` / ``filter`` / ``aggregate`` spans of a
  traced run.
* **Interpreter** (``compile_expressions=False``, or a block the generator
  declined: more nested loops than Python compiles).  Frames are
  materialised operator by operator -- scan + push-down, hash or nested-loop
  join, residual filter, group / aggregate / HAVING or project -- and
  :mod:`repro.engine.expression` walks every expression per row (a windowed
  driving scan hands it fewer rows; it still evaluates every predicate on
  them).  It is the reference the generated code is tested against.

DISTINCT, ORDER BY and LIMIT / OFFSET run on the block's output either way;
correlated subqueries re-execute per outer row, uncorrelated ones once.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Sequence

from repro.engine.compile import NO_COLUMNS, IndexProbe, Layout, RowPipeline, row_pipeline
from repro.engine.database import Database
from repro.engine.expression import aggregate_value, evaluate
from repro.engine.plan import BlockPlan, JoinStep, QueryPlan, ScanWindow, Stamped
from repro.engine.planner import ColumnInfo, split_join_condition
from repro.engine.storage import hash_rows
from repro.errors import ExecutionError, PlanError
from repro.obs import NULL_SPAN, QueryTrace, Span
from repro.obs.metrics import count as count_metric
from repro.sqlparser import ast
from repro.sqlparser.printer import to_sql


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


def null_free_columns(database: Database, block: BlockPlan) -> tuple:
    """Per FROM item, the positions of the columns that hold no NULL in the
    table version ``database`` holds now: a base table's, from its
    statistics; none for a derived table or an explicit JOIN."""
    return tuple(database.storage(item.name).null_free() if isinstance(item, ast.TableRef)
                 else () for item in block.select.from_items)


def _new_stamped(_block: BlockPlan) -> Stamped:
    return Stamped()


def describe_pipeline(block: BlockPlan, pipeline: RowPipeline) -> dict:
    """How one block runs on the row engine, for ``Engine.explain`` / EXPLAIN."""
    if pipeline.run is None:
        return {"output": list(block.output_names), "generated": False,
                "fallback": pipeline.fallback}
    items = [block.select.from_items[step.frame_index] for step in block.join_order]
    sources = [scan_source(item) for item in items]

    def join(step: JoinStep) -> str:
        probe = pipeline.probes[step.frame_index]
        if probe is not None:
            return probe.describe()
        if pipeline.hash_joins and step.connecting:
            return f"hash on {len(step.connecting)} key{'s' if len(step.connecting) != 1 else ''}"
        return "nested loop"

    return {
        "output": list(block.output_names),
        "generated": True,
        "file": pipeline.run.__code__.co_filename,
        "driving": sources[0] if sources else None,
        # the range of one column the driving scan reads instead of the table
        "window": None if block.window is None else block.window.interval(),
        # "table": the base table (None for a derived one); "built": a hash
        # table (or filtered list) is filled per execution
        "joins": [{"source": source, "join": join(step),
                   "table": item.name if isinstance(item, ast.TableRef) else None,
                   "built": step.frame_index in pipeline.builds,
                   "filtered": block.filtered(step.frame_index)}
                  for source, item, step in zip(sources[1:], items[1:], block.join_order[1:])],
        "fused": ["scan"] + ["join"] * (len(sources) > 1) + ["filter"] * bool(block.residual)
        + ["aggregate" if block.needs_aggregation else "project"],
        # an expression over a group row reads its aggregate calls' columns:
        # printed as the calls
        "interpreted": [to_sql(expression if block.aggregation is None
                               else block.aggregation.with_calls(expression))
                        for expression, _ in pipeline.interpreted],
        "hoisted": [ref.qualified for ref in pipeline.outer_refs],
        # per distinct aggregate argument: how its values are gathered per
        # group ("builtin", "comprehension" or "loop")
        "folds": [{"argument": to_sql(argument), "fold": kind,
                   "column": isinstance(argument, ast.ColumnRef)}
                  for argument, kind in pipeline.folds],
        # the scanned base tables none of whose columns the function tests for NULL
        "null_free": [source for source, item, step in zip(sources, items, block.join_order)
                      if isinstance(item, ast.TableRef) and pipeline.null_free
                      and len(pipeline.null_free[step.frame_index])
                      == len(block.item_columns[step.frame_index])],
        "source": pipeline.source,
    }


@dataclass
class RowFrame:
    """An intermediate relation: visible columns plus row tuples."""

    columns: list[ColumnInfo]
    rows: list[tuple]

    def __post_init__(self) -> None:
        self._layout = Layout(self.columns)

    def position(self, ref: ast.ColumnRef) -> int | None:
        """Column position of ``ref`` in this frame, or None when absent."""
        return self._layout.position(ref)


class _RowEnv:
    """Expression environment for one row of a frame (plus outer rows)."""

    __slots__ = ("executor", "frame", "row", "outer")

    def __init__(self, executor: "RowExecutor", frame: "RowFrame | Layout", row: tuple,
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
    """Executes the blocks of one :class:`QueryPlan` against a
    :class:`Database`, tuple at a time."""

    def __init__(self, database: Database, plan: QueryPlan, hash_joins: bool = True,
                 compile_expressions: bool = True, trace: QueryTrace | None = None):
        self.database = database
        self.hash_joins = hash_joins
        self.compile_expressions = compile_expressions
        self._plan = plan
        self._trace = trace
        self._uncorrelated_cache: dict[int, list[tuple]] = {}

    def _span(self, name: str, **attributes):
        """An operator span when tracing, the shared no-op span otherwise."""
        trace = self._trace
        if trace is None:
            return NULL_SPAN
        return trace.span(name, **attributes)

    def _scan_span(self, item: ast.TableExpression, probe: IndexProbe | None = None,
                   window: ScanWindow | None = None):
        """The ``scan`` span of one FROM item (the no-op span when not tracing)."""
        if self._trace is None:
            return NULL_SPAN
        if probe is not None:
            attributes = {"access": "index", "index": probe.describe()}
        elif isinstance(item, ast.TableRef):
            # no zone map refutes a chunk of a row-engine scan: its rows come
            # from the row view over all of them, a window's through a key order
            attributes = {"chunks_scanned": len(self.database.storage(item.name).chunks),
                          "chunks_skipped": 0}
            if window is not None:
                attributes.update(access="window", window=window.interval())
        else:
            attributes = {}
        return self._trace.span("scan", source=scan_source(item), **attributes)

    # -- public API -----------------------------------------------------------

    def execute(self) -> tuple[list[str], list[tuple]]:
        """Execute the plan."""
        self._uncorrelated_cache = {}
        return self._execute_block(self._plan.select, outer=None)

    def run_subquery(self, select: ast.Select, outer: "_RowEnv | None") -> list[tuple]:
        """Execute a nested SELECT, caching uncorrelated results.

        Whether the block is correlated was decided when it was planned; the
        per-execution cache is keyed by the block's number, so the per-row
        lookup does not re-print the subquery's SQL.
        """
        correlated = outer is not None and self._block(select).correlated
        cache_key = select.block if not correlated else None
        if cache_key is not None and cache_key in self._uncorrelated_cache:
            return self._uncorrelated_cache[cache_key]
        _, rows = self._execute_block(select, outer=outer if correlated else None)
        if cache_key is not None:
            self._uncorrelated_cache[cache_key] = rows
        return rows

    # -- block execution -------------------------------------------------------

    def _block(self, select: ast.Select) -> BlockPlan:
        """The plan's analysis of ``select`` (the planner plans every block)."""
        return self._plan.blocks[select.block]

    def _scan_rows(self, item: ast.TableRef, window: ScanWindow | None = None,
                   block: BlockPlan | None = None) -> list[tuple]:
        """The rows a scan of base table ``item`` visits, in row order.

        The storage layer's cached row view (read-only) or, for a driving
        scan the plan confined to a ``window``, the rows whose key lies in its
        range, found through the column's storage key order and kept on the
        plan of ``block`` until the database's next mutation (read-only too).
        Generated pipelines and the interpreter both get their base-table
        rows here, so ``scan.rows_visited`` counts the same thing for either.
        """
        if window is None:
            rows = self.database.rows(item.name)
        else:
            rows = self._plan.kernels(block, ("row", "window"), _new_stamped).get(
                self.database, self._window_rows, item, window)
            count_metric("scan.window_probes")
        count_metric("scan.rows_visited", len(rows))
        return rows

    def _window_rows(self, item: ast.TableRef, window: ScanWindow) -> list[tuple]:
        # the order first: rows appended in between are beyond its row ids
        order = self.database.storage(item.name).key_order((window.position,), "scan")
        table = self.database.rows(item.name)
        return [table[row] for row in order.range_rows(window.low, window.high).tolist()]

    def _pipeline(self, block: BlockPlan) -> RowPipeline | None:
        """The block's generated pipeline (None = interpret).

        The plan caches it, so repeated executions -- and the column engine's
        row-executor subqueries -- reuse the compiled function.
        """
        if not self.compile_expressions:
            return None
        pipeline = row_pipeline(self._plan, block, self.hash_joins, self._null_free(block))
        return pipeline if pipeline.run is not None else None

    def _null_free(self, block: BlockPlan) -> tuple:
        """:func:`null_free_columns`, remembered on the plan until the
        database's next mutation (a block may run once per outer row)."""
        return self._plan.kernels(block, ("row", "null-free"), _new_stamped).get(
            self.database, null_free_columns, self.database, block)

    def _execute_block(self, select: ast.Select, outer: "_RowEnv | None"
                       ) -> tuple[list[str], list[tuple]]:
        block = self._block(select)
        positions = block.order_positions
        mutations = self.database.mutations  # before the flavour is picked
        pipeline = self._pipeline(block)
        if pipeline is None:
            count_metric("row.pipeline.interpreted_blocks")
            rows = self._interpret_block(block, outer)
        else:
            count_metric("row.pipeline.generated")
            rows = self._run_pipeline(block, pipeline, outer, mutations)
        if select.distinct:
            rows = list(dict.fromkeys(rows))
        if positions:
            with self._span("order") as span:
                rows = self._order(select, positions, rows)
                span.set(rows_out=len(rows))
        return block.output_names, self._limit(select, rows)

    # -- generated pipelines ------------------------------------------------------

    def _run_pipeline(self, block: BlockPlan, pipeline: RowPipeline,
                      outer: "_RowEnv | None", mutations: int) -> list[tuple]:
        """Fetch the block's inputs and run its generated function over them.

        ``pipeline`` is the flavour for the NULL-free columns of the tables
        as ``database.mutations`` read ``mutations``; when it has moved since,
        the flavour is picked again for the rows fetched.
        """
        select, trace = block.select, self._trace
        probes = pipeline.probes
        scans: list[list[tuple] | None] = []
        indexes: list[dict | None] = []
        scan_spans = []
        for item, probe, window in zip(select.from_items, probes, pipeline.windows):
            with self._scan_span(item, probe, window) as span:
                if probe is not None:
                    # fetched per run: storage drops an index when the table changes
                    index = self.database.storage(probe.table).key_index(probe.positions)
                    rows = None
                else:
                    index = None
                    rows = self._scan_rows(item, window, block) \
                        if isinstance(item, ast.TableRef) \
                        else self._materialise(item, outer).rows
            scans.append(rows)
            indexes.append(index)
            scan_spans.append(span)
        if self.database.mutations != mutations:
            # the rows just fetched may hold a NULL inserted since the flavour
            # was picked (the access paths are the same in every flavour)
            pipeline = row_pipeline(self._plan, block, self.hash_joins,
                                    null_free_columns(self.database, block))
        outers = ()
        if pipeline.outer_refs:
            env = _RowEnv(self, NO_COLUMNS, (), outer)
            outers = [env.lookup(ref) for ref in pipeline.outer_refs]

        def interp(index: int, row: tuple) -> Any:
            expression, layout = pipeline.interpreted[index]
            return evaluate(expression, _RowEnv(self, layout, row, outer))

        with self._span("pipeline") as span:
            rows, counts = pipeline.run(scans, indexes, outers, interp)
            _, scanned, levels, _ = counts
            build_rows = sum(scanned[position] for position in pipeline.builds)
            if build_rows:
                count_metric("join.build_rows", build_rows)
            # one probe per row that reached the level above the probed side
            index_probes = sum(levels[level - 1] for level, step in enumerate(block.join_order)
                               if probes[step.frame_index] is not None)
            if index_probes:
                count_metric("join.index_probes", index_probes)
            if trace is not None:
                self._fused_spans(span, pipeline.run.__code__.co_filename, block,
                                  scan_spans, counts, build_rows, len(rows))
        return rows

    def _fused_spans(self, parent: Span, fused: str, block: BlockPlan,
                     scan_spans: list[Span], counts: tuple, build_rows: int,
                     rows_out: int) -> None:
        """Operator spans of a generated pipeline, from its row counters.

        The operators share one loop nest, so they share its wall time: each
        span covers the pipeline's window and names the generated source it
        is ``fused`` into instead of claiming a time of its own.
        """
        visited, scanned, levels, passed = counts
        parent.set(source=fused)  # "<rowpipe:N>", the name its source has in linecache
        for span, rows, kept in zip(scan_spans, visited, scanned):
            span.set(rows_in=rows, rows_out=kept, fused=fused)
        operators = [("aggregate" if block.needs_aggregation else "project",
                      passed, rows_out, {})]
        if block.residual:
            operators.insert(0, ("filter", levels[-1], passed, {}))
        if len(levels) > 1:
            operators.insert(0, ("join", sum(levels[:-1]), levels[-1],
                                 {"build_rows": build_rows, **block.join_levels(levels)}))
        for name, rows_in, rows_out, attributes in operators:
            span = Span(name)
            span.started = parent.started
            self._trace.adopt(parent, span.set(
                rows_in=rows_in, rows_out=rows_out, fused=fused, **attributes).close())

    # -- the interpreter ----------------------------------------------------------

    def _interpret_block(self, block: BlockPlan, outer: "_RowEnv | None") -> list[tuple]:
        select = block.select
        # single-relation predicates are applied while scanning each input, so
        # each scan span covers materialisation plus push-down filtering.
        frames: list[RowFrame] = []
        for position, item in enumerate(select.from_items):
            window = block.window_of(position)
            with self._scan_span(item, window=window) as span:
                # a windowed driving scan visits fewer rows; every predicate
                # is still evaluated on them
                frame = self._materialise(item, outer, window, block)
                rows_in = len(frame.rows)
                if block.pushdown:
                    frame = self._apply_pushdown(frame, block.pushdown, outer)
                span.set(rows_in=rows_in, rows_out=len(frame.rows))
            frames.append(frame)

        frame = self._join_frames(frames, block, outer)

        with (self._span("filter") if block.residual else NULL_SPAN) as span:
            rows_in = len(frame.rows)
            frame = self._filter(frame, block.residual, outer)
            span.set(rows_in=rows_in, rows_out=len(frame.rows))

        with self._span("aggregate" if block.needs_aggregation else "project") as span:
            rows = self._aggregate(block, frame, outer) if block.needs_aggregation \
                else self._project(select, frame, outer)
            span.set(rows_in=len(frame.rows), rows_out=len(rows))
        return rows

    # -- FROM materialisation ----------------------------------------------------

    def _materialise(self, item: ast.TableExpression, outer: "_RowEnv | None",
                     window: ScanWindow | None = None,
                     block: BlockPlan | None = None) -> RowFrame:
        if isinstance(item, ast.TableRef):
            schema = self.database.catalog.table(item.name)
            columns = [
                ColumnInfo(binding=item.binding, name=column.name, type_name=column.type_name)
                for column in schema.columns
            ]
            return RowFrame(columns=columns, rows=list(self._scan_rows(item, window, block)))
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

        keys, condition, residual = split_join_condition(join.condition, left, right)

        if join.kind in ("inner", "cross", "left"):
            rows = self._hash_join_rows(left, right, keys, condition, residual, combined,
                                        outer, keep_unmatched_left=join.kind == "left")
        elif join.kind == "right":
            # express RIGHT as LEFT with the operands swapped: the left frame's
            # rows are put in before the right one's
            rows = self._hash_join_rows(right, left, [(r, l) for (l, r) in keys], condition,
                                        residual, combined, outer,
                                        keep_unmatched_left=True, cut=0)
        else:
            raise PlanError(f"unsupported join kind '{join.kind}'")
        combined.rows = rows
        return combined

    def _hash_join_rows(self, left: RowFrame, right: RowFrame,
                        keys: Sequence[tuple[int, int]], condition: list[ast.Expression],
                        residual: list[ast.Expression], combined: RowFrame,
                        outer: "_RowEnv | None", keep_unmatched_left: bool,
                        cut: int | None = None) -> list[tuple]:
        """Join two frames: a hash phase on ``keys`` (position pairs) plus
        ``residual`` filtering, or -- without hash joins -- nested loops over
        the keys' ``condition`` conjuncts and the residual.  A joined row is
        the left one with the right one put in at column ``cut`` (None: after
        it), the order of ``combined``'s columns."""
        null_padding = (None,) * len(right.columns)
        rows: list[tuple] = []
        if cut is None:
            cut = len(left.columns)
        table = None
        if keys and self.hash_joins:
            table = hash_rows(right.rows, tuple(position for _, position in keys))
            key_of = itemgetter(*(position for position, _ in keys))
        else:
            residual = residual + condition
        for left_row in left.rows:
            head, tail = left_row[:cut], left_row[cut:]
            matched = False
            for right_row in right.rows if table is None else table.get(key_of(left_row), ()):
                candidate = head + right_row + tail
                if self._passes(residual, combined, candidate, outer):
                    rows.append(candidate)
                    matched = True
            if keep_unmatched_left and not matched:
                rows.append(head + null_padding + tail)
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

    def _join_frames(self, frames: list[RowFrame], block: BlockPlan,
                     outer: "_RowEnv | None") -> RowFrame:
        if not frames:
            return RowFrame(columns=[], rows=[()])
        join_order = block.join_order
        current = frames[join_order[0].frame_index]
        if len(join_order) == 1:
            return current
        with self._span("join") as span:
            build_rows = 0
            levels = [len(current.rows)]
            for step in join_order[1:]:
                right = frames[step.frame_index]
                build_rows += len(right.rows)
                # the joined columns stay in FROM order (see JoinStep)
                combined = RowFrame(columns=current.columns[:step.cut] + right.columns
                                    + current.columns[step.cut:], rows=[])
                combined.rows = self._hash_join_rows(
                    current, right, step.keys,
                    [conjunct for _, _, conjunct in step.connecting], [], combined, outer,
                    keep_unmatched_left=False, cut=step.cut)
                current = combined
                levels.append(len(current.rows))
            if self._trace is not None:
                span.set(rows_in=sum(levels[:-1]), rows_out=levels[-1],
                         build_rows=build_rows, **block.join_levels(levels))
        return current

    def _filter(self, frame: RowFrame, predicates: list[ast.Expression],
                outer: "_RowEnv | None") -> RowFrame:
        if not predicates:
            return frame
        kept = [row for row in frame.rows if self._passes(predicates, frame, row, outer)]
        return RowFrame(columns=frame.columns, rows=kept)

    # -- projection / aggregation ----------------------------------------------------

    def _project(self, select: ast.Select, frame: RowFrame,
                 outer: "_RowEnv | None") -> list[tuple]:
        # per select item: the frame positions a star expands to (None = an expression)
        stars = [None if not isinstance(item.expression, ast.Star) else [
            index for index, column in enumerate(frame.columns)
            if item.expression.table is None
            or column.binding.lower() == item.expression.table.lower()]
            for item in select.items]
        rows: list[tuple] = []
        for row in frame.rows:
            env = _RowEnv(self, frame, row, outer)
            values: list[Any] = []
            for item, star in zip(select.items, stars):
                if star is not None:
                    values.extend(row[position] for position in star)
                else:
                    values.append(evaluate(item.expression, env))
            rows.append(tuple(values))
        return rows

    def _aggregate(self, block: BlockPlan, frame: RowFrame,
                   outer: "_RowEnv | None") -> list[tuple]:
        """Partition the rows, fold each distinct aggregate argument once per
        group, then evaluate HAVING and the select list over the group row:
        the group's first row (NULLs for the empty global group), then its
        calls' values (see :class:`~repro.engine.plan.Aggregation`)."""
        select, aggregation = block.select, block.aggregation
        groups: dict[tuple, list[_RowEnv]] = {}
        if select.group_by:
            for row in frame.rows:
                env = _RowEnv(self, frame, row, outer)
                key = tuple(evaluate(expression, env) for expression in select.group_by)
                groups.setdefault(key, []).append(env)
        else:
            groups[()] = [_RowEnv(self, frame, row, outer) for row in frame.rows]
        layout = Layout(aggregation.columns(frame._layout))
        empty = (None,) * len(frame.columns)
        rows: list[tuple] = []
        for envs in groups.values():
            values = [[value for value in (evaluate(argument, env) for env in envs)
                       if value is not None] for argument in aggregation.arguments]
            group = (envs[0].row if envs else empty) + tuple(
                aggregate_value(call, None if number is None else values[number], len(envs))
                for call, number in zip(aggregation.calls, aggregation.call_arguments))
            env = _RowEnv(self, layout, group, outer)
            if aggregation.having is not None and not evaluate(aggregation.having, env):
                continue
            rows.append(tuple(evaluate(item, env) for item in aggregation.items))
        return rows

    # -- ordering / limits -----------------------------------------------------------------

    def _order(self, select: ast.Select, positions: list[int],
               rows: list[tuple]) -> list[tuple]:
        """Sort on the resolved output positions, NULLs as the largest value.

        A key with no NULL in ``rows`` sorts on the value itself; the
        ``(is None, value)`` pair that puts NULLs last is built only for a key
        that holds one.  Either way the sorts are stable, so ties keep their order.
        """
        ordered = list(rows)
        for item, position in reversed(list(zip(select.order_by, positions))):
            key = itemgetter(position)
            if None in map(key, ordered):
                key = lambda row: (row[position] is None, row[position])
            ordered.sort(key=key, reverse=item.descending)
        return ordered

    def _limit(self, select: ast.Select, rows: list[tuple]) -> list[tuple]:
        start = select.offset or 0
        if select.limit is None:
            return rows[start:] if start else rows
        return rows[start:start + select.limit]
