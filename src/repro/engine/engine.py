"""Engine facades: the "target systems" experiments run against.

An :class:`Engine` couples a :class:`Database` with an execution strategy and
a set of :class:`EngineOptions` feature flags.  Engines are what the platform
registers in its DBMS catalog and what the experiment driver executes queries
on; two engines (or two differently-configured versions of one engine) are
the systems A and B of the paper's discriminative-benchmarking story.

Execution follows a *plan-once/execute-many* pipeline: :meth:`Engine.prepare`
lexes, parses and plans a query into a shared :class:`QueryPlan` exactly once
(consulting a keyed LRU :class:`PlanCache`), and :meth:`Engine.execute`
accepts either raw SQL, a parsed AST, or a prepared plan.  The driver's
five-repetition loop and the pool's morph/re-measure cycle therefore pay the
front-end cost once per distinct query, not once per execution.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace

from repro.engine.compile import column_shape, row_pipeline
from repro.engine.database import Database
from repro.engine.executor_column import (
    ColumnExecutor,
    describe_column_pipeline,
    require_from_items,
)
from repro.engine.executor_row import RowExecutor, describe_pipeline, null_free_columns
from repro.engine.plan import PlanCache, Planner, QueryPlan, normalize_sql
from repro.engine.result import QueryResult
from repro.errors import EngineError
from repro.obs import NULL_SPAN, MetricsContext, QueryTrace, format_plan, format_trace
from repro.obs.metrics import count as count_metric
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_select
from repro.sqlparser.printer import to_sql

#: default number of plans an engine keeps in its LRU plan cache.
DEFAULT_PLAN_CACHE_SIZE = 128

#: ``EXPLAIN [ANALYZE] <select>`` prefix accepted by :meth:`Engine.execute`.
_EXPLAIN_RE = re.compile(r"^\s*explain(\s+analyze)?\b\s*", re.IGNORECASE)


@dataclass(frozen=True)
class EngineOptions:
    """Feature flags distinguishing engine versions.

    Attributes
    ----------
    predicate_pushdown:
        Apply single-table predicates while scanning instead of after joins.
    hash_joins:
        Use hash joins for equi-join conditions (nested loops otherwise).
    overflow_guard:
        Column engine only: widen and materialise arithmetic intermediates,
        mimicking the overflow-guarded expression evaluation the paper's
        MonetDB Q1 anecdote describes.
    compile_expressions:
        Lower each prepared plan once instead of walking the AST with the
        recursive interpreter per row / per operator: on the row engine one
        generated Python function per query block (index probes or hash
        builds, the join loop nest, filters and aggregation fused), on the
        column engine column kernels.  Either is cached on the
        :class:`QueryPlan`, so the plan cache amortises compilation.

    Every field is an engine version the platform can be asked to measure,
    so there is none for what has one value in use: predicates always refine
    a selection vector, nullable typed columns always travel as ``(values,
    validity)`` pairs, the column engine's scans always skip the chunks their
    zone maps refute and always evaluate string predicates over dictionary
    codes, and a block always runs on one thread (see the README's "Knobs").
    """

    predicate_pushdown: bool = True
    hash_joins: bool = True
    overflow_guard: bool = False
    compile_expressions: bool = True

    def describe(self) -> dict[str, bool]:
        """Return the options as a plain dict (for platform catalog entries)."""
        return {
            "predicate_pushdown": self.predicate_pushdown,
            "hash_joins": self.hash_joins,
            "overflow_guard": self.overflow_guard,
            "compile_expressions": self.compile_expressions,
        }


@dataclass
class Engine:
    """Base class: a named engine bound to a database instance."""

    database: Database
    name: str = "engine"
    version: str = "1.0"
    options: EngineOptions = field(default_factory=EngineOptions)
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE
    _plan_cache: PlanCache | None = field(default=None, init=False, repr=False,
                                          compare=False)
    _planner: Planner | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def label(self) -> str:
        """Human-readable ``name-version`` label used in results and figures."""
        return f"{self.name}-{self.version}"

    @property
    def planner(self) -> Planner:
        """The engine's logical planner (bound to its catalog and options)."""
        if self._planner is None:
            self._planner = Planner(self.database.catalog,
                                    predicate_pushdown=self.options.predicate_pushdown)
        return self._planner

    @property
    def plan_cache(self) -> PlanCache:
        """The engine's keyed plan cache (per engine instance, LRU)."""
        if self._plan_cache is None:
            self._plan_cache = PlanCache(self.plan_cache_size)
        return self._plan_cache

    # -- public API -----------------------------------------------------------

    def prepare(self, query: str | ast.Select | QueryPlan) -> QueryPlan:
        """Plan ``query`` once, consulting the plan cache for SQL text input.

        Passing an already-prepared plan returns it unchanged, so callers can
        uniformly write ``engine.execute(engine.prepare(sql))`` loops.

        This is the engine's verdict on the text: whatever it would refuse
        without reading a row -- a text that does not parse
        (:class:`~repro.errors.SQLError`), a table the catalog does not hold
        (:class:`~repro.errors.CatalogError`), a sort key outside the select
        list, a FROM item or join kind no executor runs
        (:class:`~repro.errors.PlanError`) -- is raised here.  A refused text is
        never cached and never reaches :meth:`execute`, which can only fail on
        the data (:func:`repro.errors.error_kind` ``"execution"``).
        """
        return self._prepare_profiled(query, {}, None)

    def _prepare_profiled(self, query: str | ast.Select | QueryPlan,
                          phases: dict, trace: QueryTrace | None) -> QueryPlan:
        """Plan ``query``, recording phase timings and plan-cache counters.

        Fills ``phases['planning']`` / ``phases['compile']`` (seconds) and
        attributes ``plan_cache.hits`` / ``plan_cache.misses`` (or
        ``plan.prepared`` for an already-prepared plan) to the active
        metrics context, so plan-cache hits are visibly cheaper in profiles.
        """
        if isinstance(query, QueryPlan):
            phases["planning"] = 0.0
            phases["compile"] = 0.0
            count_metric("plan.prepared")
            return query
        if isinstance(query, ast.Select):
            started = time.perf_counter()
            with self._span(trace, "plan"):
                plan = self.planner.plan(query, sql_text=to_sql(query))
            phases["planning"] = time.perf_counter() - started
            started = time.perf_counter()
            with self._span(trace, "compile"):
                self._precompile(plan)
            phases["compile"] = time.perf_counter() - started
            return plan
        started = time.perf_counter()
        key = normalize_sql(query)
        plan = self.plan_cache.get(key)
        if plan is not None:
            phases["planning"] = time.perf_counter() - started
            phases["compile"] = 0.0
            count_metric("plan_cache.hits")
            if trace is not None:
                with trace.span("plan", plan_cache="hit"):
                    pass
            return plan
        count_metric("plan_cache.misses")
        with self._span(trace, "parse"):
            select = parse_select(query)
        with self._span(trace, "plan", plan_cache="miss"):
            plan = self.planner.plan(select, sql_text=query)
        phases["planning"] = time.perf_counter() - started
        started = time.perf_counter()
        with self._span(trace, "compile"):
            self._precompile(plan)
        phases["compile"] = time.perf_counter() - started
        self.plan_cache.put(key, plan)
        return plan

    @staticmethod
    def _span(trace: QueryTrace | None, name: str, **attributes):
        if trace is None:
            return NULL_SPAN
        return trace.span(name, **attributes)

    def execute(self, query: str | ast.Select | QueryPlan,
                trace: bool = False) -> QueryResult:
        """Execute ``query`` and return a :class:`QueryResult`.

        ``elapsed`` covers physical execution only; planning (and parsing)
        happens in :meth:`prepare` and is amortised by the plan cache --
        the per-phase split is on ``result.phases``.  Every result carries a
        per-query :class:`MetricsContext` on ``result.metrics``; pass
        ``trace=True`` (or prefix the SQL with ``EXPLAIN ANALYZE``) to also
        attach a :class:`QueryTrace` span tree on ``result.trace``.

        SQL text may be prefixed with ``EXPLAIN`` (render the logical plan
        without executing) or ``EXPLAIN ANALYZE`` (execute with tracing and
        render the annotated span tree); either returns the rendering as a
        single-column ``plan`` result.
        """
        if isinstance(query, str):
            match = _EXPLAIN_RE.match(query)
            if match:
                body = query[match.end():]
                if match.group(1):
                    return self._explain_analyze(body)
                return self._explain_plan(body)
        return self._run(query, trace=trace)

    def _run(self, query: str | ast.Select | QueryPlan, trace: bool) -> QueryResult:
        metrics = MetricsContext()
        sql = query if isinstance(query, str) else getattr(query, "sql", "")
        query_trace = QueryTrace(sql=sql, engine=self.label) if trace else None
        phases: dict[str, float] = {}
        with metrics.activate():
            plan = self._prepare_profiled(query, phases, query_trace)
            started = time.perf_counter()
            if query_trace is None:  # keep the traced-off hot path lean
                columns, rows = self._execute_plan(plan)
            else:
                with query_trace.span("execute") as span:
                    columns, rows = self._execute_plan(plan, trace=query_trace)
                    span.set(rows_out=len(rows))
            elapsed = time.perf_counter() - started
        phases["execute"] = elapsed
        if query_trace is not None:
            query_trace.root.rows_out = len(rows)
            query_trace.finish()
        return QueryResult(columns=columns, rows=rows, elapsed=elapsed,
                           engine=self.label, phases=phases, metrics=metrics,
                           trace=query_trace)

    def _explain_plan(self, sql: str) -> QueryResult:
        """``EXPLAIN <select>``: render the logical plan without executing."""
        plan = self.prepare(sql)
        lines = format_plan(plan, engine=self.label)
        for pipeline in self.pipelines(plan):
            lines += self._pipeline_lines(pipeline)
        return QueryResult(columns=["plan"], rows=[(line,) for line in lines],
                           engine=self.label)

    def _explain_analyze(self, sql: str) -> QueryResult:
        """``EXPLAIN ANALYZE <select>``: execute with tracing, render the tree."""
        result = self._run(sql, trace=True)
        lines = format_trace(result.trace)
        phases = result.phases
        cache = "hit" if result.metrics.get("plan_cache.hits") else "miss"
        lines.append(f"planning: {phases.get('planning', 0.0) * 1000:.3f} ms "
                     f"(plan cache {cache}), "
                     f"compile: {phases.get('compile', 0.0) * 1000:.3f} ms, "
                     f"execute: {phases.get('execute', 0.0) * 1000:.3f} ms")
        counters = result.metrics.snapshot()
        if counters:
            rendered = ", ".join(f"{name}={value}"
                                 for name, value in sorted(counters.items()))
            lines.append(f"metrics: {rendered}")
        return QueryResult(columns=["plan"], rows=[(line,) for line in lines],
                           elapsed=result.elapsed, engine=self.label,
                           phases=dict(phases), metrics=result.metrics,
                           trace=result.trace)

    def explain(self, query: str | ast.Select | QueryPlan) -> dict:
        """Return a light-weight description of how the engine would run ``query``."""
        plan = self.prepare(query)
        select = plan.select
        return {
            "engine": self.label,
            "strategy": self.strategy(),
            "tables": [ref.name for ref in select.table_refs()],
            "aggregated": select.has_aggregates() or bool(select.group_by),
            "subqueries": len(select.subqueries()),
            "options": self.options.describe(),
            "plan": plan.root.describe(),
            "plan_cache": self.plan_cache.describe(),
            "plan_tree": format_plan(plan, engine=self.label),
            "pipelines": self.pipelines(plan),
        }

    def pipelines(self, plan: QueryPlan) -> list[dict]:
        """Per query block, how it runs: the row engine's generated pipeline
        (with ``compile_expressions``; interpreted, it has none to show), the
        column engine's join access paths."""
        return []

    def _pipeline_lines(self, pipeline: dict) -> list[str]:
        """EXPLAIN's lines for one entry of :meth:`pipelines`."""
        raise NotImplementedError

    def cache_stats(self) -> dict:
        """Hit/miss/eviction statistics of the plan cache."""
        return self.plan_cache.describe()

    def clear_plan_cache(self) -> None:
        """Drop every cached plan (e.g. after the database schema changed)."""
        self.plan_cache.clear()

    def with_version(self, version: str, **option_overrides) -> "Engine":
        """Return a new engine sharing the database but with different options.

        The new engine starts with an empty plan cache: plans depend on the
        options (e.g. push-down), so cached plans never leak across versions.
        """
        options = replace(self.options, **option_overrides)
        return type(self)(database=self.database, name=self.name, version=version,
                          options=options, plan_cache_size=self.plan_cache_size)

    # -- overridables ------------------------------------------------------------

    def strategy(self) -> str:
        """Execution-model label ('row' or 'column')."""
        raise NotImplementedError

    def _execute_plan(self, plan: QueryPlan,
                      trace: QueryTrace | None = None) -> tuple[list[str], list[tuple]]:
        """Run a prepared plan on this engine's physical backend."""
        raise NotImplementedError

    def _precompile(self, plan: QueryPlan) -> None:
        """Eagerly compile the plan's blocks (so execution timing excludes it).

        Compilation is best-effort: what the compiler cannot lower stays on
        the interpreter, and no compile failure may break a query that
        interprets fine.  The one thing it may raise is the backend's own
        refusal of a text the shared planner accepts (a
        :class:`~repro.errors.PlanError`, as :meth:`prepare` documents).
        """
        raise NotImplementedError


class RowEngine(Engine):
    """Tuple-at-a-time engine (the "row store" target system)."""

    def __init__(self, database: Database, name: str = "rowstore", version: str = "1.0",
                 options: EngineOptions | None = None,
                 plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE):
        super().__init__(database=database, name=name, version=version,
                         options=options or EngineOptions(),
                         plan_cache_size=plan_cache_size)

    def strategy(self) -> str:
        return "row"

    def pipelines(self, plan: QueryPlan) -> list[dict]:
        if not self.options.compile_expressions:
            return []
        return [describe_pipeline(block, self._row_pipeline(plan, block))
                for block in plan.blocks.values()]

    def _row_pipeline(self, plan: QueryPlan, block):
        """The flavour an execution against the database as it is now runs."""
        return row_pipeline(plan, block, self.options.hash_joins,
                            null_free_columns(self.database, block))

    def _pipeline_lines(self, pipeline: dict) -> list[str]:
        header = f"block ({', '.join(pipeline['output'])}): "
        if not pipeline["generated"]:
            return [f"{header}interpreted -- {pipeline['fallback']}"]
        return [f"{header}generated pipeline {pipeline['file']}, "
                f"{' + '.join(pipeline['fused'])} fused over "
                f"{pipeline['driving'] or 'one empty row'}"
                + (f", window {pipeline['window']}" if pipeline["window"] else ""),
                *(f"  join {side['source']}: {side['join']}"
                  f"{', built per execution' if side['built'] else ''}"
                  for side in pipeline["joins"]),
                *([f"  NULL-free scans: {', '.join(pipeline['null_free'])}"]
                  if pipeline["null_free"] else []),
                *([f"  aggregate arguments: " + ", ".join(
                    f"{sum(fold['fold'] == kind for fold in pipeline['folds'])} {kind}"
                    for kind in ("builtin", "comprehension", "loop"))]
                  if pipeline["folds"] else []),
                *(f"  bound once per run: {name}" for name in pipeline["hoisted"]),
                *(f"  interpreted per row: {text}" for text in pipeline["interpreted"]),
                *(f"  | {line}" for line in pipeline["source"].splitlines())]

    def _precompile(self, plan: QueryPlan) -> None:
        if self.options.compile_expressions:
            for block in plan.blocks.values():
                self._row_pipeline(plan, block)  # never raises

    def _execute_plan(self, plan: QueryPlan,
                      trace: QueryTrace | None = None) -> tuple[list[str], list[tuple]]:
        # executors are cheap, per-call shells (thread-safe under the batched
        # driver); the expensive analysis lives in the shared plan.
        executor = RowExecutor(
            self.database,
            predicate_pushdown=self.options.predicate_pushdown,
            hash_joins=self.options.hash_joins,
            compile_expressions=self.options.compile_expressions,
            plan=plan,
            trace=trace,
        )
        return executor.execute(plan)


class ColumnEngine(Engine):
    """Vectorised engine (the "column store" target system)."""

    def __init__(self, database: Database, name: str = "columnstore", version: str = "1.0",
                 options: EngineOptions | None = None,
                 plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE):
        super().__init__(database=database, name=name, version=version,
                         options=options or EngineOptions(),
                         plan_cache_size=plan_cache_size)

    def strategy(self) -> str:
        return "column"

    def pipelines(self, plan: QueryPlan) -> list[dict]:
        return [describe_column_pipeline(block, column_shape(plan, block))
                for block in plan.blocks.values()]

    def _pipeline_lines(self, pipeline: dict) -> list[str]:
        return [f"block ({', '.join(pipeline['output'])}): column pipeline over "
                f"{pipeline['driving'] or 'one empty row'}"
                + (f", window {pipeline['window']}" if pipeline["window"] else ""),
                *(f"  join {side['source']}: {side['join']}" for side in pipeline["joins"])]

    def _precompile(self, plan: QueryPlan) -> None:
        require_from_items(plan.select)
        # each block's kernels and scans, kept on the plan: built here, not
        # inside its first execution
        self._executor(plan).warm_scans(plan)

    def driving_scans(self, plan: QueryPlan) -> list[dict | None]:
        """Per block of ``plan``, where its driving scan starts
        (:meth:`ColumnState.driving_scan`), read from the plan-owned state
        an execution against the tables as they are would use."""
        executor = self._executor(plan)
        return [executor.state(block).driving_scan(self.database)
                for block in plan.blocks.values()]

    def _executor(self, plan: QueryPlan, trace: QueryTrace | None = None) -> ColumnExecutor:
        return ColumnExecutor(
            self.database,
            predicate_pushdown=self.options.predicate_pushdown,
            hash_joins=self.options.hash_joins,
            overflow_guard=self.options.overflow_guard,
            compile_expressions=self.options.compile_expressions,
            plan=plan,
            trace=trace,
        )

    def _execute_plan(self, plan: QueryPlan,
                      trace: QueryTrace | None = None) -> tuple[list[str], list[tuple]]:
        return self._executor(plan, trace).execute(plan)


_ENGINE_KINDS = {
    "rowstore": RowEngine,
    "row": RowEngine,
    "columnstore": ColumnEngine,
    "column": ColumnEngine,
}


def create_engine(kind: str, database: Database, version: str = "1.0",
                  options: EngineOptions | None = None) -> Engine:
    """Create an engine of ``kind`` ('rowstore' or 'columnstore') over ``database``."""
    try:
        factory = _ENGINE_KINDS[kind.lower()]
    except KeyError:
        raise EngineError(
            f"unknown engine kind '{kind}' (expected one of {', '.join(sorted(set(_ENGINE_KINDS)))})"
        ) from None
    return factory(database=database, version=version, options=options)
