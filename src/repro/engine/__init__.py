"""Relational engine substrate.

The paper runs experiments against real DBMSs (MonetDB and any JDBC system);
this reproduction substitutes two pure-Python engines that understand the
same SQL dialect but differ fundamentally in execution model:

* :class:`RowEngine` -- a tuple-at-a-time interpreter (row store, nested-loop
  and hash joins, per-row expression interpretation),
* :class:`ColumnEngine` -- a vectorised engine over numpy column arrays
  (column store, bulk filters, hash joins on key vectors, vectorised
  expression evaluation).

Both are configurable with :class:`EngineOptions` feature flags so an
experiment can also compare two *versions* of the same engine (e.g. with and
without predicate push-down, or with the overflow-guarded expression
evaluation that the paper's MonetDB anecdote describes).

The shared pieces are the catalog (:class:`Catalog`), the chunked columnar
storage subsystem (:mod:`repro.engine.storage`: fixed-size chunks of typed
segments with null masks and zone maps, every string column
dictionary-encoded, and aggregated table statistics, fronted by
:class:`Database`), the SQL
front-end (:mod:`repro.sqlparser`) and the logical plan layer
(:mod:`repro.engine.plan`): a :class:`Planner` analyses each query once into
a :class:`QueryPlan` that both physical backends consume (ordering scan
predicates by statistics-estimated selectivity), and the engines over a
database share its keyed LRU :class:`PlanCache` so repeated executions --
the driver's five-repetition loop, the pool's morph/re-measure cycle, the
other engine -- parse and plan exactly once per distinct query.

On top of the plan sits the compiler (:mod:`repro.engine.compile`): each
prepared plan is lowered once -- one generated Python function per query
block for the row engine, selection-vector column kernels for the column
engine -- cached on the plan and toggled by the ``compile_expressions``
engine option.  The column engine runs every block through one pipeline
(scan -> refine -> join -> aggregate or project, see
:mod:`repro.engine.executor_column`): its scans skip the storage chunks their
zone maps refute and evaluate string predicates over dictionary codes.
"""

from repro.engine.catalog import Catalog, ColumnDef, TableSchema
from repro.engine.compile import (
    ColumnContext,
    CompileFallback,
    compile_column_block,
    compile_column_kernel,
    compile_row_block,
    compile_row_kernel,
)
from repro.engine.database import ColumnarTable, Database
from repro.engine.storage import (
    DEFAULT_CHUNK_ROWS,
    StorageTable,
    TableStatistics,
    ZoneMap,
)
from repro.engine.plan import (
    BlockPlan,
    JoinStep,
    PlanCache,
    PlanCacheStats,
    Planner,
    QueryPlan,
    normalize_sql,
)
from repro.engine.result import QueryResult
from repro.engine.engine import (
    DEFAULT_PLAN_CACHE_SIZE,
    ColumnEngine,
    Engine,
    EngineOptions,
    RowEngine,
    create_engine,
)

__all__ = [
    "Catalog",
    "ColumnDef",
    "TableSchema",
    "ColumnContext",
    "CompileFallback",
    "compile_column_block",
    "compile_column_kernel",
    "compile_row_block",
    "compile_row_kernel",
    "ColumnarTable",
    "Database",
    "DEFAULT_CHUNK_ROWS",
    "StorageTable",
    "TableStatistics",
    "ZoneMap",
    "QueryResult",
    "BlockPlan",
    "JoinStep",
    "PlanCache",
    "PlanCacheStats",
    "Planner",
    "QueryPlan",
    "normalize_sql",
    "DEFAULT_PLAN_CACHE_SIZE",
    "Engine",
    "EngineOptions",
    "RowEngine",
    "ColumnEngine",
    "create_engine",
]
