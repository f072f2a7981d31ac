"""Morsel-driven worker pool for chunk-parallel query execution.

The column executor has one pipeline whose unit of work is a *morsel*; how
many a block has is a run-time fact.  Serial execution is one morsel, run
inline.  The storage layer's fixed-size chunks (:data:`~repro.engine.storage.
table.DEFAULT_CHUNK_ROWS` rows of typed segments, each with its own zone map)
are the unit a block that fans out is split by: :func:`chunk_ranges`
partitions the scan's surviving chunks into contiguous per-worker ranges, and
every stage -- selection refinement, residual filter, partial aggregation --
runs its morsels as tasks on the pool (:func:`run_tasks`); the per-morsel
results (and their trace span lanes) combine deterministically, in morsel
order, on the coordinating thread.

The pool itself is shared process-wide, created lazily on first use and
sized by the largest ``EngineOptions.workers`` seen so far, so repeated
queries (and multiple engines) reuse the same threads instead of paying
thread start-up per query.  Tasks must be pure functions of their inputs:
workers never submit nested tasks (the executor only parallelises
subquery-free single-table blocks), which keeps the pool deadlock-free.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs.metrics import MetricsContext, current_metrics

#: thread-name prefix of pool workers; also the re-entrancy guard marker.
THREAD_PREFIX = "repro-morsel"

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_size = 0


def get_pool(workers: int) -> ThreadPoolExecutor:
    """The shared executor, grown (never shrunk) to at least ``workers``."""
    global _pool, _pool_size
    with _lock:
        if _pool is None or _pool_size < workers:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(max_workers=workers,
                                       thread_name_prefix=THREAD_PREFIX)
            _pool_size = workers
        return _pool


def pool_size() -> int:
    """Current pool capacity (0 = not created yet)."""
    return _pool_size


def shutdown_pool() -> None:
    """Tear the shared pool down (tests / interpreter shutdown hygiene)."""
    global _pool, _pool_size
    with _lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
            _pool = None
            _pool_size = 0


def run_tasks(workers: int, tasks: Sequence[Callable[[], Any]]) -> list:
    """Run ``tasks`` on the shared pool, returning results in task order.

    Single-task lists (and calls that already run on a pool thread, which
    would otherwise risk pool starvation) execute inline.  The first task
    exception propagates to the caller after every future has settled.
    What the tasks count (:func:`repro.obs.metrics.count`) lands in the
    caller's metrics context, as if they had run inline.
    """
    if len(tasks) <= 1 or workers <= 1 \
            or threading.current_thread().name.startswith(THREAD_PREFIX):
        return [task() for task in tasks]
    pool = get_pool(workers)
    metrics = current_metrics()
    if metrics is None:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]
    # pool threads do not inherit the caller's context: each task counts
    # into a context of its own, folded into the query's once it is done.
    futures = [pool.submit(_counted, task) for task in tasks]
    results = []
    for future in futures:
        result, counters = future.result()
        for name, amount in counters.items():
            metrics.count(name, amount)
        results.append(result)
    return results


def _counted(task: Callable[[], Any]) -> tuple[Any, dict[str, float]]:
    """Run ``task`` under a fresh metrics context; return what it counted."""
    local = MetricsContext()
    with local.activate():
        return task(), local.counters


def chunk_ranges(chunk_count: int, survivors: np.ndarray | None, workers: int
                 ) -> list[tuple[int, int, np.ndarray]]:
    """Partition a table's chunks into per-worker morsel ranges.

    Returns ``(start_chunk, stop_chunk, surviving_chunks)`` triples that tile
    ``[0, chunk_count)`` contiguously; ``surviving_chunks`` is the ascending
    subset of the range the zone maps could not refute (``survivors=None``
    means nothing was refuted).  Work is balanced by *surviving* chunk count,
    while refuted chunks are attributed to the range containing them so the
    per-range ``scanned + skipped`` sums reproduce the table totals exactly.
    """
    if survivors is None:
        survivors = np.arange(chunk_count, dtype=np.int64)
    else:
        survivors = np.asarray(survivors, dtype=np.int64)
    effective = min(int(workers), len(survivors))
    if effective <= 1:
        return [(0, chunk_count, survivors)]
    pieces = np.array_split(survivors, effective)
    ranges = []
    for index, piece in enumerate(pieces):
        start = 0 if index == 0 else int(pieces[index][0])
        stop = chunk_count if index == effective - 1 else int(pieces[index + 1][0])
        ranges.append((start, stop, piece))
    return ranges
