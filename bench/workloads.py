"""The four workloads: what each publishes, at which size, and why.

Every workload is the same closed loop (set-up -> publish -> drain ->
analytics, see :mod:`bench.harness`); they differ only in the inputs below.

What ``--seed`` varies.  A pool grown from another morpher seed is another
amount of work -- between seeds 4 to 23 of 36 Q1 variants are invalid and the
row engine's total differs by 1.6x -- so a seed-grown pool cannot be compared
across seeds within any useful bound.  The pool *composition* is therefore
pinned by :data:`POOL_SEED`, and ``--seed`` draws what the queue looks like:
the host names the tasks are published for and the order in which the
(dbms, host) combinations -- or, for fixed texts, the single tasks -- enter
the queue.  The ``workload_digest`` covers the resulting ordered
``(sql, dbms, host)`` list, so it moves with the seed *and* with any change
to the grammar extractor, the renderer or the morpher.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

#: morpher / pool seed shared by every run, so the work is the same work.
POOL_SEED = 7

#: queries claimed per round trip (the driver's documented default).
BATCH_SIZE = 8

#: the run length ``BENCHMARK.json`` asks for; ``Size.rounds`` is sized for it.
RUN_SECONDS = 20


@dataclass(frozen=True)
class Size:
    """Input sizes of one workload at one ``--scale``."""

    scale_factor: float
    hosts: int
    #: pool workloads: ``seed_random(pool_random)`` then ``grow_to(pool_size)``.
    pool_random: int = 0
    pool_size: int = 0
    #: rounds a run of :data:`RUN_SECONDS` makes (``--seconds`` scales it).  A
    #: constant, not whatever fits on the day: times are minima over rounds,
    #: so both sides of a comparison must take the same number of samples.
    rounds: int = 1
    #: times a run sets up; ``setup_s`` is their median.
    setups: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    #: TPC-H query whose extracted grammar feeds the pool; None = fixed texts.
    baseline: int | None
    #: fixed TPC-H texts published as they are (``baseline`` is None).
    queries: tuple[int, ...]
    #: engines tasks are published for, in drain order ("row", "column").
    engines: tuple[str, ...]
    repeats: int
    #: contributors draining at once, each with its own runner thread and
    #: connection; 1 = one runner per engine, one after the other.
    contributors: int
    #: the program's own telemetry (driver spans, service spans, flight
    #: recorder, JSON logs, timeline stitching) fully on.
    telemetry: bool
    #: windows one drain's wall is sampled in: None = one per batch delivery
    #: (a single runner at a time delivers the same batches in the same order
    #: every round); a number for racing contributors, whose deliveries do not
    #: line up across rounds but whose tasks are all alike.
    windows: int | None
    full: Size
    smoke: Size

    def size(self, scale: str) -> Size:
        return self.smoke if scale == "smoke" else self.full


_Q1_FULL = Size(scale_factor=0.001, hosts=1, pool_random=8, pool_size=24,
                rounds=15, setups=9)
_Q1_SMOKE = Size(scale_factor=0.0005, hosts=1, pool_random=3, pool_size=8)

WORKLOADS: dict[str, Workload] = {spec.name: spec for spec in (
    Workload(
        name="q1-pool",
        baseline=1, queries=(), engines=("row", "column"), repeats=5,
        contributors=1, telemetry=False, windows=None, full=_Q1_FULL, smoke=_Q1_SMOKE),
    Workload(
        name="tpch-mix",
        baseline=None, queries=(3, 5, 6, 7, 8, 9, 10, 12, 14),
        engines=("row", "column"), repeats=5, contributors=1, telemetry=False,
        windows=None, full=Size(scale_factor=0.004, hosts=1, rounds=10, setups=5),
        smoke=Size(scale_factor=0.0005, hosts=1)),
    Workload(
        name="deep-queue",
        baseline=6, queries=(), engines=("column",), repeats=1,
        contributors=2, telemetry=False, windows=10,
        full=Size(scale_factor=0.001, hosts=125, pool_random=16, pool_size=16,
                  rounds=3, setups=9),
        smoke=Size(scale_factor=0.0005, hosts=6, pool_random=16, pool_size=16)),
    Workload(
        name="q1-pool-telemetry",
        baseline=1, queries=(), engines=("row", "column"), repeats=5,
        contributors=1, telemetry=True, windows=None, full=_Q1_FULL, smoke=_Q1_SMOKE),
)}


def host_names(seed: int, count: int) -> list[str]:
    """Fixed-width host names, so stored bytes do not move with the seed."""
    return [f"host-{seed % 10**6:06d}-{index:03d}" for index in range(count)]


def queue_order(seed: int, items: list) -> list:
    """``items`` in the seed's order (a copy; the same seed, the same order)."""
    ordered = list(items)
    random.Random(seed).shuffle(ordered)
    return ordered


def workload_digest(tasks) -> str:
    """sha256 over the ordered ``(sql, dbms, host)`` list of published tasks."""
    digest = hashlib.sha256()
    for task in tasks:
        for part in (task.query_sql, task.dbms_label, task.host_name):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")
    return digest.hexdigest()
