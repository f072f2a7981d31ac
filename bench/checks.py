"""Output checks: the books after a drain, and row-vs-column answers.

A violation is a line in the run's ``problems``; any line makes the run
``correct: false`` and its exit code 1.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from pathlib import Path

from repro.platform.models import TaskStatus
from repro.tpch import QUERIES

GOLDENS = Path(__file__).with_name("goldens.json")


def _same_value(left, right) -> bool:
    numeric = (int, float)
    if (isinstance(left, numeric) and isinstance(right, numeric)
            and not isinstance(left, bool) and not isinstance(right, bool)):
        return math.isclose(left, right, rel_tol=1e-6, abs_tol=1e-6)
    return left == right


def check_parity(p, records) -> tuple[list[str], list[str]]:
    """Row and column answers agree per SQL text; row counts match the goldens.

    Returns ``(problems, notes)``; a note lists a column whose *values* agree
    while the two engines return different Python types for it.
    """
    problems, notes = [], []
    goldens = json.loads(GOLDENS.read_text()).get(str(p.size.scale_factor))
    if goldens is None:
        problems.append(f"no golden row counts for SF {p.size.scale_factor}")
        goldens = {}
    reported: dict[str, set[int]] = defaultdict(set)
    for record in records:
        if record.error is None:
            reported[record.query_sql].add(record.extras.get("rows"))
    for number in p.spec.queries:
        sql = QUERIES[number]
        answers = [engine.execute(sql).rows for engine in p.engines]
        expected = goldens.get(str(number))
        for engine, rows in zip(p.engines, answers):
            if len(rows) != expected:
                problems.append(f"Q{number} on {engine.label}: {len(rows)} rows, "
                                f"golden {expected}")
        if reported[sql] != {expected}:
            problems.append(f"Q{number}: contributors reported row counts "
                            f"{sorted(reported[sql], key=str)}, golden {expected}")
        first, *others = answers
        for other in others:
            if len(first) != len(other) or any(
                    len(a) != len(b) or not all(map(_same_value, a, b))
                    for a, b in zip(first, other)):
                problems.append(f"Q{number}: engines disagree")
            elif first:
                for column, (a, b) in enumerate(zip(first[0], other[0])):
                    if type(a) is not type(b):
                        notes.append(f"Q{number} column {column}: "
                                     f"{type(a).__name__} vs {type(b).__name__}")
    return problems, notes


def check_outputs(p, experiment, clients) -> tuple[dict, list[str], list]:
    """The books after a drain; returns ``(facts, problems, result records)``."""
    tasks = p.store.tasks(experiment.id)
    records = p.store.results(experiment.id)
    counters = p.service.metrics.snapshot()["counters"]
    problems = []
    done = [task for task in tasks if task.status == TaskStatus.DONE.value]
    dead = [task for task in tasks if task.status == TaskStatus.DEAD_LETTER.value]
    stranded = len(tasks) - len(done) - len(dead)
    if stranded:
        problems.append(f"{stranded} published tasks are not terminal")
    if counters.get("results.accepted", 0) != len(records):
        problems.append(f"{len(records)} result rows for "
                        f"{counters.get('results.accepted', 0)} accepted submissions")
    keys = [record.idempotency_key for record in records]
    if None in keys or len(set(keys)) != len(keys) \
            or p.store.idempotency_size() != len(keys):
        problems.append("idempotency keys are not one per result row")
    successes = Counter(record.task_id for record in records if record.error is None)
    if any(successes[task.id] != 1 for task in done) or len(successes) != len(done):
        problems.append("done tasks and successful results are not one to one")
    leases = Counter(lease for client in clients for lease in client.leases)
    shared = [lease for lease, holders in leases.items() if holders > 1]
    if shared:
        problems.append(f"{len(shared)} (task, attempt) leases handed out twice")
    undelivered = sum(len(client.leases) - client.acknowledged for client in clients)
    if undelivered:
        problems.append(f"{undelivered} submissions were not acknowledged")

    variants = {task.query_sql for task in tasks}
    facts = {
        "tasks": len(tasks),
        "done": len(done),
        "failed_operations": stranded + undelivered,
        "claimed": sum(leases.values()),
        "pool.invalid_share": len({task.query_sql for task in dead}) / len(variants),
        "service.tasks_retried": counters.get("tasks.retried", 0),
        "service.dead_lettered": counters.get("tasks.dead_lettered", 0),
        "service.stale": counters.get("results.stale", 0),
        "service.deduplicated": counters.get("results.deduplicated", 0),
        "obs.spans_shipped_bytes": sum(
            len(json.dumps(record.extras["spans"]))
            for record in records if "spans" in record.extras),
    }
    return facts, problems, records
