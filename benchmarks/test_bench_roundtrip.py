"""Round-trip benchmark: the Python calls one HTTP exchange of the
contributor loop costs, on both ends of the connection.

SQALPEL's remote driver asks the platform for tasks and reports their
timings over HTTP; the ``deep-queue`` workload is thousands of those
exchanges.  What a round trip costs beside its payload is the framing: the
request line and headers written and parsed, the WSGI environ built, the
response written and parsed.  It is gated on counts, not on timings, the way
``test_bench_prepare.py`` gates a prepare: every Python function call (a
profiler ``call`` event, standard library included) made on the client's
thread plus the server's handler thread of its kept connection, for

* one warm ``GET /api/ping``, and
* one warm ``next_tasks(count=8)`` plus the ``submit_results`` of those 8.

The client thread is profiled with ``sys.setprofile``, the handler thread
with ``threading.setprofile`` (installed before the connection, so its
thread starts with it); only calls made while the exchange runs are
counted, and the handler thread is left to wait for its next request
before counting starts and after the exchange, so the counts repeat exactly.
The service runs on an in-memory store with default telemetry and a
frozen clock, so the calls do not depend on how long a lease took.

Each gate is its count with 10 % of headroom.  The counts are the
interpreter's, so the gates hold on CPython 3.11, the CI version.  A run
writes ``BENCH_roundtrip.json`` into the shared ``artifact_dir``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import uuid
from collections import Counter

import pytest

from repro.driver.client import HTTPClient
from repro.platform.models import Task, new_submission
from repro.platform.service import PlatformService
from repro.platform.webapp import PlatformServer

#: one warm ping, client and handler thread together: 63 measured, 10 % of
#: headroom (369 when ``http.client``, ``http.server`` and ``wsgiref`` framed it).
PING_CALLS_GATE = 70
#: one warm claim of 8 plus the submission of their 8 results: 905 measured,
#: 10 % of headroom (1 598 with the standard library's framing, the lease
#: sweep in a transaction of its own and one idempotency read per result;
#: 953 while the store built a ``json.JSONEncoder`` per row body).
CLAIM_SUBMIT_CALLS_GATE = 996

BATCH = 8


class _Profiler:
    """Counts ``call`` events per thread while :attr:`on` is set."""

    def __init__(self) -> None:
        self.on = False
        self.calls: Counter = Counter()

    def __call__(self, _frame, event, _arg) -> None:
        if self.on and event == "call":
            self.calls[threading.get_ident()] += 1

    def measure(self, exchange) -> int:
        # the handler thread finishes its previous turn and waits for the
        # next request before counting starts, and answers this one before
        # it stops.
        time.sleep(0.1)
        self.calls.clear()
        self.on = True
        exchange()
        time.sleep(0.1)
        self.on = False
        return sum(self.calls.values())


@pytest.fixture(scope="module")
def counted() -> dict:
    service = PlatformService(clock=lambda: 1_000_000.0)
    owner = service.register_user("owner", "owner@example.org")
    contributor = service.register_user("worker", "worker@example.org")
    service.register_dbms("columnstore", "1.0")
    project = service.create_project(owner, "round-trips")
    service.invite_contributor(owner, project, contributor)
    experiment = service.add_experiment(owner, project, "exp", "select count(*) from t",
                                        repeats=1, timeout_seconds=3600.0)
    service.store.insert_many("tasks", [
        Task(experiment_id=experiment.id, query_sql=f"select {number}",
             query_key=f"q{number}", dbms_label="columnstore-1.0", host_name="laptop",
             timeout_seconds=3600.0, max_attempts=experiment.max_attempts)
        for number in range(2 * BATCH)])
    profiler = _Profiler()

    def claim_and_submit(measure) -> int:
        tasks: list[dict] = []
        calls = measure(lambda: tasks.extend(client.next_tasks(experiment.id, count=BATCH)))
        assert len(tasks) == BATCH
        results = [new_submission(task["id"], times=[0.001], attempt=task["attempts"],
                                  idempotency_key=uuid.uuid4().hex) for task in tasks]
        acknowledged: list = []
        calls += measure(lambda: acknowledged.extend(client.submit_results(results)))
        assert len(acknowledged) == BATCH and all(acknowledged)
        return calls

    with PlatformServer(service) as server:
        previous = sys.getprofile()
        threading.setprofile(profiler)
        sys.setprofile(profiler)
        try:
            client = HTTPClient(server.url, contributor.contributor_key)
            client.ping()  # the connection, its handler thread, warm
            client.ping()
            claim_and_submit(lambda exchange: exchange() or 0)
            found = {"ping": profiler.measure(client.ping),
                     "claim_submit": claim_and_submit(profiler.measure)}
            client._close()
        finally:
            sys.setprofile(previous)
            threading.setprofile(None)
    return found


def test_round_trip_calls_stay_within_their_gates(counted, artifact_dir):
    print(f"round-trip calls: ping {counted['ping']}, "
          f"claim {BATCH} + submit {BATCH} {counted['claim_submit']}")
    (artifact_dir / "BENCH_roundtrip.json").write_text(json.dumps({
        "batch": BATCH,
        "gates": {"ping": PING_CALLS_GATE, "claim_submit": CLAIM_SUBMIT_CALLS_GATE},
        "calls": counted,
    }, indent=2))
    assert counted["ping"] <= PING_CALLS_GATE
    assert counted["claim_submit"] <= CLAIM_SUBMIT_CALLS_GATE
