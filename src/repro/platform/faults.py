"""Seeded fault injection for the platform pipeline.

The paper's platform lives off inherently unreliable crowd-sourced
contributors; this module makes that unreliability reproducible so the
fault-tolerance machinery (task leases with retry budgets, idempotent result
submission, the crash-safe store) can be driven by tests instead of waited
for in production.  Three wrappers share one seeded :class:`FaultInjector`:

* :class:`UnreliableClient` wraps any driver ``PlatformClient`` and injects
  *transport* faults: requests dropped before the server sees them,
  responses dropped after the server processed them (the at-least-once
  crux), duplicated deliveries, and artificial delays,
* :class:`FlakyEngine` wraps an engine and injects *execution* faults
  (queries that randomly raise), exercising the error -> retry -> dead-letter
  path of the task lifecycle,
* :meth:`FaultInjector.store_hook` plugs into ``Store.fault_hook`` and
  injects *crashes* inside multi-row store transactions, exercising the
  all-or-nothing batch guarantees.

Every decision comes from one seeded ``random.Random`` behind a lock, and
every injected fault is counted in :attr:`FaultInjector.counts`, so a chaos
run can assert both that the faults actually fired and that the accounting
invariants survived them.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, fields

from repro.errors import TransportError


class SimulatedCrash(Exception):
    """Raised by an injected store crash (deliberately *not* a SqalpelError).

    It models the process dying mid-transaction, so nothing in the library
    catches it as a domain error; only the transport boundary converts it
    into a retryable :class:`~repro.errors.TransportError`.
    """


@dataclass(frozen=True)
class FaultConfig:
    """Per-fault-kind probabilities in [0, 1] (all default to never)."""

    #: request lost before the server sees it (claim/submission never lands).
    drop_request: float = 0.0
    #: server processed the request but the response is lost -- the client
    #: must retry a request whose effects already happened.
    drop_response: float = 0.0
    #: the request is delivered twice (the duplicate's outcome is discarded).
    duplicate: float = 0.0
    #: artificial latency of up to ``max_delay_seconds`` around a request.
    delay: float = 0.0
    max_delay_seconds: float = 0.01
    #: a query execution raises instead of returning rows.
    fail_task: float = 0.0
    #: the store "crashes" inside a multi-row transaction.
    store_crash: float = 0.0


class FaultInjector:
    """Seeded, thread-safe source of fault decisions with per-kind counts."""

    def __init__(self, config: FaultConfig | None = None, seed: int = 0):
        self.config = config or FaultConfig()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.counts: dict[str, int] = {f.name: 0 for f in fields(FaultConfig)
                                       if f.name != "max_delay_seconds"}

    def fire(self, kind: str) -> bool:
        """Roll the dice for fault ``kind``; count and report a hit."""
        probability = getattr(self.config, kind)
        with self._lock:
            if probability <= 0.0 or self._rng.random() >= probability:
                return False
            self.counts[kind] += 1
            return True

    def total(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    def maybe_delay(self) -> None:
        if self.fire("delay"):
            with self._lock:
                pause = self._rng.uniform(0.0, self.config.max_delay_seconds)
            time.sleep(pause)

    def store_hook(self, point: str) -> None:
        """``Store.fault_hook`` adapter: crash the store at write/commit points."""
        if self.fire("store_crash"):
            raise SimulatedCrash(f"injected store crash at {point}")


class UnreliableClient:
    """A ``PlatformClient`` decorator that injects transport faults.

    The wrapped client keeps the exact protocol, so a ``BatchRunner`` (or any
    other driver) runs against it unchanged -- its retry/backoff and the
    platform's idempotency keys are what must absorb the injected faults.
    """

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    def _call(self, name: str, *args, **kwargs):
        self.injector.maybe_delay()
        if self.injector.fire("drop_request"):
            raise TransportError(f"injected fault: {name} request dropped "
                                 "before delivery")
        method = getattr(self.inner, name)
        try:
            outcome = method(*args, **kwargs)
            if self.injector.fire("duplicate"):
                # the network delivered the same request twice; the second
                # delivery's outcome (or failure) is invisible to the caller.
                try:
                    method(*args, **kwargs)
                except Exception:
                    pass
        except SimulatedCrash as exc:
            raise TransportError(f"injected fault: server crashed during "
                                 f"{name}: {exc}") from exc
        if self.injector.fire("drop_response"):
            raise TransportError(f"injected fault: {name} response dropped "
                                 "after processing")
        return outcome

    # -- PlatformClient protocol --------------------------------------------------

    def next_tasks(self, experiment_id, count=1, dbms=None):
        return self._call("next_tasks", experiment_id, count=count, dbms=dbms)

    def submit_results(self, results):
        return self._call("submit_results", results)

    def results(self, experiment_id):
        return self._call("results", experiment_id)


class FlakyEngine:
    """An engine decorator whose ``execute`` randomly raises.

    ``measure_query`` records the raised error as a first-class failed
    outcome; the platform then burns one lease of the task's retry budget,
    re-queues it, and dead-letters it once the budget is exhausted.
    """

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    def execute(self, query, **kwargs):
        if self.injector.fire("fail_task"):
            raise RuntimeError("injected fault: query execution failed")
        return self.inner.execute(query, **kwargs)

    def __getattr__(self, name):
        # label/options/strategy/prepare/... all delegate unchanged.
        return getattr(self.inner, name)
