"""A small identity-keyed memo for per-AST-node scan caches.

Plans keep their AST nodes alive for their own lifetime, so ``id()`` of a
predicate node is a stable, hashable key *while the entry holds a strong
reference to the node*: the memo stores the keys alongside the value, which
both guards against id reuse (CPython cannot recycle an id the memo still
references) and lets ``get`` verify identity before trusting a hit.  A
capacity clear bounds growth under many-distinct-query workloads (the
pool's morphing produces an unbounded stream of fresh predicates).

The memo is thread-safe: the batched driver's concurrent measurements hit
the same per-table caches from its threads, so
``get``/``put`` serialise on a per-memo lock (the critical sections are a
dict probe and an identity check -- far cheaper than the cached work).
"""

from __future__ import annotations

import threading
from typing import Any

#: default number of entries kept before the memo is dropped wholesale.
DEFAULT_MEMO_CAPACITY = 512


class IdentityMemo:
    """Maps tuples of objects (by identity) to cached values."""

    __slots__ = ("capacity", "_entries", "_lock")

    def __init__(self, capacity: int = DEFAULT_MEMO_CAPACITY):
        self.capacity = capacity
        self._entries: dict[tuple[int, ...], tuple[list, Any]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, keys: tuple) -> tuple[bool, Any]:
        """Return ``(hit, value)``; ``value`` may legitimately be None."""
        with self._lock:
            entry = self._entries.get(tuple(map(id, keys)))
            if entry is not None and all(a is b for a, b in zip(entry[0], keys)):
                return True, entry[1]
            return False, None

    def put(self, keys: tuple, value: Any) -> None:
        with self._lock:
            if len(self._entries) >= self.capacity:
                self._entries.clear()
            self._entries[tuple(map(id, keys))] = (list(keys), value)
