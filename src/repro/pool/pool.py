"""The query pool.

Section 3.2: "In contrast to systems such as RAGS that only randomly
generates queries in a brute force manner, we use a query pool.  It is
populated with the baseline query and some queries constructed from randomly
choosen templates.  Once a collection has been defined, we can extend the
pool by morphing queries based on observed behavior."

A :class:`QueryPool` holds :class:`PoolEntry` objects: the concrete query, how
it came to be (seed / alter / expand / prune and its parent), and the
observed results per target system.  The pool guarantees uniqueness by the
query's canonical key ("The result is added to the pool unless it was already
known").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.model import Grammar
from repro.core.normalize import normalize
from repro.core.render import ConcreteQuery, QueryRenderer
from repro.core.templates import DEFAULT_TEMPLATE_LIMIT, TemplateGenerator
from repro.errors import SqalpelError
from repro.pool.guidance import Guidance


@dataclass
class Observation:
    """One measured execution of a pool entry on a target system."""

    system: str
    elapsed: float
    error: str | None = None
    repeats: list[float] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class PoolEntry:
    """One query in the pool plus its provenance and observations."""

    query: ConcreteQuery
    origin: str = "seed"          # seed | random | alter | expand | prune
    parent_key: tuple | None = None
    sequence: int = 0
    observations: list[Observation] = field(default_factory=list)

    @property
    def key(self) -> tuple:
        return self.query.key

    @property
    def sql(self) -> str:
        return self.query.sql

    def observed_systems(self) -> set[str]:
        return {observation.system for observation in self.observations}

    def best_time(self, system: str) -> float | None:
        """Fastest successful observation on ``system`` (None when unmeasured)."""
        times = [
            observation.elapsed
            for observation in self.observations
            if observation.system == system and not observation.failed
        ]
        return min(times) if times else None

    def has_error(self, system: str | None = None) -> bool:
        """True when any (or the given) system reported an error for this query."""
        return any(
            observation.failed
            and (system is None or observation.system == system)
            for observation in self.observations
        )


class QueryPool:
    """The set of candidate queries of one experiment."""

    def __init__(self, grammar: Grammar, template_limit: int = DEFAULT_TEMPLATE_LIMIT,
                 seed: int = 0):
        self.grammar = grammar
        self.normalized = normalize(grammar)
        self.renderer = QueryRenderer(self.normalized)
        self.rng = random.Random(seed)
        enumeration = TemplateGenerator(self.normalized, limit=template_limit).enumerate()
        self.templates = list(enumeration.templates)
        self.truncated = enumeration.truncated
        self._entries: dict[tuple, PoolEntry] = {}
        self._sequence = 0

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PoolEntry]:
        return iter(self._entries.values())

    def __contains__(self, query: ConcreteQuery) -> bool:
        return query.key in self._entries

    def entries(self) -> list[PoolEntry]:
        """Entries in insertion order."""
        return list(self._entries.values())

    def entry(self, key: tuple) -> PoolEntry:
        return self._entries[key]

    # -- population ---------------------------------------------------------------

    def add(self, query: ConcreteQuery, origin: str = "seed",
            parent: PoolEntry | None = None) -> PoolEntry | None:
        """Add ``query`` unless it is already known; return the new entry (or None)."""
        if query.key in self._entries:
            return None
        entry = PoolEntry(
            query=query,
            origin=origin,
            parent_key=parent.key if parent is not None else None,
            sequence=self._sequence,
        )
        self._sequence += 1
        self._entries[query.key] = entry
        return entry

    def seed_baseline(self) -> PoolEntry:
        """Add the baseline query: the largest template filled with every literal.

        The baseline of an extracted grammar is the original user query; it
        corresponds to the template that uses every lexical class as often as
        the grammar allows.
        """
        if not self.templates:
            raise SqalpelError("the grammar produced no templates")
        baseline_template = max(self.templates, key=lambda template: template.size())
        assignment = []
        used: set[tuple[str, int]] = set()
        for slot in baseline_template.slots:
            pool = [
                literal
                for literal in self.normalized.literals_by_rule.get(slot.rule, [])
                if literal.key not in used
            ]
            literal = pool[0]
            used.add(literal.key)
            assignment.append(literal)
        query = self.renderer.render(baseline_template, assignment)
        entry = self.add(query, origin="seed")
        return entry if entry is not None else self._entries[query.key]

    def seed_random(self, count: int, guidance: Guidance | None = None) -> list[PoolEntry]:
        """Add up to ``count`` random queries from randomly chosen templates."""
        guidance = guidance or Guidance()
        added: list[PoolEntry] = []
        attempts = 0
        while len(added) < count and attempts < count * 20:
            attempts += 1
            template = self.rng.choice(self.templates)
            query = self.renderer.render(template, rng=self.rng)
            if not guidance.allows(query):
                continue
            entry = self.add(query, origin="random")
            if entry is not None:
                added.append(entry)
        return added

    # -- results -----------------------------------------------------------------------

    def record(self, entry: PoolEntry, system: str, elapsed: float,
               error: str | None = None, repeats: list[float] | None = None,
               metadata: dict | None = None) -> Observation:
        """Attach a measured observation to ``entry``."""
        observation = Observation(system=system, elapsed=elapsed, error=error,
                                  repeats=repeats or [], metadata=metadata or {})
        entry.observations.append(observation)
        return observation

    def measure(self, engine, repeats: int = 3, timeout: float | None = None,
                entries: list[PoolEntry] | None = None) -> list[Observation]:
        """Measure ``entries`` (default: all) on ``engine`` via prepared plans.

        Each entry's query is prepared once through the engine's plan cache
        and the prepared plan is executed ``repeats`` times, so the morph/
        re-measure cycle never re-parses or re-plans a query it has already
        seen.  Every outcome (including failures) is recorded as an
        :class:`Observation` on its entry.
        """
        from repro.driver.runner import measure_query

        observations: list[Observation] = []
        for entry in entries if entries is not None else self.entries():
            outcome = measure_query(engine, entry.sql, repeats=repeats, timeout=timeout)
            # a failure's kind sits where the platform keeps it on a result
            metadata = outcome.extras if outcome.error is None \
                else {**outcome.extras, "error_kind": outcome.error_kind}
            observations.append(
                self.record(entry, engine.label, outcome.best or 0.0,
                            error=outcome.error, repeats=outcome.times,
                            metadata=metadata)
            )
        return observations

    # -- selections ----------------------------------------------------------------------

    def unmeasured(self, system: str) -> list[PoolEntry]:
        """Entries that have no observation yet for ``system``."""
        return [entry for entry in self if system not in entry.observed_systems()]

    def measured(self, system: str) -> list[PoolEntry]:
        """Entries with at least one successful observation on ``system``."""
        return [entry for entry in self if entry.best_time(system) is not None]

    def errors(self) -> list[PoolEntry]:
        """Entries for which any system reported an error."""
        return [entry for entry in self if entry.has_error()]

    def pick(self, rng: random.Random | None = None) -> PoolEntry:
        """Randomly pick an entry ("We randomly pick a query from the pool")."""
        rng = rng or self.rng
        return rng.choice(self.entries())

    def discriminative(self, system_a: str, system_b: str, top: int = 10
                       ) -> list[tuple[PoolEntry, float]]:
        """Entries ranked by |log speed ratio| between the two systems.

        These are the paper's *discriminative queries*: the ones whose
        relative performance between A and B deviates most from parity.
        """
        import math

        ranked: list[tuple[PoolEntry, float]] = []
        for entry in self:
            time_a = entry.best_time(system_a)
            time_b = entry.best_time(system_b)
            if not time_a or not time_b:
                continue
            ranked.append((entry, math.log(time_a / time_b)))
        ranked.sort(key=lambda pair: abs(pair[1]), reverse=True)
        return ranked[:top]
