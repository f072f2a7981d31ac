"""Grammar normalisation.

The paper (Section 3.1): "Internally, the grammar is normalized by making a
clear distinction between rules producing lexical tokens, only governing
alternative text snippets, and all others."

The normalised view classifies every rule as *lexical* or *structural*,
resolves which lexical classes are reachable from each structural rule, and
pre-computes the literal inventory used by the template generator and the
space counter.  Normalisation never mutates the input grammar; it produces a
:class:`NormalizedGrammar` wrapper that the rest of the core layer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.model import Grammar, Literal, Rule
from repro.errors import GrammarValidationError


@dataclass
class NormalizedGrammar:
    """A read-only, classified view over a :class:`Grammar`.

    Attributes
    ----------
    grammar:
        The underlying grammar (not copied).
    lexical:
        Names of lexical token rules.
    structural:
        Names of structural rules.
    literals:
        All literals, in definition order.
    literals_by_rule:
        Literals grouped per lexical rule.
    reachable:
        For every rule, the set of rule names reachable from it (including
        itself) following references.
    reachable_lexical:
        For every rule, the set of *lexical* rule names reachable from it.
    """

    grammar: Grammar
    lexical: set[str] = field(default_factory=set)
    structural: set[str] = field(default_factory=set)
    literals: list[Literal] = field(default_factory=list)
    literals_by_rule: dict[str, list[Literal]] = field(default_factory=dict)
    reachable: dict[str, set[str]] = field(default_factory=dict)
    reachable_lexical: dict[str, set[str]] = field(default_factory=dict)

    # -- convenience accessors ---------------------------------------------

    @property
    def start(self) -> str:
        """Name of the start rule."""
        assert self.grammar.start is not None
        return self.grammar.start

    def is_lexical(self, name: str) -> bool:
        """Return True when ``name`` denotes a lexical token rule."""
        return name in self.lexical

    def rule(self, name: str) -> Rule:
        """Return the underlying rule object for ``name``."""
        return self.grammar[name]

    def literal_count(self, rule_name: str) -> int:
        """Return how many literal alternatives lexical rule ``rule_name`` has."""
        return len(self.literals_by_rule.get(rule_name, []))

    def tag_count(self) -> int:
        """Total number of lexical literals in the grammar (Table 2 "tag")."""
        return len(self.literals)


def normalize(grammar: Grammar, strict: bool = True) -> NormalizedGrammar:
    """Classify the rules of ``grammar`` and pre-compute reachability.

    Parameters
    ----------
    grammar:
        The grammar to normalise.
    strict:
        When True (the default) references to undefined rules raise
        :class:`GrammarValidationError`; when False they are recorded as
        unreachable lexical-free rules so :func:`repro.core.validate.validate`
        can report them as findings instead.
    """
    lexical: set[str] = set()
    structural: set[str] = set()
    for rule in grammar:
        if rule.is_lexical():
            lexical.add(rule.name)
        else:
            structural.add(rule.name)

    missing: list[str] = []
    for rule in grammar:
        for referenced in sorted(rule.referenced_names()):
            if referenced not in grammar:
                missing.append(
                    f"rule '{rule.name}' references undefined rule '{referenced}'"
                )
    if missing and strict:
        raise GrammarValidationError(missing)

    literals_by_rule: dict[str, list[Literal]] = {}
    literals: list[Literal] = []
    for rule in grammar:
        if rule.name in lexical:
            rule_literals = rule.literals()
            literals_by_rule[rule.name] = rule_literals
            literals.extend(rule_literals)

    reachable = {rule.name: _reachable_from(grammar, rule.name) for rule in grammar}
    reachable_lexical = {
        name: {target for target in targets if target in lexical}
        for name, targets in reachable.items()
    }

    return NormalizedGrammar(
        grammar=grammar,
        lexical=lexical,
        structural=structural,
        literals=literals,
        literals_by_rule=literals_by_rule,
        reachable=reachable,
        reachable_lexical=reachable_lexical,
    )


def _reachable_from(grammar: Grammar, origin: str) -> set[str]:
    """Return the set of rule names reachable from ``origin`` (including it)."""
    seen: set[str] = set()
    frontier = [origin]
    while frontier:
        name = frontier.pop()
        if name in seen or name not in grammar:
            continue
        seen.add(name)
        frontier.extend(grammar[name].referenced_names())
    return seen
