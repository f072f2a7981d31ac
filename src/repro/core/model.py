"""Object model for SQALPEL query-space grammars.

A grammar is a named set of :class:`Rule` objects.  Each rule has one or more
:class:`Alternative` bodies; an alternative is a sequence of :class:`Part`
objects which are either free text (:class:`Text`) or references to other
rules (:class:`Reference`).  References come in three flavours, mirroring the
EBNF-like encoding used by the paper (Figure 1):

* ``${name}``   -- a mandatory reference,
* ``$[name]``   -- an optional reference,
* ``${name}*``  -- a repeated reference (zero or more occurrences).

Rules whose every alternative consists purely of text are *lexical token
rules*: their alternatives are the literal tokens (predicates, column names,
expressions, ...) that are later injected into query templates.  By the
paper's convention such rules are named with an ``l_`` prefix, but the
normaliser (:mod:`repro.core.normalize`) classifies them structurally, so the
prefix is a convention rather than a requirement.

Every literal alternative carries the grammar line number it was defined on.
The paper differentiates repeated identical literals "by their line number in
the grammar"; the line number therefore acts as the literal's identity for the
at-most-once rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Text:
    """A free-text fragment of an alternative (SQL keywords, punctuation...)."""

    value: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Reference:
    """A reference to another grammar rule inside an alternative.

    Parameters
    ----------
    name:
        The referenced rule name.
    optional:
        True for ``$[name]`` references.
    repeated:
        True for ``${name}*`` references.
    """

    name: str
    optional: bool = False
    repeated: bool = False

    def marker(self) -> str:
        """Return the DSL surface syntax for this reference."""
        if self.optional:
            return f"$[{self.name}]"
        rendered = f"${{{self.name}}}"
        if self.repeated:
            rendered += "*"
        return rendered

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.marker()


# A part of an alternative is either free text or a reference.
Part = Text | Reference


@dataclass(frozen=True)
class Literal:
    """A lexical literal: one alternative of a lexical token rule.

    The pair ``(rule, line)`` identifies the literal.  Two textually identical
    literals defined on different grammar lines are distinct literals, exactly
    as in the paper ("they are simply differentiated by their line number in
    the grammar").
    """

    rule: str
    text: str
    line: int

    @property
    def key(self) -> tuple[str, int]:
        """Stable identity of the literal inside its grammar."""
        return (self.rule, self.line)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.text


@dataclass
class Alternative:
    """One production alternative of a grammar rule."""

    parts: list[Part]
    line: int = 0

    def references(self) -> list[Reference]:
        """Return the rule references appearing in this alternative, in order."""
        return [part for part in self.parts if isinstance(part, Reference)]

    def referenced_names(self) -> set[str]:
        """Return the set of rule names referenced by this alternative."""
        return {ref.name for ref in self.references()}

    def is_textual(self) -> bool:
        """Return True when the alternative contains no references at all."""
        return not self.references()

    def text(self) -> str:
        """Render the alternative back to its DSL surface form."""
        rendered: list[str] = []
        for part in self.parts:
            if isinstance(part, Text):
                rendered.append(part.value)
            else:
                rendered.append(part.marker())
        return "".join(rendered).strip()

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.text()


@dataclass
class Rule:
    """A named grammar rule with one or more alternatives.

    ``dialects`` optionally maps a dialect name (e.g. ``"monetdb"``) to an
    alternative list that replaces ``alternatives`` when the grammar is
    specialised for that dialect.  Dialect sections are only meaningful for
    lexical rules (the paper: "minor differences in syntax are easily
    accommodated using dialect sections for the lexical tokens").
    """

    name: str
    alternatives: list[Alternative] = field(default_factory=list)
    line: int = 0
    dialects: dict[str, list[Alternative]] = field(default_factory=dict)

    def is_lexical(self) -> bool:
        """Return True when every alternative is pure text (a token rule)."""
        return bool(self.alternatives) and all(
            alternative.is_textual() for alternative in self.alternatives
        )

    def referenced_names(self) -> set[str]:
        """Return every rule name referenced from any alternative."""
        names: set[str] = set()
        for alternative in self.alternatives:
            names |= alternative.referenced_names()
        return names

    def literals(self) -> list[Literal]:
        """Return the literals of a lexical rule (empty for structural rules)."""
        if not self.is_lexical():
            return []
        return [
            Literal(rule=self.name, text=alternative.text(), line=alternative.line)
            for alternative in self.alternatives
        ]

    def alternatives_for(self, dialect: str | None) -> list[Alternative]:
        """Return the alternatives to use for ``dialect`` (default when None)."""
        if dialect and dialect in self.dialects:
            return self.dialects[dialect]
        return self.alternatives


@dataclass
class Grammar:
    """A SQALPEL query-space grammar.

    The first rule defined in the source text is the *start rule* unless an
    explicit ``start`` name is given.  Iterating a grammar yields its rules in
    definition order.
    """

    rules: dict[str, Rule] = field(default_factory=dict)
    start: str | None = None
    name: str = "grammar"
    source: str = ""

    def __post_init__(self) -> None:
        if self.start is None and self.rules:
            self.start = next(iter(self.rules))

    # -- container protocol -------------------------------------------------

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules.values())

    def __len__(self) -> int:
        return len(self.rules)

    def __contains__(self, name: str) -> bool:
        return name in self.rules

    def __getitem__(self, name: str) -> Rule:
        return self.rules[name]

    # -- construction helpers ------------------------------------------------

    def add_rule(self, rule: Rule) -> None:
        """Add ``rule`` to the grammar, keeping the first rule as start rule."""
        self.rules[rule.name] = rule
        if self.start is None:
            self.start = rule.name

    @classmethod
    def from_rules(cls, rules: Iterable[Rule], start: str | None = None,
                   name: str = "grammar") -> "Grammar":
        """Build a grammar from an iterable of rules."""
        grammar = cls(rules={}, start=None, name=name)
        for rule in rules:
            grammar.add_rule(rule)
        if start is not None:
            grammar.start = start
        return grammar

    # -- queries ---------------------------------------------------------------

    def lexical_rules(self) -> list[Rule]:
        """Return the lexical token rules in definition order."""
        return [rule for rule in self if rule.is_lexical()]

    def literals(self) -> list[Literal]:
        """Return all lexical literals of the grammar in definition order."""
        found: list[Literal] = []
        for rule in self.lexical_rules():
            found.extend(rule.literals())
        return found

    def tag_count(self) -> int:
        """Return the total number of lexical literals ("tags") in the grammar."""
        return sum(len(rule.alternatives) for rule in self.lexical_rules())

    def dialect_names(self) -> set[str]:
        """Return every dialect name used by any rule of the grammar."""
        names: set[str] = set()
        for rule in self:
            names |= set(rule.dialects)
        return names
