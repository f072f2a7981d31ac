"""Parser and serialiser for the textual SQALPEL grammar language.

The surface syntax follows Figure 1 of the paper::

    query:
        SELECT ${projection} FROM ${l_tables} $[l_filter]
    projection:
        ${l_count}
        ${l_column} ${columnlist}*
    l_tables:
        nation
    ...

* A rule starts with an identifier followed by ``:`` at the beginning of a
  line.  Everything indented below it (until the next rule header) is the list
  of alternatives, one per line.
* Inside an alternative, ``${name}`` is a mandatory reference, ``$[name]`` an
  optional reference and ``${name}*`` a repeated reference.  All other text is
  kept verbatim.
* A dialect section for a lexical rule is written as ``name@dialect:``; its
  alternatives replace the default ones when the grammar is specialised for
  that dialect (:func:`repro.core.dialect.apply_dialect`).
* ``#`` starts a comment that runs to the end of the line; blank lines are
  ignored.

:func:`parse_grammar` produces a :class:`repro.core.model.Grammar`;
:func:`serialize_grammar` renders a grammar back to this format so grammars
can be stored, edited by the project owner and re-parsed (the platform stores
grammars in this textual form).
"""

from __future__ import annotations

import re

from repro.core.model import Alternative, Grammar, Part, Reference, Rule, Text
from repro.errors import GrammarSyntaxError

_RULE_HEADER = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)(?:@(?P<dialect>[A-Za-z_][A-Za-z0-9_.\-]*))?\s*:\s*(?P<rest>.*)$"
)
_REFERENCE = re.compile(r"\$\{(?P<braced>[A-Za-z_][A-Za-z0-9_]*)\}(?P<star>\*)?|\$\[(?P<optional>[A-Za-z_][A-Za-z0-9_]*)\]")


def _strip_comment(line: str) -> str:
    """Remove a ``#`` comment unless the ``#`` is part of a quoted string."""
    in_single = False
    in_double = False
    for index, char in enumerate(line):
        if char == "'" and not in_double:
            in_single = not in_single
        elif char == '"' and not in_single:
            in_double = not in_double
        elif char == "#" and not in_single and not in_double:
            return line[:index]
    return line


def parse_alternative(text: str, line: int = 0) -> Alternative:
    """Parse a single alternative body into its parts.

    The function is exposed for tests and for the extractor, which builds
    alternatives programmatically from SQL fragments but occasionally needs
    to re-parse template text.
    """
    parts: list[Part] = []
    position = 0
    for match in _REFERENCE.finditer(text):
        if match.start() > position:
            parts.append(Text(text[position:match.start()]))
        if match.group("optional") is not None:
            parts.append(Reference(match.group("optional"), optional=True))
        else:
            parts.append(
                Reference(match.group("braced"), repeated=match.group("star") is not None)
            )
        position = match.end()
    if position < len(text):
        parts.append(Text(text[position:]))
    if not parts:
        parts.append(Text(""))
    return Alternative(parts=parts, line=line)


def parse_grammar(source: str, name: str = "grammar", start: str | None = None) -> Grammar:
    """Parse SQALPEL grammar DSL text into a :class:`Grammar`.

    Parameters
    ----------
    source:
        The grammar text.
    name:
        A display name stored on the grammar (projects use the experiment name).
    start:
        Optional explicit start rule; defaults to the first rule defined.

    Raises
    ------
    GrammarSyntaxError
        For malformed rule headers, alternatives defined before any rule
        header, dialect sections of unknown rules, or an empty grammar.
    """
    grammar = Grammar(rules={}, start=None, name=name, source=source)
    current: Rule | None = None
    current_dialect: str | None = None

    for lineno, raw_line in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw_line).rstrip()
        if not line.strip():
            continue

        indented = line[0] in (" ", "\t")
        header = None if indented else _RULE_HEADER.match(line.strip())

        if header is not None:
            rule_name = header.group("name")
            dialect = header.group("dialect")
            rest = header.group("rest").strip()
            if dialect:
                if rule_name not in grammar.rules:
                    raise GrammarSyntaxError(
                        f"dialect section '{rule_name}@{dialect}' appears before rule "
                        f"'{rule_name}' is defined",
                        line=lineno,
                    )
                current = grammar.rules[rule_name]
                current_dialect = dialect
                current.dialects.setdefault(dialect, [])
            else:
                if rule_name in grammar.rules:
                    raise GrammarSyntaxError(
                        f"rule '{rule_name}' is defined more than once", line=lineno
                    )
                current = Rule(name=rule_name, alternatives=[], line=lineno)
                current_dialect = None
                grammar.add_rule(current)
            if rest:
                _append_alternative(current, current_dialect, rest, lineno)
            continue

        if current is None:
            raise GrammarSyntaxError(
                "alternative found before any rule header", line=lineno
            )
        _append_alternative(current, current_dialect, line.strip(), lineno)

    if not grammar.rules:
        raise GrammarSyntaxError("the grammar does not define any rule")
    if start is not None:
        if start not in grammar.rules:
            raise GrammarSyntaxError(f"start rule '{start}' is not defined")
        grammar.start = start
    return grammar


def _append_alternative(rule: Rule, dialect: str | None, text: str, lineno: int) -> None:
    """Attach the alternative ``text`` to ``rule`` (or one of its dialect sections)."""
    alternative = parse_alternative(text, line=lineno)
    if dialect is None:
        rule.alternatives.append(alternative)
    else:
        rule.dialects[dialect].append(alternative)


def serialize_grammar(grammar: Grammar, indent: str = "    ") -> str:
    """Render ``grammar`` back to the textual DSL.

    The output is stable: rules come out in definition order, alternatives one
    per indented line, dialect sections directly after their base rule.
    Re-parsing the output yields an equivalent grammar (the round-trip
    property is covered by property-based tests).
    """
    lines: list[str] = []
    for rule in grammar:
        lines.append(f"{rule.name}:")
        for alternative in rule.alternatives:
            lines.append(f"{indent}{alternative.text()}")
        for dialect, alternatives in sorted(rule.dialects.items()):
            lines.append(f"{rule.name}@{dialect}:")
            for alternative in alternatives:
                lines.append(f"{indent}{alternative.text()}")
    return "\n".join(lines) + "\n"


#: The grammar of Figure 1 in the paper, used by examples, tests and benches.
FIGURE1_GRAMMAR = """\
query:
    SELECT ${projection} FROM ${l_tables} $[l_filter]
projection:
    ${l_count}
    ${l_column} ${columnlist}*
l_tables:
    nation
columnlist:
    , ${l_column}
l_column:
    n_nationkey
    n_name
    n_regionkey
    n_comment
l_count:
    count(*)
l_filter:
    WHERE n_name= 'BRAZIL'
"""
