"""SQL lexer.

Splits SQL text into a flat list of :class:`Token` objects.  The lexer is
deliberately dialect-agnostic: keywords are recognised case-insensitively but
their original spelling is preserved, identifiers keep their case, and string
literals keep their quotes so the extractor can reproduce the original text
verbatim inside grammar literals.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import SQLSyntaxError

#: Keywords the parser attaches meaning to.  Everything else that looks like a
#: word is an identifier (which covers function names such as ``sum``).
KEYWORDS = frozenset(
    {
        "select", "distinct", "all", "from", "where", "group", "by", "having",
        "order", "limit", "offset", "as", "and", "or", "not", "in", "exists",
        "between", "like", "is", "null", "case", "when", "then", "else", "end",
        "join", "inner", "left", "right", "full", "outer", "cross", "on",
        "union", "except", "intersect", "asc", "desc", "date", "interval",
        "cast", "extract", "substring", "for", "with", "true", "false", "any", "some",
        "nulls", "first", "last", "fetch", "rows", "row", "only", "values",
    }
)


class TokenKind(enum.Enum):
    """Lexical categories produced by :func:`tokenize`."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    EOF = "eof"


class Token(NamedTuple):
    """One lexical token.

    ``value`` is the canonical value (keywords lower-cased, strings without
    quotes); ``text`` is the original source spelling.
    """

    kind: TokenKind
    value: str
    text: str
    position: int
    line: int

    def is_keyword(self, *names: str) -> bool:
        """Return True when the token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Token({self.kind.name}, {self.text!r})"


#: Blanks, then one alternative per kind of lexeme, tried in this order.
#: (Blanks take no backtracking: the ones that end the text match nothing.)
#: A block comment ends at the first ``*/`` from its own ``*`` on (``/*/`` is
#: a whole one); a string's ``''`` is an escaped quote, and the possessive
#: repeat gives none of it back, so ``'a''`` is unterminated -- as is any
#: quote or ``/*`` the alternatives before ``open`` do not close.  Letters
#: and digits are what ``\w`` and ``\d`` take: outside ASCII a non-decimal
#: digit (``²``) or another numeric character (``½``) is a letter.
_LEXEME = re.compile(r"""\s*+(?:
    (?P<comment>--[^\n]*)
  | (?P<block>/\*(?:/|.*?\*/))
  | (?P<string>'(?:[^']|'')*+')
  | (?P<quoted>"[^"]*")
  | (?P<open>/\*|['"])
  | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE](?:[+-]|(?=\d))\d*)?)
  | (?P<word>[^\W\d]\w*)
  | (?P<operator><>|<=|>=|!=|\|\||[-=<>+*/%])
  | (?P<punctuation>[(),.;])
  | (?P<other>.)
)""", re.VERBOSE | re.DOTALL)

#: the lexemes that are a token spelled as its value.
_VERBATIM = {"number": TokenKind.NUMBER, "operator": TokenKind.OPERATOR,
             "punctuation": TokenKind.PUNCTUATION}
_UNTERMINATED = {"'": "unterminated string literal", '"': "unterminated quoted identifier",
                 "/*": "unterminated block comment"}


def tokenize(sql: str) -> list[Token]:
    """Tokenise ``sql`` into a list of tokens terminated by an EOF token.

    Raises :class:`SQLSyntaxError` on unterminated strings, quoted
    identifiers and block comments and on unexpected characters.  A token's
    ``line`` counts the line breaks in the blanks and block comments before
    it (not those inside a string or quoted identifier).
    """
    tokens: list[Token] = []
    append = tokens.append
    line, end = 1, 0
    for match in _LEXEME.finditer(sql):
        kind = match.lastgroup
        start, end = match.span(kind)
        if start != match.start():
            line += sql.count("\n", match.start(), start)
        text = match[kind]
        if kind == "word":
            lowered = text.lower()
            if lowered in KEYWORDS:
                append(Token(TokenKind.KEYWORD, lowered, text, start, line))
            else:
                append(Token(TokenKind.IDENTIFIER, text, text, start, line))
        elif kind in _VERBATIM:
            append(Token(_VERBATIM[kind], text, text, start, line))
        elif kind == "block":
            line += text.count("\n")
        elif kind == "string":
            append(Token(TokenKind.STRING, text[1:-1].replace("''", "'"), text, start, line))
        elif kind == "quoted":
            append(Token(TokenKind.IDENTIFIER, text[1:-1], text, start, line))
        elif kind == "open":
            raise SQLSyntaxError(_UNTERMINATED[text], position=start, line=line)
        elif kind == "other":
            raise SQLSyntaxError(f"unexpected character {text!r}", position=start, line=line)
    append(Token(TokenKind.EOF, "", "", len(sql), line + sql.count("\n", end)))
    return tokens
