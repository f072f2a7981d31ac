"""Recursive-descent SQL parser.

Produces :mod:`repro.sqlparser.ast` nodes from SQL text.  The grammar covers
the SELECT dialect needed for TPC-H-style analytics (see the AST module
docstring for the feature list).  Errors raise
:class:`repro.errors.SQLSyntaxError` with the offending line number.
"""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.sqlparser import ast
from repro.sqlparser.lexer import Token, TokenKind, tokenize

_COMPARISON_OPERATORS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
_ADDITIVE_OPERATORS = frozenset({"+", "-", "||"})
_MULTIPLICATIVE_OPERATORS = frozenset({"*", "/", "%"})
_SIGNS = frozenset({"-", "+"})
_INTERVAL_UNITS = {"day", "month", "year", "week"}


class _Parser:
    """Stateful cursor over the token stream."""

    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.index = 0
        #: the token at ``index``: read on every step, so kept, not looked up.
        self.current: Token = self.tokens[0]
        #: the number the next SELECT opened gets.
        self.blocks = 0

    # -- cursor helpers -------------------------------------------------------

    def peek(self, offset: int = 1) -> Token:
        target = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[target]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.index += 1
            self.current = self.tokens[self.index]
        return token

    def error(self, message: str) -> SQLSyntaxError:
        token = self.current
        found = token.text or "<end of input>"
        return SQLSyntaxError(f"{message}, found {found!r}", position=token.position,
                              line=token.line)

    def accept_keyword(self, *names: str) -> bool:
        token = self.current
        if token.kind is TokenKind.KEYWORD and token.value in names:
            self.advance()
            return True
        return False

    def expect_keyword(self, name: str) -> Token:
        if not self.current.is_keyword(name):
            raise self.error(f"expected keyword {name.upper()}")
        return self.advance()

    def accept_punctuation(self, value: str) -> bool:
        token = self.current
        if token.kind is TokenKind.PUNCTUATION and token.value == value:
            self.advance()
            return True
        return False

    def expect_punctuation(self, value: str) -> Token:
        token = self.current
        if token.kind is not TokenKind.PUNCTUATION or token.value != value:
            raise self.error(f"expected {value!r}")
        return self.advance()

    def accept_operator(self, values: frozenset[str]) -> Token | None:
        token = self.current
        if token.kind is TokenKind.OPERATOR and token.value in values:
            return self.advance()
        return None

    # -- entry points -----------------------------------------------------------

    def parse(self) -> ast.Select:
        select = self.parse_select()
        self.accept_punctuation(";")
        if self.current.kind is not TokenKind.EOF:
            raise self.error("unexpected trailing input")
        return select

    # -- SELECT block -------------------------------------------------------------

    def parse_select(self) -> ast.Select:
        self.expect_keyword("select")
        block, self.blocks = self.blocks, self.blocks + 1  # numbered as opened
        distinct = bool(self.accept_keyword("distinct"))
        if not distinct:
            self.accept_keyword("all")

        items = self._comma_list(self._parse_select_item)
        from_items = self._comma_list(self._parse_joined_table) \
            if self.accept_keyword("from") else []
        where = self.parse_expression() if self.accept_keyword("where") else None
        group_by: list[ast.Expression] = []
        if self.current.is_keyword("group"):
            self.advance()
            self.expect_keyword("by")
            group_by = self._comma_list(self.parse_expression)
        having = self.parse_expression() if self.accept_keyword("having") else None
        order_by: list[ast.OrderItem] = []
        if self.current.is_keyword("order"):
            self.advance()
            self.expect_keyword("by")
            order_by = self._comma_list(self._parse_order_item)
        limit = offset = None
        if self.accept_keyword("limit"):
            limit = self._parse_integer("LIMIT")
            if self.accept_keyword("offset"):
                offset = self._parse_integer("OFFSET")
        else:
            if self.accept_keyword("offset"):
                offset = self._parse_integer("OFFSET")
                self.accept_keyword("rows")
            if self.accept_keyword("fetch"):
                self.accept_keyword("first")
                limit = self._parse_integer("FETCH FIRST")
                self.accept_keyword("rows")
                self.accept_keyword("row")
                self.expect_keyword("only")
        return ast.Select(items, from_items, where, group_by, having, order_by, limit,
                          offset, distinct, block)

    def _parse_integer(self, clause: str) -> int:
        token = self.current
        if token.kind is not TokenKind.NUMBER:
            raise self.error(f"expected an integer after {clause}")
        self.advance()
        try:
            return int(token.value)
        except ValueError:
            raise SQLSyntaxError(f"{clause} requires an integer, got {token.text!r}",
                                 position=token.position, line=token.line) from None

    def _comma_list(self, parse_item) -> list:
        """One ``parse_item()`` or more, separated by commas."""
        items = [parse_item()]
        while self.accept_punctuation(","):
            items.append(parse_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        if self.current.kind is TokenKind.OPERATOR and self.current.value == "*":
            self.advance()
            return ast.SelectItem(expression=ast.Star())
        expression = self.parse_expression()
        alias: str | None = None
        if self.accept_keyword("as"):
            alias = self._expect_name("alias")
        elif self.current.kind is TokenKind.IDENTIFIER:
            alias = self.advance().value
        return ast.SelectItem(expression=expression, alias=alias)

    def _expect_name(self, what: str) -> str:
        token = self.current
        if token.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD):
            self.advance()
            return token.text if token.kind is TokenKind.IDENTIFIER else token.value
        raise self.error(f"expected {what}")

    # -- FROM clause --------------------------------------------------------------

    def _parse_joined_table(self) -> ast.TableExpression:
        left = self._parse_table_primary()
        while True:
            kind: str | None = None
            if self.accept_keyword("cross"):
                self.expect_keyword("join")
                kind = "cross"
            elif self.current.is_keyword("inner", "left", "right", "full", "join"):
                if self.accept_keyword("inner"):
                    kind = "inner"
                elif self.accept_keyword("left"):
                    kind = "left"
                    self.accept_keyword("outer")
                elif self.accept_keyword("right"):
                    kind = "right"
                    self.accept_keyword("outer")
                elif self.accept_keyword("full"):
                    kind = "full"
                    self.accept_keyword("outer")
                else:
                    kind = "inner"
                self.expect_keyword("join")
            else:
                return left
            right = self._parse_table_primary()
            condition: ast.Expression | None = None
            if kind != "cross":
                self.expect_keyword("on")
                condition = self.parse_expression()
            left = ast.Join(left=left, right=right, kind=kind, condition=condition)

    def _parse_table_primary(self) -> ast.TableExpression:
        if self.accept_punctuation("("):
            if self.current.is_keyword("select"):
                subquery = self.parse_select()
                self.expect_punctuation(")")
                self.accept_keyword("as")
                alias = self._expect_name("derived-table alias")
                return ast.SubqueryRef(subquery=subquery, alias=alias)
            table = self._parse_joined_table()
            self.expect_punctuation(")")
            return table
        name = self._expect_name("table name")
        alias: str | None = None
        if self.accept_keyword("as"):
            alias = self._expect_name("alias")
        elif self.current.kind is TokenKind.IDENTIFIER:
            alias = self.advance().value
        return ast.TableRef(name=name, alias=alias)

    # -- ORDER BY -------------------------------------------------------------------

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self.parse_expression()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        if self.accept_keyword("nulls"):
            if not (self.accept_keyword("first") or self.accept_keyword("last")):
                raise self.error("expected FIRST or LAST after NULLS")
        return ast.OrderItem(expression=expression, descending=descending)

    # -- expressions ------------------------------------------------------------------
    #
    # precedence (loosest to tightest):
    #   OR, AND, NOT, comparison / IN / LIKE / BETWEEN / IS, additive,
    #   multiplicative, unary, primary

    def parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        operands = [self._parse_and()]
        while self.accept_keyword("or"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return ast.BoolOp(operator="or", operands=operands)

    def _parse_and(self) -> ast.Expression:
        operands = [self._parse_not()]
        while self.accept_keyword("and"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return operands[0]
        return ast.BoolOp(operator="and", operands=operands)

    def _parse_not(self) -> ast.Expression:
        if self.accept_keyword("not"):
            return ast.UnaryOp(operator="not", operand=self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        if self.current.is_keyword("exists"):
            self.advance()
            self.expect_punctuation("(")
            subquery = self.parse_select()
            self.expect_punctuation(")")
            return ast.Exists(subquery=subquery)

        left = self._parse_additive()
        if self.current.kind is not TokenKind.KEYWORD:
            return self._parse_comparison(left)

        negated = False
        if self.current.is_keyword("not") and self.peek().is_keyword("in", "like", "between"):
            self.advance()
            negated = True

        if self.accept_keyword("in"):
            return self._parse_in(left, negated)
        if self.accept_keyword("like"):
            pattern = self._parse_additive()
            return ast.Like(operand=left, pattern=pattern, negated=negated)
        if self.accept_keyword("between"):
            low = self._parse_additive()
            self.expect_keyword("and")
            high = self._parse_additive()
            return ast.Between(operand=left, low=low, high=high, negated=negated)
        if self.accept_keyword("is"):
            is_negated = bool(self.accept_keyword("not"))
            self.expect_keyword("null")
            return ast.IsNull(operand=left, negated=is_negated)
        return self._parse_comparison(left)

    def _parse_comparison(self, left: ast.Expression) -> ast.Expression:
        operator_token = self.accept_operator(_COMPARISON_OPERATORS)
        if operator_token is not None:
            operator = "<>" if operator_token.value == "!=" else operator_token.value
            quantifier: str | None = None
            if self.current.is_keyword("any", "some", "all"):
                quantifier = "any" if self.advance().value in ("any", "some") else "all"
                self.expect_punctuation("(")
                subquery = self.parse_select()
                self.expect_punctuation(")")
                return ast.Comparison(operator=operator, left=left,
                                      right=ast.ScalarSubquery(subquery=subquery),
                                      quantifier=quantifier)
            right = self._parse_additive()
            return ast.Comparison(operator=operator, left=left, right=right)
        return left

    def _parse_in(self, left: ast.Expression, negated: bool) -> ast.Expression:
        self.expect_punctuation("(")
        if self.current.is_keyword("select"):
            subquery = self.parse_select()
            self.expect_punctuation(")")
            return ast.InSubquery(operand=left, subquery=subquery, negated=negated)
        items = self._comma_list(self._parse_additive)
        self.expect_punctuation(")")
        return ast.InList(operand=left, items=items, negated=negated)

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            token = self.accept_operator(_ADDITIVE_OPERATORS)
            if token is None:
                return left
            right = self._parse_multiplicative()
            left = ast.BinaryOp(operator=token.value, left=left, right=right)

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self.accept_operator(_MULTIPLICATIVE_OPERATORS)
            if token is None:
                return left
            right = self._parse_unary()
            left = ast.BinaryOp(operator=token.value, left=left, right=right)

    def _parse_unary(self) -> ast.Expression:
        token = self.accept_operator(_SIGNS)
        if token is not None:
            return ast.UnaryOp(operator=token.value, operand=self._parse_unary())
        return self._parse_primary()

    # -- primary expressions -------------------------------------------------------

    def _parse_primary(self) -> ast.Expression:
        token = self.current

        if token.kind is TokenKind.NUMBER:
            self.advance()
            value: object
            if any(marker in token.value for marker in (".", "e", "E")):
                value = float(token.value)
            else:
                value = int(token.value)
            return ast.Literal(value=value, type_name="number")

        if token.kind is TokenKind.STRING:
            self.advance()
            return ast.Literal(value=token.value, type_name="string")

        if token.kind is TokenKind.KEYWORD:
            if token.value == "null":
                self.advance()
                return ast.Literal(value=None, type_name="null")
            if token.value in ("true", "false"):
                self.advance()
                return ast.Literal(value=token.value == "true", type_name="boolean")
            special = self._KEYWORD_PRIMARIES.get(token.value)
            if special is not None:
                return special(self)

        if token.kind is TokenKind.PUNCTUATION and token.value == "(":
            self.advance()
            if self.current.is_keyword("select"):
                subquery = self.parse_select()
                self.expect_punctuation(")")
                return ast.ScalarSubquery(subquery=subquery)
            expression = self.parse_expression()
            self.expect_punctuation(")")
            return expression

        if token.kind is TokenKind.IDENTIFIER or token.is_keyword("left", "right"):
            return self._parse_identifier_expression()

        raise self.error("expected an expression")

    def _parse_date_literal(self) -> ast.Expression:
        self.expect_keyword("date")
        token = self.current
        if token.kind is not TokenKind.STRING:
            raise self.error("expected a string after DATE")
        self.advance()
        return ast.DateLiteral(value=token.value)

    def _parse_interval_literal(self) -> ast.Expression:
        self.expect_keyword("interval")
        token = self.current
        if token.kind is not TokenKind.STRING and token.kind is not TokenKind.NUMBER:
            raise self.error("expected a quantity after INTERVAL")
        self.advance()
        unit_token = self.current
        unit = unit_token.value.lower().rstrip("s")
        if unit not in _INTERVAL_UNITS:
            raise self.error("expected an interval unit (day, week, month, year)")
        self.advance()
        return ast.IntervalLiteral(value=int(str(token.value)), unit=unit)

    def _parse_case(self) -> ast.Expression:
        self.expect_keyword("case")
        branches: list[tuple[ast.Expression, ast.Expression]] = []
        default: ast.Expression | None = None
        while self.accept_keyword("when"):
            condition = self.parse_expression()
            self.expect_keyword("then")
            result = self.parse_expression()
            branches.append((condition, result))
        if self.accept_keyword("else"):
            default = self.parse_expression()
        self.expect_keyword("end")
        if not branches:
            raise self.error("CASE requires at least one WHEN branch")
        return ast.CaseWhen(branches=branches, default=default)

    def _parse_cast(self) -> ast.Expression:
        self.expect_keyword("cast")
        self.expect_punctuation("(")
        operand = self.parse_expression()
        self.expect_keyword("as")
        type_parts = [self._expect_name("type name")]
        while self.current.kind is TokenKind.IDENTIFIER:
            type_parts.append(self.advance().value)
        if self.accept_punctuation("("):
            while not self.accept_punctuation(")"):
                self.advance()
        self.expect_punctuation(")")
        return ast.Cast(operand=operand, type_name=" ".join(type_parts))

    def _parse_extract(self) -> ast.Expression:
        self.expect_keyword("extract")
        self.expect_punctuation("(")
        field_name = self._expect_name("EXTRACT field")
        self.expect_keyword("from")
        operand = self.parse_expression()
        self.expect_punctuation(")")
        return ast.Extract(field_name=field_name.lower(), operand=operand)

    def _parse_substring(self) -> ast.Expression:
        self.expect_keyword("substring")
        self.expect_punctuation("(")
        operand = self.parse_expression()
        start: ast.Expression
        length: ast.Expression | None = None
        if self.accept_keyword("from"):
            start = self.parse_expression()
            if self.accept_keyword("for"):
                length = self.parse_expression()
        else:
            self.expect_punctuation(",")
            start = self.parse_expression()
            if self.accept_punctuation(","):
                length = self.parse_expression()
        self.expect_punctuation(")")
        return ast.Substring(operand=operand, start=start, length=length)

    #: the keywords that open an expression of their own.
    _KEYWORD_PRIMARIES = {"date": _parse_date_literal, "interval": _parse_interval_literal,
                          "case": _parse_case, "cast": _parse_cast,
                          "extract": _parse_extract, "substring": _parse_substring}

    def _parse_identifier_expression(self) -> ast.Expression:
        name_token = self.advance()
        name = name_token.text if name_token.kind is TokenKind.IDENTIFIER else name_token.value

        # function call
        if self.current.kind is TokenKind.PUNCTUATION and self.current.value == "(":
            self.advance()
            distinct = bool(self.accept_keyword("distinct"))
            arguments: list[ast.Expression] = []
            if self.current.kind is TokenKind.OPERATOR and self.current.value == "*":
                self.advance()
                arguments.append(ast.Star())
            elif not (self.current.kind is TokenKind.PUNCTUATION and self.current.value == ")"):
                arguments = self._comma_list(self.parse_expression)
            self.expect_punctuation(")")
            return ast.FunctionCall(name=name.lower(), arguments=arguments, distinct=distinct)

        # qualified column: table.column or table.*
        if self.current.kind is TokenKind.PUNCTUATION and self.current.value == ".":
            self.advance()
            if self.current.kind is TokenKind.OPERATOR and self.current.value == "*":
                self.advance()
                return ast.Star(table=name)
            column = self._expect_name("column name")
            return ast.ColumnRef(name=column, table=name)

        return ast.ColumnRef(name=name)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def parse_select(sql: str) -> ast.Select:
    """Parse a single SELECT statement into its AST."""
    return _Parser(sql).parse()


def parse_sql(sql: str) -> list[ast.Select]:
    """Parse one or more ``;``-separated SELECT statements."""
    statements: list[ast.Select] = []
    for chunk in sql.split(";"):
        if chunk.strip():
            statements.append(parse_select(chunk))
    return statements
