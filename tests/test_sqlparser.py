"""Tests for the SQL lexer, parser, printer and the query-to-grammar extractor."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import space_report, validate
from repro.errors import SQLSyntaxError
from repro.sqlparser import ast, extract_grammar, parse_select, to_sql, tokenize
from repro.sqlparser.extract import ExtractionOptions
from repro.sqlparser import lexer as sqlparser_lexer
from repro.sqlparser.lexer import TokenKind
from repro.tpch import QUERIES, query_ids


def _tokenize_by_character(sql: str) -> list[tuple]:
    """The loop ``tokenize`` was before it became one master pattern: the
    reference the lexer is held to, as (kind, value, text, position, line)."""
    keywords = sqlparser_lexer.KEYWORDS
    operators = ("<>", "<=", ">=", "!=", "||", "=", "<", ">", "+", "-", "*", "/", "%")
    tokens: list[tuple] = []
    index, line, length = 0, 1, len(sql)
    while index < length:
        char = sql[index]
        if char == "\n":
            line += 1
            index += 1
            continue
        if char.isspace():
            index += 1
            continue
        if sql.startswith("--", index):
            end = sql.find("\n", index)
            index = length if end == -1 else end
            continue
        if sql.startswith("/*", index):
            end = sql.find("*/", index)
            if end == -1:
                raise SQLSyntaxError("unterminated block comment", position=index, line=line)
            line += sql.count("\n", index, end)
            index = end + 2
            continue
        if char == "'":
            end, chunks = index + 1, []
            while True:
                if end >= length:
                    raise SQLSyntaxError("unterminated string literal", position=index,
                                         line=line)
                if sql[end] == "'":
                    if end + 1 < length and sql[end + 1] == "'":
                        chunks.append("'")
                        end += 2
                        continue
                    break
                chunks.append(sql[end])
                end += 1
            tokens.append(("string", "".join(chunks), sql[index:end + 1], index, line))
            index = end + 1
            continue
        if char == '"':
            end = sql.find('"', index + 1)
            if end == -1:
                raise SQLSyntaxError("unterminated quoted identifier", position=index,
                                     line=line)
            tokens.append(("identifier", sql[index + 1:end], sql[index:end + 1], index, line))
            index = end + 1
            continue
        if char.isdigit() or (char == "." and index + 1 < length and sql[index + 1].isdigit()):
            end, seen_dot, seen_exp = index, False, False
            while end < length:
                current = sql[end]
                if current.isdigit():
                    end += 1
                elif current == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    end += 1
                elif current in "eE" and not seen_exp and end + 1 < length and (
                        sql[end + 1].isdigit() or sql[end + 1] in "+-"):
                    seen_exp = True
                    end += 2 if sql[end + 1] in "+-" else 1
                else:
                    break
            tokens.append(("number", sql[index:end], sql[index:end], index, line))
            index = end
            continue
        if char.isalpha() or char == "_":
            end = index
            while end < length and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            text = sql[index:end]
            keyword = text.lower() in keywords
            tokens.append(("keyword" if keyword else "identifier",
                           text.lower() if keyword else text, text, index, line))
            index = end
            continue
        operator = next((operator for operator in operators if sql.startswith(operator, index)),
                        None)
        if operator is not None:
            tokens.append(("operator", operator, operator, index, line))
            index += len(operator)
            continue
        if char in "(),.;":
            tokens.append(("punctuation", char, char, index, line))
            index += 1
            continue
        raise SQLSyntaxError(f"unexpected character {char!r}", position=index, line=line)
    tokens.append(("eof", "", "", length, line))
    return tokens


def _tokens(sql: str) -> list[tuple]:
    return [(token.kind.value, token.value, token.text, token.position, token.line)
            for token in tokenize(sql)]


def _lexed(lex, sql: str) -> list[tuple] | tuple:
    """What ``lex`` makes of ``sql``: its tokens, or the error."""
    try:
        return lex(sql)
    except SQLSyntaxError as error:
        return ("error", str(error), error.position, error.line)


def _lexer_corpus() -> list[str]:
    """The 22 TPC-H texts, every variant of the Q1 / Q3 / Q5 / Q6 / Q10 /
    Q12 pools (seeded and grown as the benchmark and the prepare-verdict
    tests grow theirs) and the differential fuzz corpus."""
    from bench.workloads import POOL_SEED, WORKLOADS
    from repro.pool import Morpher
    from repro.pool.pool import QueryPool
    from tests.test_fuzz_parity import FUZZ_ITERATIONS, FUZZ_SEED, QueryGenerator

    texts = [QUERIES[number] for number in sorted(QUERIES)]
    for number in (1, 3, 5, 6, 10, 12):
        pool = QueryPool(extract_grammar(QUERIES[number]), seed=POOL_SEED)
        pool.seed_baseline()
        pool.seed_random(WORKLOADS["q1-pool"].full.pool_random)
        Morpher(pool, seed=POOL_SEED).grow_to(WORKLOADS["q1-pool"].full.pool_size)
        texts += [entry.sql for entry in pool.entries()]
    generator = QueryGenerator(random.Random(FUZZ_SEED))
    return texts + [generator.query() for _ in range(FUZZ_ITERATIONS)]


class TestLexer:
    def test_the_pattern_lexes_the_corpus_as_the_character_loop_did(self):
        corpus = _lexer_corpus()
        assert len(corpus) > 22 + 6 * 20
        for sql in corpus:
            assert _lexed(_tokens, sql) == _lexed(_tokenize_by_character, sql), sql

    @pytest.mark.parametrize("sql, message, position", [
        ("select 'it''s\n  ", "unterminated string literal", 7),
        ("select 'a''", "unterminated string literal", 7),
        ("select 1 /* no end\n*", "unterminated block comment", 9),
        ('select "no end from t', "unterminated quoted identifier", 7),
        ("select 1\n  from t where @x", "unexpected character '@'", 24),
        ("select 1 ! 2", "unexpected character '!'", 9),
    ])
    def test_errors_name_the_same_place(self, sql, message, position):
        with pytest.raises(SQLSyntaxError) as raised:
            tokenize(sql)
        assert (str(raised.value), raised.value.position, raised.value.line) \
            == _lexed(_tokenize_by_character, sql)[1:]
        assert message in str(raised.value) and raised.value.position == position

    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.sampled_from(
        ["select", "x", "é", "_a1", "'", "''", '"', " ", "\n", "\t", "\r\n", "--", "/*",
         "*/", "/", "*", "-", "+", "1", "2.5", ".", "e", "E", "1e", "<", ">", "=", "!", "|",
         "@", ";", "(", ")", ","]), max_size=16).map("".join))
    def test_the_pattern_lexes_generated_texts_as_the_character_loop_did(self, sql):
        """Blanks and line breaks in and around tokens, comments, quotes and
        escapes, unterminated ones, numbers with and without exponents."""
        assert _lexed(_tokens, sql) == _lexed(_tokenize_by_character, sql)

    def test_keywords_and_identifiers(self):
        tokens = tokenize("SELECT foo FROM bar")
        kinds = [token.kind for token in tokens[:-1]]
        assert kinds == [TokenKind.KEYWORD, TokenKind.IDENTIFIER,
                         TokenKind.KEYWORD, TokenKind.IDENTIFIER]

    def test_string_literal_with_escaped_quote(self):
        tokens = tokenize("select 'O''Brien'")
        assert tokens[1].value == "O'Brien"

    def test_numbers(self):
        tokens = tokenize("select 1, 2.5, 3e2")
        values = [token.value for token in tokens if token.kind is TokenKind.NUMBER]
        assert values == ["1", "2.5", "3e2"]

    def test_comments_are_skipped(self):
        tokens = tokenize("select 1 -- trailing\n/* block */ , 2")
        numbers = [token for token in tokens if token.kind is TokenKind.NUMBER]
        assert len(numbers) == 2

    def test_unterminated_string_rejected(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("select 'oops")

    def test_unexpected_character_rejected(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("select @foo")


class TestParser:
    def test_simple_select(self):
        select = parse_select("select a, b from t where a > 1 order by b desc limit 5")
        assert len(select.items) == 2
        assert isinstance(select.where, ast.Comparison)
        assert select.order_by[0].descending
        assert select.limit == 5

    def test_aggregates_and_group_by(self):
        select = parse_select("select x, sum(y) as total from t group by x having sum(y) > 3")
        assert select.has_aggregates()
        assert len(select.group_by) == 1
        assert select.having is not None

    def test_between_like_in(self):
        select = parse_select(
            "select * from t where a between 1 and 2 and b like 'x%' and c in (1, 2, 3)")
        kinds = {type(term) for term in ast.conjuncts(select.where)}
        assert kinds == {ast.Between, ast.Like, ast.InList}

    def test_not_variants(self):
        select = parse_select(
            "select * from t where a not like 'x%' and b not in (1) and c is not null")
        like, inlist, isnull = ast.conjuncts(select.where)
        assert like.negated and inlist.negated and isnull.negated

    def test_exists_and_in_subquery(self):
        select = parse_select(
            "select * from t where exists (select * from u where u.id = t.id) "
            "and t.k in (select k from v)")
        exists, insub = ast.conjuncts(select.where)
        assert isinstance(exists, ast.Exists)
        assert isinstance(insub, ast.InSubquery)

    def test_case_expression(self):
        select = parse_select(
            "select case when a = 1 then 'one' when a = 2 then 'two' else 'many' end from t")
        case = select.items[0].expression
        assert isinstance(case, ast.CaseWhen)
        assert len(case.branches) == 2 and case.default is not None

    def test_date_and_interval_arithmetic(self):
        select = parse_select(
            "select * from t where d >= date '1994-01-01' + interval '3' month")
        comparison = select.where
        assert isinstance(comparison.right, ast.BinaryOp)
        assert isinstance(comparison.right.right, ast.IntervalLiteral)
        assert comparison.right.right.unit == "month"

    def test_joins(self):
        select = parse_select(
            "select * from a left outer join b on a.x = b.x, c")
        assert isinstance(select.from_items[0], ast.Join)
        assert select.from_items[0].kind == "left"
        assert isinstance(select.from_items[1], ast.TableRef)

    def test_derived_table(self):
        select = parse_select("select s from (select a as s from t) sub")
        sub = select.from_items[0]
        assert isinstance(sub, ast.SubqueryRef)
        assert sub.alias == "sub"

    def test_qualified_columns_and_aliases(self):
        select = parse_select("select n1.n_name supplier, n2.n_name as customer "
                              "from nation n1, nation n2")
        assert select.items[0].alias == "supplier"
        assert select.items[1].expression.table == "n2"

    def test_extract_substring_cast(self):
        select = parse_select("select extract(year from d), substring(p from 1 for 2), "
                              "cast(x as int) from t")
        types = [type(item.expression) for item in select.items]
        assert types == [ast.Extract, ast.Substring, ast.Cast]

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("select 1 from t extra garbage )")

    def test_missing_expression_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("select from t")

    @pytest.mark.parametrize("query_id", query_ids())
    def test_all_tpch_queries_parse(self, query_id):
        select = parse_select(QUERIES[query_id])
        assert select.items

    @pytest.mark.parametrize("query_id", query_ids())
    def test_printer_round_trip_is_stable(self, query_id):
        rendered = to_sql(parse_select(QUERIES[query_id]))
        assert to_sql(parse_select(rendered)) == rendered


class TestAnalysisHelpers:
    def test_conjuncts_flattens_nested_and(self):
        select = parse_select("select * from t where a = 1 and (b = 2 and c = 3)")
        assert len(ast.conjuncts(select.where)) == 3

    def test_column_refs_skip_subqueries(self):
        select = parse_select("select * from t where a in (select b from u)")
        refs = ast.column_refs(select.where)
        assert [ref.name for ref in refs] == ["a"]

    def test_has_local_aggregate_ignores_subquery_aggregates(self):
        select = parse_select(
            "select a from t where a > (select max(b) from u)")
        assert not select.has_aggregates()


class TestExtractor:
    def test_q1_grammar_is_valid(self, q1_grammar):
        assert validate(q1_grammar).ok

    def test_projection_literals_match_select_items(self, q1_grammar):
        literals = q1_grammar["l_project"].alternatives
        assert len(literals) == 10  # Q1 has ten projection elements

    def test_where_conjuncts_become_filters(self):
        grammar = extract_grammar("select a from t where a = 1 and b = 2 and c = 3")
        assert len(grammar["l_filter"].alternatives) == 3

    def test_or_conjunct_split_into_disjuncts(self):
        grammar = extract_grammar("select a from t where x = 1 and (a = 1 or b = 2)")
        assert "or2_l" in grammar.rules

    def test_group_and_order_terms_optional(self, q1_grammar):
        assert "groupby" in q1_grammar.rules
        assert "orderby" in q1_grammar.rules
        query_text = q1_grammar["query"].alternatives[0].text()
        assert "$[groupby]" in query_text and "$[orderby]" in query_text

    def test_derived_table_descended(self):
        grammar = extract_grammar(QUERIES[7])
        assert any(rule.name.startswith("d1_") for rule in grammar)

    def test_derived_table_kept_opaque_when_disabled(self):
        grammar = extract_grammar(QUERIES[7], ExtractionOptions(descend_derived=False))
        assert not any(rule.name.startswith("d1_") for rule in grammar)

    def test_split_tables_option(self):
        grammar = extract_grammar("select a from t1, t2, t3 where t1.x = t2.x",
                                  ExtractionOptions(split_tables=True))
        assert len(grammar["l_table"].alternatives) == 3

    @pytest.mark.parametrize("query_id", query_ids())
    def test_all_tpch_grammars_validate(self, query_id):
        grammar = extract_grammar(QUERIES[query_id])
        assert validate(grammar).ok

    def test_generated_queries_parse(self, q1_grammar):
        from repro.core import QueryRenderer, enumerate_templates

        renderer = QueryRenderer(q1_grammar)
        templates = enumerate_templates(q1_grammar, limit=50)
        for template in list(templates)[:20]:
            query = renderer.render(template)
            parse_select(query.sql)

    def test_space_of_simple_query(self):
        grammar = extract_grammar("select a, b, c from t where a = 1")
        report = space_report(grammar)
        # projections: non-empty subsets of 3 = 7; filter optional = x2
        assert report.space == 14


@given(columns=st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4,
                        unique=True),
       filters=st.integers(min_value=0, max_value=3))
@settings(max_examples=25, deadline=None)
def test_extractor_space_matches_closed_form(columns, filters):
    """Property: projections and AND-filters produce the expected space size."""
    where = ""
    if filters:
        where = " where " + " and ".join(f"x{i} = {i}" for i in range(filters))
    sql = f"select {', '.join(columns)} from t{where}"
    report = space_report(extract_grammar(sql))
    projections = 2 ** len(columns) - 1
    filter_space = 2 ** filters  # every subset of conjuncts, including none
    assert report.space == projections * filter_space
