import csv
import hashlib
import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireweather.ingest import ingest_observations, parse_csv
from fireweather.rdf import Datatype, Graph, Term, Triple, TriplePattern, comparison, decimal, integer, iri, join, string
from fireweather.sparql import FilterExpr, Query, QueryParseError, ResultTable, column_sort_keys, evaluate, parse_query
from util import brute_force_join, numeric_terms, random_graph, random_pattern, reference_filter, string_terms, terms

WIND_SURVEY_QUERY = """\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX owl: <http://www.w3.org/2002/07/owl#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?Sensor_id ?WindSpeed
WHERE { ?Sensor_id ?observedBy ?WindSpeed
FILTER (?WindSpeed >40.00) }
"""

RAIN_SURVEY_QUERY = """\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX owl: <http://www.w3.org/2002/07/owl#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?Sensor_id ?startRAIN
WHERE { ?Sensor_id ?observedBy ?startRAIN
FILTER (?startRAIN >1.00) }
"""

#: the dashboard's join: the fuel codes above 90 of the sensors read in August
DRY_AUGUST_QUERY = """\
PREFIX p: <urn:ssn:prop:>
SELECT ?sensor ?code
WHERE { ?sensor p:hasMonth "aug" . ?o p:observedBy ?sensor . ?o p:hasUnit "unitless" .
        ?o p:hasvalue ?code . FILTER (?code > 90.0) }
"""

#: the dashboard's lookup: every observation of one sensor
LOOKUP_QUERY = """\
PREFIX p: <urn:ssn:prop:>
SELECT ?obs ?value
WHERE { ?obs p:observedBy <urn:ssn:sensor:1> . ?obs p:hasvalue ?value . }
"""


class TestParse:
    def test_verbatim_wind_query(self):
        q = parse_query(WIND_SURVEY_QUERY)
        assert len(q.patterns) == 1
        assert q.patterns[0] == TriplePattern("?Sensor_id", "?observedBy", "?WindSpeed")
        assert q.filters == (FilterExpr("?WindSpeed", ">", Term("40.00", Datatype.DECIMAL)),)
        assert len(q.prefixes) == 4

    def test_verbatim_rain_query(self):
        q = parse_query(RAIN_SURVEY_QUERY)
        assert q.filters == (FilterExpr("?startRAIN", ">", Term("1.00", Datatype.DECIMAL)),)

    def test_unbound_select_var_rejected(self):
        with pytest.raises(QueryParseError, match=r"\?x"):
            parse_query("SELECT ?x WHERE { }")

    def test_prefixed_names_expand(self):
        q = parse_query(
            'PREFIX ex: <urn:ex:> SELECT ?s WHERE { ?s ex:knows "bob" . }'
        )
        assert q.patterns[0].predicate == iri("urn:ex:knows")
        assert q.patterns[0].object == string("bob")
        # a local name does not take in the '.' that ends a pattern, but may hold one
        q = parse_query("PREFIX e: <urn:e:> SELECT ?s WHERE { ?s e:p e:o. ?s e:q ?v }")
        assert q.patterns[0].object == iri("urn:e:o")
        q = parse_query("PREFIX e: <urn:e:> SELECT ?s WHERE { ?s e:a.b ?v }")
        assert q.patterns[0].predicate == iri("urn:e:a.b")

    def test_unknown_prefix_rejected(self):
        with pytest.raises(QueryParseError, match="unknown prefix"):
            parse_query("SELECT ?s WHERE { ?s ex:p ?o }")

    def test_syntax_error_carries_position(self):
        with pytest.raises(QueryParseError, match=r"line \d+, column \d+"):
            parse_query("SELECT ?s WHERE ?s ?p ?o }")

    def test_multiple_patterns_and_typed_literal(self):
        q = parse_query(
            "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
            'SELECT ?s ?v WHERE { ?s <urn:p> ?v . ?s <urn:q> "3"^^xsd:integer . }'
        )
        assert len(q.patterns) == 2
        assert q.patterns[1].object == integer(3)

    def test_filter_comparators(self):
        for op in (">", "<", ">=", "<=", "=", "!="):
            q = parse_query(f"SELECT ?v WHERE {{ ?s <urn:p> ?v FILTER (?v {op} 5) }}")
            assert q.filters[0].comparator == op


@pytest.mark.parametrize(
    "text, message",
    [
        ("SELECT ?s WHERE {\n  ?s <urn:p> ?v ;\n}", "line 2, column 17: unexpected character ';'"),
        ("PREFIX e: <urn:e:>\nSELEC ?s WHERE { ?s e:p ?v }", "line 2, column 1: expected SELECT"),
        ("SELECT ?s\n{ ?s <urn:p> ?v }", "line 2, column 1: expected WHERE"),
        ("PREFIX e <urn:e:>\nSELECT ?s WHERE { ?s e:p ?v }", "line 1, column 8: expected prefix name ending in ':'"),
        ("PREFIX e:\n  e:x\nSELECT ?s WHERE { ?s e:p ?v }", "line 2, column 3: expected <iri> after prefix name"),
        ("SELECT ?s WHERE {\n ?s <urn:p> ?v\n", "line 3, column 1: unterminated group pattern: missing '}'"),
        ("SELECT ?s WHERE { ?s <urn:p> ?v }\nLIMIT 3", "line 2, column 1: trailing input 'LIMIT'"),
        ('SELECT ?s WHERE {\n?s <urn:p> "3"^^?v }', "line 2, column 17: expected datatype after ^^"),
        ('SELECT ?s WHERE {\n?s <urn:p> "3"^^<urn:dt> }', "line 2, column 17: unsupported datatype <urn:dt>"),
        ("SELECT ?s WHERE { ?s <urn:p> ?v\nFILTER (3 > ?v) }", "line 2, column 9: FILTER expects a variable"),
        ("SELECT ?s WHERE { ?s <urn:p> ?v\nFILTER (?v 3) }", "line 2, column 12: expected comparator, got '3'"),
        ("SELECT ?s WHERE { ?s <urn:p> ?v\nFILTER (?v > ?s) }",
         "line 2, column 14: expected literal operand, got '?s'"),
        ("PREFIX e: <urn:e:>\n  SELECT ?s ?x WHERE {\n ?s e:p ?v }",
         "line 2, column 3: select variable ?x is not bound by any pattern"),
        ("PREFIX e: <urn:e:>\n  SELECT WHERE { ?s e:p ?v }", "line 2, column 3: SELECT needs at least one variable"),
    ],
    ids=[
        "unexpected-character", "expected-select", "expected-where", "prefix-name", "prefix-iri",
        "unterminated-group", "trailing-input", "datatype-missing", "datatype-unsupported",
        "filter-variable", "filter-comparator", "filter-operand", "select-unbound", "select-empty",
    ],
)
def test_parse_error_message_and_position(text, message):
    with pytest.raises(QueryParseError) as info:
        parse_query(text)
    line, column = map(int, re.match(r"line (\d+), column (\d+)", message).groups())
    assert (str(info.value), info.value.line, info.value.column) == (message, line, column)


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_line_break_inside_a_string_is_counted(brk):
    # the '}' is on line 3: the string holds the first break, whitespace the second
    with pytest.raises(QueryParseError, match=r"^line 3, column 8: expected term or variable, got '}'"):
        parse_query(f'SELECT ?s WHERE {{ ?s <urn:p> "a{brk}b" .{brk} ?s ?q }}')


class TestEvaluate:
    def test_wind_filter(self):
        from fireweather.rdf import Triple

        g = Graph([
            Triple(iri("urn:s1"), iri("urn:hasWind"), decimal(45.0)),
            Triple(iri("urn:s2"), iri("urn:hasWind"), decimal(12.0)),
        ])
        table = evaluate(parse_query(WIND_SURVEY_QUERY), g)
        assert table.header == ("?Sensor_id", "?WindSpeed")
        assert len(table.rows) == 1
        assert table.rows[0][0].value == "urn:s1"
        assert table.rows[0][1].value == "45.0"

    def test_empty_graph_keeps_header(self):
        table = evaluate(parse_query(RAIN_SURVEY_QUERY), Graph())
        assert table.header == ("?Sensor_id", "?startRAIN")
        assert table.rows == ()
        assert table.columns == ((), ())

    def test_columns_hold_one_tuple_of_terms_per_select_variable(self, dataset_text):
        g = ingest_observations(parse_csv(dataset_text))
        for text in (WIND_SURVEY_QUERY, RAIN_SURVEY_QUERY, DRY_AUGUST_QUERY, LOOKUP_QUERY):
            table = evaluate(parse_query(text), g)
            assert len(table.columns) == len(table.header)
            assert all(type(column) is tuple for column in table.columns)
            assert len({len(column) for column in table.columns}) == 1
            assert all(type(term) is Term for column in table.columns for term in column)
            assert table.rows == tuple(zip(*table.columns))
        assert table.rows

    def test_join_on_shared_variable(self):
        from fireweather.rdf import Triple

        g = Graph([
            Triple(iri("urn:a"), iri("urn:p"), integer(1)),
            Triple(iri("urn:a"), iri("urn:q"), integer(2)),
            Triple(iri("urn:b"), iri("urn:p"), integer(3)),
            Triple(iri("urn:c"), iri("urn:q"), integer(4)),
        ])
        q = parse_query("SELECT ?s WHERE { ?s <urn:p> ?v . ?s <urn:q> ?w . }")
        table = evaluate(q, g)
        assert [row[0].value for row in table.rows] == ["urn:a"]

    def test_string_under_numeric_filter_is_dropped(self):
        from fireweather.rdf import Triple

        g = Graph([
            Triple(iri("urn:a"), iri("urn:p"), string("high")),
            Triple(iri("urn:b"), iri("urn:p"), integer(50)),
        ])
        q = parse_query("SELECT ?s WHERE { ?s <urn:p> ?v FILTER (?v > 40) }")
        assert [row[0].value for row in evaluate(q, g).rows] == ["urn:b"]

    def test_integer_decimal_coercion(self):
        from fireweather.rdf import Triple

        g = Graph([Triple(iri("urn:a"), iri("urn:p"), integer(41))])
        q = parse_query("SELECT ?s WHERE { ?s <urn:p> ?v FILTER (?v > 40.5) }")
        assert len(evaluate(q, g).rows) == 1

    def test_filter_on_unbound_variable_drops_every_row(self):
        from fireweather.rdf import Triple

        g = Graph([Triple(iri("urn:a"), iri("urn:p"), integer(50))])
        q = parse_query("SELECT ?s WHERE { ?s <urn:p> ?v FILTER (?w > 40) }")
        assert evaluate(q, g).rows == ()

    def test_projection_order(self):
        from fireweather.rdf import Triple

        g = Graph([Triple(iri("urn:a"), iri("urn:p"), integer(1))])
        q = parse_query("SELECT ?v ?s WHERE { ?s <urn:p> ?v }")
        assert evaluate(q, g).header == ("?v", "?s")


# --- brute-force oracle ----------------------------------------------------


def naive_evaluate(query, g: Graph):
    rows = []
    for binding in brute_force_join(g, list(query.patterns)):
        if all(f.variable in binding and reference_filter(binding[f.variable], f.comparator, f.operand)
               for f in query.filters):
            rows.append(tuple(binding[v] for v in query.select_vars))
    rows.sort(key=lambda row: tuple(t.sort_key() for t in row))
    return tuple(rows)


def random_query(rng: random.Random, g: Graph):
    variables = ["?a", "?b", "?c"]
    n_patterns = rng.choice([1, 1, 2, 2, 3])
    if not len(g):
        patterns = [random_pattern(rng, variables) for _ in range(n_patterns)]
    else:
        # the patterns are built from one join row: each reads a triple of the
        # graph, and a slot becomes a variable only where that variable is
        # free or bound to the slot's term, so the join has at least that row
        triples, row, patterns = list(g), {}, []
        for _ in range(n_patterns):
            t = rng.choice(triples)
            slots = []
            for term, p_variable in zip((t.subject, t.predicate, t.object), (0.6, 0.3, 0.5)):
                variable = rng.choice(variables) if rng.random() < p_variable else None
                slots.append(variable if variable and row.setdefault(variable, term) == term else term)
            patterns.append(TriplePattern(*slots))
    bound = sorted({v for p in patterns for v in p.variables()})
    if not bound:
        return None
    select = rng.sample(bound, k=rng.randrange(1, len(bound) + 1))
    filters = ()
    joined = brute_force_join(g, patterns)
    # the variables that some row binds to a literal: a filter on a variable
    # that binds only IRIs rejects every row, so one case in ten gets one
    literal_variables = sorted({v for b in joined for v, term in b.items() if not term.is_iri})
    if rng.random() < (0.7 if literal_variables else 0.1):
        operand = integer(rng.randrange(-5, 50)) if rng.random() < 0.5 else decimal(round(rng.uniform(-5, 50), 1))
        variable = rng.choice(literal_variables or bound)
        if rng.random() < 0.5:
            # a literal of the graph that the patterns bind to the variable, so
            # that some row's term equals the operand
            literals = [b[variable] for b in joined if not b[variable].is_iri]
            operand = rng.choice(literals) if literals else operand
        filters = (FilterExpr(variable, rng.choice([">", "<", ">=", "<=", "=", "!="]), operand),)
    return Query({}, tuple(select), tuple(patterns), filters)


def test_oracle_equivalence_on_random_cases():
    rng = random.Random(5050)
    cases = with_rows = literal_filters = kept = 0
    while cases < 1000:
        g = random_graph(rng, 50)
        q = random_query(rng, g)
        if q is None:
            continue
        cases += 1
        rows = naive_evaluate(q, g)
        assert evaluate(q, g).rows == rows
        with_rows += bool(rows)
        if q.filters and any(not b[q.filters[0].variable].is_iri for b in brute_force_join(g, q.patterns)):
            literal_filters += 1
            kept += bool(rows)
    # pinned, so that a generator that empties more cases shows here
    assert with_rows == 815 and with_rows * 2 >= cases
    # a filter on a variable that some join row binds to a literal keeps a row
    # in 209 of 324 cases
    assert kept * 2 >= literal_filters > 0


def test_filter_soundness_recheck():
    rng = random.Random(606)
    checked = 0
    while checked < 200:
        g = random_graph(rng, 40)
        q = random_query(rng, g)
        if q is None or not q.filters:
            continue
        table = evaluate(q, g)
        # a case with no row checks nothing
        if not table.rows:
            continue
        checked += 1
        for row in table.rows:
            binding = dict(zip(q.select_vars, row))
            for f in q.filters:
                if f.variable in binding:
                    assert reference_filter(binding[f.variable], f.comparator, f.operand)


def test_string_literal_escapes_read_as_in_ntriples():
    q = parse_query('SELECT ?s WHERE { ?s <urn:p> "tab\\there \\"quoted\\" back\\\\slash\\nnewline" }')
    assert q.patterns[0].object == string('tab\there "quoted" back\\slash\nnewline')


@pytest.mark.parametrize(
    "literal",
    ['"abc"^^xsd:integer', '"nan"^^xsd:decimal', '"\\U00110000"', '"x\\uD800y"', '"\\uDFFF"', '"\\U0000D800"',
     '"1_000"^^xsd:integer', '"7."^^xsd:integer', "\u0669\u0669\u0669"],
)
def test_bad_literal_carries_position(literal):
    text = f"PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\nSELECT ?s WHERE {{ ?s <urn:p> ?v\nFILTER (?v > {literal}) }}\n"
    with pytest.raises(QueryParseError, match=r"^line 3, column 14: "):
        parse_query(text)


def test_a_comment_runs_to_the_end_of_its_line():
    commented = "# wind survey\n" + "".join(line + "  # note\n" for line in WIND_SURVEY_QUERY.splitlines())
    assert parse_query(commented) == parse_query(WIND_SURVEY_QUERY)
    # a # in an IRI or a string is part of it, and a comment may follow a dot, end a CRLF line or the text
    q = parse_query('SELECT ?s WHERE { ?s <urn:p#x> "a # b" .#c\r\n?s <urn:q> ?o } #')
    assert q.patterns == (TriplePattern("?s", iri("urn:p#x"), string("a # b")), TriplePattern("?s", iri("urn:q"), "?o"))


def test_an_error_after_comment_lines_names_its_line():
    with pytest.raises(QueryParseError, match=r"^line 3, column 3: unexpected character '@'$"):
        parse_query("# a\r\n# b ?\nx @ SELECT")


COMPARATORS = [">", "<", ">=", "<=", "=", "!="]


@settings(max_examples=500, deadline=None)
@given(term=terms, comparator=st.sampled_from(COMPARATORS), operand=st.one_of(numeric_terms, string_terms))
def test_compiled_filter_matches_the_reference_comparison(term, comparator, operand):
    want = reference_filter(term, comparator, operand)
    assert rows_both_ways(term, comparison(comparator, operand)) == ([(str(term),)] * want,) * 2


def rows_both_ways(term: Term, test) -> tuple[list, list]:
    """``join``'s rows of ``?v`` under the check ``test``, with ``?v`` bound to ``term``: by the seed, then by a level."""
    g = Graph([Triple(iri("urn:s"), iri("urn:p"), term)])
    checks = [("?v", test)]
    seeded = join([], g, ["?v"], checks, {"?v": g._token(term)})
    bound = join([TriplePattern(iri("urn:s"), iri("urn:p"), "?v")], g, ["?v"], checks)
    return list(seeded), list(bound)


@settings(max_examples=300, deadline=None)
@given(term=terms, comparator=st.sampled_from(COMPARATORS), operand=st.one_of(numeric_terms, string_terms))
def test_evaluate_keeps_the_rows_the_reference_keeps(term, comparator, operand):
    g = Graph([Triple(iri("urn:s"), iri("urn:p"), term), Triple(iri("urn:t"), iri("urn:q"), term)])
    q = Query({}, ("?s",), (TriplePattern("?s", iri("urn:p"), "?v"),), (FilterExpr("?v", comparator, operand),))
    want = ((iri("urn:s"),),) if reference_filter(term, comparator, operand) else ()
    assert evaluate(q, g).rows == want


def test_unknown_comparator_is_rejected_when_compiled():
    q = Query({}, ("?s",), (TriplePattern("?s", iri("urn:p"), "?v"),), (FilterExpr("?v", "=>", integer(1)),))
    with pytest.raises(ValueError, match="unknown comparator"):
        evaluate(q, Graph())


def test_an_iri_operand_is_rejected_when_compiled():
    # the parser takes only literal operands, so only a query built in code has one
    q = Query({}, ("?s",), (TriplePattern("?s", iri("urn:p"), "?v"),), (FilterExpr("?v", "=", iri("urn:o")),))
    with pytest.raises(ValueError, match="operand <urn:o> is not a literal"):
        evaluate(q, Graph())


@pytest.mark.parametrize(
    "text, column",
    [
        ("SELECT ?s WHERE { ?s <> ?o }", 22),
        ("PREFIX e: <> SELECT ?s WHERE { ?s e: ?o }", 35),
        ("SELECT ?s WHERE { ?s <urn:p> " + "9" * 400 + " }", 30),
        ("SELECT ?s WHERE { ?s <urn:p> ?o FILTER (?o > " + "9" * 400 + ".5) }", 46),
    ],
    ids=["empty-iri", "prefix-expands-to-empty", "infinite-integer", "infinite-filter-operand"],
)
def test_invalid_term_carries_position(text, column):
    with pytest.raises(QueryParseError, match=rf"^line 1, column {column}: "):
        parse_query(text)


def test_built_query_with_an_unbound_select_variable_is_rejected():
    g = Graph([Triple(iri("urn:a"), iri("urn:p"), integer(1))])
    with pytest.raises(ValueError, match=r"^select variable \?x is not bound by any pattern$"):
        evaluate(Query({}, ("?x",), (), ()), g)
    with pytest.raises(ValueError, match=r"^select variable \?x is not bound by any pattern$"):
        evaluate(Query({}, ("?s", "?x"), (TriplePattern("?s", iri("urn:p"), "?v"),), ()), g)


def test_built_query_with_no_select_variable_is_rejected():
    with pytest.raises(ValueError, match="^SELECT needs at least one variable$"):
        Query({}, (), (TriplePattern("?s", iri("urn:p"), "?v"),), ())


PATTERN = TriplePattern("?s", iri("urn:p"), "?v")


@pytest.mark.parametrize("build, message", [
    (lambda: Query({}, ("?s",), "abc", ()), "patterns must be a tuple of TriplePattern"),
    (lambda: Query({}, ("?s",), (("?s", "?p", "?o"),), ()), "patterns must be a tuple of TriplePattern"),
    (lambda: Query({}, ("?s",), (PATTERN,), (("?v", ">", integer(1)),)), "filters must be a tuple of FilterExpr"),
    (lambda: FilterExpr("?v", ">", 1.0), "a FILTER needs a variable name, a comparator and a Term operand"),
    (lambda: Query({}, "?s", (PATTERN,), ()), "select_vars must be a tuple of str"),
    (lambda: Query(None, ("?s",), (PATTERN,), ()), "prefixes must map str to str"),
], ids=["patterns-str", "pattern-tuple", "filter-tuple", "operand-float", "select-str", "prefixes-none"])
def test_built_query_with_a_field_of_the_wrong_type_is_rejected(build, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        build()


#: objects that a ``Query`` or ``FilterExpr`` field may be given by mistake
JUNK = st.one_of(
    st.none(), st.integers(), st.floats(), st.text(max_size=3), st.binary(max_size=3), st.just(["?s"]),
    st.just(("?s", "?p", "?o")), st.just({"e": 1}), st.sampled_from([iri("urn:o"), integer(3), PATTERN]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_built_query_is_refused_with_a_value_error_or_evaluates(data):
    # each field takes a well-formed value, or one time in four a junk object
    junk = []

    def field(good):
        bad = data.draw(st.integers(0, 3)) == 0
        junk.append(bad)
        return data.draw(JUNK if bad else good)

    g = Graph([Triple(iri("urn:s"), iri("urn:p"), integer(3)), Triple(iri("urn:t"), iri("urn:p"), string("x"))])
    try:
        filters = tuple(
            FilterExpr(field(st.sampled_from(["?v", "?s"])), field(st.sampled_from(COMPARATORS)),
                       field(st.one_of(numeric_terms, string_terms)))
            for _ in range(data.draw(st.integers(0, 2)))
        )
        q = Query(field(st.sampled_from([{}, {"e": "urn:e:"}])), field(st.sampled_from([("?s",), ("?v", "?s")])),
                  field(st.just((PATTERN,))), field(st.just(filters)))
        evaluate(q, g)
    except ValueError:
        assert any(junk)


# --- row order -------------------------------------------------------------

#: terms of each kind; under ``Term.sort_key`` integer 7 and decimal 7 tie,
#: decimal 7.0 follows them, and decimal 10 follows integer 9
ORDER_POOLS = {
    "iris": [iri("urn:b"), iri("urn:a"), iri("urn:a:1"), iri("urn:B"), iri("urn:\u00e9")],
    "strings": [string("b"), string(""), string("a"), string("7"), string("10"), string("\u00e9")],
    "numbers": [integer("7"), decimal("7"), decimal("7.0"), integer("-1"), decimal("10"), integer("9"), decimal("6.99")],
}
ORDER_POOLS["mixed"] = [t for pool in ORDER_POOLS.values() for t in pool]


def sort_key_order(rows):
    """``rows`` stably sorted by ``Term.sort_key`` per cell."""
    return sorted(rows, key=lambda row: tuple(t.sort_key() for t in row))


@pytest.mark.parametrize("kind", sorted(ORDER_POOLS))
def test_column_sort_keys_order_as_sort_key_does(kind):
    rng = random.Random(11)
    for _ in range(50):
        column = [rng.choice(ORDER_POOLS[kind]) for _ in range(rng.randrange(0, 30))]
        keys = list(zip(*column_sort_keys(column)))
        want = sorted(range(len(column)), key=lambda i: column[i].sort_key())
        assert sorted(range(len(column)), key=keys.__getitem__) == want


@pytest.mark.parametrize("select", [("?a", "?b"), ("?b", "?a"), ("?b",)], ids=["ab", "ba", "b"])
@pytest.mark.parametrize("kinds", [(a, b) for a in sorted(ORDER_POOLS) for b in sorted(ORDER_POOLS)], ids="-".join)
def test_rows_are_a_stable_sort_key_order_of_the_join(kinds, select):
    rng = random.Random(23)
    patterns = (TriplePattern("?s", iri("urn:a"), "?a"), TriplePattern("?s", iri("urn:b"), "?b"))
    q = Query({}, select, patterns, ())
    for _ in range(20):
        g = Graph()
        for i in range(rng.randrange(1, 40)):
            s = iri(f"urn:s{i}")
            g.insert(Triple(s, iri("urn:a"), rng.choice(ORDER_POOLS[kinds[0]])))
            g.insert(Triple(s, iri("urn:b"), rng.choice(ORDER_POOLS[kinds[1]])))
        joined = [tuple(map(g._terms.__getitem__, row)) for row in join(patterns, g, select)]
        # terms compare with their datatype, so a tie of integer 7 and decimal 7 must keep join order
        assert evaluate(q, g).rows == tuple(sort_key_order(joined))


def test_sort_key_runs_only_for_a_mixed_column(monkeypatch, dataset_text):
    g = ingest_observations(parse_csv(dataset_text))
    calls = []
    sort_key = Term.sort_key

    def counting_sort_key(term):
        calls.append(term)
        return sort_key(term)

    monkeypatch.setattr(Term, "sort_key", counting_sort_key)
    for text in (WIND_SURVEY_QUERY, RAIN_SURVEY_QUERY, DRY_AUGUST_QUERY, LOOKUP_QUERY):
        assert evaluate(parse_query(text), g).rows
    assert calls == []
    mixed = Graph(Triple(iri(f"urn:s{i}"), iri("urn:p"), term) for i, term in enumerate(ORDER_POOLS["mixed"]))
    table = evaluate(parse_query("SELECT ?s ?v WHERE { ?s <urn:p> ?v }"), mixed)
    assert len(calls) == len(table.rows) == len(ORDER_POOLS["mixed"])


# --- rendering -------------------------------------------------------------


def reference_to_csv(table: ResultTable) -> str:
    """The standard library's writer, one row at a time with ``\\n`` line ends.

    Each row goes through its own ``csv.writer`` with ``\\r\\n`` line ends, which quotes a cell that holds CR on
    every Python, and its trailing ``\\r\\n`` becomes ``\\n``. A writer with ``lineterminator="\\n"`` leaves
    such a cell unquoted before 3.13.
    """
    lines = []
    for row in [[v.lstrip("?") for v in table.header], *([t.value for t in row] for row in table.rows)]:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        lines.append(out.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


def reference_to_text(table: ResultTable) -> str:
    """The renderer that padded one cell at a time."""
    cells = [list(table.header)] + [[t.value for t in row] for row in table.rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(table.header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "".join(line + "\n" for line in lines)


#: values that the CSV writer quotes, or that are empty or not ASCII
RENDER_VALUES = [",", '"', "\r", "\n", "a\r\nb", "\u2028", "", "caf\u00e9", "\u706b", 'say "hi", then go', " 7 "]


@pytest.mark.parametrize(
    "header, rows",
    [
        (("?a", "?b"), [(string(v), string(w)) for v, w in zip(RENDER_VALUES, reversed(RENDER_VALUES))]),
        (("?s", "?v"), [(iri("urn:s"), decimal("7.0")), (iri("urn:t\u00e9"), string(",\n"))]),
        (("?a",), [(string(v),) for v in RENDER_VALUES]),
        (("?a", "?b"), []),
        (("?a",), []),
        (("?a",), [(string(""),)]),
    ],
    ids=["two-columns", "iris-and-numbers", "one-column", "no-rows", "one-column-no-rows", "one-empty-cell"],
)
def test_renderers_match_the_per_row_reference(header, rows):
    table = ResultTable(header, tuple(zip(*rows)))
    assert table.to_csv() == reference_to_csv(table)
    assert table.to_text() == reference_to_text(table)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(st.text(), min_size=n, max_size=n), max_size=6)))
def test_renderers_match_the_per_row_reference_on_any_text(values):
    width = len(values[0]) if values else 2
    rows = [tuple(map(string, row)) for row in values]
    table = ResultTable(tuple(f"?v{i}" for i in range(width)), tuple(zip(*rows)))
    assert table.to_csv() == reference_to_csv(table)
    assert table.to_text() == reference_to_text(table)


#: cells that the same table quotes on every Python, each ``"`` doubled, CR included
PINNED_SPECIAL_CELLS = ["a\rb", ",", '"', '""', " "]


def test_csv_of_special_cells_is_pinned():
    rows = [(iri(f"urn:s{i}"), string(v)) for i, v in enumerate(PINNED_SPECIAL_CELLS)]
    table = ResultTable(("?s", "?v"), tuple(zip(*rows)))
    out = table.to_csv()
    assert out == reference_to_csv(table)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == "b1fdfcbff3e262782fc6075ef5d95615c89ce346f6a427870ab39a754b7df170"


#: any text but NUL, which the 3.10 ``csv.reader`` rejects ("line contains NUL") and 3.11 reads
READABLE_TEXT = st.text().map(lambda v: v.replace("\0", ""))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(READABLE_TEXT, min_size=n, max_size=n), max_size=6)))
def test_csv_reads_back_as_the_header_and_cells(values):
    width = len(values[0]) if values else 2
    rows = [tuple(map(string, row)) for row in values]
    table = ResultTable(tuple(f"?v{i}" for i in range(width)), tuple(zip(*rows)))
    read = list(csv.reader(io.StringIO(table.to_csv(), newline="")))
    assert read == [[f"v{i}" for i in range(width)], *values]
