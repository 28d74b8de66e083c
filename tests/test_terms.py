"""The term representation: equality, hashing, immutability, escaping,
non-finite numbers, numeric lexical forms, no ``Term`` built on import and
one per distinct token read, the terms a graph rebuilds from its tokens, and
the bulk reader agreeing with the line-by-line reader, across its blocks of
lines too, and its memory peak."""

import dataclasses
import enum
import gc
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fireweather import rdf
from fireweather.ingest import ingest_observations, parse_csv
from fireweather.sparql import evaluate, parse_query
from fireweather.rdf import (
    Datatype,
    Graph,
    RdfError,
    Term,
    Triple,
    decimal,
    export_ntriples,
    import_ntriples,
    integer,
    iri,
    string,
)
from test_sparql import WIND_SURVEY_QUERY
from util import count_built_terms

DECIMAL_IRI = Datatype.DECIMAL.value


class TestContract:
    def test_equal_terms_hash_equal(self):
        for a, b in [
            (iri("urn:a"), Term("urn:a")),
            (string("x"), Term("x", Datatype.STRING)),
            (integer(7), Term("7", Datatype.INTEGER)),
            (decimal(1.5), Term("1.5", Datatype.DECIMAL)),
        ]:
            assert a == b and a is not b
            assert hash(a) == hash(b) == hash((a.value, a.datatype))

    def test_lexical_form_and_datatype_both_count(self):
        assert decimal("1.0") != decimal("1.00")
        assert string("1") != integer(1)
        assert integer(1) != decimal("1")
        assert iri("urn:a") != string("urn:a")
        assert iri("urn:a") != "urn:a"

    def test_equal_triples_hash_equal(self):
        a = Triple(iri("urn:s"), iri("urn:p"), decimal("2.5"))
        b = Triple(Term("urn:s"), Term("urn:p"), Term("2.5", Datatype.DECIMAL))
        assert a == b and hash(a) == hash(b) == hash((a.subject, a.predicate, a.object))
        assert a != Triple(iri("urn:s"), iri("urn:p"), decimal("2.50"))

    def test_building_terms_and_triples_makes_no_python_hash_call(self, monkeypatch):
        calls = []

        def counting(name, hash_):
            def wrapper(self):
                calls.append(name)
                return hash_(self)
            return wrapper

        monkeypatch.setattr(Term, "__hash__", counting("Term", Term.__hash__))
        monkeypatch.setattr(enum.Enum, "__hash__", counting("Enum", enum.Enum.__hash__))
        s, p = iri("urn:s"), iri("urn:p")
        for o in [iri("urn:o"), string("x"), integer(7), decimal(2.5)]:
            Triple(s, p, o)
        assert calls == []
        # the hooks do count
        hash(s), hash(enum.Enum("Other", "A").A)
        assert calls == ["Term", "Enum"]

    def test_assignment_raises(self):
        term = iri("urn:a")
        triple = Triple(term, term, term)
        for obj, name in [(term, "value"), (term, "datatype"), (triple, "subject"), (triple, "object")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)

    def test_slotted(self):
        assert not hasattr(iri("urn:a"), "__dict__")
        assert not hasattr(Triple(iri("urn:a"), iri("urn:a"), iri("urn:a")), "__dict__")

    def test_repr_names_only_the_public_fields(self):
        assert repr(integer(3)) == "Term(value='3', datatype=<Datatype.INTEGER: '%s'>)" % Datatype.INTEGER.value


class TestNonFinite:
    @pytest.mark.parametrize("lexical", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    @pytest.mark.parametrize("datatype", [Datatype.INTEGER, Datatype.DECIMAL])
    def test_term_rejects(self, lexical, datatype):
        with pytest.raises(RdfError, match="not a finite"):
            Term(lexical, datatype)

    def test_string_nan_is_just_text(self):
        assert string("nan").value == "nan"

    def test_import_reports_the_line(self):
        text = (
            f'<urn:s> <urn:p> "1.0"^^<{DECIMAL_IRI}> .\n'
            f'<urn:s> <urn:p> "nan"^^<{DECIMAL_IRI}> .\n'
        )
        with pytest.raises(RdfError, match=r"^line 2: literal 'nan' is not a finite decimal"):
            import_ntriples(text)

    def test_import_reports_the_line_of_a_bad_iri(self):
        with pytest.raises(RdfError, match=r"^line 1: invalid IRI"):
            import_ntriples("<> <urn:p> <urn:o> .\n")


class TestNumericLexicalForm:
    """An integer is an ASCII sign and digits; a decimal may add one point
    and an exponent, as ``format_decimal`` writes them."""

    @pytest.mark.parametrize("lexical, datatype", [
        ("1_000", Datatype.INTEGER), (" 7", Datatype.INTEGER), ("7 ", Datatype.INTEGER),
        ("\u0661\u0662", Datatype.INTEGER), ("1e5", Datatype.INTEGER), ("7.", Datatype.INTEGER),
        ("1_000.5", Datatype.DECIMAL), ("\t2.5", Datatype.DECIMAL), ("\u0669.5", Datatype.DECIMAL),
        ("1.5\n", Datatype.DECIMAL),
    ])
    def test_term_rejects_what_only_float_reads(self, lexical, datatype):
        with pytest.raises(RdfError, match=f"^literal {re.escape(repr(lexical))} is not a valid "):
            Term(lexical, datatype)

    @pytest.mark.parametrize("lexical, datatype", [
        ("+7", Datatype.INTEGER), ("-0", Datatype.INTEGER), ("007", Datatype.INTEGER),
        ("1e-05", Datatype.DECIMAL), ("-1.5E+20", Datatype.DECIMAL), (".5", Datatype.DECIMAL),
        ("5.", Datatype.DECIMAL), ("+2.5", Datatype.DECIMAL),
    ])
    def test_term_accepts_the_ascii_forms(self, lexical, datatype):
        assert Term(lexical, datatype).sort_key()[1] == float(lexical)

    def test_import_reports_the_line(self):
        text = (
            f'<urn:s> <urn:p> "1000"^^<{Datatype.INTEGER.value}> .\n'
            f'<urn:s> <urn:p> "1_000"^^<{Datatype.INTEGER.value}> .\n'
        )
        with pytest.raises(RdfError, match=r"^line 2: literal '1_000' is not a valid integer$"):
            import_ntriples(text)


class TestEscaping:
    def test_newline_literal_round_trips(self):
        g = Graph([Triple(iri("urn:s"), iri("urn:p"), string("two\nlines"))])
        text = export_ntriples(g)
        assert text == '<urn:s> <urn:p> "two\\nlines"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
        assert set(import_ntriples(text)) == set(g)

    def test_echar_set_is_escaped(self):
        assert str(string('\\"\n\r\t\b\f')) == '"\\\\\\"\\n\\r\\t\\b\\f"^^<%s>' % Datatype.STRING.value

    def test_other_line_breaks_are_written_as_uchar(self):
        assert str(string("a\x0bb\u2028c")) == '"a\\u000Bb\\u2028c"^^<%s>' % Datatype.STRING.value

    def test_import_reads_every_echar_and_uchar(self):
        body = "\\t\\b\\n\\r\\f\\\"\\'\\\\\\u00e9\\U0001F525"
        (t,) = import_ntriples(f'<urn:s> <urn:p> "{body}"^^<{Datatype.STRING.value}> .\n')
        assert t.object.value == "\t\b\n\r\f\"'\\\u00e9\U0001F525"

    def test_escape_beyond_unicode_reports_the_line(self):
        with pytest.raises(RdfError, match=r"^line 1: invalid escape"):
            import_ntriples(f'<urn:s> <urn:p> "\\U00110000"^^<{Datatype.STRING.value}> .\n')

    @pytest.mark.parametrize("escape", ["\\uD800", "\\uDFFF", "\\U0000D800", "\\U0000DFFF"])
    def test_surrogate_escape_reports_the_line(self, escape):
        line = f'<urn:s> <urn:p> "x{escape}y"^^<{Datatype.STRING.value}> .\n'
        text = f'<urn:s> <urn:p> "a"^^<{Datatype.STRING.value}> .\n' + line
        with pytest.raises(RdfError, match=rf"^line 2: invalid escape '\\\\{escape[1:]}'$"):
            import_ntriples(text)

    @pytest.mark.parametrize("term, value", [
        (f'"x\ud800y"^^<{Datatype.STRING.value}>', "x\ud800y"), ("<urn:\udfff>", "urn:\udfff"),
    ], ids=["literal", "iri"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["bulk", "per-line"])
    def test_raw_surrogate_reports_the_line(self, term, value, newline):
        text = newline.join([f'<urn:s> <urn:p> "a"^^<{Datatype.STRING.value}> .', f"<urn:s> <urn:p> {term} .", ""])
        with pytest.raises(RdfError, match=f"^line 2: term {re.escape(repr(value))} holds a surrogate code point$"):
            import_ntriples(text)

    def test_unknown_escape_is_kept(self):
        (t,) = import_ntriples(f'<urn:s> <urn:p> "a\\qb"^^<{Datatype.STRING.value}> .\n')
        assert t.object.value == "a\\qb"

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_raw_line_break_character_in_literal_imports(self, char):
        (t,) = import_ntriples(f'<urn:s> <urn:p> "a{char}b"^^<{Datatype.STRING.value}> .\n')
        assert t.object.value == f"a{char}b"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_error_line_number_counts_each_newline(self, newline):
        good = f'<urn:s> <urn:p> "1"^^<{Datatype.INTEGER.value}> .'
        text = newline.join([good, "", good, "<urn:s> <urn:p>", ""])
        with pytest.raises(RdfError, match=r"^line 4: "):
            import_ntriples(text)


# IRIs: any text without whitespace.  Every code point that str.isspace()
# accepts is in one of the excluded categories.
iris = st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), min_size=1).map(iri)
awkward = st.sampled_from('"\\\'\n\r\t\b\f\x0b\x1c\x85\u2028\u2029 .<>^')
strings = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)), awkward)).map(string)
integers = st.integers(min_value=-(10**300), max_value=10**300).map(integer)
decimals = st.floats(allow_nan=False, allow_infinity=False).map(decimal)
triples = st.builds(Triple, iris, iris, st.one_of(iris, strings, integers, decimals))


@settings(max_examples=300, deadline=None)
@given(st.lists(triples, max_size=8))
def test_ntriples_round_trip(items):
    g = Graph(items)
    text = export_ntriples(g)
    again = import_ntriples(text)
    assert set(again) == set(g)
    assert export_ntriples(again) == text


@pytest.mark.parametrize(
    "value, datatype", [("\ud800", Datatype.STRING), ("a\udfffb", None), ("\udbff\udc00", None)],
    ids=["string", "iri", "pair"],
)
def test_term_rejects_a_lone_surrogate(value, datatype):
    with pytest.raises(RdfError, match=f"^term {re.escape(repr(value))} holds a surrogate code point$"):
        Term(value, datatype)


#: any text, with lone surrogates, which no UTF-8 text can hold, and numerals
any_text = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]), awkward, st.sampled_from("0123456789+-.eE")))


@settings(max_examples=500, deadline=None)
# arguments of the wrong type too: a value that is no str, a datatype that is neither None nor a Datatype
@given(st.one_of(any_text, st.binary(), st.integers(), st.floats(), st.none()),
       st.one_of(st.sampled_from([None, *Datatype]), st.sampled_from(["foo", Datatype.STRING.value, 3])))
@example(b"x", Datatype.STRING)
@example(5, Datatype.INTEGER)
@example(None, None)
@example("x", "foo")
@example("7", 3)
def test_a_term_is_refused_or_round_trips_through_utf_8(value, datatype):
    try:
        term = Term(value, datatype)
    except RdfError:
        return
    text = export_ntriples(Graph([Triple(iri("urn:s"), iri("urn:p"), term)]))
    (back,) = import_ntriples(text.encode("utf-8").decode("utf-8"))
    assert back.object == term and back.object.datatype is datatype


def test_bulk_loads_never_call_insert(dataset_text, monkeypatch):
    calls = 0
    insert = Graph.insert

    def counting(self, t):
        nonlocal calls
        calls += 1
        return insert(self, t)

    monkeypatch.setattr(Graph, "insert", counting)
    g = ingest_observations(parse_csv(dataset_text))
    again = import_ntriples(export_ntriples(g))
    assert calls == 0
    assert list(again) == sorted(g, key=str) and len(g) == 517 * 32
    # the hook does count
    Graph().insert(next(iter(g)))
    assert calls == 1


def test_terms_are_built_only_where_read(dataset_text, monkeypatch):
    text = export_ntriples(ingest_observations(parse_csv(dataset_text)))
    # no literal in the ingested store contains a space
    tokens = {token for line in text.splitlines() for token in line[: -len(" .")].split(" ")}
    query = parse_query(WIND_SURVEY_QUERY)
    built = count_built_terms(monkeypatch)
    g = import_ntriples(text)
    assert built == []
    # a full iteration builds each distinct token's term once, on its first read
    assert len({id(term) for t in g for term in (t.subject, t.predicate, t.object)}) == len(tokens)
    assert len(built) == len(tokens)
    assert list(g) and len(built) == len(tokens)
    # a query over a fresh import builds the terms of the tokens in its rows, and no other
    built.clear()
    table = evaluate(query, import_ntriples(text))
    assert table.rows and len(built) == len({str(term) for row in table.rows for term in row})


# --- the bulk reader against the line-by-line reader ----------------------

STRING_IRI = Datatype.STRING.value
#: escape sequences, valid, unknown and out of range, and raw characters that
#: only a literal may hold
escape_bodies = st.lists(
    st.sampled_from(
        ["\\t", "\\b", "\\n", "\\r", "\\f", '\\"', "\\'", "\\\\", "\\u00e9", "\\U0001F525",
         "\\U00110000", "\\q", "\\u12", "\u2028", "\x0b", " ", "\t", "a", ".", '"', "\\"]
    ),
    max_size=6,
).map("".join)
tokens = st.one_of(
    st.one_of(iris, strings, integers, decimals).map(str),
    escape_bodies.map(lambda body: f'"{body}"^^<{STRING_IRI}>'),
    st.sampled_from(
        ["<a>b>", "<a>>", "<<a>", "<a\"b>", "<>", "<", "a", "_:b", '"', '"x"', '"x"^^<urn:other>', '"x"^^<a>b>',
         f'"x" ^^<{STRING_IRI}>', f'"nan"^^<{DECIMAL_IRI}>', f'"1"^^<{DECIMAL_IRI}>.']
    ),
)
separators = st.sampled_from([" ", " ", "\t", "  ", " \t", "\u2028"])
ends = st.sampled_from([" .", " .", ".", "\t.", "  .", " . ", " .\t", " . # note", " ..", " ", ""])
lines = st.one_of(
    triples.map(str),
    st.builds(
        lambda lead, a, s1, b, s2, c, end: lead + a + s1 + b + s2 + c + end,
        st.sampled_from(["", "", " ", "\t"]), tokens, separators, tokens, separators, tokens, ends,
    ),
    st.lists(tokens, max_size=4).map(lambda ts: " ".join(ts) + " ."),
    # an exported statement with one token too many before its "."
    st.builds(lambda t, extra: f"{str(t)[:-2]} {extra} .", triples, tokens),
    st.sampled_from(["", "   ", "# comment", "  # indented", "#<a> <b> <c> ."]),
)


def per_line(text: str) -> Graph:
    """The graph that the per-line reader alone makes of ``text``."""
    return Graph(rdf._read_lines(text))


def outcome(read, text: str):
    """The stored keys and the triples, in order, of the graph that ``read`` makes of ``text``, or its error."""
    try:
        g = read(text)
    except RdfError as exc:
        return str(exc)
    return list(g._triples), list(g)


@settings(max_examples=500, deadline=None)
@given(st.lists(lines, min_size=1, max_size=6))
def test_fast_path_never_changes_a_result(items):
    for text in ("\n".join(items), "".join(item + "\n" for item in items)):
        assert outcome(import_ntriples, text) == outcome(per_line, text)


#: edits that can take a line out of export form, or keep it there
EDITS = [" ", "  ", "\n", "\r\n", "\r", "\t", ".", " .", " .\n", "<", ">", "<>", '"', "\\", "#", "\u2028", "x",
         "^^", "\\u0041", ""]


@settings(max_examples=500, deadline=None)
@given(st.lists(triples, min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3), st.sampled_from(EDITS)), max_size=3))
def test_bulk_reader_matches_the_per_line_reader(items, edits):
    text = export_ntriples(Graph(items))
    for position, cut, insert in edits:
        position %= len(text) + 1
        text = text[:position] + insert + text[position + cut:]
    want = outcome(per_line, text)
    bulk = rdf._read_bulk(text, rdf._Terms())
    if bulk is not None:
        assert list(bulk) == want[0]
    assert outcome(import_ntriples, text) == want


#: block sizes in characters that put a block end inside the first few lines, or after each line
SMALL_BLOCKS = st.sampled_from([1, 2, 7, 40, 120])


@settings(max_examples=500, deadline=None)
@given(st.lists(triples, min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3), st.sampled_from(EDITS)), max_size=3),
       SMALL_BLOCKS)
def test_bulk_reader_matches_the_per_line_reader_across_blocks(items, edits, block):
    with mock.patch.object(rdf, "_BLOCK", block):
        test_bulk_reader_matches_the_per_line_reader.hypothesis.inner_test(items, edits)


@settings(max_examples=300, deadline=None)
@given(st.lists(lines, min_size=1, max_size=6), SMALL_BLOCKS)
def test_fast_path_never_changes_a_result_across_blocks(items, block):
    with mock.patch.object(rdf, "_BLOCK", block):
        test_fast_path_never_changes_a_result.hypothesis.inner_test(items)


S = f"<{STRING_IRI}>"


@pytest.mark.parametrize("text, want, bulk", [
    # three spaces a line on average, but line 1 has two terms
    ("<a> <b> .\n<a> <b> <c> <d> .\n", "line 1: expected 3 terms, got 2", False),
    # a line end after every fourth item, but seven terms in the line
    ("<a> <b> <c> <d> <e> <f> <g> .\n", "line 1: expected 3 terms, got 7", False),
    ("<> <b> <c> .\n", "line 1: invalid IRI: ''", False),
    ("# note\n<a> <b> <c> .\n", 1, False),
    ("<a> <b> <c> .\n\n<a> <b> <d> .\n", 2, False),
    ("<a> <b> <c> .\r\n<a> <b> <d> .\r\n", 2, False),
    ("<a>\t<b> <c> .\n", 1, False),
    ("<a> <b> <c> .\n<a> <b> <c> .", 1, False),
    ("<a> <b> <c> .\n<a> <b> <d> .\n", 2, True),
    # one literal spelled two ways is one triple
    (f'<a> <b> "\\u0041"^^{S} .\n<a> <b> "A"^^{S} .\n', 1, True),
    (f'<a> <b> "x\u2028y"^^{S} .\n', 1, True),
    (f'<a> <b> "x y"^^{S} .\n', 1, False),
    ('<a> <b> "1"^^<urn:other> .\n', "line 1: unsupported datatype <urn:other>", False),
    (f'<a> <b> "1e999"^^<{DECIMAL_IRI}> .\n', "line 1: literal '1e999' is not a finite decimal", False),
    (f'<a> <b> <c> .\n<a> <b> "1e999"^^<{DECIMAL_IRI}> .\n', "line 2: literal '1e999' is not a finite decimal", False),
    # a lone quote before ^^<datatype>: a literal's end with no start, alone and beside a literal
    (f'<a> <b> "^^{S} .\n', f"line 1: unterminated literal '\"^^{S}'", False),
    (f'<a> <b> "x"^^{S} .\n<a> <b> "^^{S} .\n', f"line 2: unterminated literal '\"^^{S}'", False),
])
def test_bulk_and_per_line_readers_agree(text, want, bulk):
    got = outcome(import_ntriples, text)
    assert got == outcome(per_line, text)
    assert (got if isinstance(got, str) else len(got[0])) == want
    assert (rdf._read_bulk(text, rdf._Terms()) is not None) is bulk


I = f"<{Datatype.INTEGER.value}>"


@pytest.mark.parametrize("text, want", [
    # a literal object in one block is no subject in a later one
    (f'<a> <b> "x"^^{S} .\n<a> <b> <c> .\n"x"^^{S} <b> <c> .\n',
     f"line 3: triple subject must be an IRI, got \"x\"^^{S}"),
    # one literal spelled two ways in two blocks is one triple
    (f'<a> <b> "\\u0041"^^{S} .\n<a> <b> <c> .\n<a> <b> "A"^^{S} .\n', 2),
    # a bad line in the last block is named by its line in the whole text
    (f'<a> <b> <c> .\n<a> <b> <d> .\n<a> <b> <e> .\n<a> <b> "1e999"^^<{DECIMAL_IRI}> .\n',
     "line 4: literal '1e999' is not a finite decimal"),
    # an empty object token after a block that holds no new token
    ("<a> <b> <c> .\n<a> <b> <c> .\n<a> <b>  .\n", "line 3: expected 3 terms, got 2"),
])
def test_bulk_and_per_line_readers_agree_across_blocks(text, want):
    with mock.patch.object(rdf, "_BLOCK", 1):
        got = outcome(import_ntriples, text)
        assert got == outcome(per_line, text)
        assert (got if isinstance(got, str) else len(got[0])) == want
        assert (rdf._read_bulk(text, rdf._Terms()) is not None) is not isinstance(want, str)


def test_a_number_first_seen_in_a_later_block_is_filed():
    text = f'<a> <b> <c> .\n<a> <b> "5"^^{I} .\n<a> <c> "5"^^{I} .\n<a> <d> "-2.5"^^<{DECIMAL_IRI}> .\n'
    with mock.patch.object(rdf, "_BLOCK", 1):
        g = import_ntriples(text)
        assert rdf._read_bulk(text, rdf._Terms()) is not None
    assert g._terms.numbers == {f'"5"^^{I}': 5.0, f'"-2.5"^^<{DECIMAL_IRI}>': -2.5}
    assert [t.object._num for t in g if t.object.datatype is not None] == [5.0, 5.0, -2.5]


def test_the_import_peak_stays_below_twice_the_kept_size(dataset_text):
    # the bundled store spans several blocks, and only one block's split strings are alive at a time
    text = export_ntriples(ingest_observations(parse_csv(dataset_text)))
    assert len(text) > 3 * rdf._BLOCK
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = import_ntriples(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g) == 16544
    assert peak - before < 2 * (kept - before)


def test_bulk_reader_stores_canonical_tokens():
    g = import_ntriples(f'<a> <b> "\\u0041\\q"^^{S} .\n<a> <b> "x\u2028\ty"^^{S} .\n')
    assert list(g._triples) == [("<a>", "<b>", f'"A\\\\q"^^{S}'), ("<a>", "<b>", f'"x\\u2028\\ty"^^{S}')]
    assert [t.object.value for t in g] == ["A\\q", "x\u2028\ty"]


def assert_rebuilt_terms_are_the_parsed_terms(text: str) -> None:
    """Each token of the graph that the bulk reader makes of ``text`` rebuilds to the term the line reader parses."""
    g = import_ntriples(text)
    assert rdf._read_bulk(text, rdf._Terms()) is not None and len(g._terms) == 0
    parsed = {token: rdf._parse_term(token) for key in g._triples for token in key}
    for token, want in parsed.items():
        got = g._terms[token]
        assert (got.value, got.datatype, repr(got._num)) == (want.value, want.datatype, repr(want._num)), token
    want_numbers = {token: term._num for token, term in parsed.items() if term._num is not None}
    assert {token: repr(n) for token, n in g._terms.numbers.items()} == {t: repr(n) for t, n in want_numbers.items()}


def test_the_bundled_store_rebuilds_the_parsed_terms(dataset_text):
    assert_rebuilt_terms_are_the_parsed_terms(export_ntriples(ingest_observations(parse_csv(dataset_text))))


@settings(max_examples=300, deadline=None)
@given(st.lists(triples, min_size=1, max_size=8), st.lists(escape_bodies, max_size=3),
       st.lists(st.sampled_from(["1\\u0030", "-0.0", "0.0", "+.5e-3", "1e+16", "0\\u00305"]), max_size=2))
def test_rebuilt_terms_are_the_parsed_terms(items, bodies, numerals):
    # the store, with literals that export writes another way: escapes, and raw characters it escapes
    text = export_ntriples(Graph(items)) + "".join(
        [f'<urn:s> <urn:p> "{body}"^^<{STRING_IRI}> .\n' for body in bodies]
        + [f'<urn:s> <urn:n> "{numeral}"^^<{DECIMAL_IRI}> .\n' for numeral in numerals]
    )
    assume(rdf._read_bulk(text, rdf._Terms()) is not None)
    assert_rebuilt_terms_are_the_parsed_terms(text)


def test_exported_dataset_never_reaches_the_general_tokenizer(dataset_text):
    text = export_ntriples(ingest_observations(parse_csv(dataset_text)))
    # the bulk reader takes the whole text, so no line is tokenized
    with mock.patch.object(rdf, "_tokens", side_effect=AssertionError("read line by line")):
        g = import_ntriples(text)
    assert export_ntriples(g) == text


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_export_writes_the_stored_tokens_without_a_term(newline, monkeypatch):
    # escapes that export writes another way, a raw tab and U+2028, and an unknown escape
    lines = [f'<urn:s> <urn:p> "\\u0041\t\u2028\\q"^^{S} .', f'<urn:s> <urn:p> "\\"\\x\\u00e9"^^{S} .']
    g = import_ntriples(newline.join(lines) + newline)
    calls = []
    monkeypatch.setattr(Term, "__str__", lambda term: calls.append(term) or "")
    text = export_ntriples(g)
    monkeypatch.undo()
    assert calls == []
    assert text == "".join(sorted(str(t) + "\n" for t in g))
    assert text == f'<urn:s> <urn:p> "A\\t\\u2028\\\\q"^^{S} .\n<urn:s> <urn:p> "\\"\\\\x\u00e9"^^{S} .\n'
