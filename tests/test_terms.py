"""The term representation: equality, hashing, immutability, escaping,
non-finite numbers, numeric lexical forms, one ``Term`` per distinct token
on import, and the import fast path agreeing with the general tokenizer."""

import dataclasses
import enum
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireweather import rdf
from fireweather.ingest import ingest_observations, parse_csv
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
        assert a == b and hash(a) == hash(b) == hash((a.subject._hash, a.predicate._hash, a.object._hash))
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


def test_import_builds_one_term_per_distinct_token(dataset_text, monkeypatch):
    text = export_ntriples(ingest_observations(parse_csv(dataset_text)))
    # no literal in the ingested store contains a space
    tokens = {token for line in text.splitlines() for token in line[: -len(" .")].split(" ")}
    built = []
    init = Term.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Term, "__init__", counting)
    g = import_ntriples(text)
    assert len(built) == len(tokens)
    assert len({id(term) for t in g for term in (t.subject, t.predicate, t.object)}) == len(tokens)


# --- the import fast path -------------------------------------------------

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
#: a statement regex that matches nothing, so every line takes the general path
NO_FAST_PATH = re.compile(r"(?!)")


def import_outcome(text: str):
    try:
        return list(import_ntriples(text))
    except RdfError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(lines, min_size=1, max_size=6))
def test_fast_path_never_changes_a_result(items):
    text = "\n".join(items)
    with mock.patch.object(rdf, "_STATEMENT", NO_FAST_PATH):
        general = import_outcome(text)
    assert import_outcome(text) == general


def test_exported_dataset_never_reaches_the_general_tokenizer(dataset_text):
    text = export_ntriples(ingest_observations(parse_csv(dataset_text)))
    general = rdf._tokens
    seen = []

    def recording(line):
        seen.append(line)
        return general(line)

    with mock.patch.object(rdf, "_tokens", recording):
        g = import_ntriples(text)
    # only the empty line after the final newline
    assert seen == [""]
    assert export_ntriples(g) == text
