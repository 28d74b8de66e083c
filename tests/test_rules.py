import dataclasses
import math
import operator
import random
import re
import string as string_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireweather import rdf
from fireweather import rules as rules_module
from fireweather import vocab
from fireweather.assess import assess
from fireweather.indices import WeatherInputs, compute_chain
from fireweather.ingest import parse_csv
from fireweather.rdf import Graph, RdfError, Term, Triple, decimal, integer, iri, join, string
from fireweather.rules import (
    BuiltinGreaterThan,
    ClassAtom,
    DataPropertyAtom,
    Rule,
    RuleParseError,
    forward_chain,
    parse_rule,
    parse_rules,
    verify_provenance,
)
from fireweather.sparql import QueryParseError, evaluate, parse_query
from test_sparql import rows_both_ways
from util import SUBJECTS, brute_force_join, check_index_coherence, reference_filter, terms

RULE_TEXT = "sensor_id(?s) ^ notdifficult(?s, ?rh) ^ greaterThan(?rh, 16) -> DifficultyofControle(?s, notDifficult)"


def sensor(name: str):
    return iri("urn:ssn:sensor:" + name)


def typed(name: str) -> Triple:
    return Triple(sensor(name), iri(vocab.RDF_TYPE), iri(vocab.SENSOR_CLASS))


def prop(name: str, p: str, value) -> Triple:
    return Triple(sensor(name), iri(vocab.prop_iri(p)), value)


class TestParsing:
    def test_three_atom_body(self):
        rule = parse_rule(RULE_TEXT)
        assert len(rule.body) == 3
        assert isinstance(rule.body[0], ClassAtom)
        assert isinstance(rule.body[1], DataPropertyAtom)
        assert isinstance(rule.body[2], BuiltinGreaterThan)
        assert rule.body[2].threshold == 16.0
        assert rule.head.property_name == "DifficultyofControle"
        assert rule.head.value.value == "notDifficult"

    def test_empty_file(self):
        assert parse_rules("") == ()
        assert parse_rules("# only a comment\n\n") == ()

    def test_unsafe_rule_rejected(self):
        with pytest.raises(RuleParseError, match=r"unsafe.*\?t"):
            parse_rule("foo(?s) -> bar(?t, x)")

    def test_unbound_builtin_variable_rejected(self):
        with pytest.raises(RuleParseError, match=r"\?z"):
            parse_rule("foo(?s) ^ greaterThan(?z, 3) -> bar(?s, x)")

    def test_unsupported_builtin_rejected(self):
        with pytest.raises(RuleParseError, match="only greaterThan"):
            parse_rule("foo(?s) ^ p(?s, ?v) ^ lessThan(?v, 3) -> bar(?s, x)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(RuleParseError, match="line 1"):
            parse_rule("foo(?s ->")

    def test_head_needs_constant(self):
        with pytest.raises(RuleParseError):
            parse_rule("foo(?s) ^ p(?s, ?v) -> bar(?s)")

    def test_render_round_trips(self, rules_text):
        ruleset = parse_rules(rules_text)
        assert len(ruleset) == 27
        assert parse_rules("".join(rule.render() + "\n" for rule in ruleset)) == ruleset

    @pytest.mark.parametrize("threshold", ["1-2", "1.2.3", "1e", "1e999"])
    def test_bad_threshold_carries_position(self, threshold):
        text = f"foo(?s) ^ p(?s, ?v) ^ greaterThan(?v, {threshold}) -> bar(?s, x)"
        column = text.index(threshold) + 1
        with pytest.raises(RuleParseError, match=rf"^line 3, column {column}: .*{threshold}"):
            parse_rules("# comment\n\n" + text + "\n")

    @pytest.mark.parametrize("numeral", ["٩٩٩", "1٩", "-١٢.5"])
    def test_threshold_obeys_the_term_numeral_rule_as_a_filter_does(self, numeral):
        text = f"foo(?s) ^ p(?s, ?v) ^ greaterThan(?v, {numeral}) -> bar(?s, x)"
        with pytest.raises(RuleParseError) as info:
            parse_rule(text)
        assert (info.value.line, info.value.column) == (1, text.index(numeral) + 1)
        assert numeral in str(info.value)
        query = f"SELECT ?s WHERE {{ ?s <urn:p> ?v FILTER (?v > {numeral}) }}"
        with pytest.raises(QueryParseError) as info:
            parse_query(query)
        assert info.value.column == query.index(numeral) + 1

    @pytest.mark.parametrize("char", "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
    def test_comment_holds_a_non_newline_line_break(self, char):
        text = f"# note {char} see below\na(?s, ?v) -> b(?s, x)\r\nc(?s, ?v) -> d(?s, y)\rbad\n"
        with pytest.raises(RuleParseError, match=r"^line 4, column 4: expected LPAREN"):
            parse_rules(text)
        ruleset = parse_rules(text[: text.index("bad")])
        assert [r.head.property_name for r in ruleset] == ["b", "d"]

    def test_decimal_threshold(self):
        rule = parse_rule("foo(?s) ^ p(?s, ?v) ^ greaterThan(?v, 1.5) -> bar(?s, x)")
        assert rule.body[2].threshold == 1.5
        assert parse_rules(rule.render()) == (rule,)


@pytest.mark.parametrize(
    "text, message",
    [
        ("foo(? ) -> bar(?s, x)", "line 2, column 5: empty variable name"),
        ("foo(?s) & bar(?s, x)", "line 2, column 9: unexpected character '&'"),
        ("foo(x) -> bar(?s, y)", "line 2, column 5: atom argument must be a variable, got 'x'"),
        ("foo(?s) ^ greaterThan(?s) -> bar(?s, x)", "line 2, column 11: greaterThan takes two arguments"),
        ("foo(?s) ^ p(?s, ?v) ^ greaterThan(?v, x) -> bar(?s, y)",
         "line 2, column 39: greaterThan threshold must be numeric"),
        ("foo(?s) ^ p(?s, ) -> bar(?s, x)", "line 2, column 17: unexpected atom argument ')'"),
        ("foo(?s) ^ p(?s, ?v) -> bar(?s, ?v)", "line 2, column 32: head atom object must be a constant"),
        ("foo(?s) ^ p(?s, ?v) -> greaterThan(?v, 3)", "line 2: head must be a data-property atom"),
        # a column counts from the line as written, leading whitespace too
        ("    sensor_id(?s) ^ $x(?s, ?v) -> a(?s, b)", "line 2, column 21: unexpected character '$'"),
        ("\tsensor_id(?s) ^ $x(?s, ?v) -> a(?s, b)", "line 2, column 18: unexpected character '$'"),
    ],
    ids=[
        "empty-variable", "unexpected-character", "argument-not-variable", "greater-than-one-argument",
        "threshold-not-numeric", "unexpected-argument", "head-object-variable", "head-not-data-property",
        "leading-spaces", "leading-tab",
    ],
)
def test_parse_error_message_and_position(text, message):
    with pytest.raises(RuleParseError) as info:
        parse_rules("# the rule below is malformed\n" + text + "\n")
    line, column = re.match(r"line (\d+)(?:, column (\d+))?", message).groups()
    assert (str(info.value), info.value.line, info.value.column) == (message, int(line), int(column or 0))


@pytest.mark.parametrize("text, column", [
    ("foo(?s) ^ p(?s, ?v) ^ greaterThan(?v, ²) -> bar(?s, x)", 39),
    ("foo(?s) ^ p(?s, ?v) ^ greaterThan(?v, 1²) -> bar(?s, x)", 40),
    ("foo(?s) ^ p(?s, -①) -> bar(?s, x)", 17),
])
def test_a_digit_that_is_not_decimal_starts_no_token(text, column):
    # a number reads decimal digits only (str.isdecimal, not str.isdigit)
    with pytest.raises(RuleParseError) as info:
        parse_rule(text)
    assert str(info.value) == f"line 1, column {column}: unexpected character {text[column - 1]!r}"


def test_a_digit_that_is_not_decimal_may_continue_a_name():
    rule = parse_rule("foo²(?s) ^ p(?s, ?v²) ^ greaterThan(?v², 1) -> bar(?s, x²)")
    assert rule.render() == "foo²(?s) ^ p(?s, ?v²) ^ greaterThan(?v², 1) -> bar(?s, x²)"


# --- random rule sets --------------------------------------------------------

BUILTIN_NAMES = {"greaterThan", "lessThan", "equal", "notEqual", "greaterThanOrEqual", "lessThanOrEqual"}
WORD = string_module.ascii_letters + string_module.digits + "_"
NAMES = st.builds(
    operator.add, st.sampled_from(string_module.ascii_letters + "_"), st.text(WORD, max_size=8)
).filter(lambda name: name not in BUILTIN_NAMES)
VARIABLES = st.text(WORD, min_size=1, max_size=4).map("?".__add__)
NUMERALS = st.builds("{}{}{}".format, st.sampled_from(["", "+", "-"]), st.integers(0, 9999),
                     st.sampled_from(["", ".5", ".25", ".0"]))
LABELS = st.one_of(NAMES, NUMERALS).map(string)
THRESHOLDS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def random_rules(draw) -> Rule:
    """A rule that ``parse_rule`` accepts: every builtin and head variable is bound in the body."""
    variables = draw(st.lists(VARIABLES, min_size=1, max_size=3, unique=True))
    var = st.sampled_from(variables)
    binders = draw(st.lists(st.one_of(
        st.builds(ClassAtom, NAMES, var),
        st.builds(DataPropertyAtom, NAMES, var, st.one_of(var, LABELS)),
    ), min_size=1, max_size=4))
    slots = [(a.variable,) if isinstance(a, ClassAtom) else (a.subject, a.value) for a in binders]
    bound = sorted({v for atom in slots for v in atom if isinstance(v, str)})
    builtins = draw(st.lists(st.builds(BuiltinGreaterThan, st.sampled_from(bound), THRESHOLDS), max_size=2))
    body = draw(st.permutations(binders + builtins))
    return Rule(tuple(body), DataPropertyAtom(draw(NAMES), draw(st.sampled_from(bound)), draw(LABELS)))


@settings(max_examples=100, deadline=None)
@given(st.lists(random_rules(), max_size=4).map(tuple))
def test_random_rule_sets_round_trip_through_render(ruleset):
    assert parse_rules("".join(rule.render() + "\n" for rule in ruleset)) == ruleset


@settings(max_examples=500, deadline=None)
@given(term=terms, threshold=st.one_of(THRESHOLDS, st.sampled_from([0.0, 4.5, 16.0, 17.0])))
def test_compiled_greater_than_matches_the_reference(term, threshold):
    rule = Rule((BuiltinGreaterThan("?v", threshold),), DataPropertyAtom("b", "?v", string("x")))
    want = reference_filter(term, ">", decimal(threshold))
    ((variable, test),) = rule.checks()
    assert variable == "?v" and rows_both_ways(term, test) == ([(str(term),)] * want,) * 2


def test_nan_threshold_is_rejected_when_compiled():
    rule = Rule((BuiltinGreaterThan("?v", math.nan),), DataPropertyAtom("b", "?v", string("x")))
    with pytest.raises(RdfError, match="not a finite decimal"):
        rule.checks()


#: thresholds spelled so that both the rule and the query grammar read them
SHARED_THRESHOLDS = st.one_of(
    st.integers(-60, 60).map(str),
    st.integers(-600, 600).map(lambda k: f"{k / 10:.1f}"),
    st.sampled_from(["16", "17", "4.5", "-0", "999"]),
)


@settings(max_examples=300, deadline=None)
@given(store=st.lists(st.tuples(st.sampled_from(SUBJECTS), terms), max_size=8), threshold=SHARED_THRESHOLDS)
def test_greater_than_rule_derives_what_the_filter_query_selects(store, threshold):
    p = vocab.prop_iri("p")
    g = Graph(Triple(iri(s), iri(p), term) for s, term in store)
    ruleset = parse_rules(f"p(?s, ?v) ^ greaterThan(?v, {threshold}) -> q(?s, hit)\n")
    derived = {f.subject for f in forward_chain(g, ruleset)}
    query = parse_query(f"SELECT ?s WHERE {{ ?s <{p}> ?v FILTER (?v > {threshold}) }}")
    selected = {row[0] for row in evaluate(query, g).rows}
    assert derived == selected


class TestForwardChain:
    def test_sensor2_walkthrough(self, rules_text):
        ruleset = parse_rules(rules_text)
        g = Graph([
            typed("Sensor_2"),
            prop("Sensor_2", "notdifficult", decimal(17.0)),
            prop("Sensor_2", "moderate", decimal(8.0)),
        ])
        facts = forward_chain(g, ruleset)
        derived = {(f.subject.value, f.property_iri, f.label) for f in facts}
        assert ("urn:ssn:sensor:Sensor_2", vocab.prop_iri("DifficultyofControle"), "notDifficult") in derived
        assert ("urn:ssn:sensor:Sensor_2", vocab.prop_iri("FireIntensity"), "moderate") in derived
        assert verify_provenance(g, ruleset, facts)

    def test_rain_fires_firestop(self, rules_text):
        ruleset = parse_rules(rules_text)
        g = Graph([typed("Sensor_3"), prop("Sensor_3", "Rain", decimal(2.0))])
        facts = forward_chain(g, ruleset)
        assert {(f.property_iri, f.label) for f in facts} == {(vocab.prop_iri("startRaining"), "FireStop")}

    def test_empty_store(self, rules_text):
        assert forward_chain(Graph(), parse_rules(rules_text)) == []

    def test_string_valued_literal_does_not_compare_numerically(self, rules_text):
        # greaterThan(?v, N) means FILTER (?v > N): a string that spells a
        # number is not a number
        ruleset = parse_rules(rules_text)
        as_string = Graph([typed("Sensor_2"), prop("Sensor_2", "notdifficult", string("17"))])
        assert forward_chain(as_string, ruleset) == []
        as_decimal = Graph([typed("Sensor_2"), prop("Sensor_2", "notdifficult", decimal(17.0))])
        assert [f.label for f in forward_chain(as_decimal, ruleset)] == ["notDifficult"]

    def test_chained_rules_reach_fixpoint(self):
        ruleset = parse_rules(
            "a(?s, ?v) ^ greaterThan(?v, 0) -> b(?s, hot)\n"
            "b(?s, ?w) -> c(?s, alarm)\n"
        )
        g = Graph([prop("s1", "a", integer(5))])
        facts = forward_chain(g, ruleset)
        assert {(f.property_iri, f.label) for f in facts} == {
            (vocab.prop_iri("b"), "hot"),
            (vocab.prop_iri("c"), "alarm"),
        }

    def test_input_graph_unchanged(self):
        ruleset = parse_rules(
            "a(?s, ?v) ^ greaterThan(?v, 0) -> b(?s, hot)\n"
            "b(?s, ?w) -> c(?s, alarm)\n"
        )
        g = Graph([prop("s1", "a", integer(5)), prop("s2", "a", integer(-1))])
        before = set(g)
        assert len(forward_chain(g, ruleset)) == 2
        assert set(g) == before and check_index_coherence(g)

    def test_builtin_before_its_binding_atom(self):
        ruleset = parse_rules("greaterThan(?v, 0) ^ a(?s, ?v) -> b(?s, hot)\n")
        g = Graph([prop("s1", "a", integer(5)), prop("s2", "a", integer(-1))])
        assert [f.subject for f in forward_chain(g, ruleset)] == [sensor("s1")]

    def test_several_rules_keep_the_lowest_index(self):
        ruleset = parse_rules(
            "a(?s, ?v) ^ greaterThan(?v, 10) -> b(?s, hot)\n"
            "a(?s, ?v) -> b(?s, hot)\n"
        )
        g = Graph([prop("s1", "a", integer(5)), prop("s1", "a", integer(50))])
        (fact,) = forward_chain(g, ruleset)
        assert fact.rule == ruleset[0] and dict(fact.bindings)["?v"] == integer(50)

    def test_monotone_under_insertion(self, rules_text):
        ruleset = parse_rules(rules_text)
        g = Graph([typed("Sensor_2"), prop("Sensor_2", "moderate", decimal(8.0))])
        before = {f.triple() for f in forward_chain(g, ruleset)}
        g.insert(prop("Sensor_2", "extreme", decimal(31.0)))
        after = {f.triple() for f in forward_chain(g, ruleset)}
        assert before <= after


class TestVerifyProvenance:
    @pytest.fixture()
    def derived(self, rules_text):
        ruleset = parse_rules(rules_text)
        g = Graph([typed("Sensor_2"), prop("Sensor_2", "notdifficult", decimal(17.0))])
        (fact,) = forward_chain(g, ruleset)
        assert fact.rule.head.property_name == "DifficultyofControle"
        return g, ruleset, fact

    def test_accepts_the_derived_fact(self, derived):
        g, ruleset, fact = derived
        assert verify_provenance(g, ruleset, [fact])

    @pytest.mark.parametrize("changes", [
        {"property_iri": vocab.prop_iri("WindSpeed"), "label": "extreme"},
        {"property_iri": vocab.prop_iri("WindSpeed")},
        {"label": "extreme"},
        {"subject": sensor("Sensor_3")},
    ])
    def test_rejects_a_fact_that_contradicts_its_head(self, derived, changes):
        g, ruleset, fact = derived
        assert not verify_provenance(g, ruleset, [dataclasses.replace(fact, **changes)])

    @pytest.mark.parametrize("stored", [True, False], ids=["fails-builtin", "fails-pattern"])
    def test_rejects_a_fact_whose_bindings_fail_its_body(self, derived, stored):
        # ?rh bound to 15, below the rule's greaterThan(?rh, 16), whether or not the store holds that value
        g, ruleset, fact = derived
        if stored:
            g = Graph([*g, prop("Sensor_2", "notdifficult", decimal(15.0))])
        bindings = tuple((name, decimal(15.0) if name == "?rh" else term) for name, term in fact.bindings)
        assert not verify_provenance(g, ruleset, [dataclasses.replace(fact, bindings=bindings)])

    @pytest.mark.parametrize("name", ["?rh", "?s"])
    def test_rejects_a_fact_missing_one_binding(self, derived, name):
        # without ?rh the body still holds for some value, but a fact binds exactly its rule's variables
        g, ruleset, fact = derived
        bindings = tuple(b for b in fact.bindings if b[0] != name)
        assert len(bindings) == len(fact.bindings) - 1
        assert not verify_provenance(g, ruleset, [dataclasses.replace(fact, bindings=bindings)])

    def test_rejects_a_fact_binding_a_variable_its_rule_lacks(self, derived):
        g, ruleset, fact = derived
        bindings = (*fact.bindings, ("?x", decimal(17.0)))
        assert not verify_provenance(g, ruleset, [dataclasses.replace(fact, bindings=bindings)])

    def test_accepts_a_fact_whose_rule_equals_one_of_the_set(self, derived):
        g, ruleset, fact = derived
        twin = dataclasses.replace(fact, rule=parse_rule(fact.rule.render()))
        assert twin.rule is not fact.rule
        assert verify_provenance(g, ruleset, [twin])

    def test_rejects_a_fact_from_a_rule_outside_the_set(self, rules_text):
        # the body holds and the head agrees, but no rule of the set is the fact's
        forged = (parse_rule("sensor_id(?s) -> FireIntensity(?s, extreme)"),)
        g = Graph([typed("Sensor_2")])
        facts = forward_chain(g, forged)
        assert verify_provenance(g, forged, facts)
        assert not verify_provenance(g, parse_rules(rules_text), facts)


# --- naive fixpoint oracle -------------------------------------------------


def naive_fixpoint(g: Graph, ruleset) -> set[Triple]:
    """Repeat full rule application until no rule adds a triple."""
    work = Graph(g)
    derived: set[Triple] = set()
    changed = True
    while changed:
        changed = False
        for rule in ruleset:
            patterns = [a.pattern() for a in rule.body if not isinstance(a, BuiltinGreaterThan)]
            builtins = [a for a in rule.body if isinstance(a, BuiltinGreaterThan)]
            for binding in brute_force_join(work, patterns):
                if not all(
                    b.variable in binding and reference_filter(binding[b.variable], ">", decimal(b.threshold))
                    for b in builtins
                ):
                    continue
                head = Triple(
                    binding[rule.head.subject],
                    iri(vocab.prop_iri(rule.head.property_name)),
                    string(rule.head.value.value),
                )
                if head not in work:
                    work.insert(head)
                    derived.add(head)
                    changed = True
    return derived


BODY_PROPERTIES = [
    "Difficult", "Moderatelyeasy", "easy", "veryeasy", "extremelyeasy",
    "little", "moderate", "difficultandextended", "Difficultandextensive",
    "notdifficult", "difficult", "verydifficult", "extremelydifficult",
    "slow", "moderatelyfast", "fast", "veryfast",
    "low", "high", "veryhigh", "extreme", "Rain", "windspeed",
]


def random_store(rng: random.Random) -> Graph:
    g = Graph()
    names = ["S1", "S2", "S3", "S4"]
    for _ in range(rng.randrange(31)):
        name = rng.choice(names)
        if rng.random() < 0.25:
            g.insert(typed(name))
        else:
            value = decimal(round(rng.uniform(-2.0, 70.0), 1))
            g.insert(prop(name, rng.choice(BODY_PROPERTIES), value))
    return g


def test_fixpoint_matches_naive_oracle(rules_text):
    ruleset = parse_rules(rules_text)
    rng = random.Random(2718)
    for _ in range(500):
        g = random_store(rng)
        got = {f.triple() for f in forward_chain(g, ruleset)}
        want = naive_fixpoint(g, ruleset)
        assert got == want


def test_provenance_resatisfies_on_random_stores(rules_text):
    ruleset = parse_rules(rules_text)
    rng = random.Random(31415)
    for _ in range(50):
        g = random_store(rng)
        facts = forward_chain(g, ruleset)
        assert verify_provenance(g, ruleset, facts)


# fwi.rules plus a rule whose body reads two of its head properties, so that
# chaining runs a second round seeded from those patterns alone
MIXED_RULE = "sensor_id(?s) ^ FireIntensity(?s, ?level) ^ RateofSpread(?s, fast) -> Alarm(?s, raised)\n"


def test_mixed_rule_set_matches_naive_oracle(rules_text):
    ruleset = parse_rules(rules_text + MIXED_RULE)
    rng = random.Random(4242)
    alarms = 0
    for _ in range(300):
        g = random_store(rng)
        facts = forward_chain(g, ruleset)
        want = naive_fixpoint(g, ruleset)
        assert {f.triple() for f in facts} == want
        assert verify_provenance(g, ruleset, facts)
        alarms += any(f.rule is ruleset[-1] for f in facts)
    assert alarms >= 20


# --- recursive rule sets ---------------------------------------------------
#
# fwi.rules never reads a head predicate, so chaining it stops after round 1.
# These rule sets do: rule k reads h<k-1> at a random body position and
# writes h<k>, and other atoms may read any head, so chaining runs over
# several rounds and may recurse.  Stores hold some h3 and h4 facts, so a
# rule may derive a triple already known; atoms on p2, which no store holds,
# make rules that must be skipped.

RECURSIVE_VALUES = ["?v", "?w", "5", "hot"]


def random_recursive_atom(rng: random.Random) -> str:
    subject = rng.choice(["?s", "?s", "?t"])
    if rng.random() < 0.2:
        return f"sensor_id({subject})"
    name = rng.choice(["p0", "p1", "p1", "p2", "h0", "h1", "h2", "h3", "h4"])
    return f"{name}({subject}, {rng.choice(RECURSIVE_VALUES)})"


def random_recursive_rules(rng: random.Random) -> str:
    lines = []
    for k in range(rng.randint(2, 5)):
        body = [random_recursive_atom(rng) for _ in range(rng.choice([0, 0, 1, 2]))]
        lead = f"h{k - 1}(?s, ?u)" if k else f"{rng.choice(['p0', 'p1'])}(?s, ?u)"
        body.insert(rng.randrange(len(body) + 1), lead)
        if rng.random() < 0.3:
            bound = sorted({v for v in ("?u", "?v", "?w") if any(v in atom for atom in body)})
            builtin = f"greaterThan({rng.choice(bound)}, {rng.choice([0, 4, 10])})"
            body.insert(rng.randrange(len(body) + 1), builtin)
        label = rng.choice(["hot", "5", "12"])
        lines.append(" ^ ".join(body) + f" -> h{k}(?s, {label})")
    return "\n".join(lines) + "\n"


def random_recursive_store(rng: random.Random) -> Graph:
    g = Graph()
    names = ["S1", "S2", "S3"]
    for _ in range(rng.randrange(4, 20)):
        name = rng.choice(names)
        roll = rng.random()
        if roll < 0.2:
            g.insert(typed(name))
        elif roll < 0.3:
            g.insert(prop(name, rng.choice(["h3", "h4"]), string(rng.choice(["hot", "5"]))))
        else:
            g.insert(prop(name, rng.choice(["p0", "p1"]), decimal(float(rng.choice([1, 5, 12])))))
    return g


def test_recursive_rules_match_naive_oracle():
    rng = random.Random(1986)
    deep = 0
    for _ in range(300):
        ruleset = parse_rules(random_recursive_rules(rng))
        g = random_recursive_store(rng)
        facts = forward_chain(g, ruleset)
        want = naive_fixpoint(g, ruleset)
        assert {f.triple() for f in facts} == want
        assert verify_provenance(g, ruleset, facts)
        deep += any(t.predicate == iri(vocab.prop_iri("h2")) for t in want)
    # h2 needs an h1 fact, which needs an h0 fact: three rounds at least
    assert deep >= 20


# --- growth guard ----------------------------------------------------------


def rule_input_store(n_sensors: int) -> Graph:
    """Every sensor typed and carrying every property fwi.rules reads."""
    rng = random.Random(n_sensors)
    g = Graph()
    for i in range(n_sensors):
        g.insert(typed(f"S{i}"))
        for p in BODY_PROPERTIES:
            g.insert(prop(f"S{i}", p, decimal(round(rng.uniform(0.0, 70.0), 1))))
    return g


def count_candidates(monkeypatch) -> list[int]:
    """Make every index bucket count, in the returned one-item list, the triples read from it.

    ``Graph._indexed`` hands out read-only views of both built indexes, so
    every join level's reads, the first level's included, are counted
    alike, and ``Graph.count`` sizes a bucket by its length without reading it.
    """
    iterated = [0]
    indexed = Graph._indexed

    class Counted:
        def __init__(self, bucket):
            self.bucket = bucket

        def __len__(self):
            return len(self.bucket)

        def __iter__(self):
            for t in self.bucket:
                iterated[0] += 1
                yield t

    class View:
        """One level of an index, whose buckets, or inner views, are wrapped by ``wrap``."""

        def __init__(self, index, wrap):
            self.index, self.wrap = index, wrap

        def get(self, key, default=None):
            found = self.index.get(key)
            return default if found is None else self.wrap(found)

        def values(self):
            return [self.wrap(inner) for inner in self.index.values()]

    def outer(index):
        return View(index, lambda inner: View(inner, Counted))

    monkeypatch.setattr(Graph, "_indexed", lambda self: tuple(map(outer, indexed(self))))
    return iterated


def test_chaining_work_grows_linearly(rules_text, monkeypatch):
    ruleset = parse_rules(rules_text)
    iterated = count_candidates(monkeypatch)
    work = []
    for n in (25, 100):
        iterated[0] = 0
        assert forward_chain(rule_input_store(n), ruleset)
        work.append(iterated[0])
    # linear work gives a ratio near 4 (1,350 and 5,400 candidates; with
    # one-slot buckets the join iterated 16,875 and 67,500); the quadratic
    # chainer gave about 15
    assert work[0] > 0
    assert work[1] < 6 * work[0]


def test_join_iterates_at_most_two_candidates_per_rule_per_sensor(rules_text, monkeypatch):
    ruleset = parse_rules(rules_text)
    g = rule_input_store(100)
    iterated = count_candidates(monkeypatch)
    assert forward_chain(g, ruleset)
    # the sensor's rdf:type triple, then its exact (sensor, property) bucket;
    # with one-slot buckets it was the type triple and all 24 of the sensor's
    assert iterated[0] <= 2 * len(ruleset) * 100


def test_a_numeric_head_constant_derives_a_number_that_greater_than_reads():
    # a rule built in code may put a number in its head, which a rule file cannot
    score = Rule((ClassAtom("sensor_id", "?s"),), DataPropertyAtom("score", "?s", decimal(5.0)))
    high = Rule((DataPropertyAtom("score", "?s", "?v"), BuiltinGreaterThan("?v", 4.0)),
                DataPropertyAtom("high", "?s", string("yes")))
    g = Graph([typed("1")])
    facts = forward_chain(g, [score, high])
    assert [(f.property_iri, f.label) for f in facts] == [(vocab.prop_iri("high"), "yes"), (vocab.prop_iri("score"), "5.0")]
    assert dict(facts[0].bindings)["?v"].sort_key() == decimal(5.0).sort_key()
    # each fact's triple is the one derived, so each holds up when checked again
    assert facts[1].triple().object == decimal(5.0)
    assert verify_provenance(g, [score, high], facts)


def test_chaining_builds_terms_once_per_rule_not_per_fact(rules_text, monkeypatch):
    ruleset = parse_rules(rules_text)
    stores = [rule_input_store(n) for n in (25, 100)]
    built = 0
    init = Term.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(Term, "__init__", counting)
    work = []
    for g in stores:
        built = 0
        assert forward_chain(g, ruleset)
        work.append(built)
    # a hook that is never called would pass the equality with 0 == 0
    assert work[0] > 0
    assert work[0] == work[1]


def test_chaining_orders_bindings_only_on_a_tie(rules_text, monkeypatch):
    ruleset = parse_rules(rules_text)
    g = rule_input_store(100)
    calls = 0
    sort_key = Term.sort_key

    def counting(self):
        nonlocal calls
        calls += 1
        return sort_key(self)

    monkeypatch.setattr(Term, "sort_key", counting)
    facts = forward_chain(g, ruleset)
    # no rule derives one triple twice here, so no bindings are keyed, and the
    # final sort reads each subject's value: a key for every fact's bindings
    # made 5,142 calls, and a key for each fact's subject 1,714
    assert len(facts) == 1714 and calls == 0


def count_joins(monkeypatch) -> list[int]:
    """Make ``forward_chain`` count, in the returned one-item list, its ``join`` calls."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return join(*args, **kwargs)

    monkeypatch.setattr(rules_module, "join", counting)
    return calls


def test_chaining_with_no_head_read_runs_one_round_over_the_store(rules_text, monkeypatch):
    # no body in fwi.rules reads a head property, so round 1 is the fixpoint:
    # one join per rule over the caller's store, with no copy and no insert
    ruleset = parse_rules(rules_text)
    g = rule_input_store(100)
    before = set(g)
    joins = count_joins(monkeypatch)
    inserts = 0
    insert = Graph.insert

    def counting(self, t):
        nonlocal inserts
        inserts += 1
        return insert(self, t)

    monkeypatch.setattr(Graph, "insert", counting)
    assert len(forward_chain(g, ruleset)) == 1714
    # a second round, over a copy of the store, made 81 joins and 1,714 inserts
    assert inserts == 0 and joins[0] == len(ruleset)
    assert set(g) == before and check_index_coherence(g)


def test_fwi_rules_share_one_compiled_plan(rules_text, monkeypatch):
    # every body is a class atom, one property atom and one greaterThan, so
    # the 27 joins differ only in terms and names, and one source serves them
    ruleset = parse_rules(rules_text)
    joins, sources = count_joins(monkeypatch), []
    compile_plan = rdf._compile
    monkeypatch.setattr(rdf, "_compile", lambda source: sources.append(source) or compile_plan(source))
    assert forward_chain(rule_input_store(50), ruleset)
    assert joins[0] == len(sources) == len(ruleset) == 27
    assert len(set(sources)) == 1


REACH = "a(?s, ?t) ^ reach(?t, yes) -> reach(?s, yes)\n"


def reach_chain(n_nodes: int) -> Graph:
    """``a`` edges down a chain of nodes, and ``reach`` on the last one."""
    g = Graph(prop(f"n{i}", "a", sensor(f"n{i + 1}")) for i in range(n_nodes - 1))
    g.insert(prop(f"n{n_nodes - 1}", "reach", string("yes")))
    return g


def test_recursive_chaining_work_grows_linearly(monkeypatch):
    # one new reach fact per round: each round must join from that fact, not
    # rerun the rule over every reach fact known
    ruleset = parse_rules(REACH)
    iterated = count_candidates(monkeypatch)
    work = []
    for n in (100, 400):
        iterated[0] = 0
        assert len(forward_chain(reach_chain(n), ruleset)) == n - 1
        work.append(iterated[0])
    # rerunning the whole rule each round iterates 10,300 and 161,200
    assert work[0] > 0
    assert work[1] < 6 * work[0]


def test_recursive_chaining_seeds_only_from_head_reads(monkeypatch):
    # round 1 joins the body once; each of the 99 later rounds joins the
    # reach pattern over the last round's fact, then the a pattern from that
    # seed.  Seeding from a(?s, ?t) too, which no head writes, made 298.
    joins = count_joins(monkeypatch)
    assert len(forward_chain(reach_chain(100), parse_rules(REACH))) == 99
    assert joins[0] == 1 + 99 * 2


@pytest.mark.parametrize(
    "text",
    [REACH, "a(?s, ?v) ^ greaterThan(?v, 0) -> b(?s, hot)\nb(?s, ?w) -> c(?s, alarm)\n"],
    ids=["recursive", "two-rules"],
)
def test_chaining_inserts_each_fact_once(text, monkeypatch):
    g = reach_chain(30)
    for i in range(-3, 4):
        g.insert(prop(f"s{i}", "a", integer(i)))
    ruleset = parse_rules(text)
    inserts = 0
    insert = Graph.insert

    def counting(self, t):
        nonlocal inserts
        inserts += 1
        return insert(self, t)

    monkeypatch.setattr(Graph, "insert", counting)
    facts = forward_chain(g, ruleset)
    assert facts and inserts == len(facts)


#: each scale's band labels whose ``fwi.rules`` body property is spelled differently; every other label is its own
BODY_PROPERTY = {
    ("ffmc", "difficult"): "Difficult", ("ffmc", "moderatelyeasy"): "Moderatelyeasy",
    ("dmc", "difficult"): "Difficult", ("dmc", "difficultandExtended"): "difficultandextended",
    ("dmc", "difficultandextensive"): "Difficultandextensive",
    ("bui", "notDifficult"): "notdifficult", ("bui", "veryDifficult"): "verydifficult",
    ("bui", "extremelyDifficult"): "extremelydifficult",
    ("isi", "moderatelyFast"): "moderatelyfast", ("isi", "very_fast"): "veryfast",
    ("isi", "extremelyDifficult"): "extremelydifficult",
}
#: each scale's head property in ``fwi.rules``, and the ``Assessment`` field with the same label
SCALE_HEADS = {"ffmc": ("IgnitionPotential", "ignition_potential"), "dmc": ("MopupNeeds", "mopup_needs"),
               "bui": ("DifficultyofControle", "difficulty_of_control"), "isi": ("RateofSpread", "rate_of_spread"),
               "fwi": ("FireIntensity", "fire_intensity")}
#: the bundled rows, by sensor ordinal, of each (scale, outcome) but "agree": runs ``a-b`` and single ordinals
DISAGREEING = {
    ("ffmc", "no fact"): (
        "7 11 20 35 42-45 67 69 85 87 90 96 101 122 148 155 159 173-174 177 181 194 206 208 211 216 225 228 "
        "255-256 260 263 269 286 302 310 326 328-329 356 369 377-378 396 403 405 434 477 483 485 497 502 504 "
        "508 513 515"),
    ("ffmc", "several labels"): "120 214 297 299 316 354 453 463",
    ("ffmc", "one wrong label"): "314",
    ("dmc", "no fact"): "59 378 431 453",
    ("dmc", "several labels"): (
        "8 58 62-63 74-75 82 95 97 100 111 138 147 162 164 190 196 198 204 208 221 223 231 234 248-249 258 265 "
        "271 301 321 344 360 364 366 376 381 392 411 413 425 429 432 443 446 452 458 466 480 488 507"),
    ("dmc", "one wrong label"): "312 338 383 462 502",
    ("bui", "no fact"): "62 78 109 316 381 412 507",
    ("bui", "several labels"): (
        "1 3 5-6 10-11 14 20-22 33 35-36 44-46 53 80 82 88 91 94-96 100 102-104 106-107 115-117 123 126 131-132 "
        "134 137 139-140 148 153 155 159 173 179 181 184 186 199 201 207-208 211-212 216 222-223 225 233 242 "
        "250 252-253 257 260-261 263-264 270 274 276 282 286 295-296 302 309 311 315 318 322-323 326 328-330 "
        "334-337 340 345 349 354 359 363 369 372-373 375-376 380 393 399 401-402 405 414-415 430 434 436 450 "
        "459 461 464 466 468 475 477 480 487 489 493 496-498 501 503 506 509 514 517"),
    ("isi", "no fact"): (
        "30 62-63 74 90-91 97 109 111 123 138 151 182 190 198 249 297 312 314 316 338 344 365 381 383 408 411 "
        "413 429 446 452 462 471 490 495 507"),
    ("isi", "several labels"): (
        "2 4-7 9-12 15-28 31-32 34 37-45 47-49 51-52 56-58 60-61 64 67-70 72 75-77 79 81-82 84-87 89 92-94 96 "
        "99 101 104-107 110 112 116 118-119 121 125-126 128-130 133 136 139 142-150 154-155 158-159 161-170 "
        "172-176 178-179 183 185-187 189 192-193 197 199-200 203 205-207 210-212 215-221 224 226-228 230 232 "
        "236 238-241 243-247 251-252 254-256 258-260 262-264 267-268 271 273 275 277-279 283-288 291-294 300 "
        "302-308 315 317 319-320 324 326 329 331-332 334 337 340-342 345-348 350 355-359 362-363 366-367 "
        "369-371 374 376-377 379-380 382 385-387 389-391 394-395 397 400 403-407 409 416-419 421 423-424 "
        "426-428 430 432-433 435 437-438 440-442 444-445 448 451 455 457-458 461 464-467 470 472-473 476-478 "
        "481 484 486-487 489 491-492 494 496 499-501 503-504 506 508-509 511-515"),
    ("isi", "one wrong label"): (
        "1 3 8 13-14 33 36 46 50 53 55 65 71 73 80 83 88 95 98 100 102-103 113-115 117 127 131-132 134-135 137 "
        "140 152-153 160 171 177 180-181 184 188 195-196 201 204 208 222-223 225 229 231 233-235 237 242 248 "
        "250 253 257 261 266 269-270 272 274 276 281-282 289-290 295-296 298 301 309-311 313 318 321-323 328 "
        "330 335-336 343 349 351-352 360-361 364 368 372-373 375 384 392-393 396 398-399 401-402 414-415 420 "
        "422 425 434 436 439 443 447 449-450 454 459-460 468 474-475 479-480 482-483 485 488 493 497 516-517"),
    ("fwi", "no fact"): (
        "3-4 20 24 40 49 52 54 63-64 70-71 76 81 86 90 97 103 106 108 138 155-156 161 173 181 187 190 198 203 "
        "205 209 213-214 219-220 222 228 243-244 257 261 263 307 311-312 333 336 338 342 371 381-382 406-407 "
        "411 429 433 442 446 461 471 477 483-484 487 510"),
    ("fwi", "several labels"): "29 157 265 365 410 412",
    ("fwi", "one wrong label"): "344 431 452 462",
}


def ordinals(runs: str) -> list[int]:
    return [n for run in runs.split() for n in range(int(run.split("-")[0]), int(run.split("-")[-1]) + 1)]


def test_rules_differ_from_assess_on_the_bundled_rows_as_pinned(dataset_text, rules_text):
    """``fwi.rules`` over each row's band properties, against ``assess``'s five labels, pair by pair.

    Each row's store holds its sensor's ``rdf:type``, the body property of
    each scale's band set to the index value, ``Rain`` and ``windspeed``.
    A (sensor, scale) pair agrees when its head property holds the one label
    that ``assess`` gives; otherwise no fact, several labels or one wrong
    label.  The rule thresholds sit one above the tables' lower bounds, and
    some body properties serve two scales, so many pairs disagree.
    """
    triples, labels = [], {}
    for n, obs in enumerate(parse_csv(dataset_text), start=1):
        sensor = iri(vocab.sensor_iri(n))
        rec = compute_chain(obs.ffmc, obs.dmc, obs.dc, obs.wind)
        assessment = assess(rec, WeatherInputs(obs.temp, obs.rh, obs.wind, obs.rain), sensor.value)
        triples.append(Triple(sensor, iri(vocab.RDF_TYPE), iri(vocab.SENSOR_CLASS)))
        for scale, (_, field) in SCALE_HEADS.items():
            labels[n, scale] = label = getattr(assessment, field)
            prop = BODY_PROPERTY.get((scale, label), label)
            triples.append(Triple(sensor, iri(vocab.prop_iri(prop)), decimal(getattr(rec, scale))))
        triples += [Triple(sensor, iri(vocab.prop_iri("Rain")), decimal(obs.rain)),
                    Triple(sensor, iri(vocab.prop_iri("windspeed")), decimal(obs.wind))]
    g, ruleset = Graph(triples), parse_rules(rules_text)
    facts = forward_chain(g, ruleset)
    derived = {}
    for f in facts:
        derived.setdefault((f.subject.value, f.property_iri), set()).add(f.label)
    outcomes = {}
    for (n, scale), label in labels.items():
        got = derived.get((vocab.sensor_iri(n), vocab.prop_iri(SCALE_HEADS[scale][0])), set())
        outcomes[n, scale] = ("agree" if got == {label} else "no fact" if not got
                              else "several labels" if len(got) > 1 else "one wrong label")
    pinned = dict.fromkeys(labels, "agree")
    pinned.update(((n, scale), outcome) for (scale, outcome), runs in DISAGREEING.items() for n in ordinals(runs))
    moved = [f"sensor {n} {scale}: {pinned[n, scale]} -> {outcomes[n, scale]} (assess {labels[n, scale]}, rules "
             f"{sorted(derived.get((vocab.sensor_iri(n), vocab.prop_iri(SCALE_HEADS[scale][0])), ()))})"
             for n, scale in labels if outcomes[n, scale] != pinned[n, scale]]
    assert not moved, "pairs that moved:\n" + "\n".join(moved)
    assert (len(g), len(facts)) == (4136, 2920) and verify_provenance(g, ruleset, facts)
    kinds = ("agree", "no fact", "several labels", "one wrong label")
    counts = {scale: [sum(outcomes[n, s] == kind for n, s in outcomes if s == scale) for kind in kinds]
              for scale in SCALE_HEADS}
    assert counts == {"ffmc": [450, 58, 8, 1], "dmc": [457, 4, 51, 5], "bui": [375, 7, 135, 0],
                      "isi": [41, 36, 305, 135], "fwi": [440, 67, 6, 4]}
    assert sum(counts[scale][0] for scale in counts) == 1763 and len(outcomes) == 2585
    heads = [f.property_iri for f in facts]
    assert (heads.count(vocab.prop_iri("startRaining")), heads.count(vocab.prop_iri("WindSpeed"))) == (2, 0)
