import gc
import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireweather import rdf, vocab
from fireweather import rules as rules_module
from fireweather.ingest import ingest_observations, parse_csv
from fireweather.rdf import (
    Datatype,
    Graph,
    RdfError,
    Term,
    Triple,
    TriplePattern,
    comparison,
    decimal,
    export_ntriples,
    import_ntriples,
    integer,
    iri,
    join,
    string,
)
from fireweather.sparql import evaluate, parse_query
from test_sparql import COMPARATORS, DRY_AUGUST_QUERY, LOOKUP_QUERY, RAIN_SURVEY_QUERY, WIND_SURVEY_QUERY
from util import (
    PREDICATES,
    SUBJECTS,
    brute_force_join,
    brute_force_match,
    check_index_coherence,
    key,
    random_graph,
    random_pattern,
    random_term,
    count_built_terms,
    random_triple,
    reference_filter,
    tokens,
)


def t(s, p, o):
    return Triple(iri(s), iri(p), o)


class TestTerm:
    def test_iri_rejects_whitespace(self):
        with pytest.raises(RdfError):
            Term("urn:has space")

    def test_iri_rejects_empty(self):
        with pytest.raises(RdfError):
            Term("")

    def test_numeric_literal_rejects_garbage(self):
        with pytest.raises(RdfError):
            Term("not-a-number", Datatype.INTEGER)
        with pytest.raises(RdfError):
            Term("12,5", Datatype.DECIMAL)

    def test_string_literal_accepts_anything(self):
        assert string("12,5").value == "12,5"

    def test_numeric_comparison_across_datatypes(self):
        assert float(integer(7).value) == float(decimal("7.0").value)
        assert integer(7).sort_key()[:2] == decimal("7.0").sort_key()[:2]


class TestTriple:
    def test_subject_must_be_iri(self):
        with pytest.raises(RdfError):
            Triple(string("s"), iri("urn:p"), string("o"))

    def test_predicate_must_be_iri(self):
        with pytest.raises(RdfError):
            Triple(iri("urn:s"), integer(3), string("o"))


#: pattern slots of every kind: terms, variables, strings that name no variable, and objects that are neither
SLOTS = st.one_of(
    st.sampled_from([iri("urn:s"), string("x"), integer(3)]), st.text(max_size=3).map("?".__add__), st.text(max_size=3),
    st.none(), st.integers(), st.floats(), st.binary(max_size=3), st.tuples(st.text(max_size=3)),
)


@settings(max_examples=300, deadline=None)
@given(SLOTS, SLOTS, SLOTS)
def test_a_pattern_takes_only_terms_and_variables(s, p, o):
    if all(isinstance(x, Term) or isinstance(x, str) and len(x) > 1 and x.startswith("?") for x in (s, p, o)):
        assert TriplePattern(s, p, o) == (s, p, o)
    else:
        with pytest.raises(RdfError):
            TriplePattern(s, p, o)


class TestInsert:
    def test_single_insert(self):
        g = Graph()
        size = g.insert(t("urn:ssn:sensor:1", "urn:ssn:prop:hasvalue", integer(375)))
        assert size == 1

    def test_idempotent(self):
        g = Graph()
        triple = t("urn:s", "urn:p", string("x"))
        assert g.insert(triple) == 1
        assert g.insert(triple) == 1

    def test_three_distinct(self):
        g = Graph()
        for i in range(3):
            g.insert(t("urn:s", "urn:p", integer(i)))
        assert len(g) == 3


def terms(g: Graph, rows) -> list[tuple]:
    """``join``'s rows of tokens, each token mapped to its term through ``g``'s table."""
    return [tuple(map(g._terms.__getitem__, row)) for row in rows]


def filed(g: Graph, seed) -> dict:
    """The binding of ``seed``'s terms as ``join`` takes it: each term filed in ``g`` and bound by its token."""
    return {name: g._token(term) for name, term in (seed or {}).items()}


def bindings(patterns, g: Graph, checks=(), seed=None) -> list[dict]:
    """``join``'s rows as bindings: every variable of the patterns and of ``seed`` selected, in name order."""
    names = sorted({v for p in patterns for v in p.variables()} | set(seed or {}))
    return [dict(zip(names, row)) for row in terms(g, join(patterns, g, names, checks, filed(g, seed)))]


def match(g: Graph, pattern: TriplePattern) -> list:
    """The rows of ``join`` on one pattern, in the ``canonical`` form that compares with ``brute_force_match``."""
    return canonical(bindings([pattern], g))


class TestMatch:
    def test_full_scan(self):
        g = Graph(t("urn:s", "urn:p", integer(i)) for i in range(5))
        assert len(match(g, TriplePattern("?s", "?p", "?o"))) == 5

    def test_empty_graph(self):
        assert match(Graph(), TriplePattern("?s", "?p", "?o")) == []

    def test_two_wind_bindings(self):
        g = Graph()
        g.insert(t("urn:s1", "urn:hasWind", decimal(45.0)))
        g.insert(t("urn:s2", "urn:hasWind", decimal(12.0)))
        pattern = TriplePattern("?x", iri("urn:hasWind"), "?w")
        got = match(g, pattern)
        assert len(got) == 2
        assert got == canonical(brute_force_match(g, pattern))

    def test_repeated_variable_requires_equal_terms(self):
        g = Graph()
        g.insert(t("urn:a", "urn:p", iri("urn:a")))
        g.insert(t("urn:a", "urn:p", iri("urn:b")))
        got = terms(g, join([TriplePattern("?x", iri("urn:p"), "?x")], g, ["?x"]))
        assert got == [(iri("urn:a"),)]

    def test_brute_force_oracle_equality(self):
        rng = random.Random(1234)
        from util import random_pattern

        for _ in range(1000):
            g = random_graph(rng, 100)
            pattern = random_pattern(rng, ["?a", "?b", "?c"])
            assert match(g, pattern) == canonical(brute_force_match(g, pattern))


def random_literal(rng: random.Random) -> Term:
    """A ``random_term`` that is no IRI: a comparison's operand."""
    term = random_term(rng)
    return term if term.datatype is not None else string(term.value)


def random_filter(rng: random.Random, variable: str) -> tuple:
    """A random comparison of the term bound to ``variable``, as ``(variable, comparator, operand)``."""
    return variable, rng.choice(COMPARATORS), random_literal(rng)


def compiled(filters) -> list:
    """The checks that ``join`` takes for ``(variable, comparator, operand)`` filters."""
    return [(v, comparison(op, operand)) for v, op, operand in filters]


def passes(b: dict, filters) -> bool:
    """Whether binding ``b`` binds every filter's variable to a term that passes it, by ``reference_filter``."""
    return all(v in b and reference_filter(b[v], op, operand) for v, op, operand in filters)


def canonical(bindings):
    return sorted(sorted((name, repr(term)) for name, term in b.items()) for b in bindings)


class TestJoin:
    def test_matches_brute_force_join(self):
        rng = random.Random(2024)
        variables = ["?a", "?b", "?c"]
        answered = 0
        # cases in which a variable of one pattern alone fills two or three of
        # its slots, by that count and whether a check tests it: answered
        # ones if none does, and any if one does, as the variable holds an
        # IRI, which no comparison passes
        repeats = {(2, False): 0, (2, True): 0, (3, False): 0, (3, True): 0}
        while answered < 200 or min(repeats.values()) < 25:
            g = random_graph(rng, 40)
            # triples in which one IRI fills two or three slots
            for _ in range(rng.randrange(6)):
                x, p = iri(rng.choice(SUBJECTS)), iri(rng.choice(PREDICATES))
                g.insert(rng.choice([Triple(x, x, x), Triple(x, x, random_term(rng)), Triple(x, p, x),
                                     Triple(iri(rng.choice(SUBJECTS)), x, x)]))
            patterns = [random_pattern(rng, variables) for _ in range(rng.randrange(1, 4))]
            if rng.random() < 0.5:
                v, slots = rng.choice(variables), rng.choice([(0, 1), (0, 2), (1, 2), (0, 1, 2)])
                patterns[0] = TriplePattern(*(v if i in slots else slot for i, slot in enumerate(patterns[0])))
            checked = rng.sample(variables, rng.randrange(3))
            filters = [random_filter(rng, v) for v in checked]
            got = bindings(patterns, g, compiled(filters))
            want = [b for b in brute_force_join(g, patterns) if passes(b, filters)]
            assert canonical(got) == canonical(want)
            answered += bool(want)
            for v in variables:
                uses = [pattern.count(v) for pattern in patterns]
                if max(uses) > 1 and sum(uses) == max(uses):
                    repeats[max(uses), v in checked] += v in checked or bool(want)

    def test_no_atoms_yields_the_binding_if_every_check_passes(self):
        g = Graph()
        binding = filed(g, {"?a": integer(1)})
        assert terms(g, join([], g, ["?a"], [("?a", comparison(">", integer(0)))], binding)) == [(integer(1),)]
        assert list(join([], g, ["?a"], [("?a", comparison("<", integer(0)))], binding)) == []
        assert list(join([], g, ["?a"], [("?b", comparison(">", integer(0)))], binding)) == []
        # and with no seed and nothing selected, the one empty row
        assert list(join([], Graph(), [])) == [()]

    def test_checks_get_the_term_of_their_variable(self):
        g = Graph([t("urn:a", "urn:p", integer(1)), t("urn:b", "urn:p", string("x")), t("urn:b", "urn:q", integer(2))])
        patterns = [TriplePattern("?s", iri("urn:p"), "?o"), TriplePattern("?s", "?p", "?x")]
        select = ["?x", "?s", "?p", "?o"]
        row = (integer(2), iri("urn:b"), iri("urn:q"), string("x"))
        seed = filed(g, {"?x": integer(2)})
        # a check on the seed's term, and one on a term that a level binds
        for x, o in [(2, "x"), (2, "y"), (1, "x")]:
            checks = [("?x", comparison("=", integer(x))), ("?o", comparison("=", string(o)))]
            got = terms(g, join(patterns, g, select, checks, seed))
            assert got == ([row] if (x, o) == (2, "x") else [])

    def test_only_a_candidate_that_passes_gets_a_binding(self, monkeypatch):
        g = import_ntriples(export_ntriples(Graph(t("urn:s", "urn:p", integer(i)) for i in range(1, 6))))
        pattern, above_3 = TriplePattern("?s", iri("urn:p"), "?o"), ("?o", comparison(">", integer(3)))
        want = [(iri("urn:s"), integer(4)), (iri("urn:s"), integer(5))]
        built = count_built_terms(monkeypatch)
        assert terms(g, join([pattern], g, ["?s", "?o"], [above_3])) == want
        # five candidates, and terms only for the rows of the two that pass:
        # their subject, built once, and each one's object
        assert sorted(term.value for term in built) == ["4", "5", "urn:s"]

    def test_a_repeated_variable_is_tested_before_its_slots_are_compared(self, monkeypatch):
        sources = record_sources(monkeypatch)
        g = Graph(t(s, "urn:p", iri(o)) for s, o in [("urn:a", "urn:a"), ("urn:a", "urn:b"), ("urn:c", "urn:c")])
        assert terms(g, join([TriplePattern("?x", iri("urn:p"), "?x")], g, ["?x"])) == [(iri("urn:a"),), (iri("urn:c"),)]
        # an IRI never passes a comparison
        check = ("?x", comparison("!=", string("urn:c")))
        assert list(join([TriplePattern("?x", iri("urn:p"), "?x")], g, ["?x"], [check])) == []
        # the plan compares the slots' tokens only after the check's clause
        assert "if (x := T[t1[0]]).datatype is S and x.value != a1 if t1[2] == t1[0]" in sources[1]

    def test_a_pattern_with_no_candidates_ends_the_level(self, monkeypatch):
        g = Graph([t("urn:a", "urn:p", integer(1)), t("urn:a", "urn:q", integer(2))])
        calls = 0
        count = Graph.count

        def counting(self, pattern):
            nonlocal calls
            calls += 1
            return count(self, pattern)

        monkeypatch.setattr(Graph, "count", counting)
        patterns = [TriplePattern("?s", iri("urn:none"), "?o"), TriplePattern("?s", iri("urn:p"), "?v"),
                    TriplePattern("?s", iri("urn:q"), "?w")]
        assert list(join(patterns, g, ["?s"])) == []
        assert calls == 1
        # a deeper level: sizing finds candidates for all three patterns, then
        # under ?s = a the first level probed has none
        g.insert(t("urn:b", "urn:r", integer(3)))
        calls = 0
        patterns = [TriplePattern("?s", iri("urn:p"), "?v"), TriplePattern("?s", iri("urn:r"), "?o"),
                    TriplePattern("?s", iri("urn:q"), "?w")]
        probes = count_probes(g)
        assert list(join(patterns, g, ["?s"])) == []
        # three lookups size the patterns, the first level's one lookup reads
        # ?s = a under urn:p, and one index probe finds no ?s = a under
        # urn:r, so urn:q's level is never reached
        assert calls == 3
        assert probes == [4 + 1]

    def test_rows_are_tuples_of_tokens_that_the_collector_stops_tracking(self, dataset_text):
        g = ingest_observations(parse_csv(dataset_text))
        patterns = [TriplePattern("?o", iri(vocab.OBSERVED_BY), "?s"), TriplePattern("?o", iri(vocab.HAS_VALUE), "?v")]
        rows = list(join(patterns, g, ["?s", "?v", "?o"]))
        assert len(rows) == 517 * 9
        assert all(type(row) is tuple and all(type(token) is str for token in row) for row in rows)
        assert [tuple(map(str, row)) for row in terms(g, rows)] == rows
        gc.collect()
        assert not any(map(gc.is_tracked, rows))

    def test_a_seeded_token_comes_back_as_the_same_token_and_nothing_is_filed(self):
        g = Graph([t("urn:a", "urn:p", integer(1)), t("urn:b", "urn:p", string("x")), t("urn:b", "urn:q", decimal(7.5))])
        # a token of the graph, not an equal string that the test builds
        seeded = next(o for _, p, o in g._triples if p == "<urn:q>")
        table_size, numbers = len(g._terms), dict(g._terms.numbers)
        patterns = [TriplePattern("?s", iri("urn:p"), "?o")]
        rows = list(join(patterns, g, ["?s", "?v"], [("?v", comparison(">", integer(7)))], {"?v": seeded}))
        assert [s for s, _ in rows] == ["<urn:a>", "<urn:b>"]
        assert all(token is seeded for _, token in rows)
        # seeding a slot, and a join of no pattern, read the token as it is
        rows += join([TriplePattern("?s", "?p", "?v")], g, ["?v", "?s"], binding={"?v": seeded})
        rows += join([], g, ["?n"], binding={"?n": seeded})
        assert rows[2:] == [(seeded, "<urn:b>"), (seeded,)] and rows[2][0] is rows[3][0] is seeded
        assert len(g._terms) == table_size and g._terms.numbers == numbers

    def test_a_numeric_check_on_a_seeded_token_builds_no_term(self, monkeypatch):
        g = import_ntriples(export_ntriples(Graph([t("urn:a", "urn:p", decimal(7.5)), t("urn:b", "urn:p", integer(3))])))
        seeded = next(o for _, _, o in g._triples)
        above_7, below_7 = ("?v", comparison(">", integer(7))), ("?v", comparison("<", integer(7)))
        pattern = TriplePattern("?s", iri("urn:p"), "?v")
        built = count_built_terms(monkeypatch)
        assert list(join([], g, ["?v"], [above_7], {"?v": seeded})) == [(seeded,)]
        assert list(join([], g, ["?v"], [below_7], {"?v": seeded})) == []
        assert list(join([pattern], g, ["?s"], [above_7], {"?v": seeded})) == [("<urn:a>",)]
        assert list(join([pattern], g, ["?s"], [below_7], {"?v": seeded})) == []
        assert built == []


def joined_keys(g: Graph, pattern: TriplePattern) -> list[tuple[str, str, str]]:
    """The key of each match of a one-pattern ``join`` that selects the pattern's variables, in join order."""
    select = list(dict.fromkeys(pattern.variables()))
    constants = tokens(pattern)
    return [tuple(dict(zip(select, row)).get(slot, token) for slot, token in zip(pattern, constants))
            for row in join([pattern], g, select)]


def count_probes(g: Graph) -> list[int]:
    """Give ``g`` index copies that count, in the returned one-item list, every outer lookup made in either.

    ``count`` makes one for each pattern with one or two tokens that it
    sizes, a join's first level one when ``join`` returns, and each later
    level one for each binding it extends.
    """
    probes = [0]

    class Probed(dict):
        def get(self, key, default=None):
            probes[0] += 1
            return dict.get(self, key, default)

    g._indexes = tuple(map(Probed, g._indexed()))
    return probes


def linked_graph(rng: random.Random, max_size: int) -> Graph:
    """A random graph on two predicates whose objects are mostly subjects, so that chains join."""
    g = Graph()
    for _ in range(rng.randrange(max_size // 2, max_size + 1)):
        obj = iri(rng.choice(SUBJECTS)) if rng.random() < 0.5 else random_term(rng)
        g.insert(Triple(iri(rng.choice(SUBJECTS)), iri(rng.choice(PREDICATES[:2])), obj))
    return g


def linked_pattern(rng: random.Random, variables: list[str]) -> TriplePattern:
    subject = rng.choice(variables) if rng.random() < 0.7 else iri(rng.choice(SUBJECTS))
    obj = rng.choice(variables) if rng.random() < 0.7 else iri(rng.choice(SUBJECTS))
    return TriplePattern(subject, iri(rng.choice(PREDICATES[:2])), obj)


def shaped_bgp(rng: random.Random, shape: str) -> tuple[list[TriplePattern], dict]:
    """2-4 patterns of one shape over ``linked_graph``'s predicates, and the seed binding to join them from."""
    n = rng.randrange(2, 5)
    predicate = lambda: iri(rng.choice(PREDICATES[:2]))
    if shape == "chain":
        return [TriplePattern(f"?v{i}", predicate(), f"?v{i + 1}") for i in range(n)], {}
    if shape == "star":
        return [TriplePattern("?v0", predicate(), f"?v{i + 1}") for i in range(n)], {}
    if shape == "repeated":
        # ?v0 fills two slots of one pattern, and is the centre of a star
        rest = [TriplePattern("?v0", predicate(), f"?v{i}") for i in range(1, n)]
        return [TriplePattern("?v0", predicate(), "?v0")] + rest, {}
    # ?s and ?t are bound by the seed alone: ?s fills slots, ?t only a check
    seed = {"?s": iri(rng.choice(SUBJECTS)), "?t": integer(rng.randrange(-5, 50))}
    rest = [linked_pattern(rng, ["?s", "?v0", "?v1"]) for _ in range(n - 1)]
    return [TriplePattern("?s", predicate(), "?v0")] + rest, seed


class TestJoinPlan:
    @pytest.mark.parametrize("shape", ["chain", "star", "repeated", "seeded"])
    def test_join_matches_the_brute_force_join_and_reference_filter(self, shape):
        rng = random.Random(f"join-{shape}")
        answered = filtered = 0
        for _ in range(400):
            g = linked_graph(rng, 30)
            patterns, seed = shaped_bgp(rng, shape)
            # the variables that can hold a literal: the plan binds them at
            # different levels, or the seed binds them
            variables = sorted(({p.object for p in patterns if isinstance(p.object, str)} | set(seed)) - {"?s"})
            literals = [u.object for u in g if not u.object.is_iri]
            filters = []
            for variable in rng.sample(variables, min(len(variables), rng.randrange(3))):
                operand = rng.choice(literals) if literals and rng.random() < 0.7 else random_literal(rng)
                filters.append((variable, rng.choice(COMPARATORS), operand))
            got = bindings(patterns, g, compiled(filters), seed)
            want = [b for b in brute_force_join(g, patterns, seed) if passes(b, filters)]
            assert canonical(got) == canonical(want)
            answered += bool(want)
            filtered += bool(want) and bool(filters)
        # the cases are not all empty, and in some a row passes its checks
        assert answered >= 20 and filtered >= 3

    def test_dry_august_join_looks_up_once_per_binding(self, dataset_text, monkeypatch):
        g = ingest_observations(parse_csv(dataset_text))
        month, observed_by, unit, value = (
            iri(p) for p in (vocab.HAS_MONTH, vocab.OBSERVED_BY, vocab.HAS_UNIT, vocab.HAS_VALUE)
        )
        # the bindings after each level of the plan, counted from the triples:
        # the August sensors, then their observations, then the unitless ones
        august = [u.subject for u in g if u.predicate == month and u.object == string("aug")]
        sensors = set(august)
        observations = [(u.object, u.subject) for u in g if u.predicate == observed_by and u.object in sensors]
        unitless = {u.subject for u in g if u.predicate == unit and u.object == string("unitless")}
        fuel = [(sensor, o) for sensor, o in observations if o in unitless]
        codes = {}
        for u in g:
            if u.predicate == value:
                codes.setdefault(u.subject, []).append(u.object)
        rows = sorted((sensor.value, float(code.value)) for sensor, o in fuel for code in codes[o]
                      if float(code.value) > 90.0)
        calls = {"count": 0}
        count = Graph.count

        def counting_count(self, pattern):
            calls["count"] += 1
            return count(self, pattern)

        monkeypatch.setattr(Graph, "count", counting_count)
        probes = count_probes(g)
        table = evaluate(parse_query(DRY_AUGUST_QUERY), g)
        assert rows and sorted((sensor.value, float(code.value)) for sensor, code in table.rows) == rows
        # one lookup sizes each of the 4 patterns; after that, one lookup
        # reads the first level, and one index probe per binding at each
        # later level
        assert calls["count"] == 4
        assert probes == [4 + 1 + len(august) + len(observations) + len(fuel)]

    def test_lookup_sizes_the_value_pattern_without_gathering_it(self, dataset_text, monkeypatch):
        g = ingest_observations(parse_csv(dataset_text))
        has_value = iri(vocab.HAS_VALUE)
        returned = []
        count = Graph.count

        def recording(self, pattern):
            found = count(self, pattern)
            subject, predicate, _ = pattern
            if predicate == str(has_value) and subject is None:
                returned.append(found)
            return found

        monkeypatch.setattr(Graph, "count", recording)
        sources = record_sources(monkeypatch)
        table = evaluate(parse_query(LOOKUP_QUERY), g)
        assert len(table.rows) == 9
        # ``?obs p:hasvalue ?value`` is sized once, by a number, not a list
        # of its 4,653 triples
        assert returned == [517 * 9] and type(returned[0]) is int
        # joined alone, its level reads its buckets from the index one after
        # the other, and no list of them is made
        pattern = TriplePattern("?obs", has_value, "?value")
        assert sum(1 for _ in join([pattern], g, ["?obs", "?value"])) == 517 * 9
        assert "for t1 in flat(pos.get(a0, E).values())" in sources[-1]

    def test_the_order_is_the_scanning_planners(self):
        rng = random.Random(3030)
        names = [f"?v{i}" for i in range(8)]
        for _ in range(2000):
            n = rng.randrange(1, 14)
            # few sizes, so that ties are common; a pattern may hold no
            # variable, or one variable twice
            sizes = [rng.randrange(1, 5) for _ in range(n)]
            variables = [[rng.choice(names) for _ in range(rng.randrange(4))] for _ in range(n)]
            assert rdf._order(sizes, variables) == scanning_order(sizes, variables)

    def test_planning_a_chain_reads_each_pattern_once(self, monkeypatch):
        calls = [0]
        variables = TriplePattern.variables

        def counting(self):
            calls[0] += 1
            return variables(self)

        monkeypatch.setattr(TriplePattern, "variables", counting)
        nxt = iri("urn:next")
        path = Graph(t(f"urn:n{i}", "urn:next", iri(f"urn:n{i + 1}")) for i in range(2003))
        counts = {}
        for n in (1000, 2000):
            patterns = [TriplePattern(f"?v{i}", nxt, f"?v{i + 1}") for i in range(n)]
            calls[0] = 0
            join(patterns, path, ["?v0"])
            counts[n] = calls[0]
        # the scanning planner made about n * n / 2 calls: 2,001,000 for 2,000 patterns
        assert counts == {1000: 1000, 2000: 2000}


def scanning_order(sizes: list[int], variables: list[list[str]]) -> list[int]:
    """The planner that scanned every pattern left at each level, which ``rdf._order`` replaced.

    Each level takes the smallest of the patterns left that share a variable
    with those placed, or of all left if none does, ties to the lowest index.
    """
    placed: set[str] = set()
    order, left = [], list(range(len(sizes)))
    while left:
        if len(left) > 1:
            linked = [i for i in left if not placed.isdisjoint(variables[i])]
            chosen = min(linked or left, key=lambda i: sizes[i])
        else:
            chosen = left[0]
        left.remove(chosen)
        order.append(chosen)
        placed.update(variables[chosen])
    return order


def record_sources(monkeypatch) -> list[str]:
    """Make ``join`` record, in the returned list, the source of every plan it runs."""
    sources = []
    compile_plan = rdf._compile

    def recording(source):
        sources.append(source)
        return compile_plan(source)

    monkeypatch.setattr(rdf, "_compile", recording)
    return sources


def join_both_ways(patterns, g, filters=(), seed=None, select=()) -> int:
    """Check ``join``'s rows, of every variable and in ``select`` order, against the filtered brute-force join.

    ``filters`` are ``(variable, comparator, operand)``.  Returns the number of rows.
    """
    want = [b for b in brute_force_join(g, patterns, seed) if passes(b, filters)]
    got = bindings(patterns, g, compiled(filters), seed)
    assert canonical(got) == canonical(want)
    rows = terms(g, join(patterns, g, select, compiled(filters), filed(g, seed)))
    # the same rows, in the same order
    assert rows == [tuple(b[v] for v in select) for b in got]
    return len(want)


#: what a plan's source may hold: spaces, brackets, punctuation, the operators of
#: the inline comparisons, and words that are a fixed name, a level's candidate
#: ``t<d>``, an argument ``a<i>`` or a slot index
PLAN_SOURCE = re.compile(
    r"(?: |[()\[\],.:]|:=|[=!<>]=|[<>]|\b(?:t\d+|a\d+|\d+|lambda|for|in|if|and|is|X|spo|pos|T|U|E|S"
    r"|flat|get|values|by_o|datatype|value|x|_)\b)*"
)
#: text that would break or inject code if a name or a term reached a generated source
HOSTILE = ['"', "'", "\n", "}", "__import__('os')"]


class TestGeneratedSource:
    def test_hostile_names_and_terms_stay_out_of_the_source(self, monkeypatch):
        sources = record_sources(monkeypatch)
        # IRIs hold no whitespace; literals hold anything
        iris = [iri("urn:" + h.replace("\n", "n")) for h in HOSTILE] + [iri("urn:x\"'}__import__('os')")]
        literals = [string(h) for h in HOSTILE] + [string("\"'\n}__import__('os')")]
        g = Graph()
        for i, s in enumerate(iris):
            g.insert(Triple(s, iris[-1], literals[i]))
            g.insert(Triple(s, iris[0], iris[(i + 1) % len(iris)]))
        g.insert(Triple(iris[1], iri("urn:q\"}"), string("__import__('os')\n\"'}")))
        g.insert(Triple(iris[1], iri(vocab.prop_iri("p")), string("__import__")))
        g.insert(Triple(iris[1], iri(vocab.prop_iri("q")), iris[2]))
        g.insert(Triple(iris[1], iri(vocab.prop_iri("n")), decimal(7319.25)))

        # direct: variable names that spell the hostile text
        names = ["?" + h for h in HOSTILE]
        patterns = [TriplePattern(names[0], iris[-1], names[1]), TriplePattern(names[0], iris[0], names[2]),
                    TriplePattern(names[2], names[3], names[4])]
        filters = [(names[1], "!=", string("}")), (names[4], "!=", string("'"))]
        assert join_both_ways(patterns, g, filters, select=[names[4], names[0], names[1]]) > 0

        # through the query parser: hostile IRIs, a hostile literal and filter operand
        query = parse_query(
            "PREFIX e: <urn:x\"'}__import__('os')>\n"
            "SELECT ?__import__ ?v WHERE { ?__import__ e: ?v . "
            "?__import__ <urn:q\"}> \"__import__('os')\\n\\\"'}\" . FILTER (?v != \"}\") }"
        )
        want = [
            (b["?__import__"], b["?v"]) for b in brute_force_join(g, list(query.patterns))
            if reference_filter(b["?v"], "!=", string("}"))
        ]
        assert want and sorted(map(repr, evaluate(query, g).rows)) == sorted(map(repr, want))

        # a numeric FILTER operand, and a stored number that passes it
        query = parse_query("SELECT ?v WHERE { ?s ?p ?v FILTER (?v >= 5813) }")
        assert [row[0].value for row in evaluate(query, g).rows] == ["7319.25"]

        # through the rule parser: a hostile variable name and constant, and a threshold
        rule = rules_module.parse_rule("p(?__import__, __import__) ^ q(?__import__, ?o) -> r(?__import__, x)")
        assert join_both_ways(rule.patterns(), g, select=["?o", "?__import__"]) == 1
        rule = rules_module.parse_rule("p(?s, __import__) ^ n(?s, ?n) ^ greaterThan(?n, 4271.5) -> r(?s, x)")
        threshold = [("?n", ">", decimal(4271.5))]
        assert rule.checks() == compiled(threshold)
        assert join_both_ways(rule.patterns(), g, threshold, select=["?n"]) == 1

        # the sources, which are the cache keys, hold only fixed names, integers
        # and operators; the FILTERs and the threshold are written inline, and
        # no operand reaches the source
        assert sources
        assert all(any(f" {op} a" in source for source in sources) for op in ("!=", ">=", ">"))
        for source in sources:
            assert PLAN_SOURCE.fullmatch(source), source
            assert not any(text in source for text in ("'", '"', "?", "urn", "import", "7319", "5813", "4271"))

    def test_plans_that_differ_only_in_terms_and_names_share_one_function(self, monkeypatch):
        sources = record_sources(monkeypatch)
        g = Graph(t(f"urn:s{i}", p, integer(i)) for i in range(4) for p in ("urn:p", "urn:q"))
        for p, q, a, b, least in [("urn:p", "urn:q", "?a", "?b", 0), ("urn:q", "urn:p", "?x", "?'y", -3)]:
            patterns = [TriplePattern(a, iri(p), "?v"), TriplePattern(a, iri(q), b)]
            assert len(list(join(patterns, g, [b, a], [(b, comparison(">=", integer(least)))]))) == 4
        assert len(sources) == 2 and sources[0] == sources[1]
        assert rdf._compile(sources[0]) is rdf._compile(sources[1])

    def test_the_plans_of_the_shipped_queries_and_rules_are_pinned(self, dataset_text, rules_text, monkeypatch):
        sources = []
        # past the cache, so that a repeated source is compiled, and recorded, again
        uncached = rdf._compile.__wrapped__

        def recording(source):
            sources.append(source)
            return uncached(source)

        monkeypatch.setattr(rdf, "_compile", recording)
        g = ingest_observations(parse_csv(dataset_text))
        for text in (WIND_SURVEY_QUERY, RAIN_SURVEY_QUERY, DRY_AUGUST_QUERY, LOOKUP_QUERY):
            assert evaluate(parse_query(text), g).rows
        # the three-sensor rule-input store of the CLI smoke run in CI
        store = "".join(
            f"<urn:ssn:sensor:{name}> <{vocab.RDF_TYPE}> <urn:ssn:class:sensor_id> .\n"
            + "".join(f'<urn:ssn:sensor:{name}> <urn:ssn:prop:{p}> "{value}"^^<{rdf.XSD}decimal> .\n'
                      for p in ("notdifficult", "moderate", "Rain", "windspeed"))
            for name, value in [("a", 17), ("a1", 35), ("b", 99)]
        )
        assert rules_module.forward_chain(import_ntriples(store), rules_module.parse_rules(rules_text))
        # a recursive rule: its second round seeds ?v with the string "2", which the seeded check fails
        chain = Graph(t(f"urn:n{i}", "urn:ssn:prop:a", iri(f"urn:n{i + 1}")) for i in range(5))
        chain.insert(t("urn:n5", "urn:ssn:prop:level", decimal(5.0)))
        rule = rules_module.parse_rule("a(?s, ?t) ^ level(?t, ?v) ^ greaterThan(?v, 1) -> level(?s, 2)")
        assert len(rules_module.forward_chain(chain, [rule])) == 1
        assert (len(sources), len(set(sources))) == (12, 7)
        digest = hashlib.sha256("\n".join(sources).encode("utf-8")).hexdigest()
        assert digest == "da79f7d154addcf147625839d93aa9b9b470c47aa8220681d438f4deb36185b9"


U = [iri(f"urn:u{i}") for i in range(3)]
#: what the second level reads, by which of its subject, predicate and object hold a token
LEVEL_READS = {
    (True, False, False): "flat(spo.get({s}, E).values())",
    (True, True, False): "spo.get({s}, E).get({p}, ())",
    (True, False, True): "flat(spo.get({s}, E).values()) if t2[2] == {o}",
    (True, True, True): "spo.get({s}, E).get({p}, ()) if t2[2] == {o}",
    (False, True, False): "flat(pos.get({p}, E).values())",
    (False, True, True): "pos.get({p}, E).get({o}, ())",
    (False, False, True): "flat(by_o.get({o}, ()) for by_o in pos.values())",
}
FIRST, RANK = iri("urn:first"), iri("urn:rank")


def cube_graph() -> Graph:
    """Two ``FIRST`` triples, and the triples of ``U`` cubed less one on every line along each axis."""
    g = Graph(Triple(U[i], U[j], U[k]) for i in range(3) for j in range(3) for k in range(3) if (i + 2 * j + k) % 3)
    g.insert(Triple(U[0], FIRST, U[1]))
    g.insert(Triple(U[2], FIRST, U[2]))
    return g


class TestProbeKinds:
    """A later level of each kind, against the brute-force join in both output forms.

    ``?x FIRST ?y`` has two candidates, and every pattern with a variable in
    ``cube_graph`` has at least two, so it is placed first and binds ``?x``
    and ``?y`` for the next level.
    """

    @pytest.mark.parametrize("kinds", ["".join(k) for k in itertools.product("cbf", repeat=3)])
    def test_each_constant_bound_or_fresh_slot(self, kinds, monkeypatch):
        sources = record_sources(monkeypatch)
        slots = [
            {"c": U[(k + 1) % 3], "b": ("?x", "?y", "?x")[k], "f": ("?fs", "?fp", "?fo")[k]}[kind]
            for k, kind in enumerate(kinds)
        ]
        patterns = [TriplePattern("?x", FIRST, "?y"), TriplePattern(*slots)]
        select = sorted({v for p in patterns for v in p.variables()}, reverse=True)
        join_both_ways(patterns, cube_graph(), select=select)
        if "b" in kinds:
            # the second level is the pattern, fed by the first, which reads
            # FIRST as argument a0 and binds ?x and ?y in its slots 0 and 2
            bound, constants = {"?x": "t1[0]", "?y": "t1[2]"}, iter(range(1, 4))
            s, p, o = [f"a{next(constants)}" if kind == "c" else bound.get(slot) for kind, slot in zip(kinds, slots)]
            read = LEVEL_READS[s is not None, p is not None, o is not None].format(s=s, p=p, o=o)
            assert len(sources) == 2
            levels = f" for t1 in flat(pos.get(a0, E).values()) for t2 in {read})"
            assert all(source.endswith(levels) for source in sources)

    @pytest.mark.parametrize("second", [("?r", "?y", "?r"), ("?y", "?r", "?r"), ("?r", "?r", "?y"), ("?r", "?r", "?r")])
    def test_a_fresh_variable_in_two_or_three_slots(self, second):
        g = cube_graph()
        assert join_both_ways([TriplePattern("?x", FIRST, "?y"), TriplePattern(*second)], g, select=["?r", "?x"])
        # at the first level too
        assert join_both_ways([TriplePattern(second[0], FIRST, second[0])], g, select=[second[0]]) == 1

    def test_a_check_at_each_level_and_a_select_variable_bound_by_the_seed(self, monkeypatch):
        sources = record_sources(monkeypatch)
        g = cube_graph()
        for i, u in enumerate(U):
            g.insert(Triple(u, RANK, integer(i)))
        # each of ?x, ?p and ?q has its rank read by a level of its own
        patterns = [TriplePattern("?x", FIRST, "?y"), TriplePattern("?y", "?p", "?o"), TriplePattern("?o", "?q", "?x"),
                    TriplePattern("?x", RANK, "?rx"), TriplePattern("?p", RANK, "?rp"), TriplePattern("?q", RANK, "?rq")]
        seed = {"?z": integer(7), "?w": string("w")}
        # on the seed's term, then one on the rank of ?x, of ?p and of ?q:
        # ?x is not U[0], nor is ?p, and ?q is not U[2]
        filters = [("?z", "=", integer(7)), ("?rx", "!=", integer(0)), ("?rp", "!=", integer(0)),
                   ("?rq", "!=", integer(2))]
        counts = [join_both_ways(patterns, g, filters[:i], seed, ["?q", "?z", "?x", "?w", "?o"]) for i in range(5)]
        assert counts[0] == counts[1] > counts[2] > counts[3] > counts[4] > 0
        assert join_both_ways(patterns, g, filters, seed, ["?w", "?z"]) == counts[4]
        # the seed's check is compiled on its own, before the plan, on the
        # seed's first token, and the three rank checks sit after three
        # different ``for`` clauses of the plan
        assert sources[-2] == "lambda a0, a1, a2, T, U: a0 in U and U[a0] == a2"
        levels = sources[-1].split(" for t")
        checked = [depth for depth, level in enumerate(levels) if " in U and U[" in level]
        assert len(checked) == 3 and 0 not in checked
        # a check that fails the seed's term ends the join
        assert join_both_ways(patterns, g, [("?z", "<", integer(7))], seed, ["?z"]) == 0

    def test_a_failing_seed_check_ends_the_join_before_any_count(self, monkeypatch):
        g = cube_graph()
        for i, u in enumerate(U):
            g.insert(Triple(u, RANK, integer(i)))
        patterns = [TriplePattern("?x", FIRST, "?y"), TriplePattern("?x", RANK, "?r")]
        seed = filed(g, {"?v": decimal(5.0), "?s": string("b")})
        counted = []
        count = Graph.count
        monkeypatch.setattr(Graph, "count", lambda graph, tokens: counted.append(tokens) or count(graph, tokens))
        # a number and a string check, each failing alone and beside a passing one
        for checks in ([("?v", ">", decimal(5.0))], [("?s", "<", string("a"))],
                       [("?v", "=", integer(5)), ("?s", ">=", string("c"))]):
            assert list(join(patterns, g, ["?x", "?v"], compiled(checks), seed)) == []
        assert counted == []
        # passing checks go on to size both patterns, and read the seed's tokens
        rows = list(join(patterns, g, ["?x", "?v", "?s"], compiled([("?v", "=", integer(5)), ("?s", "<", string("c"))]), seed))
        assert len(counted) == 2 and rows and all(row[1:] == (seed["?v"], seed["?s"]) for row in rows)

    def test_a_select_variable_nothing_binds_is_an_error(self):
        with pytest.raises(ValueError, match=r"\?w"):
            join([TriplePattern("?x", FIRST, "?y")], cube_graph(), select=["?x", "?w"])

    def test_a_select_variable_nothing_binds_is_an_error_whatever_the_data(self):
        # a pattern that matches nothing, in an empty graph and in one that
        # lacks its predicate, and a seed that binds another variable
        for g in (Graph(), cube_graph()):
            with pytest.raises(ValueError, match=r"\?w"):
                join([TriplePattern("?x", iri("urn:absent"), "?y")], g, select=["?x", "?w"])
            with pytest.raises(ValueError, match=r"\?w"):
                join([TriplePattern("?x", iri("urn:absent"), "?y")], g, ["?w"], binding={"?z": "<urn:z>"})

    def test_a_plan_of_any_depth_runs_as_one_generator_expression(self, monkeypatch):
        sources = record_sources(monkeypatch)
        path = Graph(t(f"urn:n{i}", "urn:next", iri(f"urn:n{i + 1}")) for i in range(25))
        # Python nests at most 20 blocks, so 20 ``for`` statements would not compile
        depth = 20
        patterns = [TriplePattern(f"?v{i}", iri("urn:next"), f"?v{i + 1}") for i in range(depth)]
        assert join_both_ways(patterns, path, select=["?v0", f"?v{depth}"]) == 25 - depth + 1
        # the join of every variable and the join of the two selected: each
        # one source that holds all 20 levels
        assert [source.count(" for t") for source in sources] == [depth, depth]


class TestIndexCoherence:
    def test_random_inserts_match_a_rebuild(self):
        rng = random.Random(99)
        pool = [random_triple(rng) for _ in range(60)]
        g, inserted = Graph(), []
        for step in range(1000):
            if step == 400:
                # the first indexed lookup builds the indexes from the set;
                # every later insert is filed in them as it comes
                assert g._indexes is None
                predicate = pool[0].predicate
                want = {key(u) for u in inserted if u.predicate == predicate}
                assert g.count((None, str(predicate), None)) == len(want)
                assert g._indexes is not None and check_index_coherence(g)
                got = joined_keys(g, TriplePattern("?s", predicate, "?o"))
                assert len(got) == len(want) and set(got) == want
            triple = rng.choice(pool)
            if rng.random() < 0.5:
                # an equal triple that is not the stored object
                triple = Triple(triple.subject, triple.predicate, triple.object)
            assert g.insert(triple) == len(set(inserted + [triple]))
            inserted.append(triple)
        assert check_index_coherence(g)
        assert list(g) == list(dict.fromkeys(inserted)) and len(g) == len(set(inserted))
        assert all((triple in g) == (triple in inserted) for triple in pool + [random_triple(rng) for _ in range(60)])
        for triple in pool:
            for mask in range(8):
                slots = [
                    term if mask & bit else f"?v{bit}"
                    for term, bit in zip((triple.subject, triple.predicate, triple.object), (1, 2, 4))
                ]
                pattern = TriplePattern(*slots)
                want = {key(u) for u in set(inserted) if all(
                    isinstance(slot, str) or slot == term
                    for slot, term in zip(slots, (u.subject, u.predicate, u.object))
                )}
                got = joined_keys(g, pattern)
                assert g.count(tokens(pattern)) == len(got) == len(want)
                assert set(got) == want

    def test_iteration_follows_insertion(self):
        a1, b1, a2 = t("urn:a", "urn:p", integer(1)), t("urn:b", "urn:p", integer(1)), t("urn:a", "urn:q", integer(2))
        g = Graph([a1, b1, a2, a1])
        assert list(g) == [a1, b1, a2]
        # an equal triple inserted again keeps the first one's place and terms
        again = Triple(iri("urn:a"), iri("urn:p"), integer(1))
        assert g.insert(again) == 3 and next(iter(g)).object is a1.object

    def test_unknown_keys_have_no_candidates(self):
        g = Graph([t("urn:s", "urn:p", integer(1))])
        for pattern in [
            TriplePattern(iri("urn:x"), "?p", "?o"),
            TriplePattern("?s", iri("urn:x"), "?o"),
            TriplePattern("?s", "?p", integer(2)),
            TriplePattern(iri("urn:s"), iri("urn:x"), "?o"),
            TriplePattern(iri("urn:x"), iri("urn:p"), integer(1)),
            TriplePattern(iri("urn:s"), "?p", integer(2)),
        ]:
            assert g.count(tokens(pattern)) == 0 and joined_keys(g, pattern) == []


class TestIndexesOnFirstLookup:
    def test_ingest_export_and_the_wind_survey_build_no_index(self, dataset_text):
        # the daily batch: map the CSV, export it, import it back and run the
        # paper's ``?s ?p ?o FILTER`` survey; none of them reads an index
        g = ingest_observations(parse_csv(dataset_text))
        stored = import_ntriples(export_ntriples(g))
        surveys = [evaluate(parse_query(WIND_SURVEY_QUERY), graph) for graph in (g, stored)]
        assert g._indexes is None and stored._indexes is None
        assert surveys[0] == surveys[1] and surveys[0].rows
        # one count with a concrete predicate builds both indexes
        has_value = iri(vocab.HAS_VALUE)
        want = {key(u) for u in g if u.predicate == has_value}
        assert g.count((None, str(has_value), None)) == len(want)
        assert g._indexes is not None
        assert check_index_coherence(g)
        got = joined_keys(g, TriplePattern("?s", has_value, "?o"))
        assert len(got) == len(set(got)) and set(got) == want
        rng = random.Random(3)
        for triple in rng.sample(list(g), 3):
            for mask in range(8):
                pattern = TriplePattern(*(
                    term if mask & bit else f"?v{bit}"
                    for term, bit in zip((triple.subject, triple.predicate, triple.object), (1, 2, 4))
                ))
                want = brute_force_match(g, pattern)
                assert g.count(tokens(pattern)) == len(want)
                assert match(g, pattern) == canonical(want)


class TestNTriples:
    def test_empty_round_trip(self):
        assert export_ntriples(Graph()) == ""
        assert len(import_ntriples("")) == 0

    def test_one_triple_round_trip(self):
        g = Graph()
        g.insert(t("urn:s", "urn:p", decimal(45.0)))
        text = export_ntriples(g)
        assert text == '<urn:s> <urn:p> "45.0"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
        assert set(import_ntriples(text)) == set(g)

    def test_random_graph_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, 40)
            again = import_ntriples(export_ntriples(g))
            assert set(again) == set(g)

    def test_string_with_quotes_round_trips(self):
        g = Graph()
        g.insert(t("urn:s", "urn:p", string('say "hi" \\ there')))
        assert set(import_ntriples(export_ntriples(g))) == set(g)

    def test_malformed_line_reports_line_number(self):
        text = '<urn:s> <urn:p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .\n<urn:s> <urn:p>\n'
        with pytest.raises(RdfError, match="line 2"):
            import_ntriples(text)

    def test_unknown_datatype_rejected(self):
        with pytest.raises(RdfError, match="datatype"):
            import_ntriples('<urn:s> <urn:p> "1"^^<urn:other> .\n')
