import random

import pytest

from fireweather import rdf, vocab
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
from test_sparql import COMPARATORS, DRY_AUGUST_QUERY, LOOKUP_QUERY, WIND_SURVEY_QUERY
from util import (
    PREDICATES,
    SUBJECTS,
    brute_force_join,
    brute_force_match,
    check_index_coherence,
    random_graph,
    random_pattern,
    random_term,
    random_triple,
    reference_filter,
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


def match(g: Graph, pattern: TriplePattern) -> list:
    """The rows of ``join`` on one pattern, sorted to compare with ``brute_force_match``."""
    return sorted(map(repr, join([pattern], g)))


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
        assert got == sorted(map(repr, brute_force_match(g, pattern)))

    def test_repeated_variable_requires_equal_terms(self):
        g = Graph()
        g.insert(t("urn:a", "urn:p", iri("urn:a")))
        g.insert(t("urn:a", "urn:p", iri("urn:b")))
        got = list(join([TriplePattern("?x", iri("urn:p"), "?x")], g))
        assert len(got) == 1
        assert got[0]["?x"].value == "urn:a"

    def test_brute_force_oracle_equality(self):
        rng = random.Random(1234)
        from util import random_pattern

        for _ in range(1000):
            g = random_graph(rng, 100)
            pattern = random_pattern(rng, ["?a", "?b", "?c"])
            assert match(g, pattern) == sorted(map(repr, brute_force_match(g, pattern)))


def random_check(rng: random.Random, variable: str):
    """A test on the term bound to ``variable``."""
    pivot = random_term(rng).sort_key()

    def check(term):
        assert term.__class__ is Term
        return term.sort_key() <= pivot

    return variable, check


def canonical(bindings):
    return sorted(sorted((name, repr(term)) for name, term in b.items()) for b in bindings)


class TestJoin:
    def test_matches_brute_force_join(self):
        rng = random.Random(2024)
        variables = ["?a", "?b", "?c"]
        answered = 0
        # answered cases in which a variable of one pattern alone fills two or
        # three of its slots, by that count and whether a check tests it
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
            checks = [random_check(rng, v) for v in checked]
            got = join(patterns, g, checks)
            want = [b for b in brute_force_join(g, patterns) if all(v in b and check(b[v]) for v, check in checks)]
            assert canonical(got) == canonical(want)
            answered += bool(want)
            for v in variables:
                uses = [pattern.count(v) for pattern in patterns]
                if max(uses) > 1 and sum(uses) == max(uses):
                    repeats[max(uses), v in checked] += bool(want)

    def test_no_atoms_yields_the_binding_if_every_check_passes(self):
        binding = {"?a": integer(1)}
        assert list(join([], Graph(), [("?a", lambda term: True)], binding)) == [binding]
        assert list(join([], Graph(), [("?a", lambda term: False)], binding)) == []
        assert list(join([], Graph(), [("?b", lambda term: True)], binding)) == []

    def test_checks_get_the_term_of_their_variable(self):
        g = Graph([t("urn:a", "urn:p", integer(1)), t("urn:b", "urn:p", iri("urn:b")), t("urn:b", "urn:q", integer(2))])
        seen = []
        checks = [(v, lambda term, v=v: seen.append((v, term)) or True) for v in ("?s", "?p", "?o", "?x")]
        patterns = [TriplePattern("?s", iri("urn:p"), "?o"), TriplePattern("?s", "?p", "?x")]
        got = list(join(patterns, g, checks, {"?x": integer(2)}))
        assert got == [{"?x": integer(2), "?s": iri("urn:b"), "?p": iri("urn:q"), "?o": iri("urn:b")}]
        # the seed's term first, then a term of each candidate's slot
        assert seen[0] == ("?x", integer(2))
        assert {v for v, _ in seen} == {"?s", "?p", "?o", "?x"}
        assert all(term.__class__ is Term for _, term in seen)

    def test_only_a_candidate_that_passes_gets_a_binding(self):
        g = Graph(t("urn:s", "urn:p", integer(i)) for i in range(1, 6))
        copies = 0

        class Seed(dict):
            def copy(self):
                nonlocal copies
                copies += 1
                return dict(self)

        above_3 = ("?o", lambda term: float(term.value) > 3)
        got = list(join([TriplePattern("?s", iri("urn:p"), "?o")], g, [above_3], Seed()))
        assert sorted(float(b["?o"].value) for b in got) == [4, 5]
        assert copies == 2

    def test_a_repeated_variable_is_tested_before_its_slots_are_compared(self, monkeypatch):
        g = Graph(t(s, "urn:p", iri(o)) for s, o in [("urn:a", "urn:a"), ("urn:a", "urn:b"), ("urn:c", "urn:c")])
        pattern = TriplePattern("?x", iri("urn:p"), "?x")
        # the indexes are built first: their dict keys compare terms too
        g.candidates(pattern)
        compared = []
        eq = Term.__eq__

        def comparing(self, other):
            compared.append((self.value, getattr(other, "value", other)))
            return eq(self, other)

        monkeypatch.setattr(Term, "__eq__", comparing)
        got = list(join([pattern], g, [("?x", lambda term: term.value != "urn:c")]))
        monkeypatch.undo()
        assert got == [{"?x": iri("urn:a")}]
        # urn:a's slots are compared; urn:c fails the test on its subject, so
        # its slots are never compared
        assert ("urn:a", "urn:a") in compared
        assert not any("urn:c" in pair for pair in compared)

    def test_a_pattern_with_no_candidates_ends_the_level(self, monkeypatch):
        g = Graph([t("urn:a", "urn:p", integer(1)), t("urn:a", "urn:q", integer(2))])
        calls = 0
        candidates = Graph.candidates

        def counting(self, pattern):
            nonlocal calls
            calls += 1
            return candidates(self, pattern)

        monkeypatch.setattr(Graph, "candidates", counting)
        patterns = [TriplePattern("?s", iri("urn:none"), "?o"), TriplePattern("?s", iri("urn:p"), "?v"),
                    TriplePattern("?s", iri("urn:q"), "?w")]
        assert list(join(patterns, g)) == []
        assert calls == 1
        # a deeper level: three calls choose ?s's pattern, then under ?s = a
        # the first pattern looked at has none
        g.insert(t("urn:b", "urn:r", integer(3)))
        calls = 0
        patterns = [TriplePattern("?s", iri("urn:p"), "?v"), TriplePattern("?s", iri("urn:r"), "?o"),
                    TriplePattern("?s", iri("urn:q"), "?w")]
        assert list(join(patterns, g)) == []
        assert calls == 4


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
                operand = rng.choice(literals) if literals and rng.random() < 0.7 else random_term(rng)
                filters.append((variable, rng.choice(COMPARATORS), operand))
            checks = [(v, comparison(op, operand)) for v, op, operand in filters]
            got = list(join(patterns, g, checks, dict(seed)))
            want = [
                b for b in brute_force_join(g, patterns, seed)
                if all(v in b and reference_filter(b[v], op, operand) for v, op, operand in filters)
            ]
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
        calls = {"candidates": 0, "substitute": 0}
        candidates, substitute = Graph.candidates, rdf.substitute

        def counting_candidates(self, pattern):
            calls["candidates"] += 1
            return candidates(self, pattern)

        def counting_substitute(pattern, binding):
            calls["substitute"] += 1
            return substitute(pattern, binding)

        monkeypatch.setattr(Graph, "candidates", counting_candidates)
        monkeypatch.setattr(rdf, "substitute", counting_substitute)
        table = evaluate(parse_query(DRY_AUGUST_QUERY), g)
        assert rows and sorted((sensor.value, float(code.value)) for sensor, code in table.rows) == rows
        # one lookup sizes each of the 4 patterns; after that, one per binding
        # at each later level, and no pattern is substituted again
        assert calls["candidates"] == 4 + len(august) + len(observations) + len(fuel)
        assert calls["substitute"] == 4

    def test_lookup_sizes_the_value_pattern_without_gathering_it(self, dataset_text, monkeypatch):
        g = ingest_observations(parse_csv(dataset_text))
        has_value = iri(vocab.HAS_VALUE)
        returned = []
        candidates = Graph.candidates

        def recording(self, pattern):
            found = candidates(self, pattern)
            # a later level's probe is a bare tuple
            subject, predicate, _ = pattern
            if predicate == has_value and isinstance(subject, str):
                returned.append(found)
            return found

        monkeypatch.setattr(Graph, "candidates", recording)
        table = evaluate(parse_query(LOOKUP_QUERY), g)
        assert len(table.rows) == 9
        # ``?obs p:hasvalue ?value`` is sized once, from its buckets, and its
        # 4,653 triples are never copied into a list
        assert len(returned) == 1 and len(returned[0]) == 517 * 9
        assert not isinstance(returned[0], list)


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
                want = {u for u in inserted if u.predicate == predicate}
                got = list(g.candidates(TriplePattern("?s", predicate, "?o")))
                assert len(got) == len(want) and set(got) == want
                assert g._indexes is not None and check_index_coherence(g)
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
                want = {u for u in set(inserted) if all(
                    isinstance(slot, str) or slot == term
                    for slot, term in zip(slots, (u.subject, u.predicate, u.object))
                )}
                got = list(g.candidates(pattern))
                assert len(got) == len(g.candidates(pattern)) == len(want)
                assert set(got) == want

    def test_iteration_follows_insertion(self):
        a1, b1, a2 = t("urn:a", "urn:p", integer(1)), t("urn:b", "urn:p", integer(1)), t("urn:a", "urn:q", integer(2))
        g = Graph([a1, b1, a2, a1])
        assert list(g) == [a1, b1, a2]
        # an equal triple inserted again keeps the first one's object
        again = Triple(a1.subject, a1.predicate, a1.object)
        assert g.insert(again) == 3 and next(iter(g)) is a1

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
            assert not g.candidates(pattern) and list(g.candidates(pattern)) == []


class TestIndexesOnFirstLookup:
    def test_ingest_export_and_the_wind_survey_build_no_index(self, dataset_text):
        # the daily batch: map the CSV, export it, import it back and run the
        # paper's ``?s ?p ?o FILTER`` survey; none of them reads an index
        g = ingest_observations(parse_csv(dataset_text))
        stored = import_ntriples(export_ntriples(g))
        surveys = [evaluate(parse_query(WIND_SURVEY_QUERY), graph) for graph in (g, stored)]
        assert g._indexes is None and stored._indexes is None
        assert surveys[0] == surveys[1] and surveys[0].rows
        # one lookup with a concrete predicate builds both indexes
        has_value = iri(vocab.HAS_VALUE)
        got = list(g.candidates(TriplePattern("?s", has_value, "?v")))
        assert g._indexes is not None
        assert len(got) == len(set(got)) and set(got) == {u for u in g if u.predicate == has_value}
        assert check_index_coherence(g)
        rng = random.Random(3)
        for triple in rng.sample(list(g), 3):
            for mask in range(1, 8):
                pattern = TriplePattern(*(
                    term if mask & bit else f"?v{bit}"
                    for term, bit in zip((triple.subject, triple.predicate, triple.object), (1, 2, 4))
                ))
                assert match(g, pattern) == sorted(map(repr, brute_force_match(g, pattern)))


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
