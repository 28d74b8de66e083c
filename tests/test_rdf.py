import itertools
import random

import pytest

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
from test_sparql import COMPARATORS, DRY_AUGUST_QUERY, LOOKUP_QUERY, WIND_SURVEY_QUERY
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
        built = 0

        class Seed(dict):
            # a dict subclass with its own ``__iter__`` is copied through its
            # ``keys``, read once by each ``{**seed, ...}``
            def __iter__(self):
                return super().__iter__()

            def keys(self):
                nonlocal built
                built += 1
                return super().keys()

        above_3 = ("?o", lambda term: float(term.value) > 3)
        got = list(join([TriplePattern("?s", iri("urn:p"), "?o")], g, [above_3], Seed()))
        assert sorted(float(b["?o"].value) for b in got) == [4, 5]
        # five candidates, and a binding only for the two that pass
        assert built == 2

    def test_a_repeated_variable_is_tested_before_its_slots_are_compared(self, monkeypatch):
        shapes = record_shapes(monkeypatch)
        g = Graph(t(s, "urn:p", iri(o)) for s, o in [("urn:a", "urn:a"), ("urn:a", "urn:b"), ("urn:c", "urn:c")])
        tested = []
        check = ("?x", lambda term: tested.append(term.value) or term.value != "urn:c")
        got = list(join([TriplePattern("?x", iri("urn:p"), "?x")], g, [check]))
        assert got == [{"?x": iri("urn:a")}]
        # the test runs on each candidate's subject, and the nest compares the
        # slots' tokens only after it: urn:c fails the test, so its slots are
        # never compared
        assert tested == ["urn:a", "urn:a", "urn:c"]
        (lines,) = [rdf._source(shape).splitlines() for shape in shapes]
        test = next(i for i, line in enumerate(lines) if "k0(T[t1[0]])" in line)
        assert lines[test + 1].strip() == "if not (t1[2] == t1[0]): continue"

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
        # a deeper level: sizing finds candidates for all three patterns, then
        # under ?s = a the first level probed has none
        g.insert(t("urn:b", "urn:r", integer(3)))
        calls = 0
        patterns = [TriplePattern("?s", iri("urn:p"), "?v"), TriplePattern("?s", iri("urn:r"), "?o"),
                    TriplePattern("?s", iri("urn:q"), "?w")]
        probes = count_probes(g)
        assert list(join(patterns, g)) == []
        # three lookups size the patterns, and one index probe finds no ?s = a
        # under urn:r, so urn:q's level is never reached
        assert calls == 3
        assert probes == [3 + 1]


def count_probes(g: Graph) -> list[int]:
    """Give ``g`` index copies that count, in the returned one-item list, every outer lookup made in either.

    ``candidates`` makes one for each pattern it sizes, and a join level
    that an earlier level feeds one for each binding it extends.
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
        probes = count_probes(g)
        table = evaluate(parse_query(DRY_AUGUST_QUERY), g)
        assert rows and sorted((sensor.value, float(code.value)) for sensor, code in table.rows) == rows
        # one lookup sizes each of the 4 patterns, and no pattern is
        # substituted again; after that, one index probe per binding at each
        # later level
        assert calls["candidates"] == 4
        assert calls["substitute"] == 4
        assert probes == [4 + len(august) + len(observations) + len(fuel)]

    def test_lookup_sizes_the_value_pattern_without_gathering_it(self, dataset_text, monkeypatch):
        g = ingest_observations(parse_csv(dataset_text))
        has_value = iri(vocab.HAS_VALUE)
        returned = []
        candidates = Graph.candidates

        def recording(self, pattern):
            found = candidates(self, pattern)
            subject, predicate, _ = pattern
            if predicate == str(has_value) and subject is None:
                returned.append(found)
            return found

        monkeypatch.setattr(Graph, "candidates", recording)
        table = evaluate(parse_query(LOOKUP_QUERY), g)
        assert len(table.rows) == 9
        # ``?obs p:hasvalue ?value`` is sized once, from its buckets, and its
        # 4,653 triples are never copied into a list
        assert len(returned) == 1 and len(returned[0]) == 517 * 9
        assert not isinstance(returned[0], list)


def record_shapes(monkeypatch) -> list:
    """Make ``join`` record, in the returned list, the shape of every plan it runs."""
    shapes = []
    compile_plan = rdf._compile

    def recording(shape):
        shapes.append(shape)
        return compile_plan(shape)

    monkeypatch.setattr(rdf, "_compile", recording)
    return shapes


def leaves(value):
    """Every item of nested tuples that is not itself a tuple."""
    if isinstance(value, tuple):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def join_both_ways(patterns, g, checks=(), seed=None, select=()) -> int:
    """Check ``join``'s bindings, and its tuples in ``select`` order, against the filtered brute-force join.

    Returns the number of rows.
    """
    want = [b for b in brute_force_join(g, patterns, seed) if all(v in b and test(b[v]) for v, test in checks)]
    got = list(join(patterns, g, checks, dict(seed or {})))
    assert canonical(got) == canonical(want)
    tuples = list(join(patterns, g, checks, dict(seed or {}), select))
    # the bindings' rows, in the same order
    assert tuples == [tuple(b[v] for v in select) for b in got]
    assert sorted(map(repr, tuples)) == sorted(repr(tuple(b[v] for v in select)) for b in want)
    return len(want)


#: the tags that a plan's shape holds, besides integers: slot kinds, the
#: output form, and an inline comparison's comparator and field
SHAPE_TAGS = {"c", "b", "f", "r", "v", "z", "dict", ">", "<", ">=", "<=", "=", "!=", "_num", "value"}
#: text that would break or inject code if a name or a term reached a generated source
HOSTILE = ['"', "'", "\n", "}", "__import__('os')"]


class TestGeneratedSource:
    def test_hostile_names_and_terms_stay_out_of_the_source(self, monkeypatch):
        shapes = record_shapes(monkeypatch)
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
        checks = [(names[1], comparison("!=", string("}"))), (names[4], lambda term: "'" not in term.value)]
        assert join_both_ways(patterns, g, checks, select=[names[4], names[0], names[1]]) > 0

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
        assert join_both_ways(rule.patterns(), g, rule.checks(), select=["?o", "?__import__"]) == 1
        rule = rules_module.parse_rule("p(?s, __import__) ^ n(?s, ?n) ^ greaterThan(?n, 4271.5) -> r(?s, x)")
        assert join_both_ways(rule.patterns(), g, rule.checks(), select=["?n"]) == 1

        # the cache keys hold only ints and fixed tags; the FILTERs and the
        # threshold are written inline, and no operand reaches the source
        assert shapes
        assert {"!=", ">=", ">"} <= {leaf for shape in shapes for leaf in leaves(shape)}
        for shape in shapes:
            assert all(type(leaf) is int or leaf in SHAPE_TAGS for leaf in leaves(shape))
            source = rdf._source(shape)
            assert not any(text in source for text in ("'", '"', "?", "urn", "import", "7319", "5813", "4271"))

    def test_plans_that_differ_only_in_terms_and_names_share_one_function(self, monkeypatch):
        shapes = record_shapes(monkeypatch)
        g = Graph(t(f"urn:s{i}", p, integer(i)) for i in range(4) for p in ("urn:p", "urn:q"))
        for p, q, a, b in [("urn:p", "urn:q", "?a", "?b"), ("urn:q", "urn:p", "?x", "?'y")]:
            patterns = [TriplePattern(a, iri(p), "?v"), TriplePattern(a, iri(q), b)]
            assert len(list(join(patterns, g, [(b, lambda term: True)], select=[b, a]))) == 4
        assert len(shapes) == 2 and shapes[0] == shapes[1]
        assert rdf._compile(shapes[0]) is rdf._compile(shapes[1])


U = [iri(f"urn:u{i}") for i in range(3)]
FIRST = iri("urn:first")


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
        shapes = record_shapes(monkeypatch)
        slots = [
            {"c": U[(k + 1) % 3], "b": ("?x", "?y", "?x")[k], "f": ("?fs", "?fp", "?fo")[k]}[kind]
            for k, kind in enumerate(kinds)
        ]
        patterns = [TriplePattern("?x", FIRST, "?y"), TriplePattern(*slots)]
        select = sorted({v for p in patterns for v in p.variables()}, reverse=True)
        join_both_ways(patterns, cube_graph(), select=select)
        if "b" in kinds:
            # the second level is the pattern, fed by the first
            for shape in shapes:
                levels, _ = shape
                assert len(levels) == 2 and "".join(tag for tag, _ in levels[1][0]) == kinds

    @pytest.mark.parametrize("second", [("?r", "?y", "?r"), ("?y", "?r", "?r"), ("?r", "?r", "?y"), ("?r", "?r", "?r")])
    def test_a_fresh_variable_in_two_or_three_slots(self, second):
        g = cube_graph()
        assert join_both_ways([TriplePattern("?x", FIRST, "?y"), TriplePattern(*second)], g, select=["?r", "?x"])
        # at the first level too
        assert join_both_ways([TriplePattern(second[0], FIRST, second[0])], g, select=[second[0]]) == 1

    def test_a_check_at_each_level_and_a_select_variable_bound_by_the_seed(self):
        g = cube_graph()
        patterns = [TriplePattern("?x", FIRST, "?y"), TriplePattern("?y", "?p", "?o"), TriplePattern("?o", "?q", "?x")]
        seed = {"?z": integer(7), "?w": string("w")}
        # on the seed's term, then one on a variable of each level: ?x, then
        # ?p and ?o, then ?q
        checks = [("?z", lambda term: term == integer(7)), ("?x", lambda term: term != U[0]),
                  ("?p", lambda term: term != U[0]), ("?q", lambda term: term != U[2])]
        counts = [join_both_ways(patterns, g, checks[:i], seed, ["?q", "?z", "?x", "?w", "?o"]) for i in range(5)]
        assert counts[0] == counts[1] > counts[2] > counts[3] > counts[4] > 0
        assert join_both_ways(patterns, g, checks, seed, ["?w", "?z"]) == counts[4]
        # a check that fails the seed's term ends the join
        assert join_both_ways(patterns, g, [("?z", lambda term: False)], seed, ["?z"]) == 0

    def test_a_select_variable_nothing_binds_is_an_error(self):
        with pytest.raises(ValueError, match=r"\?w"):
            join([TriplePattern("?x", FIRST, "?y")], cube_graph(), select=["?x", "?w"])

    def test_a_plan_deeper_than_one_nest_joins_the_rest_under_each_binding(self, monkeypatch):
        shapes = record_shapes(monkeypatch)
        path = Graph(t(f"urn:n{i}", "urn:next", iri(f"urn:n{i + 1}")) for i in range(25))
        depth = rdf._MAX_LEVELS + 4
        patterns = [TriplePattern(f"?v{i}", iri("urn:next"), f"?v{i + 1}") for i in range(depth)]
        assert join_both_ways(patterns, path, select=["?v0", f"?v{depth}"]) == 25 - depth + 1
        last = (f"?v{depth}", lambda term: term != iri("urn:n25"))
        assert join_both_ways(patterns, path, [last], select=[f"?v{depth}"]) == 25 - depth
        assert max(len(levels) for levels, _ in shapes) == rdf._MAX_LEVELS


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
                got = list(g.candidates((None, str(predicate), None)))
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
                want = {key(u) for u in set(inserted) if all(
                    isinstance(slot, str) or slot == term
                    for slot, term in zip(slots, (u.subject, u.predicate, u.object))
                )}
                got = list(g.candidates(tokens(pattern)))
                assert len(got) == len(g.candidates(tokens(pattern))) == len(want)
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
            assert not g.candidates(tokens(pattern)) and list(g.candidates(tokens(pattern))) == []


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
        got = list(g.candidates((None, str(has_value), None)))
        assert g._indexes is not None
        assert len(got) == len(set(got)) and set(got) == {key(u) for u in g if u.predicate == has_value}
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
