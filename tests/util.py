"""Shared random-instance generators and brute-force oracles."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from fireweather import rdf
from fireweather.rdf import (
    Binding,
    Datatype,
    Graph,
    Term,
    Triple,
    TriplePattern,
    decimal,
    integer,
    iri,
    string,
)

SUBJECTS = [f"urn:test:s{i}" for i in range(6)]
PREDICATES = [f"urn:test:p{i}" for i in range(4)]


def random_term(rng: random.Random) -> Term:
    kind = rng.randrange(4)
    if kind == 0:
        return iri(rng.choice(SUBJECTS))
    if kind == 1:
        return string(rng.choice(["a", "b", "c", "17", "xyz"]))
    if kind == 2:
        return integer(rng.randrange(-5, 50))
    return decimal(round(rng.uniform(-5.0, 50.0), 1))


def random_triple(rng: random.Random) -> Triple:
    return Triple(iri(rng.choice(SUBJECTS)), iri(rng.choice(PREDICATES)), random_term(rng))


def random_graph(rng: random.Random, max_size: int) -> Graph:
    g = Graph()
    for _ in range(rng.randrange(max_size + 1)):
        g.insert(random_triple(rng))
    return g


def random_slot(rng: random.Random, variables: list[str]):
    if rng.random() < 0.5:
        return rng.choice(variables)
    return random_term(rng)


def random_pattern(rng: random.Random, variables: list[str]) -> TriplePattern:
    subject = rng.choice(variables) if rng.random() < 0.6 else iri(rng.choice(SUBJECTS))
    predicate = rng.choice(variables) if rng.random() < 0.3 else iri(rng.choice(PREDICATES))
    obj = random_slot(rng, variables)
    return TriplePattern(subject, predicate, obj)


def oracle_match(pattern: TriplePattern, t: Triple, binding: Binding) -> Binding | None:
    """``binding`` extended so that the pattern reads ``t``, or None if it cannot be.

    Two terms are the same when their lexical forms and datatypes are; this
    uses neither ``Term.__eq__`` nor the library's own matcher.
    """
    extended = dict(binding)
    for slot, term in zip(pattern, (t.subject, t.predicate, t.object)):
        if isinstance(slot, str):
            if slot not in extended:
                extended[slot] = term
                continue
            slot = extended[slot]
        if slot.value != term.value or slot.datatype is not term.datatype:
            return None
    return extended


def brute_force_match(g: Graph, pattern: TriplePattern) -> list[Binding]:
    """Naive filter of every triple against the pattern."""
    return brute_force_join(g, [pattern])


def brute_force_join(g: Graph, patterns: list[TriplePattern], binding: Binding | None = None) -> list[Binding]:
    """Nested loop over the full triple set per pattern, no indexes, from ``binding`` or none."""
    bindings: list[Binding] = [binding or {}]
    for pattern in patterns:
        bindings = [nb for b in bindings for t in g if (nb := oracle_match(pattern, t, b)) is not None]
    return bindings


def key(t: Triple) -> tuple[str, str, str]:
    """The tokens that a graph stores ``t`` by."""
    return (str(t.subject), str(t.predicate), str(t.object))


def tokens(pattern: TriplePattern) -> tuple:
    """``pattern`` as ``Graph.candidates`` reads it: each term's token, and None for a variable."""
    return tuple(None if isinstance(slot, str) else str(slot) for slot in pattern)


def check_index_coherence(g: Graph) -> bool:
    """True iff both nested indexes hold exactly the triples of the graph's set.

    A graph whose indexes are not built yet builds them through
    ``candidates``.  Each triple's key in the set must sit once in each
    index, under its own tokens, and nothing else may; no bucket may be
    empty, ``len(g)`` must count the set, and the set must hold the key of
    each triple that iteration yields.
    """
    if g._indexes is None:
        g.candidates((None, str(iri(PREDICATES[0])), None))
    stored = list(g._triples)
    indexed = []
    for index, keys in zip(g._indexes, (lambda t: t[:2], lambda t: t[1:])):
        triples = []
        for outer, inner in index.items():
            for token, bucket in inner.items():
                if not bucket or any(keys(t) != (outer, token) for t in bucket):
                    return False
                triples += bucket
        indexed.append(triples)
    return (
        len(g) == len(stored)
        and all(len(triples) == len(stored) and set(triples) == set(stored) for triples in indexed)
        and list(map(key, g)) == stored
    )


# --- reference comparisons, and terms to run them on ------------------------

#: string lexical forms that ``float`` reads, and some near misses
NUMBER_LIKE = ["17", "4.5", "-0", "+5", "1e3", " 7 ", "1_0", "nan", "inf", "-inf", "0x10", "", "abc", "b"]

numeric_terms = st.one_of(
    st.integers(-(10**20), 10**20).map(integer),
    st.floats(allow_nan=False, allow_infinity=False).map(decimal),
    st.sampled_from([("007", Datatype.INTEGER), ("-0.0", Datatype.DECIMAL), ("1.00", Datatype.DECIMAL)]).map(
        lambda args: Term(*args)
    ),
)
string_terms = st.one_of(st.sampled_from(NUMBER_LIKE), st.text(max_size=6)).map(string)
terms = st.one_of(st.sampled_from(SUBJECTS).map(iri), string_terms, numeric_terms)


def reference_filter(term: Term, comparator: str, operand: Term) -> bool:
    """``FILTER (?v <comparator> operand)`` on the term bound to ``?v``.

    Two numeric literals (integer or decimal) compare by value and two
    string literals by lexical form; any other pair is incomparable and
    fails.  Each comparator is spelled with ``<`` alone.
    """
    numeric = (Datatype.INTEGER, Datatype.DECIMAL)
    if term.datatype in numeric and operand.datatype in numeric:
        a, b = float(term.value), float(operand.value)
    elif term.datatype is Datatype.STRING and operand.datatype is Datatype.STRING:
        a, b = term.value, operand.value
    else:
        return False
    return {
        ">": b < a,
        "<": a < b,
        ">=": not a < b,
        "<=": not b < a,
        "=": not a < b and not b < a,
        "!=": a < b or b < a,
    }[comparator]


def count_built_terms(monkeypatch) -> list:
    """The list to which every ``Term`` built from now on is appended: checked by ``__init__``, or rebuilt by a graph."""
    built = []
    init, new = Term.__init__, rdf._new_term

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def counting_new(cls):
        term = new(cls)
        built.append(term)
        return term

    monkeypatch.setattr(Term, "__init__", counting_init)
    monkeypatch.setattr(rdf, "_new_term", counting_new)
    return built
