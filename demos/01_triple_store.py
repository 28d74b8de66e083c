"""Walk through the in-memory triple store: insert, match, round-trip.

Run from the repository root: python3 demos/01_triple_store.py
"""

from fireweather.rdf import (
    Graph,
    Triple,
    TriplePattern,
    decimal,
    export_ntriples,
    import_ntriples,
    iri,
    join,
    string,
)

# A graph is a set of triples with subject, predicate and object indexes behind it.
g = Graph()
station = iri("urn:demo:station:1")
g.insert(Triple(station, iri("urn:demo:label"), string("hilltop")))
g.insert(Triple(station, iri("urn:demo:wind"), decimal(45.0)))
g.insert(Triple(iri("urn:demo:station:2"), iri("urn:demo:wind"), decimal(12.0)))

# Set semantics: re-inserting is a no-op.
g.insert(Triple(station, iri("urn:demo:wind"), decimal(45.0)))
print(f"store holds {len(g)} triples")

# Pattern matching binds ?variables in any position.  A row holds each
# variable's N-Triples token, which the graph's term table turns into a term.
for row in join([TriplePattern("?s", iri("urn:demo:wind"), "?v")], g, ["?s", "?v"]):
    s, v = map(g._terms.__getitem__, row)
    print(f"  {s.value} reports wind {v.value}")

# N-Triples round-trips byte-identically.
text = export_ntriples(g)
print("\nserialized form:")
print(text, end="")
assert export_ntriples(import_ntriples(text)) == text
print("round-trip: byte-identical")
