"""Parse the rule file and forward-chain it over a small sensor store.

Run from the repository root: python3 demos/04_rule_inference.py
"""

from fireweather import vocab
from fireweather.rdf import Graph, Triple, decimal, iri
from fireweather.rules import forward_chain, load_rules, parse_rule, verify_provenance

ruleset = load_rules("rules/fwi.rules")
print(f"loaded {len(ruleset)} rules; the first one reads:")
print(f"  {ruleset[0].render()}")

# Rules are plain text: class atoms, data-property atoms, one numeric builtin.
rule = parse_rule(
    "sensor_id(?s) ^ windspeed(?s, ?w) ^ greaterThan(?w, 50) -> WindRisk(?s, veryhigh)"
)
print(f"\nhand-written rule round-trips: {rule.render()}")

# A store describing one sensor with two band readings.
sensor = iri("urn:ssn:sensor:Sensor_2")
g = Graph([
    Triple(sensor, iri(vocab.RDF_TYPE), iri(vocab.SENSOR_CLASS)),
    Triple(sensor, iri(vocab.prop_iri("notdifficult")), decimal(17.0)),
    Triple(sensor, iri(vocab.prop_iri("moderate")), decimal(8.0)),
])

facts = forward_chain(g, ruleset)
print(f"\nforward chaining derived {len(facts)} facts:")
for f in facts:
    print(f"  {f.subject.value} --{f.property_iri}--> {f.label}")
    print(f"    via: {f.rule.render()}")

# Every derived fact carries bindings that re-satisfy its rule body.
assert verify_provenance(g, ruleset, facts)
print("provenance re-verified against the store")
