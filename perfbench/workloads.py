"""The three workloads: set-up, one op, and the check of the op's outputs.

Each op calls the program only through ``fireweather.cli.main`` and public
functions, looked up on their modules at call time so that the traced run's
wrappers see every call.  A failed op raises; a check returns error strings.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import gen
import oracle
from fireweather import cli, rdf, rules, sparql

#: Sizes chosen so that one op takes about 0.5-5 s on the unoptimised tree.
BATCH_ROWS = 517
RULE_SENSORS = 50
DASHBOARD_ROWS = 1034

PREFIXES = """\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX owl: <http://www.w3.org/2002/07/owl#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
"""
#: the paper's survey queries, verbatim
WIND_SURVEY = PREFIXES + """SELECT ?Sensor_id ?WindSpeed
WHERE { ?Sensor_id ?observedBy ?WindSpeed
FILTER (?WindSpeed >40.00) }
"""
RAIN_SURVEY = PREFIXES + """SELECT ?Sensor_id ?startRAIN
WHERE { ?Sensor_id ?observedBy ?startRAIN
FILTER (?startRAIN >1.00) }
"""
DRY_AUGUST_FUEL = """PREFIX p: <urn:ssn:prop:>
SELECT ?sensor ?code
WHERE { ?sensor p:hasMonth "aug" . ?o p:observedBy ?sensor . ?o p:hasUnit "unitless" .
        ?o p:hasvalue ?code . FILTER (?code > 90.0) }
"""
LOOKUP = """PREFIX p: <urn:ssn:prop:>
SELECT ?obs ?value
WHERE {{ ?obs p:observedBy <urn:ssn:sensor:{ordinal}> . ?obs p:hasvalue ?value . }}
"""
UNITLESS = ("FFMC", "DMC", "DC", "ISI")


def _run_cli(*argv: str) -> None:
    code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"fireweather {' '.join(argv)} exited with {code}")


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class DailyBatch:
    """One op: ``ingest``, ``assess`` and the wind survey ``query`` over a day's CSV."""

    name = "daily_batch"
    items = BATCH_ROWS

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.seed = root, seed
        self.csv, self.store = work / "day.csv", work / "store.nt"
        self.assessed, self.query, self.answer = work / "assess.jsonl", work / "wind.rq", work / "wind.csv"

    def setup(self) -> None:
        base = gen.read_bundled_rows(self.root / "data" / "forestfires.csv")
        self.csv.write_text(gen.csv_text(gen.perturbed_rows(base, BATCH_ROWS, self.seed)), encoding="utf-8")
        self.query.write_text(WIND_SURVEY, encoding="utf-8")

    def op(self) -> None:
        _run_cli("ingest", str(self.csv), "--output", str(self.store))
        _run_cli("assess", str(self.csv), "--output", str(self.assessed))
        _run_cli("query", str(self.store), str(self.query), "--format", "csv", "--output", str(self.answer))

    def check(self) -> list[str]:
        rows = _read_rows(self.csv)
        return (oracle.check_store(rows, _read(self.store))
                + oracle.check_assessments(rows, _read(self.assessed))
                + oracle.check_rows("wind survey", _read(self.answer), ["Sensor_id", "WindSpeed"],
                                    oracle.survey_rows(rows, 40.0)))


class RuleChaining:
    """One op: ``infer --format jsonl`` over a seeded rule-input store."""

    name = "rule_chaining"
    items = RULE_SENSORS

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.seed = root, seed
        self.rules = root / "rules" / "fwi.rules"
        self.store, self.facts = work / "sensors.nt", work / "facts.jsonl"
        self._graph = None

    def setup(self) -> None:
        self.rule_lines = oracle.parse_rule_lines(_read(self.rules))
        self.sensors = gen.rule_store(self.rule_lines, RULE_SENSORS, self.seed)
        self.store.write_text(gen.rule_store_ntriples(self.sensors), encoding="utf-8")

    def op(self) -> None:
        _run_cli("infer", str(self.store), "--rules", str(self.rules), "--format", "jsonl",
                 "--output", str(self.facts))

    def check(self) -> list[str]:
        text = _read(self.facts)
        errors = oracle.check_facts(self.sensors, self.rule_lines, text)
        if errors:
            return errors
        if self._graph is None:
            self._graph = rdf.import_ntriples(_read(self.store))
            self._ruleset = rules.load_rules(str(self.rules))
        facts = [_fact_from_json(json.loads(line)) for line in text.splitlines()]
        if not rules.verify_provenance(self._graph, self._ruleset, facts):
            return ["infer: verify_provenance rejected the derived facts"]
        return []


def _term(text: str) -> rdf.Term:
    if text.startswith("<") and text.endswith(">"):
        return rdf.iri(text[1:-1])
    m = oracle.LITERAL.fullmatch(text)
    return rdf.Term(m.group(1), rdf.Datatype(m.group(2)))


def _fact_from_json(record: dict) -> rules.InferredFact:
    return rules.InferredFact(
        subject=rdf.iri(record["subject"]),
        property_iri=record["property"],
        label=record["label"],
        rule=rules.parse_rule(record["rule"]),
        bindings=tuple(sorted((k, _term(v)) for k, v in record["bindings"].items())),
    )


class QueryDashboard:
    """Set-up loads a store once; one op is a fixed refresh of survey, join and lookup queries."""

    name = "query_dashboard"

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.seed = root, seed
        self.csv, self.store = work / "stations.csv", work / "stations.nt"
        self.lookup = gen.lookup_sensor(DASHBOARD_ROWS, seed)
        self.queries = [WIND_SURVEY, RAIN_SURVEY, DRY_AUGUST_FUEL, LOOKUP.format(ordinal=self.lookup)]
        self.items = len(self.queries)
        self.outputs: list[str] = []

    def setup(self) -> None:
        self.graph = None  # a repeated set-up must not hold two stores at once
        base = gen.read_bundled_rows(self.root / "data" / "forestfires.csv")
        self.csv.write_text(gen.csv_text(gen.perturbed_rows(base, DASHBOARD_ROWS, self.seed)), encoding="utf-8")
        _run_cli("ingest", str(self.csv), "--output", str(self.store))
        self.graph = rdf.import_ntriples(_read(self.store))

    def op(self) -> None:
        self.outputs = [sparql.evaluate(sparql.parse_query(q), self.graph).to_csv() for q in self.queries]

    def check(self) -> list[str]:
        rows = _read_rows(self.csv)
        sensor = [f"{oracle.SENSOR_NS}{n}" for n in range(1, len(rows) + 1)]
        want = [
            ("wind survey", ["Sensor_id", "WindSpeed"], oracle.survey_rows(rows, 40.0)),
            ("rain survey", ["Sensor_id", "startRAIN"], oracle.survey_rows(rows, 1.0)),
            ("dry august fuel", ["sensor", "code"],
             [(sensor[i], float(r[c])) for i, r in enumerate(rows) if r["month"] == "aug"
              for c in UNITLESS if float(r[c]) > 90.0]),
            (f"lookup {self.lookup}", ["obs", "value"],
             [(f"{oracle.OBS_NS}{self.lookup}:{q}", float(rows[self.lookup - 1][c]))
              for c, q in oracle.QUANTITIES.items()]),
        ]
        errors = []
        for output, (name, header, rows_wanted) in zip(self.outputs, want):
            errors += oracle.check_rows(name, output, header, rows_wanted)
        if len(self.outputs) != len(want):
            errors.append(f"dashboard: {len(self.outputs)} results, want {len(want)}")
        return errors


WORKLOADS = {w.name: w for w in (DailyBatch, RuleChaining, QueryDashboard)}
