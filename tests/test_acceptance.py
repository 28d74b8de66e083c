"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success (visible with `pytest -s`);
under `pytest -v` the per-test PASSED/FAILED verdicts serve the same role.
"""

import random

import pytest

from fireweather import vocab
from fireweather.assess import Verdict, assess
from fireweather.bands import (
    DIFFICULTY_OF_CONTROL,
    FIRE_INTENSITY,
    IGNITION_POTENTIAL,
    MOPUP_NEEDS,
    RATE_OF_SPREAD,
    SCALES,
)
from fireweather.indices import (
    WeatherInputs,
    bui_from,
    compute_chain,
    daily_update,
    ffmc_from_fmc,
    fmc_from_ffmc,
    fwi_from,
    isi_from,
)
from fireweather.ingest import parse_csv
from fireweather.rdf import Graph, Triple, TriplePattern, decimal, iri, join, string
from fireweather.rules import forward_chain, load_rules, verify_provenance
from fireweather.sparql import evaluate, parse_query
from conftest import RULES_FILE
from test_bands import DIRECT_TABLES, direct_label, probe_values
from test_rules import naive_fixpoint, random_store
from test_sparql import WIND_SURVEY_QUERY, RAIN_SURVEY_QUERY, naive_evaluate, random_query
from util import random_graph


def _report(n: int, text: str):
    print(f"CRITERION {n}: PASS — {text}")


def test_criterion_1_fwi_worked_example():
    value = fwi_from(6.0, 115.0)
    assert 22.5 <= value <= 24.5
    _report(1, f"fwi_from(6, 115) = {value:.3f} within [22.5, 24.5]")


def test_criterion_2_moisture_conversion():
    assert fmc_from_ffmc(101.0) == 0.0
    assert fmc_from_ffmc(85.0) == pytest.approx(16.2990, abs=1e-3)
    grid = [round(0.5 * i, 1) for i in range(0, 203)]  # 0.0 .. 101.0
    for ffmc in grid:
        assert ffmc_from_fmc(fmc_from_ffmc(ffmc)) == pytest.approx(ffmc, abs=1e-9)
    _report(2, "fmc values match and the 0.5-step round-trip holds within 1e-9")


def test_criterion_3_band_tables():
    for index in DIRECT_TABLES:
        for v in probe_values(index):
            assert SCALES[index].classify(v) == direct_label(index, v), f"{index}={v}"
    assert IGNITION_POTENTIAL.classify(95.0) == "extremelyeasy"
    assert MOPUP_NEEDS.classify(47.0) == "difficultandextensive"
    assert DIFFICULTY_OF_CONTROL.classify(17.0) == "notDifficult"
    assert RATE_OF_SPREAD.classify(6.0) == "moderatelyFast"
    assert FIRE_INTENSITY.classify(8.0) == "moderate"
    assert FIRE_INTENSITY.classify(23.0) == "veryhigh"
    _report(3, "all five band tables match the direct threshold encoding plus anchors")


def test_criterion_4_inference_walkthrough():
    ruleset = load_rules(str(RULES_FILE))
    subject = iri("urn:ssn:sensor:Sensor_2")
    g = Graph([
        Triple(subject, iri(vocab.RDF_TYPE), iri(vocab.SENSOR_CLASS)),
        Triple(subject, iri(vocab.prop_iri("notdifficult")), decimal(17.0)),
        Triple(subject, iri(vocab.prop_iri("moderate")), decimal(8.0)),
    ])
    facts = forward_chain(g, ruleset)
    derived = {(f.property_iri, f.label) for f in facts}
    assert (vocab.prop_iri("DifficultyofControle"), "notDifficult") in derived
    assert (vocab.prop_iri("FireIntensity"), "moderate") in derived
    assert verify_provenance(g, ruleset, facts)
    _report(4, "Sensor_2 store yields both expected facts and provenance re-verifies")


def test_criterion_5_fixpoint_oracle():
    ruleset = load_rules(str(RULES_FILE))
    rng = random.Random(40_000)
    for _ in range(500):
        g = random_store(rng)
        got = {f.triple() for f in forward_chain(g, ruleset)}
        assert got == naive_fixpoint(g, ruleset)
    _report(5, "forward_chain matched the naive fixpoint on 500 random stores")


def test_criterion_6_query_oracle():
    assert len(parse_query(WIND_SURVEY_QUERY).patterns) == 1
    assert len(parse_query(RAIN_SURVEY_QUERY).patterns) == 1
    rng = random.Random(60_000)
    cases = with_rows = 0
    while cases < 1000:
        g = random_graph(rng, 50)
        q = random_query(rng, g)
        if q is None:
            continue
        cases += 1
        rows = naive_evaluate(q, g)
        assert evaluate(q, g).rows == rows
        with_rows += bool(rows)
    assert with_rows * 8 >= cases
    _report(6, f"evaluator matched brute-force enumeration on 1000 random cases, {with_rows} of them with a row")


def _measurement_view(graph: Graph, quantity: str) -> Graph:
    """Sub-store holding only the value triples of one measured quantity.

    The verbatim survey queries use a fully open triple pattern, so they are
    run against the per-quantity slice of the store to count matching rows.
    """
    view = Graph()
    suffix = ":" + quantity
    for row in join([TriplePattern("?s", iri(vocab.HAS_VALUE), "?v")], graph, ["?s", "?v"]):
        s, v = map(graph._terms.__getitem__, row)
        if s.value.endswith(suffix):
            view.insert(Triple(s, iri(vocab.HAS_VALUE), v))
    return view


def test_criterion_7_dataset_pipeline(dataset_text):
    from fireweather.ingest import TRIPLES_PER_ROW, ingest_observations

    rows = parse_csv(dataset_text)
    graph = ingest_observations(rows)
    assert len(graph) == len(rows) * TRIPLES_PER_ROW

    windy_rows = sum(1 for r in rows if r.wind > 40.0)
    rainy_rows = sum(1 for r in rows if r.rain > 1.0)
    wind_table = evaluate(parse_query(WIND_SURVEY_QUERY), _measurement_view(graph, "wind"))
    rain_table = evaluate(parse_query(RAIN_SURVEY_QUERY), _measurement_view(graph, "rain"))
    assert len(wind_table.rows) == windy_rows == 0
    assert len(rain_table.rows) == rainy_rows
    assert rainy_rows > 0

    for r in rows:
        if r.rain > 1.0:
            rec = compute_chain(r.ffmc, r.dmc, r.dc, r.wind)
            w = WeatherInputs(temp=r.temp, rh=r.rh, wind=r.wind, rain_24h=r.rain)
            assert assess(rec, w, "s").verdict == Verdict.NO_FIRE_RISK
    _report(7, f"query counts match the CSV filters ({rainy_rows} rainy rows) and rain dominates")


def test_criterion_8_property_suite():
    rng = random.Random(80_000)
    # isi monotone in wind at fixed ffmc
    for _ in range(500):
        ffmc = rng.uniform(0.0, 101.0)
        w1, w2 = sorted((rng.uniform(0.0, 90.0), rng.uniform(0.0, 90.0)))
        assert isi_from(ffmc, w1) <= isi_from(ffmc, w2) + 1e-12
    # fwi monotone in both arguments
    for _ in range(500):
        i1, i2 = sorted((rng.uniform(0.0, 80.0), rng.uniform(0.0, 80.0)))
        b1, b2 = sorted((rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)))
        assert fwi_from(i1, b1) <= fwi_from(i2, b1) + 1e-12
        assert fwi_from(i1, b1) <= fwi_from(i1, b2) + 1e-12
    # bui branch-seam continuity
    for dc in (1.0, 10.0, 100.0, 500.0):
        seam = 0.4 * dc
        assert abs(bui_from(seam - 1e-9, dc) - bui_from(seam + 1e-9, dc)) <= 1e-6
    # daily update stays in range over random weather
    for _ in range(10_000):
        ffmc, dmc, dc = rng.uniform(0, 101), rng.uniform(0, 400), rng.uniform(0, 1000)
        w = WeatherInputs(
            temp=rng.uniform(-20.0, 45.0),
            rh=rng.uniform(0.0, 100.0),
            wind=rng.uniform(0.0, 90.0),
            rain_24h=rng.uniform(0.0, 60.0),
        )
        month = rng.choice("jan feb mar apr may jun jul aug sep oct nov dec".split())
        f2, m2, c2 = daily_update(ffmc, dmc, dc, w, month)
        assert 0.0 <= f2 <= 101.0 and m2 >= 0.0 and c2 >= 0.0
    # rain dominance on random assessments
    for _ in range(10_000):
        rec = compute_chain(
            rng.uniform(0.0, 101.0), rng.uniform(0.0, 300.0), rng.uniform(0.0, 900.0),
            rng.uniform(0.0, 90.0),
        )
        rain = rng.uniform(0.0, 30.0)
        w = WeatherInputs(temp=20.0, rh=40.0, wind=rng.uniform(0.0, 90.0), rain_24h=rain)
        if rain > 1.0:
            assert assess(rec, w, "s").verdict == Verdict.NO_FIRE_RISK
    _report(8, "monotonicity, seam continuity, range safety, and rain dominance all hold")


def test_criterion_9_documented_reconstructions():
    """Checks with no external reference numbers fall back on internal oracles.

    The shipped rule file carries 27 rules (criteria 4–5 exercise every one);
    query results are validated by oracle equality rather than published
    counts (criterion 6); and the 78-day chart selection is a documented
    reconstruction exercised through the plot subcommand.
    """
    ruleset = load_rules(str(RULES_FILE))
    assert len(ruleset) == 27
    from fireweather.cli import main
    assert main(["plot", str(RULES_FILE.parent.parent / "data" / "forestfires.csv"), "--days", "78", "--output", "/dev/null"]) == 0
    _report(9, "non-reproducible figures are covered by criteria 4–6 and the plot reconstruction")
