import math
import pathlib
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fireweather.assess import Verdict, alerts_for, assess, synthetic_timestamp
from fireweather.indices import WeatherInputs, compute_chain

# the benchmark's independent Van Wagner chain, band tables and decision flow
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import oracle  # noqa: E402

CALM = WeatherInputs(temp=20.0, rh=40.0, wind=10.0, rain_24h=0.0)


def record(ffmc=85.0, dmc=20.0, dc=100.0, wind=10.0):
    return compute_chain(ffmc, dmc, dc, wind)


class TestAssess:
    def test_extreme_worked_example(self):
        rec = compute_chain(95.0, 47.0, 321.0, 10.0)
        a = assess(rec, CALM, "urn:ssn:sensor:1")
        assert a.ignition_potential == "extremelyeasy"
        assert a.mopup_needs == "difficultandextensive"
        assert a.verdict == Verdict.EXTREME

    def test_rain_present_stops_everything(self):
        wet = WeatherInputs(temp=20.0, rh=40.0, wind=2.0, rain_24h=3.0)
        rec = compute_chain(70.0, 5.0, 50.0, 2.0)  # slow spread, difficult ignition
        a = assess(rec, wet, "urn:ssn:sensor:3")
        assert a.rate_of_spread == "slow"
        assert a.ignition_potential == "difficult"
        assert a.verdict == Verdict.NO_FIRE_RISK
        assert any("FireStop" in step for step in a.trace)

    def test_all_zero_record(self):
        a = assess(compute_chain(0.0, 0.0, 0.0, 0.0), CALM, "s")
        assert a.verdict == Verdict.NO_FIRE_RISK

    def test_trace_starts_with_ignition_check(self):
        a = assess(record(), CALM, "s")
        assert a.trace[0].startswith("ignition-potential")

    def test_trace_mentions_labels_behind_verdict(self):
        rec = compute_chain(95.0, 47.0, 321.0, 10.0)
        a = assess(rec, CALM, "s")
        joined = "\n".join(a.trace)
        for label in (a.ignition_potential, a.fire_intensity, a.difficulty_of_control, a.mopup_needs):
            assert label in joined

    def test_demotion_when_control_is_manageable(self):
        # force very high intensity with low BUI and DMC: high ISI, tiny fuels
        rec = compute_chain(96.0, 4.0, 5.0, 80.0)
        assert rec.fwi > 20.0 and rec.bui <= 15.0
        a = assess(rec, WeatherInputs(20.0, 30.0, 80.0, 0.0), "s")
        assert a.fire_intensity in ("veryhigh", "extreme")
        assert a.verdict == Verdict.ACT
        assert any("demoted" in step for step in a.trace)

    def test_wind_risk_flag_is_orthogonal(self):
        windy = WeatherInputs(temp=20.0, rh=40.0, wind=55.0, rain_24h=0.0)
        a = assess(compute_chain(50.0, 1.0, 10.0, 55.0), windy, "s")
        assert a.wind_risk
        assert a.verdict == Verdict.NO_FIRE_RISK

    def test_rain_dominance_random(self):
        rng = random.Random(13)
        for _ in range(10_000):
            w = WeatherInputs(
                temp=rng.uniform(-10.0, 40.0),
                rh=rng.uniform(0.0, 100.0),
                wind=rng.uniform(0.0, 90.0),
                rain_24h=rng.uniform(1.0, 60.0) + 1e-9,
            )
            rec = compute_chain(
                rng.uniform(0.0, 101.0), rng.uniform(0.0, 300.0), rng.uniform(0.0, 900.0), w.wind
            )
            if w.rain_24h > 1.0:
                assert assess(rec, w, "s").verdict == Verdict.NO_FIRE_RISK

    def test_verdict_monotone_in_fwi(self):
        rng = random.Random(77)
        for _ in range(300):
            ffmc = rng.uniform(84.1, 101.0)  # escalation region
            wind = rng.uniform(0.0, 60.0)
            dmcs = sorted(rng.uniform(0.0, 300.0) for _ in range(4))
            w = WeatherInputs(20.0, 40.0, wind, 0.0)
            verdicts = []
            for dmc in dmcs:  # raising dmc raises bui hence fwi
                rec = compute_chain(ffmc, dmc, 900.0, wind)
                verdicts.append(assess(rec, w, "s").verdict)
            fwis = [compute_chain(ffmc, dmc, 900.0, wind).fwi for dmc in dmcs]
            for (fa, va), (fb, vb) in zip(zip(fwis, verdicts), list(zip(fwis, verdicts))[1:]):
                if fb >= fa:
                    assert vb >= va or va == Verdict.ACT and vb >= Verdict.ACT


class TestAlerts:
    def test_extreme_gets_one_alert(self):
        rec = compute_chain(95.0, 47.0, 321.0, 10.0)
        alerts = alerts_for([assess(rec, CALM, "urn:ssn:sensor:1", "2000-08-15")])
        assert len(alerts) == 1
        assert alerts[0].index == "fwi"
        assert alerts[0].value > alerts[0].threshold
        assert alerts[0].verdict == "Extreme"
        assert alerts[0].timestamp == "2000-08-15"

    def test_wind_only(self):
        windy = WeatherInputs(temp=15.0, rh=70.0, wind=55.0, rain_24h=0.0)
        alerts = alerts_for([assess(compute_chain(40.0, 1.0, 10.0, 55.0), windy, "s")])
        assert len(alerts) == 1
        assert alerts[0].index == "wind"
        assert alerts[0].value == 55.0
        assert alerts[0].threshold == 50.0

    def test_empty(self):
        assert alerts_for([]) == []

    def test_deterministic_order_by_sensor(self):
        rec = compute_chain(95.0, 47.0, 321.0, 10.0)
        a1 = assess(rec, CALM, "urn:ssn:sensor:2")
        a2 = assess(rec, CALM, "urn:ssn:sensor:1")
        alerts = alerts_for([a1, a2])
        assert [a.sensor for a in alerts] == ["urn:ssn:sensor:1", "urn:ssn:sensor:2"]

    def test_alert_threshold_strictly_exceeded(self):
        rng = random.Random(909)
        for _ in range(500):
            rec = compute_chain(
                rng.uniform(0.0, 101.0), rng.uniform(0.0, 300.0), rng.uniform(0.0, 900.0),
                rng.uniform(0.0, 90.0),
            )
            w = WeatherInputs(20.0, 40.0, rec_wind(rng), rng.uniform(0.0, 3.0))
            for alert in alerts_for([assess(rec, w, "s")]):
                assert alert.value > alert.threshold


def rec_wind(rng):
    return rng.uniform(0.0, 90.0)


def test_synthetic_timestamp():
    assert synthetic_timestamp("mar") == "2000-03-15"
    assert synthetic_timestamp("dec") == "2000-12-15"


def test_timestamp_is_kept_and_defaults_to_empty():
    a = assess(record(), CALM, "s")
    assert a.timestamp == ""
    assert a == assess(record(), CALM, "s")
    assert assess(record(), CALM, "s", "2000-08-15").timestamp == "2000-08-15"


#: each band table's thresholds, FFMC, DMC, BUI, ISI and FWI, which an input may sit on
EDGES = [74.0, 84.0, 88.0, 92.0, 9.0, 19.0, 29.0, 39.0, 15.0, 30.0, 45.0, 59.0, 3.0, 7.0, 12.0, 5.0, 20.0]


def near_edges(high: float, *extra: float):
    """Floats in ``[0, high]``, or a threshold of any table, or ``extra``, that lies in it."""
    return st.one_of(st.floats(0.0, high), st.sampled_from([v for v in (*EDGES, *extra) if v <= high]))


@settings(max_examples=400, deadline=None)
@given(ffmc=near_edges(101.0), dmc=near_edges(400.0), dc=near_edges(1000.0), wind=near_edges(120.0, 50.0),
       rain=near_edges(20.0, 1.0))
@example(ffmc=92.0, dmc=39.0, dc=59.0, wind=50.0, rain=1.0)
@example(ffmc=101.0, dmc=0.0, dc=0.0, wind=0.0, rain=0.0)
def test_assess_matches_the_benchmark_oracle(ffmc, dmc, dc, wind, rain):
    a = assess(compute_chain(ffmc, dmc, dc, wind), WeatherInputs(20.0, 40.0, wind, rain), "s")
    want = oracle.expected_assessment({"FFMC": ffmc, "DMC": dmc, "DC": dc, "wind": wind, "rain": rain})
    assert {name: getattr(a, name) for name in want.labels} == want.labels
    assert (str(a.verdict), a.wind_risk) == (want.verdict, want.windy)
    for name in ("isi", "bui", "fwi"):
        assert math.isclose(getattr(a.record, name), getattr(want, name), rel_tol=1e-9, abs_tol=1e-9), name
