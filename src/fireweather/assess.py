"""Per-sensor precautionary assessment and threshold alerts.

Decision flow: classify ignition potential first, apply the rain override,
then escalate through rate-of-spread and fire intensity; at very high or
extreme intensity the difficulty-of-control and mop-up bands decide whether
the verdict is demoted from Extreme to Act.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

from . import bands
from .indices import FwiRecord, WeatherInputs
from .ingest import MONTHS

#: dataset rows carry month/day names only; synthetic dates pin the year to
#: the start of the collection span and the day-of-month to 15
SYNTHETIC_YEAR = 2000
SYNTHETIC_DAY_OF_MONTH = 15


class Verdict(IntEnum):
    NO_FIRE_RISK = 0
    MONITOR = 1
    ACT = 2
    EXTREME = 3

    def __str__(self) -> str:
        return {0: "NoFireRisk", 1: "Monitor", 2: "Act", 3: "Extreme"}[self.value]


@dataclass(frozen=True)
class Assessment:
    sensor: str
    record: FwiRecord
    weather: WeatherInputs
    ignition_potential: str
    mopup_needs: str
    difficulty_of_control: str
    rate_of_spread: str
    fire_intensity: str
    rain_override: bool
    wind_risk: bool
    verdict: Verdict
    trace: tuple[str, ...]
    timestamp: str = ""


@dataclass(frozen=True)
class Alert:
    sensor: str
    timestamp: str
    index: str
    value: float
    threshold: float
    verdict: str
    message: str


def synthetic_timestamp(month: str) -> str:
    """ISO date for a month-only observation."""
    m = MONTHS.index(month) + 1
    return datetime.date(SYNTHETIC_YEAR, m, SYNTHETIC_DAY_OF_MONTH).isoformat()


_ESCALATE_FROM = "easy"  # ignition band at or above which spread/intensity are consulted


def assess(rec: FwiRecord, w: WeatherInputs, sensor: str, timestamp: str = "") -> Assessment:
    """Run the decision flow for one sensor-day.

    ``timestamp`` is kept as given, empty by default: the result never
    depends on the day it is computed.
    """
    ignition = bands.IGNITION_POTENTIAL.classify(rec.ffmc)
    mopup = bands.MOPUP_NEEDS.classify(rec.dmc)
    difficulty = bands.DIFFICULTY_OF_CONTROL.classify(rec.bui)
    spread = bands.RATE_OF_SPREAD.classify(rec.isi)
    intensity = bands.FIRE_INTENSITY.classify(rec.fwi)
    rain_stop = bands.rain_override(w.rain_24h) is not None
    windy = bands.wind_risk(w.wind) is not None

    trace = [f"ignition-potential(ffmc={rec.ffmc:g})={ignition}"]
    if rain_stop:
        trace.append(f"rain-override(rain={w.rain_24h:g})=FireStop")
        verdict = Verdict.NO_FIRE_RISK
    else:
        trace.append(f"rain-override(rain={w.rain_24h:g})=none")
        ranks = bands.IGNITION_POTENTIAL
        if ranks.rank(ignition) < ranks.rank(_ESCALATE_FROM):
            trace.append("ignition below easy: no escalation")
            verdict = Verdict.NO_FIRE_RISK
        else:
            trace.append(f"rate-of-spread(isi={rec.isi:g})={spread}")
            trace.append(f"fire-intensity(fwi={rec.fwi:g})={intensity}")
            verdict = Verdict(min(bands.FIRE_INTENSITY.rank(intensity), Verdict.EXTREME))
            if verdict == Verdict.EXTREME:
                trace.append(f"difficulty-of-control(bui={rec.bui:g})={difficulty}")
                trace.append(f"mopup-needs(dmc={rec.dmc:g})={mopup}")
                if (
                    bands.DIFFICULTY_OF_CONTROL.rank(difficulty) <= bands.DIFFICULTY_OF_CONTROL.rank("notDifficult")
                    and bands.MOPUP_NEEDS.rank(mopup) <= bands.MOPUP_NEEDS.rank("moderate")
                ):
                    trace.append("demoted: control and mop-up both manageable")
                    verdict = Verdict.ACT
    if windy:
        trace.append(f"wind-risk(wind={w.wind:g})=veryhigh")

    return Assessment(
        sensor=sensor,
        record=rec,
        weather=w,
        ignition_potential=ignition,
        mopup_needs=mopup,
        difficulty_of_control=difficulty,
        rate_of_spread=spread,
        fire_intensity=intensity,
        rain_override=rain_stop,
        wind_risk=windy,
        verdict=verdict,
        trace=tuple(trace),
        timestamp=timestamp,
    )


def alerts_for(assessments: Iterable[Assessment]) -> list[Alert]:
    """One alert per Act/Extreme verdict plus one per wind-risk flag."""
    alerts = []
    for a in sorted(assessments, key=lambda a: a.sensor):
        if a.verdict >= Verdict.ACT:
            threshold = bands.FIRE_INTENSITY.lower_bound(a.fire_intensity)
            alerts.append(Alert(
                sensor=a.sensor,
                timestamp=a.timestamp,
                index="fwi",
                value=a.record.fwi,
                threshold=threshold,
                verdict=str(a.verdict),
                message=f"fire intensity {a.fire_intensity}: FWI {a.record.fwi:.1f} exceeds {threshold:g}",
            ))
        if a.wind_risk:
            wind = a.weather.wind
            alerts.append(Alert(
                sensor=a.sensor,
                timestamp=a.timestamp,
                index="wind",
                value=wind,
                threshold=bands.WIND_RISK_THRESHOLD,
                verdict=str(a.verdict),
                message=f"wind speed {wind:g} km/h exceeds {bands.WIND_RISK_THRESHOLD:g}",
            ))
    return alerts
