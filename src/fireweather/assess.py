"""Per-sensor precautionary assessment and threshold alerts.

Decision flow (``decide``, over the five band labels): read ignition
potential first, apply the rain override, then escalate through
rate-of-spread and fire intensity; at very high or extreme intensity the
difficulty-of-control and mop-up bands decide whether the verdict is demoted
from Extreme to Act.  ``assess`` classifies a record's indices, decides, and
writes each step with its index value into the trace.
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


#: each ``bands.SCALES`` index name -> its ``Assessment`` label field and its name in a trace step
FIELDS = {
    "ffmc": ("ignition_potential", "ignition-potential"),
    "dmc": ("mopup_needs", "mopup-needs"),
    "bui": ("difficulty_of_control", "difficulty-of-control"),
    "isi": ("rate_of_spread", "rate-of-spread"),
    "fwi": ("fire_intensity", "fire-intensity"),
}

#: the label sets that ``decide`` tests, built once: ignition below ``easy``,
#: control up to ``notDifficult`` and mop-up up to ``moderate``
_BELOW_EASY = frozenset(bands.IGNITION_POTENTIAL.labels()[: bands.IGNITION_POTENTIAL.rank("easy")])
_MANAGEABLE_CONTROL = frozenset(bands.DIFFICULTY_OF_CONTROL.labels()[: bands.DIFFICULTY_OF_CONTROL.rank("notDifficult") + 1])
_MANAGEABLE_MOPUP = frozenset(bands.MOPUP_NEEDS.labels()[: bands.MOPUP_NEEDS.rank("moderate") + 1])
#: each fire-intensity label's verdict: its rank, capped at Extreme
_INTENSITY = {label: Verdict(min(rank, Verdict.EXTREME)) for rank, label in enumerate(bands.FIRE_INTENSITY.labels())}


def decide(labels: dict[str, str], rain_stop: bool) -> tuple[Verdict, tuple[str, ...]]:
    """The verdict from each index name's band label, and the steps that reach it.

    A step is an index name whose label the flow read, ``"rain"`` for the
    rain override, or a note: no escalation below ``easy``, or the demotion.
    """
    if rain_stop:
        return Verdict.NO_FIRE_RISK, ("ffmc", "rain")
    if labels["ffmc"] in _BELOW_EASY:
        return Verdict.NO_FIRE_RISK, ("ffmc", "rain", "ignition below easy: no escalation")
    verdict = _INTENSITY[labels["fwi"]]
    if verdict < Verdict.EXTREME:
        return verdict, ("ffmc", "rain", "isi", "fwi")
    if labels["bui"] in _MANAGEABLE_CONTROL and labels["dmc"] in _MANAGEABLE_MOPUP:
        return Verdict.ACT, ("ffmc", "rain", "isi", "fwi", "bui", "dmc", "demoted: control and mop-up both manageable")
    return verdict, ("ffmc", "rain", "isi", "fwi", "bui", "dmc")


def assess(rec: FwiRecord, w: WeatherInputs, sensor: str, timestamp: str = "") -> Assessment:
    """Run the decision flow for one sensor-day.

    ``timestamp`` is kept as given, empty by default: the result never
    depends on the day it is computed.
    """
    labels = {name: table.classify(getattr(rec, name)) for name, table in bands.SCALES.items()}
    rain = bands.rain_override(w.rain_24h)
    wind = bands.wind_risk(w.wind)
    verdict, steps = decide(labels, rain is not None)
    rain_step = f"rain-override(rain={w.rain_24h:g})={rain or 'none'}"
    # an index name's step names its index value and label; a note is its own step
    trace = [
        f"{FIELDS[step][1]}({step}={getattr(rec, step):g})={labels[step]}" if step in FIELDS
        else rain_step if step == "rain" else step
        for step in steps
    ]
    if wind is not None:
        trace.append(f"wind-risk(wind={w.wind:g})={wind}")
    fields = {field: labels[name] for name, (field, _) in FIELDS.items()}
    return Assessment(sensor, rec, w, **fields, rain_override=rain is not None, wind_risk=wind is not None,
                      verdict=verdict, trace=tuple(trace), timestamp=timestamp)


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
