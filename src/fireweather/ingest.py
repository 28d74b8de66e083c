"""Montesinho forest-fires CSV parsing and mapping to sensor-network RDF."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from . import vocab
from .rdf import Graph, Triple, decimal, integer, iri, string

EXPECTED_HEADER = ["X", "Y", "month", "day", "FFMC", "DMC", "DC", "ISI",
                   "temp", "RH", "wind", "rain", "area"]

MONTHS = ["jan", "feb", "mar", "apr", "may", "jun",
          "jul", "aug", "sep", "oct", "nov", "dec"]
DAYS = ["mon", "tue", "wed", "thu", "fri", "sat", "sun"]

#: quantity name -> unit label, in emission order
QUANTITY_UNITS = {
    "ffmc": "unitless",
    "dmc": "unitless",
    "dc": "unitless",
    "isi": "unitless",
    "temp": "celsius",
    "rh": "percent",
    "wind": "km/h",
    "rain": "mm",
    "area": "hectare",
}

#: type + 2 location + month + day + 3 per quantity
TRIPLES_PER_ROW = 5 + 3 * len(QUANTITY_UNITS)


class IngestError(Exception):
    """CSV structure or value-range failure, with row context."""


@dataclass(frozen=True)
class WeatherObservation:
    """One dataset row: park-grid coordinates, date, weather, fuel codes."""

    x_coord: int
    y_coord: int
    month: str
    day: str
    ffmc: float
    dmc: float
    dc: float
    isi: float
    temp: float
    rh: float
    wind: float
    rain: float
    area: float

    def __post_init__(self):
        if self.month not in MONTHS:
            raise IngestError(f"invalid month {self.month!r}")
        if self.day not in DAYS:
            raise IngestError(f"invalid day {self.day!r}")
        for name in QUANTITY_UNITS:
            if not math.isfinite(getattr(self, name)):
                raise IngestError(f"{name} must be a finite number: {getattr(self, name)}")
        if not 0.0 <= self.ffmc <= 101.0:
            raise IngestError(f"ffmc out of range [0, 101]: {self.ffmc}")
        if not 0.0 <= self.rh <= 100.0:
            raise IngestError(f"rh out of range [0, 100]: {self.rh}")
        for name in ("dmc", "dc", "isi", "wind", "rain", "area"):
            if getattr(self, name) < 0.0:
                raise IngestError(f"{name} must be >= 0: {getattr(self, name)}")


def parse_csv(text: str) -> list[WeatherObservation]:
    """Parse the dataset CSV into observations, preserving file order."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty input: missing header row") from None
    if [h.strip() for h in header] != EXPECTED_HEADER:
        raise IngestError(f"unexpected header {header!r}, want {EXPECTED_HEADER!r}")
    # ``int`` and ``float`` also read ``_`` and every Unicode digit; the rows
    # of a text that holds neither a ``_`` nor a non-ASCII character need no check
    suspect = "_" in text or not text.isascii()
    observations = []
    for rownum, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(EXPECTED_HEADER):
            raise IngestError(f"row {rownum}: expected {len(EXPECTED_HEADER)} columns, got {len(row)}")
        if suspect:
            for name, field in zip(EXPECTED_HEADER, row):
                if name not in ("month", "day") and ("_" in field or not field.isascii()):
                    raise IngestError(f"row {rownum}: {name.lower()} must be an ASCII numeral without '_': {field!r}")
        try:
            obs = WeatherObservation(
                x_coord=int(row[0]),
                y_coord=int(row[1]),
                month=row[2].strip().lower(),
                day=row[3].strip().lower(),
                ffmc=float(row[4]),
                dmc=float(row[5]),
                dc=float(row[6]),
                isi=float(row[7]),
                temp=float(row[8]),
                rh=float(row[9]),
                wind=float(row[10]),
                rain=float(row[11]),
                area=float(row[12]),
            )
        except ValueError as exc:
            raise IngestError(f"row {rownum}: unparseable field ({exc})") from None
        except IngestError as exc:
            raise IngestError(f"row {rownum}: {exc}") from None
        observations.append(obs)
    return observations


# Terms every row shares, built once.
_RDF_TYPE = iri(vocab.RDF_TYPE)
_SENSOR_CLASS = iri(vocab.SENSOR_CLASS)
_HAS_DEPLOYMENT_X = iri(vocab.HAS_DEPLOYMENT_X)
_HAS_DEPLOYMENT_Y = iri(vocab.HAS_DEPLOYMENT_Y)
_HAS_MONTH = iri(vocab.HAS_MONTH)
_HAS_DAY = iri(vocab.HAS_DAY)
_HAS_VALUE = iri(vocab.HAS_VALUE)
_HAS_UNIT = iri(vocab.HAS_UNIT)
_OBSERVED_BY = iri(vocab.OBSERVED_BY)
_UNIT_TERMS = {quantity: string(unit) for quantity, unit in QUANTITY_UNITS.items()}
_MONTH_TERMS = {month: string(month) for month in MONTHS}
_DAY_TERMS = {day: string(day) for day in DAYS}


def to_triples(obs: WeatherObservation, ordinal: int) -> list[Triple]:
    """Map the observation of row ``ordinal`` (1-based) to its fixed per-row triple schema."""
    s = iri(vocab.sensor_iri(ordinal))
    triples = [
        Triple(s, _RDF_TYPE, _SENSOR_CLASS),
        Triple(s, _HAS_DEPLOYMENT_X, integer(obs.x_coord)),
        Triple(s, _HAS_DEPLOYMENT_Y, integer(obs.y_coord)),
        Triple(s, _HAS_MONTH, _MONTH_TERMS[obs.month]),
        Triple(s, _HAS_DAY, _DAY_TERMS[obs.day]),
    ]
    for quantity in QUANTITY_UNITS:
        node = iri(vocab.obs_iri(ordinal, quantity))
        triples.append(Triple(node, _HAS_VALUE, decimal(float(getattr(obs, quantity)))))
        triples.append(Triple(node, _HAS_UNIT, _UNIT_TERMS[quantity]))
        triples.append(Triple(node, _OBSERVED_BY, s))
    return triples


def ingest_observations(observations: Iterable[WeatherObservation]) -> Graph:
    """Load observations into a graph, minting sensor ordinals from 1, with no ``Graph.insert`` per triple."""
    rows = enumerate(observations, start=1)
    return Graph(chain.from_iterable(to_triples(obs, ordinal) for ordinal, obs in rows))
