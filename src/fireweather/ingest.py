"""Montesinho forest-fires CSV parsing and mapping to sensor-network RDF."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable

from . import vocab
from .rdf import Datatype, Graph, import_ntriples, string

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
    """One dataset row: park-grid coordinates, each a plain ``int`` that a float holds, date, weather, fuel codes."""

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
        for name in ("x_coord", "y_coord"):
            value = getattr(self, name)
            if type(value) is not int:
                raise IngestError(f"{name} must be an int, got {value!r}")
            try:
                float(value)
            except OverflowError:
                # an integer literal's value must read as a finite float
                raise IngestError(f"{name} is too large for a float: {value}") from None
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


# Tokens every row shares, written once.
_RDF_TYPE, _SENSOR_CLASS, _HAS_DEPLOYMENT_X, _HAS_DEPLOYMENT_Y, _HAS_MONTH, _HAS_DAY, _HAS_VALUE, _HAS_UNIT, _OBSERVED_BY = (
    f"<{value}>" for value in (
        vocab.RDF_TYPE, vocab.SENSOR_CLASS, vocab.HAS_DEPLOYMENT_X, vocab.HAS_DEPLOYMENT_Y,
        vocab.HAS_MONTH, vocab.HAS_DAY, vocab.HAS_VALUE, vocab.HAS_UNIT, vocab.OBSERVED_BY,
    )
)
#: each month, day and unit as the string literal that ``rdf`` writes
_STRINGS = {value: str(string(value)) for value in (*MONTHS, *DAYS, *QUANTITY_UNITS.values())}
#: the end of an integer and of a decimal literal as ``rdf`` writes them: the closing quote and datatype
_INTEGER_END, _DECIMAL_END = (f'"^^<{dt.value}>' for dt in (Datatype.INTEGER, Datatype.DECIMAL))


def ntriples_lines(observations: Iterable[WeatherObservation]) -> list[str]:
    """The CSV->RDF mapping: each row's N-Triples lines, in row order, minting sensor ordinals from 1.

    Each literal is formatted as ``rdf`` writes its ``Term``, with no
    ``Term`` made: a coordinate as its ``int``'s digits, and a quantity as
    its float's ``repr``, as ``format_decimal`` writes it, which
    ``WeatherObservation`` has checked is finite, so ``-0.0`` and ``0.0``
    stay two literals.
    """
    lines = []
    for ordinal, obs in enumerate(observations, start=1):
        s = f"<{vocab.sensor_iri(ordinal)}>"
        lines += (
            f"{s} {_RDF_TYPE} {_SENSOR_CLASS} .",
            f'{s} {_HAS_DEPLOYMENT_X} "{obs.x_coord}{_INTEGER_END} .',
            f'{s} {_HAS_DEPLOYMENT_Y} "{obs.y_coord}{_INTEGER_END} .',
            f"{s} {_HAS_MONTH} {_STRINGS[obs.month]} .",
            f"{s} {_HAS_DAY} {_STRINGS[obs.day]} .",
        )
        for quantity, unit in QUANTITY_UNITS.items():
            node = f"<{vocab.obs_iri(ordinal, quantity)}>"
            lines += (
                f'{node} {_HAS_VALUE} "{float(getattr(obs, quantity))!r}{_DECIMAL_END} .',
                f"{node} {_HAS_UNIT} {_STRINGS[unit]} .",
                f"{node} {_OBSERVED_BY} {s} .",
            )
    return lines


def ingest_observations(observations: Iterable[WeatherObservation]) -> Graph:
    """The observations' graph, read back from their ``ntriples_lines``, in row order."""
    return import_ntriples("".join(line + "\n" for line in ntriples_lines(observations)))
