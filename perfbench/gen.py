"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives the
same rows, stores and queries.  Nothing here imports the program under test.
"""

from __future__ import annotations

import csv
import io
import random
from pathlib import Path

from oracle import PROP_NS, SENSOR_NS, RuleLine

HEADER = ["X", "Y", "month", "day", "FFMC", "DMC", "DC", "ISI",
          "temp", "RH", "wind", "rain", "area"]
#: CSV column -> (low, high) of its valid range; None is unbounded
DOMAINS = {
    "X": (1, 9), "Y": (2, 9), "FFMC": (0.0, 101.0), "DMC": (0.0, None), "DC": (0.0, None),
    "ISI": (0.0, None), "temp": (None, None), "RH": (0, 100), "wind": (0.0, None),
    "rain": (0.0, None), "area": (0.0, None),
}

SENSOR_CLASS = "urn:ssn:class:sensor_id"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"

#: rule-input properties whose rules read FFMC, so their values stay in [0, 101]
FFMC_PROPERTIES = {"Difficult", "Moderatelyeasy", "easy", "veryeasy", "extremelyeasy"}


def read_bundled_rows(path: Path) -> list[list[str]]:
    """The bundled dataset's data rows, as strings in HEADER order."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != HEADER:
            raise ValueError(f"{path}: unexpected header")
        return [row for row in reader if row]


def _clamp(value, column):
    low, high = DOMAINS[column]
    if low is not None:
        value = max(value, low)
    if high is not None:
        value = min(value, high)
    return value


def perturbed_rows(base: list[list[str]], n: int, seed: int) -> list[list[str]]:
    """n rows made by cycling through ``base`` and perturbing every value.

    Month and day are kept.  Continuous fields get a relative or additive
    jitter rounded to two decimals, so rows are never copied verbatim and
    the number of distinct literals grows with n; integer fields move by at
    most a few units.  Every value stays inside its column's domain.
    """
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        src = dict(zip(HEADER, base[i % len(base)]))
        out = {
            "X": _clamp(int(src["X"]) + rng.randint(-1, 1), "X"),
            "Y": _clamp(int(src["Y"]) + rng.randint(-1, 1), "Y"),
            "month": src["month"],
            "day": src["day"],
            "FFMC": _clamp(float(src["FFMC"]) + rng.uniform(-2.0, 2.0), "FFMC"),
            "temp": float(src["temp"]) + rng.uniform(-1.5, 1.5),
            "RH": _clamp(int(src["RH"]) + rng.randint(-5, 5), "RH"),
        }
        for column in ("DMC", "DC", "ISI", "wind", "rain", "area"):
            out[column] = _clamp(float(src[column]) * rng.uniform(0.85, 1.15), column)
        rows.append([_lexical(out[c]) for c in HEADER])
    return rows


def _lexical(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def csv_text(rows: list[list[str]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(rows)
    return out.getvalue()


def rule_store(rules: list[RuleLine], n_sensors: int, seed: int) -> list[dict[str, float]]:
    """Per-sensor values of every body property that the rule lines read.

    Each value straddles one of the thresholds its property is tested
    against: it lies between 1.02 and 1.5 times the threshold or between 0.5
    and 0.98 times it.  The sensors are dealt evenly over a property's
    thresholds and, within each threshold, half above and half below, so
    the seed picks the sensors and values while the number of facts the
    rules derive barely moves with it; that number sets the chaining cost.
    """
    thresholds: dict[str, list[float]] = {}
    for rule in rules:
        thresholds.setdefault(rule.body_property, []).append(rule.threshold)
    rng = random.Random(seed)
    sensors: list[dict[str, float]] = [{} for _ in range(n_sensors)]
    for prop, options in thresholds.items():
        plan = [(options[i % len(options)], (i // len(options)) % 2 == 0) for i in range(n_sensors)]
        rng.shuffle(plan)
        for values, (threshold, above) in zip(sensors, plan):
            value = round(threshold * (rng.uniform(1.02, 1.5) if above else rng.uniform(0.5, 0.98)), 2)
            values[prop] = min(value, 101.0) if prop in FFMC_PROPERTIES else value
    return sensors


def rule_store_ntriples(sensors: list[dict[str, float]]) -> str:
    """N-Triples text of a rule-input store, written without the program."""
    lines = []
    for ordinal, values in enumerate(sensors, start=1):
        s = f"<{SENSOR_NS}{ordinal}>"
        lines.append(f"{s} <{RDF_TYPE}> <{SENSOR_CLASS}> .")
        for prop, value in values.items():
            lines.append(f'{s} <{PROP_NS}{prop}> "{value!r}"^^<{XSD_DECIMAL}> .')
    return "".join(line + "\n" for line in lines)


def lookup_sensor(n_rows: int, seed: int) -> int:
    """The sensor ordinal of the dashboard's point lookup."""
    return random.Random(seed).randint(1, n_rows)
