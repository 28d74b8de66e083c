"""Independent computations the benchmark checks the program's outputs against.

The FWI equations, band tables, decision flow and rule semantics are coded
here from their published definitions, and outputs are read with ``csv``,
``json`` and regular expressions, never with the program's own parsers.
Each ``check_*`` function returns a list of error strings, empty when the
output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass

# --- FWI system (Van Wagner 1987) -------------------------------------------


def isi(ffmc: float, wind: float) -> float:
    m = 147.2 * (101.0 - ffmc) / (59.5 + ffmc)
    f_fuel = 91.9 * math.exp(-0.1386 * m) * (1.0 + m ** 5.31 / 4.93e7)
    return 0.208 * math.exp(0.05039 * wind) * f_fuel


def bui(dmc: float, dc: float) -> float:
    if dmc == 0.0:
        return 0.0
    if dmc <= 0.4 * dc:
        return 0.8 * dmc * dc / (dmc + 0.4 * dc)
    return max(dmc - (1.0 - 0.8 * dc / (dmc + 0.4 * dc)) * (0.92 + (0.0114 * dmc) ** 1.7), 0.0)


def fwi(isi_value: float, bui_value: float) -> float:
    if bui_value <= 80.0:
        f_duff = 0.626 * bui_value ** 0.809 + 2.0
    else:
        f_duff = 1000.0 / (25.0 + 108.64 * math.exp(-0.023 * bui_value))
    b = 0.1 * isi_value * f_duff
    return math.exp(2.72 * (0.434 * math.log(b)) ** 0.647) if b > 1.0 else b


# --- band tables and the decision flow --------------------------------------

#: index -> (labels from the lowest band up, ascending thresholds); a value
#: takes the label after the last threshold it strictly exceeds
BANDS = {
    "ignition_potential": (("difficult", "moderatelyeasy", "easy", "veryeasy", "extremelyeasy"),
                           (74.0, 84.0, 88.0, 92.0)),
    "mopup_needs": (("little", "moderate", "difficult", "difficultandExtended", "difficultandextensive"),
                    (9.0, 19.0, 29.0, 39.0)),
    "difficulty_of_control": (("easy", "notDifficult", "difficult", "veryDifficult", "extremelyDifficult"),
                              (15.0, 30.0, 45.0, 59.0)),
    "rate_of_spread": (("slow", "moderatelyFast", "fast", "very_fast", "extremelyDifficult"),
                       (3.0, 7.0, 12.0, 15.0)),
    "fire_intensity": (("low", "moderate", "high", "veryhigh", "extreme"),
                       (5.0, 12.0, 20.0, 29.0)),
}
RAIN_STOP_MM = 1.0
WIND_RISK_KMH = 50.0


def band(index: str, value: float) -> tuple[int, str]:
    labels, thresholds = BANDS[index]
    rank = sum(value > t for t in thresholds)
    return rank, labels[rank]


@dataclass(frozen=True)
class Expected:
    """What the decision flow must produce for one CSV row."""

    isi: float
    bui: float
    fwi: float
    labels: dict
    verdict: str
    windy: bool


def expected_assessment(row: dict) -> Expected:
    ffmc, dmc, dc = float(row["FFMC"]), float(row["DMC"]), float(row["DC"])
    wind, rain = float(row["wind"]), float(row["rain"])
    i = isi(ffmc, wind)
    b = bui(dmc, dc)
    f = fwi(i, b)
    ranked = {
        "ignition_potential": band("ignition_potential", ffmc),
        "mopup_needs": band("mopup_needs", dmc),
        "difficulty_of_control": band("difficulty_of_control", b),
        "rate_of_spread": band("rate_of_spread", i),
        "fire_intensity": band("fire_intensity", f),
    }
    if rain > RAIN_STOP_MM or ranked["ignition_potential"][0] < 2:
        verdict = "NoFireRisk"
    else:
        verdict = ("NoFireRisk", "Monitor", "Act", "Extreme", "Extreme")[ranked["fire_intensity"][0]]
        if verdict == "Extreme" and ranked["difficulty_of_control"][0] <= 1 and ranked["mopup_needs"][0] <= 1:
            verdict = "Act"
    return Expected(i, b, f, {k: v[1] for k, v in ranked.items()}, verdict, wind > WIND_RISK_KMH)


# --- rules ------------------------------------------------------------------

_RULE_RE = re.compile(
    r"sensor_id\(\?s\) \^ (\w+)\(\?s, \?(\w+)\) \^ greaterThan\(\?\2, (\d+(?:\.\d+)?)\)"
    r" -> (\w+)\(\?s, (\w+)\)"
)


@dataclass(frozen=True)
class RuleLine:
    text: str
    body_property: str
    variable: str
    threshold: float
    head_property: str
    label: str

    def fires(self, values: dict[str, float]) -> bool:
        value = values.get(self.body_property)
        return value is not None and value > self.threshold


def parse_rule_lines(text: str) -> list[RuleLine]:
    """The rule file's lines, each read by one regular expression."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _RULE_RE.fullmatch(line)
        if m is None:
            raise ValueError(f"rule line {lineno} is outside the benchmark's rule grammar: {line!r}")
        prop, var, threshold, head, label = m.groups()
        out.append(RuleLine(line, prop, "?" + var, float(threshold), head, label))
    return out


# --- store and query outputs ------------------------------------------------

PROP_NS = "urn:ssn:prop:"
SENSOR_NS = "urn:ssn:sensor:"
OBS_NS = "urn:ssn:obs:"
TRIPLES_PER_ROW = 32
#: CSV column -> the quantity suffix of its observation IRI
QUANTITIES = {"FFMC": "ffmc", "DMC": "dmc", "DC": "dc", "ISI": "isi", "temp": "temp",
              "RH": "rh", "wind": "wind", "rain": "rain", "area": "area"}

_NT_LINE = re.compile(r'<([^>]*)> <([^>]*)> (?:<([^>]*)>|"((?:[^"\\]|\\.)*)"\^\^<([^>]*)>) \.')
LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"\^\^<([^>]*)>')


def numeric_literals(rows: list[dict]) -> list[tuple[str, float]]:
    """(subject IRI, value) of every numeric literal a row maps to."""
    out = []
    for ordinal, row in enumerate(rows, start=1):
        sensor = f"{SENSOR_NS}{ordinal}"
        out.append((sensor, float(row["X"])))
        out.append((sensor, float(row["Y"])))
        for column, quantity in QUANTITIES.items():
            out.append((f"{OBS_NS}{ordinal}:{quantity}", float(row[column])))
    return out


def check_rows(name: str, text: str, header: list[str], want: list[tuple[str, float]]) -> list[str]:
    """A two-column query result against its expected (IRI, number) rows."""
    got_header, *got_rows = list(csv.reader(io.StringIO(text))) or [[]]
    if got_header != header:
        return [f"{name}: header {got_header} != {header}"]
    if any(len(r) != 2 for r in got_rows):
        return [f"{name}: a row without exactly two cells"]
    got = Counter((r[0], float(r[1])) for r in got_rows)
    missing, extra = Counter(want) - got, got - Counter(want)
    if missing or extra:
        example = min(missing or extra)
        return [f"{name}: {sum(missing.values())} rows missing and {sum(extra.values())} extra, e.g. {example}"]
    return []


def check_store(rows: list[dict], store_text: str) -> list[str]:
    """32 triples per row, and every hasvalue literal equal to its CSV value."""
    lines = store_text.splitlines()
    if len(lines) != TRIPLES_PER_ROW * len(rows):
        return [f"store: {len(lines)} triples, want {TRIPLES_PER_ROW * len(rows)}"]
    want = {}
    for ordinal, row in enumerate(rows, start=1):
        for column, quantity in QUANTITIES.items():
            want[f"{OBS_NS}{ordinal}:{quantity}"] = float(row[column])
    seen = set()
    for line in lines:
        m = _NT_LINE.fullmatch(line)
        if m is None:
            return [f"store: unreadable line {line!r}"]
        subject, predicate, _, lexical, _ = m.groups()
        if predicate != PROP_NS + "hasvalue":
            continue
        if subject not in want or subject in seen:
            return [f"store: unexpected hasvalue subject {subject}"]
        seen.add(subject)
        if float(lexical) != want[subject]:
            return [f"store: {subject} hasvalue {lexical}, CSV has {want[subject]!r}"]
    if len(seen) != len(want):
        return [f"store: {len(want) - len(seen)} hasvalue triples missing"]
    return []


def check_assessments(rows: list[dict], jsonl_text: str) -> list[str]:
    """Indices, labels and verdicts per row, the rain override, and the alerts."""
    assessments, alerts = [], []
    for line in jsonl_text.splitlines():
        record = json.loads(line)
        (assessments if record["type"] == "assessment" else alerts).append(record)
    if len(assessments) != len(rows):
        return [f"assess: {len(assessments)} assessments, want {len(rows)}"]
    want_alerts = []
    for ordinal, (row, got) in enumerate(zip(rows, assessments), start=1):
        where = f"assess row {ordinal}"
        sensor = f"{SENSOR_NS}{ordinal}"
        if got["sensor"] != sensor:
            return [f"{where}: sensor {got['sensor']}, want {sensor}"]
        exp = expected_assessment(row)
        indices = got["indices"]
        for name, want in (("ffmc", float(row["FFMC"])), ("dmc", float(row["DMC"])), ("dc", float(row["DC"])),
                           ("isi", exp.isi), ("bui", exp.bui), ("fwi", exp.fwi)):
            if not math.isclose(indices[name], want, rel_tol=1e-9, abs_tol=1e-12):
                return [f"{where}: {name} {indices[name]!r}, want {want!r}"]
        if got["labels"] != exp.labels:
            return [f"{where}: labels {got['labels']}, want {exp.labels}"]
        if float(row["rain"]) > RAIN_STOP_MM and got["verdict"] != "NoFireRisk":
            return [f"{where}: {row['rain']} mm of rain but verdict {got['verdict']}"]
        if got["verdict"] != exp.verdict:
            return [f"{where}: verdict {got['verdict']}, want {exp.verdict}"]
        if exp.verdict in ("Act", "Extreme"):
            want_alerts.append((sensor, "fwi"))
        if exp.windy:
            want_alerts.append((sensor, "wind"))
    if len(alerts) != len(want_alerts):
        return [f"assess: {len(alerts)} alerts, want {len(want_alerts)}"]
    if sorted((a["sensor"], a["index"]) for a in alerts) != sorted(want_alerts):
        return ["assess: alerts raised for the wrong sensors"]
    return []


def survey_rows(rows: list[dict], threshold: float) -> list[tuple[str, float]]:
    """Answer of a one-pattern survey query: every numeric literal above threshold."""
    return [(s, v) for s, v in numeric_literals(rows) if v > threshold]


def check_facts(sensors: list[dict[str, float]], rule_lines: list[RuleLine], jsonl_text: str) -> list[str]:
    """Derived facts against a direct per-sensor evaluation of each rule line."""
    want = {}
    for ordinal, values in enumerate(sensors, start=1):
        for rule in rule_lines:
            if rule.fires(values):
                key = (f"{SENSOR_NS}{ordinal}", PROP_NS + rule.head_property, rule.label)
                want[key] = (rule.text, rule.variable, values[rule.body_property])
    got = {}
    for line in jsonl_text.splitlines():
        fact = json.loads(line)
        key = (fact["subject"], fact["property"], fact["label"])
        if key in got:
            return [f"infer: fact {key} derived twice"]
        got[key] = fact
    if set(got) != set(want):
        missing, extra = set(want) - set(got), set(got) - set(want)
        return [f"infer: {len(missing)} facts missing, {len(extra)} extra, e.g. "
                f"{next(iter(sorted(missing or extra)))}"]
    for key, (text, variable, value) in want.items():
        fact = got[key]
        if fact["rule"] != text:
            return [f"infer: {key} credited to {fact['rule']!r}, want {text!r}"]
        bound = LITERAL.fullmatch(fact["bindings"].get(variable, ""))
        if bound is None or float(bound.group(1)) != value or fact["bindings"].get("?s") != f"<{key[0]}>":
            return [f"infer: {key} bindings {fact['bindings']} do not hold {variable}={value!r}"]
    return []
