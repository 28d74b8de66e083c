"""Tests of the benchmark itself: generators, output checks and span accounting.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fireweather.ingest import parse_csv  # noqa: E402

BASE = gen.read_bundled_rows(ROOT / "data" / "forestfires.csv")
RULE_LINES = oracle.parse_rule_lines((ROOT / "rules" / "fwi.rules").read_text(encoding="utf-8"))


# --- generators -------------------------------------------------------------


def test_rows_repeat_for_a_seed_and_differ_across_seeds():
    assert gen.perturbed_rows(BASE, 600, 7) == gen.perturbed_rows(BASE, 600, 7)
    assert gen.perturbed_rows(BASE, 600, 7) != gen.perturbed_rows(BASE, 600, 8)
    assert gen.rule_store(RULE_LINES, 30, 7) == gen.rule_store(RULE_LINES, 30, 7)
    assert gen.rule_store(RULE_LINES, 30, 7) != gen.rule_store(RULE_LINES, 30, 8)
    assert gen.lookup_sensor(1034, 7) == gen.lookup_sensor(1034, 7)


def test_rows_stay_in_each_columns_domain():
    rows = gen.perturbed_rows(BASE, 2 * len(BASE) + 5, 11)
    for i, row in enumerate(rows):
        r = dict(zip(gen.HEADER, row))
        src = dict(zip(gen.HEADER, BASE[i % len(BASE)]))
        assert (r["month"], r["day"]) == (src["month"], src["day"])
        for column, (low, high) in gen.DOMAINS.items():
            value = float(r[column])
            assert low is None or value >= low, (column, value)
            assert high is None or value <= high, (column, value)
        assert r["X"].isdigit() and r["Y"].isdigit() and r["RH"].isdigit()
    assert len(parse_csv(gen.csv_text(rows))) == len(rows)


def test_rule_store_covers_every_body_property_in_domain():
    props = {rule.body_property for rule in RULE_LINES}
    assert len(RULE_LINES) == 27 and len(props) == 23
    for values in gen.rule_store(RULE_LINES, 200, 3):
        assert set(values) == props
        assert all(v >= 0.0 for v in values.values())
        assert all(values[p] <= 101.0 for p in gen.FFMC_PROPERTIES)


# --- checks against real outputs and corrupted ones -------------------------


def _ran(cls, tmp_path, seed=5):
    w = cls(ROOT, tmp_path, seed)
    w.setup()
    w.op()
    assert w.check() == []
    return w


def _edit(path: Path, change):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(change(lines)), encoding="utf-8")


def _flip_first(lines, record_type, key, values):
    out, done = [], False
    for line in lines:
        record = json.loads(line)
        if not done and record["type"] == record_type:
            record[key] = values[0] if record[key] != values[0] else values[1]
            line, done = json.dumps(record, sort_keys=True) + "\n", True
        out.append(line)
    return out


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    return _ran(workloads.DailyBatch, tmp_path_factory.mktemp("batch"))


@pytest.mark.parametrize("target, change", [
    ("store", lambda lines: lines[:-1]),
    ("store", lambda lines: [l.replace('"', '"1', 1) if "hasvalue" in l else l for l in lines]),
    ("assessed", lambda lines: _flip_first(lines, "assessment", "verdict", ["Extreme", "Act"])),
    ("assessed", lambda lines: lines[:-1]),
    ("answer", lambda lines: lines + ["urn:ssn:obs:1:dc,999.0\n"]),
    ("answer", lambda lines: lines[:-1]),
])
def test_batch_check_rejects_corruption(batch, target, change):
    path = getattr(batch, target)
    saved = path.read_text(encoding="utf-8")
    try:
        _edit(path, change)
        assert batch.check() != []
    finally:
        path.write_text(saved, encoding="utf-8")
    assert batch.check() == []


def test_batch_check_rejects_a_label_off_the_band_tables(batch):
    saved = batch.assessed.read_text(encoding="utf-8")
    try:
        _edit(batch.assessed, lambda lines: [lines[0].replace('"fire_intensity": "', '"fire_intensity": "x')]
              + lines[1:])
        assert batch.check() != []
    finally:
        batch.assessed.write_text(saved, encoding="utf-8")


@pytest.fixture(scope="module")
def chaining(tmp_path_factory):
    return _ran(workloads.RuleChaining, tmp_path_factory.mktemp("chain"))


def _rebind(lines):
    fact = json.loads(lines[0])
    fact["bindings"]["?rh"] = fact["bindings"]["?rh"].replace('"', '"9', 1)
    return [json.dumps(fact, sort_keys=True) + "\n"] + lines[1:]


def _recredit(lines):
    fact = json.loads(lines[0])
    fact["rule"] = fact["rule"].replace("greaterThan(?rh, ", "greaterThan(?rh, 0")
    return [json.dumps(fact, sort_keys=True) + "\n"] + lines[1:]


@pytest.mark.parametrize("change", [
    lambda lines: lines[1:],
    lambda lines: lines + [lines[0].replace('"urn:ssn:sensor:', '"urn:ssn:sensor:9')],
    _rebind,
    _recredit,
])
def test_chaining_check_rejects_corruption(chaining, change):
    saved = chaining.facts.read_text(encoding="utf-8")
    try:
        _edit(chaining.facts, change)
        assert chaining.check() != []
    finally:
        chaining.facts.write_text(saved, encoding="utf-8")
    assert chaining.check() == []


def test_dashboard_check_rejects_corruption(tmp_path):
    w = _ran(workloads.QueryDashboard, tmp_path)
    good = list(w.outputs)
    for i, corrupt in ((0, good[0] + "urn:ssn:obs:1:dc,999.0\n"),
                       (2, good[2].rsplit("\n", 2)[0] + "\n"),
                       (len(good) - 1, good[-1].replace(",", ",1", 2))):
        w.outputs = good[:i] + [corrupt] + good[i + 1:]
        assert w.check() != [], i
    w.outputs = good[:-1]
    assert w.check() != []


# --- machine speed ----------------------------------------------------------


def test_timed_scales_wall_time_by_the_speed_loop(monkeypatch):
    tries = iter([[0.02, 0.025, 0.03], [0.02, 0.05, 0.025]])  # median of the six: 0.025
    monkeypatch.setattr(run, "_loop_tries", lambda: next(tries))
    wall, nominal = run.timed(lambda: sum(range(10000)))
    assert nominal == pytest.approx(wall * run.NOMINAL_LOOP_S / 0.025)


# --- spans ------------------------------------------------------------------


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "inner")

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap(outer_body, "cli.x")
    tracer.phase = 0
    outer()
    tracer.phase = None
    outer()  # not recorded: no phase open
    names = [s.name for s in tracer.spans]
    assert names == ["inner", "inner", "cli.x"]
    cli_span = tracer.spans[-1]
    children = sum(s.seconds for s in tracer.spans[:2])
    assert cli_span.self_seconds == pytest.approx(cli_span.seconds - children)
    metrics = tracing.per_layer(tracer, [0])
    assert metrics["cli.self_ms"] == pytest.approx(cli_span.self_seconds * 1000.0)
    assert metrics["rules.forward_chain_ms"] == 0.0
