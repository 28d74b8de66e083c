import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from fireweather import vocab
from fireweather.cli import _JSON, main
from fireweather.ingest import TRIPLES_PER_ROW, parse_csv
from fireweather.rdf import Graph, Triple, export_ntriples, import_ntriples, iri, string
from fireweather.rules import DataPropertyAtom, Rule, forward_chain, load_rules
from conftest import DATA_CSV, REPO, RULES_FILE
from test_sparql import DRY_AUGUST_QUERY, LOOKUP_QUERY, RAIN_SURVEY_QUERY, WIND_SURVEY_QUERY

HEADER = "X,Y,month,day,FFMC,DMC,DC,ISI,temp,RH,wind,rain,area\n"
#: a CSV whose second line ends in a byte that is not UTF-8
NOT_UTF8 = HEADER.encode() + b"7,5,mar,fri,86.2,26.2,94.3,5.1,8.2,51,6.7,0,0\xff\n"

WIND_QUERY = """\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX owl: <http://www.w3.org/2002/07/owl#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?Sensor_id ?WindSpeed
WHERE { ?Sensor_id ?observedBy ?WindSpeed
FILTER (?WindSpeed >40.00) }
"""


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def small_csv(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(
        HEADER
        + "7,5,mar,fri,86.2,26.2,94.3,5.1,8.2,51,45.0,0,0\n"
        + "8,6,aug,sat,92.1,111.2,654.1,9.6,18.3,40,2.7,0,0\n"
    )
    return path


class TestIngest:
    def test_triple_count(self, capsys):
        code, out, _ = run(capsys, "ingest", str(DATA_CSV))
        assert code == 0
        assert len(out.splitlines()) == 517 * TRIPLES_PER_ROW

    def test_output_flag(self, capsys, tmp_path, small_csv):
        dest = tmp_path / "store.nt"
        code, out, _ = run(capsys, "ingest", str(small_csv), "--output", str(dest))
        assert code == 0 and out == ""
        assert len(dest.read_text().splitlines()) == 2 * TRIPLES_PER_ROW

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "ingest", "/nonexistent/file.csv")
        assert code == 2
        assert "error:" in err

    def test_malformed_csv_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code, _, err = run(capsys, "ingest", str(bad))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("command", ["ingest", "assess"])
    def test_non_finite_field_exit_1_with_row(self, capsys, tmp_path, command):
        bad = tmp_path / "nan.csv"
        bad.write_text(HEADER + "7,5,mar,fri,86.2,26.2,94.3,5.1,8.2,51,6.7,0,0\n" + "7,5,mar,fri,86.2,nan,94.3,5.1,8.2,51,6.7,0,0\n")
        code, out, err = run(capsys, command, str(bad))
        assert code == 1 and out == ""
        assert err == f"error: {bad}: row 3: dmc must be a finite number: nan\n"

    def test_empty_csv_header_only(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(HEADER)
        code, out, _ = run(capsys, "ingest", str(empty))
        assert code == 0 and out == ""


class TestUnreadableInput:
    def test_directory_input_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "ingest", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_directory_output_exit_2(self, capsys, tmp_path, small_csv):
        code, out, err = run(capsys, "ingest", str(small_csv), "--output", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize(
        "argv, brk",
        [
            pytest.param(argv, brk, id=name + suffix)
            for brk, suffix in [(b"\n", ""), (b"\r\n", "-crlf"), (b"\r", "-cr")]
            for name, argv in [
                ("ingest", ["ingest", "{bad}"]),
                ("assess", ["assess", "{bad}"]),
                ("plot", ["plot", "{bad}", "--days", "1"]),
                ("infer-store", ["infer", "{bad}"]),
                ("infer-rules", ["infer", "{good}", "--rules", "{bad}"]),
                ("query-store", ["query", "{bad}", "{good}"]),
                ("query-text", ["query", "{good}", "{bad}"]),
            ]
        ],
    )
    def test_input_not_utf8_exit_1_with_path_and_line(self, capsys, tmp_path, argv, brk):
        bad, good = tmp_path / "bad.txt", tmp_path / "empty.txt"
        # the bad byte is on line 2 whichever break ends the lines
        bad.write_bytes(NOT_UTF8.replace(b"\n", brk))
        good.write_text("")
        code, out, err = run(capsys, *(arg.format(bad=bad, good=good) for arg in argv))
        assert code == 1 and out == ""
        assert err == f"error: {bad}: line 2: not valid UTF-8\n"

    @pytest.mark.parametrize(
        "argv, culprit, reason",
        [
            (["infer", "{store}", "--rules", "{rules}"], "store", "line 2: unterminated literal '\"x'"),
            (["infer", "{empty}", "--rules", "{rules}"], "rules", "line 2: unsafe rule: head variable ?t not bound in body"),
            (["query", "{store}", "{query}"], "store", "line 2: unterminated literal '\"x'"),
            (["query", "{empty}", "{query}"], "query", "line 2, column 20: expected term or variable, got '}'"),
            (["plot", "{csv}", "--days", "1"], "csv", "row 2: expected 13 columns, got 3"),
        ],
        ids=["infer-store", "infer-rules", "query-store", "query-text", "plot-csv"],
    )
    def test_parse_error_exit_1_with_path(self, capsys, tmp_path, argv, culprit, reason):
        # each file is at fault only where the case names it: the store is
        # read first, so a bad store stops the command before its rules or query
        paths = {name: tmp_path / name for name in ("store", "rules", "query", "csv", "empty")}
        paths["store"].write_text('<urn:s> <urn:p> <urn:o> .\n<urn:s> <urn:p> "x .\n')
        paths["rules"].write_text("a(?s, ?v) -> b(?s, x)\n" + ("foo(?s) -> bar(?t, x)\n" if culprit == "rules" else ""))
        paths["query"].write_text("SELECT ?s\nWHERE { ?s <urn:p> " + ("}\n" if culprit == "query" else "?o }\n"))
        paths["csv"].write_text(HEADER + "7,5,mar\n")
        paths["empty"].write_text("")
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, out) == (1, "")
        assert err == f"error: {paths[culprit]}: {reason}\n"

    @pytest.mark.parametrize(
        "argv",
        [["ingest", "-"], ["infer", "-"], ["query", "-", "{good}"], ["query", "{good}", "-"], ["query", "{good}"]],
        ids=["ingest", "infer", "query-store", "query-text", "query-repl"],
    )
    def test_stdin_not_utf8_exit_1_with_line(self, tmp_path, argv):
        # under the C locale, ``sys.stdin`` passes a byte that is not UTF-8
        # on as a lone surrogate: stdin must be decoded as a file is
        good = tmp_path / "empty.txt"
        good.write_text("")
        env = dict(os.environ, LC_ALL="C", PYTHONPATH=str(REPO / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "fireweather.cli", *(arg.format(good=good) for arg in argv)],
            input=NOT_UTF8, env=env, capture_output=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr == b"error: -: line 2: not valid UTF-8\n"


@pytest.fixture(scope="module")
def dataset_lines(tmp_path_factory):
    dest = tmp_path_factory.mktemp("assess") / "out.jsonl"
    assert main(["assess", str(DATA_CSV), "--output", str(dest)]) == 0
    return [json.loads(line) for line in dest.read_text().splitlines()]


class TestAssess:
    def test_one_assessment_per_row(self, dataset_lines):
        assessments = [p for p in dataset_lines if p["type"] == "assessment"]
        assert len(assessments) == 517

    def test_rainy_rows_report_no_risk(self, dataset_lines, dataset_text):
        rows = parse_csv(dataset_text)
        assessments = [p for p in dataset_lines if p["type"] == "assessment"]
        rainy = [i for i, row in enumerate(rows) if row.rain > 1.0]
        assert rainy, "dataset must contain rows with rain above 1.0 mm"
        for i in rainy:
            assert assessments[i]["verdict"] == "NoFireRisk"
            assert any("FireStop" in step for step in assessments[i]["trace"])

    def test_synthetic_extreme_row(self, capsys, tmp_path):
        csv = tmp_path / "hot.csv"
        csv.write_text(HEADER + "7,5,aug,sun,95.0,47.0,321.0,14.0,30.0,20,10.0,0,0\n")
        code, out, _ = run(capsys, "assess", str(csv))
        assert code == 0
        payloads = [json.loads(line) for line in out.splitlines()]
        assessment = payloads[0]
        assert assessment["verdict"] == "Extreme"
        assert assessment["timestamp"] == "2000-08-15"
        alerts = [p for p in payloads if p["type"] == "alert"]
        assert len(alerts) == 1 and alerts[0]["index"] == "fwi"

    def test_huge_wind_exit_1_naming_the_sensor(self, capsys, tmp_path):
        csv = tmp_path / "gale.csv"
        csv.write_text(
            HEADER + "7,5,mar,fri,86.2,26.2,94.3,5.1,8.2,51,6.7,0,0\n" + "7,5,aug,sun,95.0,47.0,321.0,14.0,30.0,20,20000,0,0\n"
        )
        code, out, err = run(capsys, "assess", str(csv))
        assert code == 1 and out == ""
        assert err == "error: urn:ssn:sensor:2: wind 20000.0 is too large: the ISI overflows\n"

    def test_alert_count_matches_verdicts(self, dataset_lines):
        assessments = [p for p in dataset_lines if p["type"] == "assessment"]
        alerts = [p for p in dataset_lines if p["type"] == "alert"]
        expected = sum(1 for a in assessments if a["verdict"] in ("Act", "Extreme"))
        expected += sum(1 for a in assessments if a["wind_risk"])
        assert len(alerts) == expected

    def test_jsonl_shape(self, dataset_lines):
        alerts = [p for p in dataset_lines if p["type"] == "alert"]
        assert alerts
        for alert in alerts:
            assert set(alert) == {"type", "sensor", "timestamp", "index", "value", "threshold", "verdict", "message"}


#: SHA-256 of the stdout of ``fireweather <command> data/forestfires.csv``.
#: The default ingest bytes are a contract (the benchmark's store check reads
#: them), and both outputs are deterministic, so a change to either must be
#: deliberate.
PINNED_STDOUT = {
    "ingest": "3c161992987444dfc1258cd580f3791709987d725589ee6436fbb83f59754011",
    "assess": "63ade736d6d034bb0dfd5c483fd689c19c2c711aa12910d05eec971c44384ad7",
}

#: SHA-256 of the SVG that ``fireweather plot data/forestfires.csv --days 3 --svg`` writes
PINNED_SVG = "1114a93a915319aea9c5d37395b4971a2e151be46809f40357a8a4a1fb916089"


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_dataset_stdout_is_pinned(capsys, command):
    code, out, _ = run(capsys, command, str(DATA_CSV))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_STDOUT[command]


#: The dashboard's four queries, and the SHA-256 of the stdout of
#: ``fireweather query <store> <query> --format csv`` for each, over the
#: store that ``fireweather ingest data/forestfires.csv`` writes.  The join
#: may take its patterns in any order, but the bytes must not change.
PINNED_QUERY_CSV = {
    "wind survey": (WIND_SURVEY_QUERY, "36af10715460f202221976c816c6dd2544308c02f9668ac9113797b0f7170530"),
    "rain survey": (RAIN_SURVEY_QUERY, "a7d9f2fb12e9143d1bfd3857e47f0a83e6536c501a5eb73ed73e8130c3949afc"),
    "dry August join": (DRY_AUGUST_QUERY, "ee6b3ad9eb82005ed3b52b6f9642a8d0d1356b32df1aba433949614b88c44a1f"),
    "one-sensor lookup": (LOOKUP_QUERY, "d0563ea1ffa307eaf6f0321ebf08bb9fd23eae253f5a300a202e0f48ef2f669b"),
}

#: SHA-256 of the stdout of ``fireweather query <store> <query>`` in the
#: default table format, for each query of ``PINNED_QUERY_CSV``
PINNED_QUERY_TABLE = {
    "wind survey": "88298eb5a0407f295180885bd40253b1b01d7dab80fcb5608f00549f906d6e2b",
    "rain survey": "8001d142bb36b16fe6cb95c7ecdbd032c392e71d8ef10d1782e06c5280be752d",
    "dry August join": "78de8f5aa4303c392457c191d60f80b1ac8c493accb78c65221286a2b92220b9",
    "one-sensor lookup": "7058a0f763fe8c760dbc47f8359cb1654cdf8a18768811e676697ee7b13bc98e",
}


@pytest.fixture(scope="module")
def dataset_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("dataset") / "store.nt"
    assert main(["ingest", str(DATA_CSV), "--output", str(path)]) == 0
    return path


@pytest.mark.parametrize("name", sorted(PINNED_QUERY_CSV))
def test_dashboard_query_csv_is_pinned(capsys, tmp_path, dataset_store, name):
    query, digest = PINNED_QUERY_CSV[name]
    path = tmp_path / "query.rq"
    path.write_text(query, encoding="utf-8")
    code, out, _ = run(capsys, "query", str(dataset_store), str(path), "--format", "csv")
    assert code == 0 and out.count("\n") > 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PINNED_QUERY_TABLE))
def test_dashboard_query_table_is_pinned(capsys, tmp_path, dataset_store, name):
    path = tmp_path / "query.rq"
    path.write_text(PINNED_QUERY_CSV[name][0], encoding="utf-8")
    code, out, _ = run(capsys, "query", str(dataset_store), str(path))
    assert code == 0 and out.count("\n") > 2
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_QUERY_TABLE[name]


#: values that each sensor of the pinned rule-input store gives every body
#: property of ``rules/fwi.rules``: two or more sensors fall in each band of
#: each rule
RULE_INPUT_VALUES = [0.5, 1.5, 3, 5, 7, 9, 11, 14, 15, 17, 19, 22, 25, 32, 35, 42, 47, 55, 65, 80, 88, 91, 95, 99]

#: the bundled rules plus two more: for a sensor with both values over the
#: thresholds, the first derives a triple that an earlier rule also derives,
#: and the second reads two derived triples, so a later round fires it
EXTRA_RULES = """\
sensor_id(?s) ^ windspeed(?s, ?w) ^ greaterThan(?w, 40) -> FireIntensity(?s, extreme)
FireIntensity(?s, extreme) ^ WindSpeed(?s, veryhigh) -> Alarm(?s, evacuate)
"""

#: SHA-256 of the stdout of ``fireweather infer <store> --rules <rules> --format <format>``
#: over ``rule_input_store``
PINNED_INFER = {
    "jsonl": "cab08b91502b40db794d176136790e09772976ae0c70521334c8b7e7f3c6b5ac",
    "ntriples": "47ced9eeab901206c8d178104adf85442f8c34daac5da521015c07a7abed15d5",
}


@pytest.fixture(scope="module")
def rule_input_store(tmp_path_factory):
    """A store in the rules' vocabulary, and the rule file to chain over it.

    Every other sensor has a ``Rain`` value, and the last has two ``extreme``
    values, so one rule derives its triple under two bindings.
    """
    properties = sorted({
        atom.property_name for rule in load_rules(str(RULES_FILE)) for atom in rule.body
        if isinstance(atom, DataPropertyAtom)
    })
    lines = []
    for ordinal, value in enumerate(RULE_INPUT_VALUES, start=1):
        s = f"<urn:ssn:sensor:Sensor_{ordinal}>"
        values = [(p, value) for p in properties if p != "Rain" or ordinal % 2]
        if ordinal == len(RULE_INPUT_VALUES):
            values.append(("extreme", 31))
        lines.append(f"{s} <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:ssn:class:sensor_id> .")
        lines += [f'{s} <urn:ssn:prop:{p}> "{v}"^^<http://www.w3.org/2001/XMLSchema#decimal> .' for p, v in values]
    directory = tmp_path_factory.mktemp("rule_input")
    (directory / "store.nt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    (directory / "all.rules").write_text(RULES_FILE.read_text(encoding="utf-8") + EXTRA_RULES, encoding="utf-8")
    return directory / "store.nt", directory / "all.rules"


@pytest.mark.parametrize("fmt", sorted(PINNED_INFER))
def test_infer_stdout_is_pinned(capsys, rule_input_store, fmt):
    store, rules = rule_input_store
    code, out, _ = run(capsys, "infer", str(store), "--rules", str(rules), "--format", fmt)
    assert code == 0 and "FireStop" in out and "evacuate" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_INFER[fmt]


class TestClassify:
    @pytest.mark.parametrize("index,value,label", [
        ("fwi", "23", "veryhigh"),
        ("ffmc", "95", "extremelyeasy"),
        ("dmc", "8", "little"),
        ("bui", "17", "notDifficult"),
        ("isi", "6", "moderatelyFast"),
    ])
    def test_labels(self, capsys, index, value, label):
        code, out, _ = run(capsys, "classify", index, value)
        assert code == 0 and out.strip() == label

    def test_out_of_domain_exit_1(self, capsys):
        code, _, err = run(capsys, "classify", "ffmc", "150")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("index,value,why", [
        ("ffmc", "101.5", "out of range [0, 101]"),
        ("ffmc", "nan", "out of range [0, 101]"),
        ("dmc", "-1", "must be finite and >= 0"),
        ("fwi", "inf", "must be finite and >= 0"),
    ])
    def test_out_of_domain_error_names_the_domain(self, capsys, index, value, why):
        code, out, err = run(capsys, "classify", index, value)
        assert (code, out, err) == (1, "", f"error: {index} {why}: {float(value)}\n")


@pytest.fixture()
def sensor_store(tmp_path):
    path = tmp_path / "store.nt"
    path.write_text(
        "<urn:ssn:sensor:Sensor_2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:ssn:class:sensor_id> .\n"
        '<urn:ssn:sensor:Sensor_2> <urn:ssn:prop:notdifficult> "17"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
        '<urn:ssn:sensor:Sensor_2> <urn:ssn:prop:moderate> "8"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
    )
    return path


class TestInfer:
    def test_default_rules_are_the_checkouts_from_any_directory(self, capsys, sensor_store, tmp_path, monkeypatch):
        want = run(capsys, "infer", str(sensor_store), "--rules", str(RULES_FILE))
        monkeypatch.chdir(tmp_path)
        assert not (tmp_path / "rules").exists()
        assert run(capsys, "infer", str(sensor_store)) == want and want[0] == 0 and want[1]
        # a path given still resolves against the working directory
        code, _, err = run(capsys, "infer", str(sensor_store), "--rules", "rules/fwi.rules")
        assert code == 2 and "rules/fwi.rules" in err

    def test_rules_flag(self, capsys, sensor_store):
        code, out, _ = run(capsys, "infer", str(sensor_store), "--rules", str(RULES_FILE))
        assert code == 0
        assert any("DifficultyofControle" in line and "notDifficult" in line for line in out.splitlines())
        assert any("FireIntensity" in line and "moderate" in line for line in out.splitlines())

    def test_jsonl_format_carries_provenance(self, capsys, sensor_store):
        code, out, _ = run(
            capsys, "infer", str(sensor_store), "--rules", str(RULES_FILE), "--format", "jsonl"
        )
        assert code == 0
        payloads = [json.loads(line) for line in out.splitlines()]
        assert all({"subject", "property", "label", "rule", "bindings"} <= set(p) for p in payloads)

    def test_jsonl_renders_each_rule_once(self, capsys, tmp_path, monkeypatch):
        # 40 facts from 2 of the 27 rules
        store = tmp_path / "store.nt"
        store.write_text("".join(
            f"<urn:ssn:sensor:S{i}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:ssn:class:sensor_id> .\n"
            f'<urn:ssn:sensor:S{i}> <urn:ssn:prop:notdifficult> "17"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
            f'<urn:ssn:sensor:S{i}> <urn:ssn:prop:moderate> "8"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
            for i in range(20)
        ))
        renders = 0
        render = Rule.render

        def counting(self):
            nonlocal renders
            renders += 1
            return render(self)

        monkeypatch.setattr(Rule, "render", counting)
        code, out, _ = run(capsys, "infer", str(store), "--rules", str(RULES_FILE), "--format", "jsonl")
        assert code == 0 and len(out.splitlines()) == 40
        assert renders <= len(load_rules(str(RULES_FILE)))

    def test_jsonl_lines_are_the_encoder_s(self, capsys, tmp_path):
        # string bindings, a subject, a variable and a label that JSON must escape
        values = ['say "hi"', "back\\slash", "caf\u00e9 \u6771", "line\u2028sep\u2029end", "tab\tand\nnewline", "\U0001f525"]
        graph = Graph()
        for i, value in enumerate(values):
            subject = iri(f"urn:ssn:sensor:S\u00e9{i}")
            graph.insert(Triple(subject, iri(vocab.prop_iri("note")), string(value)))
            graph.insert(Triple(subject, iri(vocab.prop_iri("tag")), string(values[-1 - i])))
        store = tmp_path / "store.nt"
        store.write_text(export_ntriples(graph), encoding="utf-8")
        rules_path = tmp_path / "escape.rules"
        rules_path.write_text(
            "note(?s, ?v) -> flagged(?s, \u00e9t\u00e9)\nnote(?s, ?v) ^ tag(?s, ?\u0175) -> tagged(?s, yes)\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "infer", str(store), "--rules", str(rules_path), "--format", "jsonl")
        facts = forward_chain(import_ntriples(store.read_text(encoding="utf-8")), load_rules(str(rules_path)))
        records = [{
            "subject": f.subject.value,
            "property": f.property_iri,
            "label": f.label,
            "rule": f.rule.render(),
            "bindings": {k: str(v) for k, v in f.bindings},
        } for f in facts]
        assert code == 0 and len(records) == 2 * len(values)
        assert out.splitlines() == [_JSON.encode(r) for r in records]
        assert [json.loads(line) for line in out.splitlines()] == records

    def test_non_finite_literal_exit_1_with_line(self, capsys, tmp_path):
        store = tmp_path / "nan.nt"
        store.write_text('<urn:s> <urn:p> "inf"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n')
        code, _, err = run(capsys, "infer", str(store), "--rules", str(RULES_FILE))
        assert code == 1
        assert err == f"error: {store}: line 1: literal 'inf' is not a finite decimal\n"

    def test_literal_head_subject_exit_1_naming_rule(self, capsys, tmp_path):
        store = tmp_path / "store.nt"
        store.write_text('<urn:ssn:sensor:1> <urn:ssn:prop:a> "5"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n')
        ruled = tmp_path / "literal.rules"
        ruled.write_text("a(?s, ?v) -> b(?v, x)\n")
        code, out, err = run(capsys, "infer", str(store), "--rules", str(ruled))
        assert code == 1 and out == ""
        assert err == (
            'error: rule a(?s, ?v) -> b(?v, x): head subject ?v is bound to'
            ' "5"^^<http://www.w3.org/2001/XMLSchema#decimal>, not an IRI\n'
        )

    def test_bad_rule_file_exit_1(self, capsys, sensor_store, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("foo(?s) -> bar(?t, x)\n")
        code, _, err = run(capsys, "infer", str(sensor_store), "--rules", str(bad))
        assert code == 1 and "error:" in err

    def test_bad_threshold_exit_1_with_position(self, capsys, sensor_store, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("# thresholds\nsensor_id(?s) ^ Rain(?s, ?r) ^ greaterThan(?r, 1-2) -> startRaining(?s, FireStop)\n")
        code, out, err = run(capsys, "infer", str(sensor_store), "--rules", str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}: line 2, column 48: ") and "'1-2'" in err

    def test_jsonl_does_not_depend_on_hash_seed(self, tmp_path):
        # three readings satisfy the same rule, so one fact has three derivations
        store = tmp_path / "store.nt"
        store.write_text(
            "<urn:ssn:sensor:Sensor_2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:ssn:class:sensor_id> .\n"
            + "".join(
                f'<urn:ssn:sensor:Sensor_2> <urn:ssn:prop:notdifficult> "{v}"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
                for v in ("17.0", "20.0", "30.0")
            )
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO / "src"))
            done = subprocess.run(
                [sys.executable, "-m", "fireweather.cli", "infer", str(store),
                 "--rules", str(RULES_FILE), "--format", "jsonl"],
                env=env, capture_output=True, check=True, timeout=60,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["bindings"]["?rh"].startswith('"17.0"')


class TestQuery:
    @pytest.fixture()
    def wind_store(self, tmp_path, small_csv):
        store = tmp_path / "store.nt"
        assert main(["ingest", str(small_csv), "--output", str(store)]) == 0
        # keep only the wind measurement triples so the verbatim open-pattern
        # query counts exactly the windy rows
        lines = [l for l in store.read_text().splitlines() if ":wind> <urn:ssn:prop:hasvalue>" in l]
        view = tmp_path / "wind.nt"
        view.write_text("".join(line + "\n" for line in lines))
        return view

    def test_query_file_csv_format(self, capsys, tmp_path, wind_store):
        qfile = tmp_path / "q.rq"
        qfile.write_text(WIND_QUERY)
        code, out, _ = run(capsys, "query", str(wind_store), str(qfile), "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Sensor_id,WindSpeed"
        assert len(lines) == 2  # only the 45.0 km/h row passes the filter
        assert lines[1].endswith(",45.0")

    def test_repl_continues_after_error(self, capsys, wind_store, monkeypatch):
        blocks = "SELECT ?x WHERE { broken\n\n" + WIND_QUERY + "\n"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(blocks.encode())))
        code, out, err = run(capsys, "query", str(wind_store))
        assert code == 0
        # a block typed at the prompt is located without a file name
        assert err == "error: line 1, column 19: expected term or variable, got 'broken'\n"
        assert "45.0" in out

    @pytest.mark.parametrize(
        "stdin, line",
        [(b"a\rb\n\xff\n", 3), (b"SELECT ?s\rWHERE\xff\n", 2), (b"a\r\nb\n\xff\n", 3), (b"\r\r\n\xff", 3)],
        ids=["cr-in-an-earlier-line", "cr-in-the-bad-line", "crlf", "blank-lines"],
    )
    def test_repl_numbers_lines_as_split_lines_does(self, capsys, wind_store, monkeypatch, stdin, line):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
        code, out, err = run(capsys, "query", str(wind_store))
        assert (code, out) == (1, "")
        assert err == f"error: -: line {line}: not valid UTF-8\n"

    def test_bad_query_file_exit_1(self, capsys, tmp_path, wind_store):
        qfile = tmp_path / "q.rq"
        qfile.write_text("SELECT WHERE {}")
        code, _, err = run(capsys, "query", str(wind_store), str(qfile))
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "text, column",
        [("SELECT ?s WHERE { ?s <> ?o }", 22), ("PREFIX e: <> SELECT ?s WHERE { ?s e: ?o }", 35)],
        ids=["empty-iri", "prefix-expands-to-empty"],
    )
    def test_empty_iri_exit_1_with_position(self, capsys, tmp_path, wind_store, text, column):
        qfile = tmp_path / "q.rq"
        qfile.write_text(text + "\n")
        code, out, err = run(capsys, "query", str(wind_store), str(qfile))
        assert code == 1 and out == ""
        assert err == f"error: {qfile}: line 1, column {column}: invalid IRI: ''\n"

    @pytest.mark.parametrize("where", ["store", "store-to-output", "query"])
    def test_surrogate_escape_exit_1_with_position(self, capsys, tmp_path, where):
        # the filter keeps the store's row, so a surrogate that got past the
        # import would reach the UTF-8 writer and end in a traceback
        surrogate, plain = '"x\\uD800y"', '"z"'
        store, qfile, out_file = tmp_path / "s.nt", tmp_path / "q.rq", tmp_path / "out.csv"
        literal = plain if where == "query" else surrogate
        store.write_text(f"<urn:a> <urn:p> {literal}^^<http://www.w3.org/2001/XMLSchema#string> .\n")
        operand = surrogate if where == "query" else plain
        qfile.write_text(f"SELECT ?s ?v WHERE {{ ?s <urn:p> ?v FILTER (?v != {operand}) }}\n")
        argv = ["query", str(store), str(qfile)]
        if where == "store-to-output":
            argv += ["--output", str(out_file)]
        code, out, err = run(capsys, *argv)
        position = f"{qfile}: line 1, column 50" if where == "query" else f"{store}: line 1"
        assert (code, out) == (1, "") and not out_file.exists()
        assert err == f"error: {position}: invalid escape '\\\\uD800'\n"

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_output_does_not_depend_on_hash_seed(self, tmp_path, small_csv, fmt):
        store = tmp_path / "store.nt"
        assert main(["ingest", str(small_csv), "--output", str(store)]) == 0
        qfile = tmp_path / "q.rq"
        qfile.write_text(WIND_QUERY.replace(">40.00", ">1.00"))
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO / "src"))
            done = subprocess.run(
                [sys.executable, "-m", "fireweather.cli", "query", str(store), str(qfile), "--format", fmt],
                env=env, capture_output=True, check=True, timeout=60,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        # both rows' readings above 1.0, from every quantity and both sensors
        assert len(outputs[0].splitlines()) > 10


class TestPlot:
    def test_days_78(self, capsys):
        code, out, _ = run(capsys, "plot", str(DATA_CSV), "--days", "78")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,ffmc,dmc,dc"
        assert len(lines) == 79
        indexes = [int(line.split(",")[0]) for line in lines[1:]]
        assert indexes == sorted(indexes)

    def test_days_zero(self, capsys):
        code, out, _ = run(capsys, "plot", str(DATA_CSV), "--days", "0")
        assert code == 0 and out == "index,ffmc,dmc,dc\n"

    def test_days_beyond_rows_exit_1(self, capsys):
        code, _, err = run(capsys, "plot", str(DATA_CSV), "--days", "100000")
        # an option's error names no file
        assert (code, err) == (1, "error: --days 100000 exceeds the 517 available rows\n")

    def test_all_days_is_passthrough_order(self, capsys, small_csv):
        code, out, _ = run(capsys, "plot", str(small_csv), "--days", "2")
        assert code == 0
        assert out.splitlines()[1].startswith("0,86.2") and out.splitlines()[2].startswith("1,92.1")

    def test_deterministic(self, capsys):
        first = run(capsys, "plot", str(DATA_CSV), "--days", "30")
        second = run(capsys, "plot", str(DATA_CSV), "--days", "30")
        assert first == second

    def test_svg_side_output(self, capsys, tmp_path, small_csv):
        svg = tmp_path / "chart.svg"
        code, _, _ = run(capsys, "plot", str(small_csv), "--days", "2", "--svg", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and text.count("<polyline") == 3

    def test_dataset_svg_is_pinned(self, capsys, tmp_path):
        svg = tmp_path / "chart.svg"
        code, _, _ = run(capsys, "plot", str(DATA_CSV), "--days", "3", "--svg", str(svg))
        assert code == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == PINNED_SVG
