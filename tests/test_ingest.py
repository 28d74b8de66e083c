import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireweather import rdf, vocab
from fireweather.cli import main
from fireweather.ingest import (
    DAYS,
    EXPECTED_HEADER,
    MONTHS,
    QUANTITY_UNITS,
    TRIPLES_PER_ROW,
    IngestError,
    WeatherObservation,
    ingest_observations,
    ntriples_lines,
    parse_csv,
)
from fireweather.rdf import (
    Graph, RdfError, Triple, TriplePattern, decimal, export_ntriples, format_decimal, integer, iri, join, string
)
from conftest import DATA_CSV
from util import count_built_terms

HEADER = "X,Y,month,day,FFMC,DMC,DC,ISI,temp,RH,wind,rain,area\n"
ROW = "7,5,mar,fri,86.2,26.2,94.3,5.1,8.2,51,6.7,0,0\n"


def obs(**overrides) -> WeatherObservation:
    base = dict(x_coord=7, y_coord=5, month="mar", day="fri", ffmc=86.2, dmc=26.2,
                dc=94.3, isi=5.1, temp=8.2, rh=51.0, wind=6.7, rain=0.0, area=0.0)
    base.update(overrides)
    return WeatherObservation(**base)


class TestParseCsv:
    def test_header_only(self):
        assert parse_csv(HEADER) == []

    def test_single_row(self):
        rows = parse_csv(HEADER + ROW)
        assert len(rows) == 1
        assert rows[0].wind == 6.7
        assert rows[0].month == "mar"

    def test_dataset_row_count(self, dataset_text):
        data_rows = len([l for l in dataset_text.splitlines()[1:] if l.strip()])
        assert len(parse_csv(dataset_text)) == data_rows == 517

    def test_bad_header(self):
        with pytest.raises(IngestError, match="header"):
            parse_csv("a,b,c\n")

    def test_wrong_column_count(self):
        with pytest.raises(IngestError, match="row 2"):
            parse_csv(HEADER + "7,5,mar\n")

    def test_unparseable_field(self):
        with pytest.raises(IngestError, match="row 2"):
            parse_csv(HEADER + ROW.replace("86.2", "eight"))

    def test_rh_out_of_range(self):
        with pytest.raises(IngestError, match="rh"):
            parse_csv(HEADER + ROW.replace(",51,", ",150,"))

    def test_bad_month(self):
        with pytest.raises(IngestError, match="month"):
            parse_csv(HEADER + ROW.replace("mar", "xxx"))


class TestValidation:
    def test_ffmc_range(self):
        with pytest.raises(IngestError, match="ffmc"):
            obs(ffmc=102.0)

    @pytest.mark.parametrize("field", ["dmc", "dc", "isi", "wind", "rain", "area"])
    def test_nonnegative(self, field):
        with pytest.raises(IngestError, match=field):
            obs(**{field: -1.0})

    @pytest.mark.parametrize("field", list(QUANTITY_UNITS))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite(self, field, value):
        with pytest.raises(IngestError, match=f"{field} must be a finite number"):
            obs(**{field: value})

    @pytest.mark.parametrize("column", range(4, 13))
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_csv_non_finite_reports_the_row(self, column, text):
        fields = ROW.strip().split(",")
        fields[column] = text
        name = EXPECTED_HEADER[column].lower()
        with pytest.raises(IngestError, match=f"^row 3: {name} must be a finite number"):
            parse_csv(HEADER + ROW + ",".join(fields) + "\n")

    @pytest.mark.parametrize("column, text", [
        (0, "0_7"), (4, "8_6.2"),                      # digit separators
        (0, "\u0667"), (4, "\u0668\u0666.\u0662"),  # Arabic-Indic digits
        (0, "\uff17"), (4, "\uff18\uff16.\uff12"),  # fullwidth digits
    ])
    def test_csv_numerals_are_ascii_without_separators(self, column, text):
        # ``int`` and ``float`` read each of these as the row's own value
        fields = ROW.strip().split(",")
        fields[column] = text
        name = EXPECTED_HEADER[column].lower()
        with pytest.raises(IngestError, match=f"^row 3: {name} must be an ASCII numeral"):
            parse_csv(HEADER + ROW + ",".join(fields) + "\n")


def row_triples(row: WeatherObservation, ordinal: int) -> list[Triple]:
    """The triples that the row mapping gives ``row`` as the observation of row ``ordinal``."""
    return list(ingest_observations([row] * ordinal))[-TRIPLES_PER_ROW:]


class TestToTriples:
    def test_per_row_schema(self):
        triples = row_triples(obs(wind=45.0), 3)
        assert len(triples) == TRIPLES_PER_ROW
        wind_node = iri(vocab.obs_iri(3, "wind"))
        assert any(
            t.subject == wind_node and t.predicate.value == vocab.HAS_VALUE and t.object == decimal(45.0)
            for t in triples
        )
        assert any(
            t.subject == wind_node and t.predicate.value == vocab.OBSERVED_BY
            and t.object.value == vocab.sensor_iri(3)
            for t in triples
        )

    def test_exactly_one_type_triple(self):
        triples = row_triples(obs(), 1)
        types = [t for t in triples if t.predicate.value == vocab.RDF_TYPE]
        assert len(types) == 1
        assert types[0].object.value == vocab.SENSOR_CLASS

    def test_one_unit_triple_per_quantity(self):
        triples = row_triples(obs(), 1)
        units = [t for t in triples if t.predicate.value == vocab.HAS_UNIT]
        assert len(units) == len(QUANTITY_UNITS)

    def test_deterministic_iris(self):
        triples = row_triples(obs(), 5)
        assert triples == row_triples(obs(), 5)
        assert triples[0].subject.value == vocab.sensor_iri(5) == "urn:ssn:sensor:5"

    def test_total_triple_count(self, dataset_text):
        g = ingest_observations(parse_csv(dataset_text))
        assert len(g) == 517 * TRIPLES_PER_ROW


class TestRoundTrip:
    def test_wind_values_survive_ingestion(self, dataset_text):
        rows = parse_csv(dataset_text)
        g = ingest_observations(rows)
        for ordinal, row in enumerate(rows, start=1):
            pattern = TriplePattern(iri(vocab.obs_iri(ordinal, "wind")), iri(vocab.HAS_VALUE), "?v")
            ((token,),) = join([pattern], g, ["?v"])
            value = g._terms[token]
            assert value.value == format_decimal(row.wind)

    def test_double_ingest_is_byte_identical(self, dataset_text):
        first = export_ntriples(ingest_observations(parse_csv(dataset_text)))
        second = export_ntriples(ingest_observations(parse_csv(dataset_text)))
        assert first == second


def reference_triples(observations) -> list[Triple]:
    """The row mapping as it was written with ``Term`` and ``Triple`` objects, kept as the reference."""
    triples = []
    for ordinal, obs in enumerate(observations, start=1):
        s = iri(vocab.sensor_iri(ordinal))
        triples += [
            Triple(s, iri(vocab.RDF_TYPE), iri(vocab.SENSOR_CLASS)),
            Triple(s, iri(vocab.HAS_DEPLOYMENT_X), integer(obs.x_coord)),
            Triple(s, iri(vocab.HAS_DEPLOYMENT_Y), integer(obs.y_coord)),
            Triple(s, iri(vocab.HAS_MONTH), string(obs.month)),
            Triple(s, iri(vocab.HAS_DAY), string(obs.day)),
        ]
        for quantity, unit in QUANTITY_UNITS.items():
            node = iri(vocab.obs_iri(ordinal, quantity))
            triples.append(Triple(node, iri(vocab.HAS_VALUE), decimal(float(getattr(obs, quantity)))))
            triples.append(Triple(node, iri(vocab.HAS_UNIT), string(unit)))
            triples.append(Triple(node, iri(vocab.OBSERVED_BY), s))
    return triples


def reference_ntriples(triples) -> str:
    """The triples as the N-Triples writer wrote them: one line each, sorted, and a newline after the last."""
    lines = sorted(f"<{t.subject.value}> <{t.predicate.value}> {t.object} ." for t in triples)
    lines.append("")
    return "\n".join(lines)


#: every month (one in upper case) and every day; -0.0 and 0.0 in the temp,
#: rain and area columns, each beside exponents such as 1e-5 and 1E3; and
#: coordinates spelled -0, +0 and +7
EDGE_ROWS = [
    f"{x},{y},{month},{day},86.2,26.2,94.3,5.1,{temp},51,6.7,{rain},{area}\n"
    for x, y, month, day, temp, rain, area in zip(
        ["-0", "+7", "1", "9", "0", "+0", "2", "3", "4", "5", "6", "8"],
        ["+7", "-0", "2", "9", "1", "3", "4", "5", "6", "7", "8", "+2"],
        ["JAN", *MONTHS[1:]],
        DAYS * 2,
        ["-0.0", "0.0", "-12.5", "1E3", "0", "-0", "1e-5", "20", "20.0", "3", "3.0", "-3"],
        ["-0.0", "0.0", "-0.0", "0", "0.0", "-0", "1e-5", "0.0", "-0.0", "1E3", "2", "0"],
        ["1e-5", "1E3", "0.0", "-0.0", "1e-05", "1000", "0", "-0", "1E-5", "7", "7.0", "0"],
    )
]


class TestIngestWritesTheReference:
    def write(self, capsys, tmp_path, text: str) -> str:
        path = tmp_path / "rows.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["ingest", str(path)]) == 0
        return capsys.readouterr().out

    def test_edge_values(self, capsys, tmp_path):
        text = HEADER + "".join(EDGE_ROWS)
        out = self.write(capsys, tmp_path, text)
        assert out == reference_ntriples(reference_triples(parse_csv(text)))
        # the literals that equal numbers share would merge under a memo keyed by the number
        assert '"-0.0"^^<' in out and '"0.0"^^<' in out and '"1e-05"^^<' in out and '"1000.0"^^<' in out

    def test_header_only_writes_nothing(self, capsys, tmp_path):
        assert self.write(capsys, tmp_path, HEADER) == ""

    def test_bundled_csv_builds_no_triple_or_graph(self, capsys, dataset_text, monkeypatch):
        built = {Triple: 0, Graph: 0}
        for cls in built:
            def counting(self, *args, _init=cls.__init__, _cls=cls):
                built[_cls] += 1
                _init(self, *args)
            monkeypatch.setattr(cls, "__init__", counting)
        assert main(["ingest", str(DATA_CSV)]) == 0
        assert built == {Triple: 0, Graph: 0}
        monkeypatch.undo()
        rows = parse_csv(dataset_text)
        want = reference_triples(rows)
        assert capsys.readouterr().out == reference_ntriples(want)
        assert list(ingest_observations(rows)) == want


#: values that format one way as literals and another as floats: signed
#: zeros, exponents, the FFMC bound, and quantities passed as ``int``
EDGE_VALUES = [-0.0, 0.0, 1e-05, 1e+16, 101.0, 0, 7, 101]


def quantity(low: float, high: float):
    """A value in [low, high]: an edge value, an ``int`` or a float."""
    return st.one_of(
        st.sampled_from([v for v in EDGE_VALUES if low <= v <= high]),
        st.integers(math.ceil(low), math.floor(min(high, 10**6))),
        st.floats(low, high),
    )


observations = st.builds(
    WeatherObservation,
    x_coord=st.integers(-(10**20), 10**20), y_coord=st.integers(-9, 9),
    month=st.sampled_from(MONTHS), day=st.sampled_from(DAYS),
    ffmc=quantity(0.0, 101.0), dmc=quantity(0.0, 1e300), dc=quantity(0.0, 1e300), isi=quantity(0.0, 1e300),
    temp=quantity(-1e300, 1e300), rh=quantity(0.0, 100.0), wind=quantity(0.0, 1e300),
    rain=quantity(0.0, 1e300), area=quantity(0.0, 1e300),
)


class TestNtriplesLinesWriteTheTermsTokens:
    """``ntriples_lines`` against ``reference_triples``, whose every literal is ``str(Term(...))``."""

    def test_bundled_csv(self, dataset_text):
        rows = parse_csv(dataset_text)
        assert ntriples_lines(rows) == list(map(str, reference_triples(rows)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(observations, min_size=1, max_size=4))
    def test_observations(self, rows):
        assert ntriples_lines(rows) == list(map(str, reference_triples(rows)))

    @pytest.mark.parametrize("coordinate, message", [
        (7.0, "literal '7.0' is not a valid integer"),
        (True, "literal 'True' is not a valid integer"),
        (10**400, f"literal '{10**400}' is not a finite integer"),
    ])
    @pytest.mark.parametrize("field", ["x_coord", "y_coord"])
    def test_coordinate_that_no_integer_term_takes(self, field, coordinate, message):
        with pytest.raises(RdfError, match=f"^{message}$"):
            ntriples_lines([obs(), obs(**{field: coordinate})])

    def test_builds_no_term(self, dataset_text, monkeypatch):
        rows = parse_csv(dataset_text)
        built = count_built_terms(monkeypatch)
        lines = ntriples_lines(rows)
        assert built == []
        assert len(lines) == len(rows) * TRIPLES_PER_ROW
        # the hooks do count: a term that a graph rebuilds, and one built by ``__init__``
        rdf.import_ntriples(lines[0] + "\n")._terms[lines[0].split(" ")[0]]
        integer(1)
        assert len(built) == 2
