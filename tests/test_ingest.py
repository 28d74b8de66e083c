import pytest

from fireweather import vocab
from fireweather.ingest import (
    EXPECTED_HEADER,
    QUANTITY_UNITS,
    TRIPLES_PER_ROW,
    IngestError,
    WeatherObservation,
    ingest_observations,
    parse_csv,
    to_triples,
)
from fireweather.rdf import TriplePattern, decimal, export_ntriples, format_decimal, iri, join

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


class TestToTriples:
    def test_per_row_schema(self):
        triples = to_triples(obs(wind=45.0), 3)
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
        triples = to_triples(obs(), 1)
        types = [t for t in triples if t.predicate.value == vocab.RDF_TYPE]
        assert len(types) == 1
        assert types[0].object.value == vocab.SENSOR_CLASS

    def test_one_unit_triple_per_quantity(self):
        triples = to_triples(obs(), 1)
        units = [t for t in triples if t.predicate.value == vocab.HAS_UNIT]
        assert len(units) == len(QUANTITY_UNITS)

    def test_deterministic_iris(self):
        triples = to_triples(obs(), 5)
        assert triples == to_triples(obs(), 5)
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
            got = list(join([pattern], g))
            assert len(got) == 1
            assert got[0]["?v"].value == format_decimal(row.wind)

    def test_double_ingest_is_byte_identical(self, dataset_text):
        first = export_ntriples(ingest_observations(parse_csv(dataset_text)))
        second = export_ntriples(ingest_observations(parse_csv(dataset_text)))
        assert first == second
