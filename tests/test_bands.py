import math

import pytest

from fireweather.bands import (
    DIFFICULTY_OF_CONTROL,
    FIRE_INTENSITY,
    IGNITION_POTENTIAL,
    MOPUP_NEEDS,
    RATE_OF_SPREAD,
    SCALES,
    rain_override,
    wind_risk,
)
from fireweather.indices import DomainError

# independent literal encoding of the five band tables: (upper bounds, labels)
DIRECT_TABLES = {
    "ffmc": ([74.0, 84.0, 88.0, 92.0],
             ["difficult", "moderatelyeasy", "easy", "veryeasy", "extremelyeasy"]),
    "dmc": ([9.0, 19.0, 29.0, 39.0],
            ["little", "moderate", "difficult", "difficultandExtended", "difficultandextensive"]),
    "bui": ([15.0, 30.0, 45.0, 59.0],
            ["easy", "notDifficult", "difficult", "veryDifficult", "extremelyDifficult"]),
    "isi": ([3.0, 7.0, 12.0, 15.0],
            ["slow", "moderatelyFast", "fast", "very_fast", "extremelyDifficult"]),
    "fwi": ([5.0, 12.0, 20.0, 29.0],
            ["low", "moderate", "high", "veryhigh", "extreme"]),
}

def direct_label(index: str, value: float) -> str:
    bounds, labels = DIRECT_TABLES[index]
    for bound, label in zip(bounds, labels):
        if value <= bound:
            return label
    return labels[-1]


def probe_values(index: str):
    bounds, _ = DIRECT_TABLES[index]
    upper = 101 if index == "ffmc" else 201
    values = [float(v) for v in range(0, upper)]
    for b in bounds:
        values += [b - 1e-9, b, b + 1e-9]
    return values


def test_scales_are_the_five_tables_by_name():
    assert SCALES == {
        "ffmc": IGNITION_POTENTIAL, "dmc": MOPUP_NEEDS, "bui": DIFFICULTY_OF_CONTROL, "isi": RATE_OF_SPREAD,
        "fwi": FIRE_INTENSITY,
    }


@pytest.mark.parametrize("index", sorted(DIRECT_TABLES))
def test_classifier_matches_direct_encoding(index):
    classify = SCALES[index].classify
    for v in probe_values(index):
        assert classify(v) == direct_label(index, v), f"{index}={v}"


@pytest.mark.parametrize("index", sorted(DIRECT_TABLES))
def test_exactly_one_label(index):
    labels = set(DIRECT_TABLES[index][1])
    for v in probe_values(index):
        assert SCALES[index].classify(v) in labels


class TestAnchors:
    def test_ignition(self):
        assert IGNITION_POTENTIAL.classify(70.0) == "difficult"
        assert IGNITION_POTENTIAL.classify(95.0) == "extremelyeasy"
        assert IGNITION_POTENTIAL.classify(0.0) == "difficult"
        assert IGNITION_POTENTIAL.classify(92.0) == "veryeasy"

    def test_mopup(self):
        assert MOPUP_NEEDS.classify(47.0) == "difficultandextensive"
        assert MOPUP_NEEDS.classify(27.0) == "difficult"
        assert MOPUP_NEEDS.classify(0.0) == "little"

    def test_difficulty(self):
        assert DIFFICULTY_OF_CONTROL.classify(17.0) == "notDifficult"
        assert DIFFICULTY_OF_CONTROL.classify(115.0) == "extremelyDifficult"
        assert DIFFICULTY_OF_CONTROL.classify(45.0) == "difficult"

    def test_spread(self):
        assert RATE_OF_SPREAD.classify(6.0) == "moderatelyFast"
        assert RATE_OF_SPREAD.classify(1.5) == "slow"
        assert RATE_OF_SPREAD.classify(20.0) == "extremelyDifficult"

    def test_intensity(self):
        assert FIRE_INTENSITY.classify(8.0) == "moderate"
        assert FIRE_INTENSITY.classify(23.0) == "veryhigh"
        assert FIRE_INTENSITY.classify(31.0) == "extreme"


class TestDomainErrors:
    def test_ffmc_bounds(self):
        with pytest.raises(DomainError, match=r"^ffmc out of range \[0, 101\]: 101.5$"):
            IGNITION_POTENTIAL.classify(101.5)
        assert IGNITION_POTENTIAL.classify(101.0) == "extremelyeasy"

    @pytest.mark.parametrize("index", sorted(SCALES))
    def test_negative_rejected(self, index):
        with pytest.raises(DomainError):
            SCALES[index].classify(-0.001)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("index", sorted(SCALES))
    def test_non_finite_rejected(self, index, value):
        # a NaN compares false with every threshold, so unguarded it would
        # read as the lowest band
        with pytest.raises(DomainError, match=f"^{index} "):
            SCALES[index].classify(value)


class TestOverrides:
    def test_rain(self):
        assert rain_override(2.0) == "FireStop"
        assert rain_override(1.0) is None  # strict greater-than
        assert rain_override(0.0) is None

    def test_wind(self):
        assert wind_risk(55.0) == "veryhigh"
        assert wind_risk(50.0) is None
        assert wind_risk(0.0) is None


def test_threshold_consistency_highest_satisfied_wins():
    # above the lowest threshold, the label is that of the highest
    # strictly-exceeded threshold
    for index, (bounds, labels) in DIRECT_TABLES.items():
        classify = SCALES[index].classify
        for v in probe_values(index):
            if v <= bounds[0]:
                continue
            satisfied = [l for b, l in zip(bounds, labels[1:]) if v > b]
            assert classify(v) == satisfied[-1]


def test_band_table_validation():
    from fireweather.bands import BandTable

    with pytest.raises(ValueError):
        BandTable("bad", "a", ((5.0, "b"), (5.0, "c")))
    with pytest.raises(ValueError):
        BandTable("bad", "a", ((5.0, "a"),))


@pytest.mark.parametrize("index", sorted(DIRECT_TABLES))
def test_lower_bound_of_each_label(index):
    bounds, labels = DIRECT_TABLES[index]
    table = SCALES[index]
    # the base label's band starts at 0, and each other at its threshold
    assert [table.lower_bound(label) for label in labels] == [0.0, *bounds]
    with pytest.raises(KeyError, match="unknown"):
        table.lower_bound("unknown")
