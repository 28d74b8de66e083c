import dataclasses
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fireweather.bands import FIRE_INTENSITY, rain_override, wind_risk
from fireweather.indices import (
    DMC_MAX,
    FFMC_MAX,
    FMC_MAX,
    DomainError,
    FuelSample,
    FwiRecord,
    WeatherInputs,
    bui_from,
    compute_chain,
    daily_update,
    dc_daily,
    dmc_daily,
    ffmc_daily,
    ffmc_from_fmc,
    fmc_from_ffmc,
    fmc_from_masses,
    fwi_from,
    isi_from,
)


class TestFmcFromMasses:
    def test_equal_masses(self):
        assert fmc_from_masses(FuelSample(1.0, 1.0)) == 0.0

    def test_double_mass(self):
        assert fmc_from_masses(FuelSample(2.0, 1.0)) == 100.0

    def test_half_extra(self):
        assert fmc_from_masses(FuelSample(1.5, 1.0)) == 50.0

    def test_drier_than_oven_dry_is_negative(self):
        assert fmc_from_masses(FuelSample(0.5, 1.0)) == -50.0

    def test_zero_dry_mass_rejected(self):
        with pytest.raises(DomainError):
            FuelSample(1.0, 0.0)


class TestFmcFfmcConversion:
    def test_top_of_scale(self):
        assert fmc_from_ffmc(101.0) == 0.0

    def test_standard_point(self):
        # 147.2 * (101 - 85) / (59.5 + 85)
        assert fmc_from_ffmc(85.0) == pytest.approx(16.29896193771626, abs=1e-9)

    def test_bottom_of_scale(self):
        assert fmc_from_ffmc(0.0) == pytest.approx(147.2 * 101.0 / 59.5, abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            fmc_from_ffmc(101.5)
        with pytest.raises(DomainError):
            fmc_from_ffmc(-0.1)

    def test_strictly_decreasing_on_half_step_grid(self):
        values = [fmc_from_ffmc(i * 0.5) for i in range(203)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_inverse_of_zero(self):
        assert ffmc_from_fmc(0.0) == 101.0

    def test_inverse_of_bottom(self):
        assert ffmc_from_fmc(147.2 * 101.0 / 59.5) == pytest.approx(0.0, abs=1e-6)

    def test_round_trip_grid(self):
        for i in range(203):
            ffmc = i * 0.5
            assert ffmc_from_fmc(fmc_from_ffmc(ffmc)) == pytest.approx(ffmc, abs=1e-9)

    def test_inverse_domain_error(self):
        with pytest.raises(DomainError):
            ffmc_from_fmc(FMC_MAX + 1.0)


class TestIsi:
    def test_dry_calm_value(self):
        assert isi_from(101.0, 0.0) == pytest.approx(0.208 * 91.9, abs=1e-9)

    def test_wind_strictly_increases(self):
        assert isi_from(85.0, 10.0) > isi_from(85.0, 0.0)

    def test_reference_point(self):
        # frozen from a by-hand evaluation of the adopted formula
        assert isi_from(96.0, 20.0) == pytest.approx(27.176, abs=0.05)

    def test_monotone_in_wind_grid(self):
        for ffmc in (40.0, 85.0, 96.0):
            values = [isi_from(ffmc, w) for w in range(0, 60)]
            assert all(a < b for a, b in zip(values, values[1:]))


class TestBui:
    def test_no_duff_fuel(self):
        assert bui_from(0.0, 50.0) == 0.0

    def test_both_zero(self):
        assert bui_from(0.0, 0.0) == 0.0

    def test_reference_points(self):
        assert bui_from(27.0, 122.0) == pytest.approx(34.77, abs=0.05)
        assert bui_from(47.0, 321.0) == pytest.approx(68.81, abs=0.05)

    def test_branch_seam_continuity(self):
        for dc in (1.0, 25.0, 100.0, 400.0):
            dmc = 0.4 * dc
            below = bui_from(dmc - 1e-9, dc)
            above = bui_from(dmc + 1e-9, dc)
            assert abs(below - above) < 1e-6

    def test_bounded_by_sum(self):
        for dmc in range(0, 150, 5):
            for dc in range(0, 150, 5):
                assert bui_from(float(dmc), float(dc)) <= dmc + dc

    def test_monotone_in_dmc_up_to_bound(self):
        # below about 0.5 the equation itself is not monotone: the standard
        # clamp to 0 covers it, so the grid starts at 100
        dmcs = [100.0 + (DMC_MAX - 100.0) * i / 500 for i in range(501)]
        for dc in (0.0, 1.0, 100.0, 1000.0, 10000.0, 100000.0):
            values = [bui_from(dmc, dc) for dmc in dmcs]
            assert all(a <= b for a, b in zip(values, values[1:])), dc

    def test_tiny_dmc_clamps_to_zero(self):
        assert bui_from(0.5, 0.0) == 0.0

    def test_huge_dmc_is_out_of_domain(self):
        # past the bound the equation falls: compute_chain(90, 1e6, 1e6, 10)
        # gave bui 0 and fwi 2.23, a silently lowered rating
        with pytest.raises(DomainError, match="^dmc out of range"):
            compute_chain(90.0, 1e6, 1e6, 10.0)
        with pytest.raises(DomainError, match="^dmc out of range"):
            bui_from(DMC_MAX * (1 + 1e-12), 0.0)
        assert bui_from(DMC_MAX, 0.0) > bui_from(DMC_MAX - 1.0, 0.0)


class TestFwi:
    def test_zero_isi(self):
        assert fwi_from(0.0, 250.0) == 0.0

    def test_worked_value(self):
        assert fwi_from(6.0, 115.0) == pytest.approx(23.7, abs=0.2)

    def test_duff_seam_continuity(self):
        assert abs(fwi_from(6.0, 80.0) - fwi_from(6.0, 80.0 + 1e-9)) < 0.5

    def test_monotone_grid(self):
        for isi in range(0, 151):
            row = [fwi_from(float(isi), float(bui)) for bui in range(0, 151)]
            assert all(a <= b + 1e-12 for a, b in zip(row, row[1:]))
        for bui in (0, 40, 80, 120, 150):
            col = [fwi_from(float(isi), float(bui)) for isi in range(0, 151)]
            assert all(a <= b + 1e-12 for a, b in zip(col, col[1:]))


class TestComputeChain:
    def test_composition_identity(self):
        rec = compute_chain(88.0, 27.0, 122.0, 12.0)
        assert rec.isi == isi_from(88.0, 12.0)
        assert rec.bui == bui_from(27.0, 122.0)
        assert rec.fwi == fwi_from(rec.isi, rec.bui)
        assert rec.bui == pytest.approx(34.8, abs=0.1)

    def test_degenerate_floor(self):
        rec = compute_chain(0.0, 0.0, 0.0, 0.0)
        assert rec.bui == 0.0
        assert rec.fwi == pytest.approx(0.0, abs=1e-6)
        assert rec.isi < 0.01


class TestDailyUpdate:
    def test_dc_unchanged_at_temperature_floor(self):
        w = WeatherInputs(temp=-2.8, rh=50.0, wind=10.0, rain_24h=0.0)
        assert dc_daily(100.0, w, "jan") == 100.0

    def test_ffmc_reference(self):
        # frozen from a transcription of the published daily FFMC listing
        w = WeatherInputs(temp=17.0, rh=42.0, wind=25.0, rain_24h=0.0)
        assert ffmc_daily(85.0, w) == pytest.approx(87.7, abs=0.15)

    def test_heavy_rain_lowers_ffmc(self):
        w = WeatherInputs(temp=20.0, rh=50.0, wind=10.0, rain_24h=50.0)
        assert ffmc_daily(90.0, w) < 90.0

    def test_dry_warm_day_raises_dmc_and_dc(self):
        w = WeatherInputs(temp=25.0, rh=30.0, wind=10.0, rain_24h=0.0)
        assert dmc_daily(30.0, w, "jul") > 30.0
        assert dc_daily(200.0, w, "jul") > 200.0

    def test_range_safety_random(self):
        rng = random.Random(42)
        for _ in range(10_000):
            w = WeatherInputs(
                temp=rng.uniform(-30.0, 45.0),
                rh=rng.uniform(0.0, 100.0),
                wind=rng.uniform(0.0, 100.0),
                rain_24h=rng.uniform(0.0, 80.0),
            )
            ffmc, dmc, dc = daily_update(
                rng.uniform(0.0, 101.0),
                rng.uniform(0.0, 300.0),
                rng.uniform(0.0, 900.0),
                w,
                rng.randrange(1, 13),
            )
            assert 0.0 <= ffmc <= FFMC_MAX
            assert dmc >= 0.0 and math.isfinite(dmc)
            assert dc >= 0.0 and math.isfinite(dc)

    def test_month_names_accepted(self):
        w = WeatherInputs(temp=20.0, rh=40.0, wind=5.0, rain_24h=0.0)
        assert dmc_daily(10.0, w, "aug") == dmc_daily(10.0, w, 8)

    @pytest.mark.parametrize("month", [3.5, 3.0, True, False, None, b"mar", [3]])
    @pytest.mark.parametrize("update", ["dmc", "dc", "both"])
    def test_a_month_of_another_type_is_a_domain_error_naming_it(self, update, month):
        w = WeatherInputs(temp=20.0, rh=40.0, wind=5.0, rain_24h=0.0)
        call = {"dmc": lambda: dmc_daily(10.0, w, month), "dc": lambda: dc_daily(10.0, w, month),
                "both": lambda: daily_update(85.0, 10.0, 10.0, w, month)}[update]
        want = f"month must be a month name or an int from 1 to 12, got {month!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            call()

    @pytest.mark.parametrize("month, message", [(0, "month out of range [1, 12]: 0"),
                                                (13, "month out of range [1, 12]: 13"),
                                                ("march", "unknown month 'march'")], ids=["0", "13", "march"])
    def test_a_month_outside_the_calendar_is_a_domain_error(self, month, message):
        w = WeatherInputs(temp=20.0, rh=40.0, wind=5.0, rain_24h=0.0)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            daily_update(85.0, 10.0, 10.0, w, month)


VALID = [
    FuelSample(1.5, 1.0),
    WeatherInputs(temp=20.0, rh=30.0, wind=10.0, rain_24h=0.0),
    FwiRecord(ffmc=90.0, dmc=10.0, dc=100.0, isi=5.0, bui=15.0, fwi=10.0),
]
CHAIN_ARGS = (90.0, 10.0, 100.0, 10.0)
#: each takes one value and builds a record or calls a function with it in
#: one input, the other inputs valid
DOMAIN_CASES = [
    pytest.param(lambda value, v=v, name=f.name: dataclasses.replace(v, **{name: value}),
                 id=f"{type(v).__name__}.{f.name}")
    for v in VALID
    for f in dataclasses.fields(v)
] + [
    pytest.param(FIRE_INTENSITY.classify, id="BandTable.classify"),
    pytest.param(rain_override, id="rain_override"),
    pytest.param(wind_risk, id="wind_risk"),
] + [
    pytest.param(lambda value, i=i: compute_chain(*[value if j == i else x for j, x in enumerate(CHAIN_ARGS)]),
                 id=f"compute_chain.{name}")
    for i, name in enumerate(("ffmc", "dmc", "dc", "wind"))
]


@pytest.mark.parametrize("build", DOMAIN_CASES)
def test_nan_is_out_of_domain(build):
    # a NaN compares false with every threshold, so an unguarded NaN would
    # read as the lowest band: a silently lowered risk rating
    with pytest.raises(DomainError):
        build(math.nan)


@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("build", DOMAIN_CASES)
def test_infinity_is_out_of_domain(build, value):
    # an infinite wind would give isi = fwi = inf, and an infinite dmc a NaN
    # bui that the caller never passed: the error names the infinite input
    with pytest.raises(DomainError, match="inf") as raised:
        build(value)
    assert "nan" not in str(raised.value)


@pytest.mark.parametrize("wind", [14080.0, 20000.0], ids=["product-overflows", "exp-overflows"])
def test_huge_wind_is_out_of_domain(wind):
    # math.exp overflows past about 14,086 km/h, and the ISI product a
    # little below that: either way the error names the wind
    with pytest.raises(DomainError, match=f"^wind {wind} is too large"):
        compute_chain(90.0, 10.0, 100.0, wind)


@pytest.mark.parametrize("update, args, named", [
    (ffmc_daily, (85.0, WeatherInputs(19500.0, 50.0, 10.0, 0.0)), "temp=19500.0"),
    (ffmc_daily, (85.0, WeatherInputs(20.0, 50.0, 10.0, 1e307)), "rain 1e+307"),
    (dmc_daily, (6.0, WeatherInputs(1e306, 0.0, 10.0, 0.0), 8), "temp=1e+306"),
    (dmc_daily, (6.0, WeatherInputs(1.7e308, 100.0, 10.0, 0.0), 8), "temp=1.7e+308"),
    (dmc_daily, (6.0, WeatherInputs(20.0, 50.0, 10.0, 1.7e308), 8), "rain_24h=1.7e+308"),
    (dmc_daily, (31000.0, WeatherInputs(20.0, 50.0, 10.0, 5.0), 8), "31000.0"),
    (dc_daily, (1e6, WeatherInputs(20.0, 50.0, 10.0, 5.0), 8), "1000000.0"),
    (dc_daily, (1.7e308, WeatherInputs(1e308, 50.0, 10.0, 0.0), 8), "temp=1e+308"),
], ids=["ffmc-temp", "ffmc-rain", "dmc-temp", "dmc-temp-times-zero", "dmc-rain", "dmc-code", "dc-code", "dc-sum"])
def test_an_update_that_overflows_names_its_input(update, args, named):
    # each of these raised OverflowError or ZeroDivisionError, or returned
    # an infinite or NaN code, though every input is in its domain
    with pytest.raises(DomainError, match=re.escape(named)):
        update(*args)


@pytest.mark.parametrize("ffmc_prev", [0.0, 60.0, 85.0, 101.0])
def test_more_rain_never_raises_next_day_ffmc(ffmc_prev):
    # ``1 - exp(-6.93 / rf)`` rounds to 0 as rain grows huge, and must not stop the wetting
    rains = [0.0, 0.5, 0.6, 5.0, 100.0, 1e16, 1e300]
    ffmc = [ffmc_daily(ffmc_prev, WeatherInputs(20.0, 50.0, 10.0, rain)) for rain in rains]
    assert ffmc == sorted(ffmc, reverse=True)


def test_an_update_takes_its_month_by_keyword():
    w = WeatherInputs(temp=20.0, rh=40.0, wind=5.0, rain_24h=0.0)
    assert dmc_daily(10.0, w, month=8) == dmc_daily(10.0, w, "aug")
    # the error lists the month among the inputs
    with pytest.raises(DomainError, match=r", 8\)$"):
        dc_daily(1e6, WeatherInputs(20.0, 50.0, 10.0, 5.0), month=8)


@settings(max_examples=1000, deadline=None)
@given(temp=st.floats(), rh=st.floats(), wind=st.floats(), rain=st.floats(),
       codes=st.tuples(st.floats(), st.floats(), st.floats()), month=st.integers(1, 12))
@example(temp=19500.0, rh=50.0, wind=10.0, rain=0.0, codes=(85.0, 6.0, 15.0), month=8)
@example(temp=1e306, rh=0.0, wind=10.0, rain=0.0, codes=(85.0, 6.0, 15.0), month=8)
@example(temp=1.7e308, rh=100.0, wind=10.0, rain=0.0, codes=(85.0, 6.0, 15.0), month=8)
def test_weather_is_refused_or_updates_the_codes_within_their_ranges(temp, rh, wind, rain, codes, month):
    try:
        ffmc, dmc, dc = daily_update(*codes, WeatherInputs(temp, rh, wind, rain), month)
    except DomainError:
        return
    assert 0.0 <= ffmc <= FFMC_MAX
    assert math.isfinite(dmc) and dmc >= 0.0
    assert math.isfinite(dc) and dc >= 0.0
