"""Canadian Fire Weather Index arithmetic.

Fuel moisture content, the FFMC/DMC/DC daily updates, and the derived
behaviour indexes (ISI, BUI, FWI).  All functions are pure and operate in
double precision.  A month is a name from ``ingest.MONTHS``, in any case,
or an ``int`` from 1 to 12 that is not a ``bool``; any other month is a
``DomainError`` that names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps

from .ingest import MONTHS

FFMC_MAX = 101.0
#: FMC at FFMC = 0, the upper end of the convertible moisture range
FMC_MAX = 147.2 * 101.0 / 59.5
#: the largest DMC that ``bui_from`` accepts.  Above about 24,530 (at DC = 0;
#: later for a larger DC) the BUI equation falls as DMC rises, and a huge
#: DMC would read as a low rating.
DMC_MAX = 24_000.0


class DomainError(ValueError):
    """Input outside the documented domain of an index function."""


def nonnegative(x: float) -> bool:
    """True for a finite number >= 0: NaN and infinity are outside every domain."""
    return math.isfinite(x) and x >= 0.0


@dataclass(frozen=True)
class FuelSample:
    """Wet and oven-dry fuel masses in grams."""

    water_mass: float
    dry_mass: float

    def __post_init__(self):
        if not (math.isfinite(self.dry_mass) and self.dry_mass > 0.0):
            raise DomainError(f"dry mass must be finite and > 0, got {self.dry_mass}")
        if not nonnegative(self.water_mass):
            raise DomainError(f"water mass must be finite and >= 0, got {self.water_mass}")


@dataclass(frozen=True)
class WeatherInputs:
    """Noon weather: temperature (C), RH (%), wind (km/h), 24h rain (mm)."""

    temp: float
    rh: float
    wind: float
    rain_24h: float

    def __post_init__(self):
        if not math.isfinite(self.temp):
            raise DomainError(f"temp must be finite: {self.temp}")
        if not 0.0 <= self.rh <= 100.0:
            raise DomainError(f"rh out of range [0, 100]: {self.rh}")
        if not nonnegative(self.wind):
            raise DomainError(f"wind must be finite and >= 0: {self.wind}")
        if not nonnegative(self.rain_24h):
            raise DomainError(f"rain must be finite and >= 0: {self.rain_24h}")


@dataclass(frozen=True)
class FwiRecord:
    """The six index values for one station-day."""

    ffmc: float
    dmc: float
    dc: float
    isi: float
    bui: float
    fwi: float

    def __post_init__(self):
        if not 0.0 <= self.ffmc <= FFMC_MAX:
            raise DomainError(f"ffmc out of range [0, 101]: {self.ffmc}")
        for name in ("dmc", "dc", "isi", "bui", "fwi"):
            if not nonnegative(getattr(self, name)):
                raise DomainError(f"{name} must be finite and >= 0: {getattr(self, name)}")


def fmc_from_masses(sample: FuelSample) -> float:
    """Fuel moisture content (%) from wet and dry masses.

    Negative results (wetter mass below oven-dry mass) are allowed.
    """
    return (sample.water_mass - sample.dry_mass) / sample.dry_mass * 100.0


def fmc_from_ffmc(ffmc: float) -> float:
    """Fuel moisture content (%) equivalent to an FFMC value."""
    if not 0.0 <= ffmc <= FFMC_MAX:
        raise DomainError(f"ffmc out of range [0, 101]: {ffmc}")
    return 147.2 * (FFMC_MAX - ffmc) / (59.5 + ffmc)


def ffmc_from_fmc(fmc: float) -> float:
    """Exact algebraic inverse of fmc_from_ffmc."""
    if not 0.0 <= fmc <= FMC_MAX:
        raise DomainError(f"fmc out of range [0, {FMC_MAX:.4f}]: {fmc}")
    # clamp: float division can land a hair above the FFMC ceiling at fmc=0
    return min((14867.2 - 59.5 * fmc) / (fmc + 147.2), FFMC_MAX)


def isi_from(ffmc: float, wind: float) -> float:
    """Initial Spread Index from FFMC and wind speed (km/h)."""
    if not nonnegative(wind):
        raise DomainError(f"wind must be finite and >= 0: {wind}")
    m = fmc_from_ffmc(ffmc)
    try:
        f_wind = math.exp(0.05039 * wind)
    except OverflowError:
        f_wind = math.inf
    f_fuel = 91.9 * math.exp(-0.1386 * m) * (1.0 + m**5.31 / 4.93e7)
    isi = 0.208 * f_wind * f_fuel
    if isi == math.inf:
        raise DomainError(f"wind {wind} is too large: the ISI overflows")
    return isi


def bui_from(dmc: float, dc: float) -> float:
    """Buildup Index from DMC and DC.  bui_from(0, dc) is 0 by definition."""
    if not (nonnegative(dmc) and nonnegative(dc)):
        raise DomainError(f"dmc and dc must be finite and >= 0: {dmc}, {dc}")
    if dmc > DMC_MAX:
        raise DomainError(f"dmc out of range [0, {DMC_MAX:g}]: {dmc}")
    if dmc == 0.0:
        return 0.0
    if dmc <= 0.4 * dc:
        return 0.8 * dmc * dc / (dmc + 0.4 * dc)
    bui = dmc - (1.0 - 0.8 * dc / (dmc + 0.4 * dc)) * (0.92 + (0.0114 * dmc) ** 1.7)
    return max(bui, 0.0)


def fwi_from(isi: float, bui: float) -> float:
    """Fire Weather Index from ISI and BUI."""
    if not (nonnegative(isi) and nonnegative(bui)):
        raise DomainError(f"isi and bui must be finite and >= 0: {isi}, {bui}")
    if bui <= 80.0:
        f_duff = 0.626 * bui**0.809 + 2.0
    else:
        f_duff = 1000.0 / (25.0 + 108.64 * math.exp(-0.023 * bui))
    b = 0.1 * isi * f_duff
    if b <= 1.0:
        return b
    return math.exp(2.72 * (0.434 * math.log(b)) ** 0.647)


def compute_chain(ffmc: float, dmc: float, dc: float, wind: float) -> FwiRecord:
    """Derive ISI, BUI, and FWI from the three moisture codes and wind."""
    isi = isi_from(ffmc, wind)
    bui = bui_from(dmc, dc)
    fwi = fwi_from(isi, bui)
    return FwiRecord(ffmc=ffmc, dmc=dmc, dc=dc, isi=isi, bui=bui, fwi=fwi)


# --- daily code updates ----------------------------------------------------

#: DMC day-length factors by month (standard 46N values)
_DMC_DAY_LENGTH = [6.5, 7.5, 9.0, 12.8, 13.9, 13.9, 12.4, 10.9, 9.4, 8.0, 7.0, 6.0]
#: DC day-length adjustment by month
_DC_DAY_LENGTH = [-1.6, -1.6, -1.6, 0.9, 3.8, 5.8, 6.4, 5.0, 2.4, 0.4, -1.6, -1.6]


def _month_index(month: int | str) -> int:
    if isinstance(month, str):
        try:
            return MONTHS.index(month.lower())
        except ValueError:
            raise DomainError(f"unknown month {month!r}") from None
    if isinstance(month, bool) or not isinstance(month, int):
        raise DomainError(f"month must be a month name or an int from 1 to 12, got {month!r}")
    if not 1 <= month <= 12:
        raise DomainError(f"month out of range [1, 12]: {month}")
    return month - 1


def _finite(update):
    """``update``, raising a ``DomainError`` that names its inputs where its arithmetic leaves the finite floats."""
    @wraps(update)
    def checked(*args, **kwargs):
        try:
            code = update(*args, **kwargs)
        except ArithmeticError:
            code = math.nan
        if not math.isfinite(code):
            raise DomainError(f"{update.__name__} overflows on {(*args, *kwargs.values())}")
        return code
    return checked


@_finite
def ffmc_daily(ffmc_prev: float, w: WeatherInputs) -> float:
    """Next-day FFMC from yesterday's value and today's noon weather."""
    m = fmc_from_ffmc(ffmc_prev)
    if w.rain_24h > 0.5:
        rf = w.rain_24h - 0.5
        # ``1 - exp(x)`` loses digits as rain grows, and is 0 past about 6e16 mm, where more rain would wet less
        delta = 42.5 * rf * math.exp(-100.0 / (251.0 - m)) * -math.expm1(-6.93 / rf)
        if not math.isfinite(delta):
            raise DomainError(f"rain {w.rain_24h} is too large: the FFMC update overflows")
        if m > 150.0:
            delta += 0.0015 * (m - 150.0) ** 2 * math.sqrt(rf)
        m = min(m + delta, 250.0)
    e_dry = (
        0.942 * w.rh**0.679
        + 11.0 * math.exp((w.rh - 100.0) / 10.0)
        + 0.18 * (21.1 - w.temp) * (1.0 - math.exp(-0.115 * w.rh))
    )
    if m > e_dry:
        k = (
            0.424 * (1.0 - (w.rh / 100.0) ** 1.7)
            + 0.0694 * math.sqrt(w.wind) * (1.0 - (w.rh / 100.0) ** 8)
        ) * 0.581 * math.exp(0.0365 * w.temp)
        m = e_dry + (m - e_dry) * 10.0**-k
    else:
        e_wet = (
            0.618 * w.rh**0.753
            + 10.0 * math.exp((w.rh - 100.0) / 10.0)
            + 0.18 * (21.1 - w.temp) * (1.0 - math.exp(-0.115 * w.rh))
        )
        if m < e_wet:
            k = (
                0.424 * (1.0 - ((100.0 - w.rh) / 100.0) ** 1.7)
                + 0.0694 * math.sqrt(w.wind) * (1.0 - ((100.0 - w.rh) / 100.0) ** 8)
            ) * 0.581 * math.exp(0.0365 * w.temp)
            m = e_wet - (e_wet - m) * 10.0**-k
    return min(max(ffmc_from_fmc(min(max(m, 0.0), FMC_MAX)), 0.0), FFMC_MAX)


@_finite
def dmc_daily(dmc_prev: float, w: WeatherInputs, month: int | str) -> float:
    """Next-day DMC."""
    if not nonnegative(dmc_prev):
        raise DomainError(f"dmc must be finite and >= 0: {dmc_prev}")
    mi = _month_index(month)
    dmc = dmc_prev
    if w.rain_24h > 1.5:
        effective = 0.92 * w.rain_24h - 1.27
        moisture = 20.0 + 280.0 / math.exp(0.023 * dmc_prev)
        if dmc_prev <= 33.0:
            b = 100.0 / (0.5 + 0.3 * dmc_prev)
        elif dmc_prev <= 65.0:
            b = 14.0 - 1.3 * math.log(dmc_prev)
        else:
            b = 6.2 * math.log(dmc_prev) - 17.2
        wet = moisture + 1000.0 * effective / (48.77 + b * effective)
        dmc = max(43.43 * (5.6348 - math.log(wet - 20.0)), 0.0)
    if w.temp > -1.1:
        dmc += 1.894 * (w.temp + 1.1) * (100.0 - w.rh) * _DMC_DAY_LENGTH[mi] * 1e-4
    return max(dmc, 0.0)


@_finite
def dc_daily(dc_prev: float, w: WeatherInputs, month: int | str) -> float:
    """Next-day DC."""
    if not nonnegative(dc_prev):
        raise DomainError(f"dc must be finite and >= 0: {dc_prev}")
    mi = _month_index(month)
    dc = dc_prev
    if w.rain_24h > 2.8:
        effective = 0.83 * w.rain_24h - 1.27
        moisture = 800.0 * math.exp(-dc_prev / 400.0)
        dc = max(dc_prev - 400.0 * math.log(1.0 + 3.937 * effective / moisture), 0.0)
    evaporation = 0.36 * (w.temp + 2.8) + _DC_DAY_LENGTH[mi] if w.temp > -2.8 else _DC_DAY_LENGTH[mi]
    if evaporation > 0.0:
        dc += 0.5 * evaporation
    return max(dc, 0.0)


def daily_update(ffmc: float, dmc: float, dc: float, w: WeatherInputs, month: int | str) -> tuple[float, float, float]:
    """Advance all three moisture codes by one day."""
    return (ffmc_daily(ffmc, w), dmc_daily(dmc, w, month), dc_daily(dc, w, month))
