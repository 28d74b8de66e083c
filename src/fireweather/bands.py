"""Threshold band classification for the five index scales.

Each scale is an ordered list of (lower-threshold, label) pairs with strict
greater-than semantics: a value gets the label of the highest threshold it
exceeds, and the lowest band below the first threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .indices import FFMC_MAX, DomainError, nonnegative


@dataclass(frozen=True)
class BandTable:
    """Lowest-band label plus ascending (threshold, label) steps, over values in [0, maximum]."""

    name: str
    base_label: str
    steps: tuple[tuple[float, str], ...]
    maximum: float = math.inf

    def __post_init__(self):
        thresholds = [t for t, _ in self.steps]
        if thresholds != sorted(set(thresholds)):
            raise ValueError(f"{self.name}: thresholds must be strictly increasing")
        labels = [self.base_label] + [l for _, l in self.steps]
        if len(set(labels)) != len(labels):
            raise ValueError(f"{self.name}: labels must be unique")

    def classify(self, value: float) -> str:
        if not nonnegative(value) or value > self.maximum:
            why = f"out of range [0, {self.maximum:g}]" if self.maximum < math.inf else "must be finite and >= 0"
            raise DomainError(f"{self.name} {why}: {value}")
        label = self.base_label
        for threshold, step_label in self.steps:
            if value > threshold:
                label = step_label
        return label

    def labels(self) -> list[str]:
        return [self.base_label] + [l for _, l in self.steps]

    def rank(self, label: str) -> int:
        return self.labels().index(label)

    def lower_bound(self, label: str) -> float:
        """Lower threshold of the band carrying this label (0 for the base)."""
        for threshold, step_label in self.steps:
            if step_label == label:
                return threshold
        if label == self.base_label:
            return 0.0
        raise KeyError(label)


IGNITION_POTENTIAL = BandTable(
    "ffmc", "difficult",
    ((74.0, "moderatelyeasy"), (84.0, "easy"), (88.0, "veryeasy"), (92.0, "extremelyeasy")),
    FFMC_MAX,
)
MOPUP_NEEDS = BandTable(
    "dmc", "little",
    ((9.0, "moderate"), (19.0, "difficult"), (29.0, "difficultandExtended"), (39.0, "difficultandextensive")),
)
DIFFICULTY_OF_CONTROL = BandTable(
    "bui", "easy",
    ((15.0, "notDifficult"), (30.0, "difficult"), (45.0, "veryDifficult"), (59.0, "extremelyDifficult")),
)
RATE_OF_SPREAD = BandTable(
    "isi", "slow",
    ((3.0, "moderatelyFast"), (7.0, "fast"), (12.0, "very_fast"), (15.0, "extremelyDifficult")),
)
FIRE_INTENSITY = BandTable(
    "fwi", "low",
    ((5.0, "moderate"), (12.0, "high"), (20.0, "veryhigh"), (29.0, "extreme")),
)

#: each table by its index name, as ``fireweather classify`` takes it
SCALES = {t.name: t for t in (IGNITION_POTENTIAL, MOPUP_NEEDS, DIFFICULTY_OF_CONTROL, RATE_OF_SPREAD, FIRE_INTENSITY)}

RAIN_OVERRIDE_THRESHOLD = 1.0
WIND_RISK_THRESHOLD = 50.0


def rain_override(rain_mm: float) -> str | None:
    """"FireStop" when rain strictly exceeds 1 mm, else None."""
    if not nonnegative(rain_mm):
        raise DomainError(f"rain must be finite and >= 0: {rain_mm}")
    return "FireStop" if rain_mm > RAIN_OVERRIDE_THRESHOLD else None


def wind_risk(wind_kmh: float) -> str | None:
    """"veryhigh" when wind strictly exceeds 50 km/h, else None."""
    if not nonnegative(wind_kmh):
        raise DomainError(f"wind must be finite and >= 0: {wind_kmh}")
    return "veryhigh" if wind_kmh > WIND_RISK_THRESHOLD else None
