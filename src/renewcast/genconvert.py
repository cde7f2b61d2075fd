"""Installed power to annual generation capability via capacity factors.

One global average capacity factor per technology, applied uniformly;
8760 h/yr with no leap correction. The regional spread behind the averages
is deliberately out of scope.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .corpus import HOURS_PER_YEAR, CapacitySeries
from .errors import CapacityFactorOutOfRange, FitOutOfRange, NegativeDemand, NegativePower


class TechnologyProfile:
    """A technology's capacity series, capacity factor and fitted growth model."""

    def __init__(self, name: str, capacity_factor: float, series: CapacitySeries,
                 model=None):
        _check_cf(capacity_factor)
        self.name = name
        self.capacity_factor = capacity_factor
        self.series = series
        self.model = model


class GenerationSeries(NamedTuple):
    technology: str
    samples: tuple[tuple[float, float], ...]  # (year, TWh/yr)

    @property
    def years(self):
        return tuple(s[0] for s in self.samples)

    @property
    def values(self):
        return tuple(s[1] for s in self.samples)


def _check_cf(capacity_factor: float):
    if not (0.0 < capacity_factor <= 1.0):
        raise CapacityFactorOutOfRange(
            f"capacity factor must be in (0, 1], got {capacity_factor!r}"
        )


def generation_capability(power_gw: float, capacity_factor: float) -> float:
    """TWh/yr generated by power_gw running at the given capacity factor."""
    _check_cf(capacity_factor)
    if power_gw < 0:
        raise NegativePower(f"installed power must be >= 0, got {power_gw!r}")
    generation = power_gw * capacity_factor * HOURS_PER_YEAR / 1000.0
    if not math.isfinite(generation):
        raise FitOutOfRange(f"the generation of {power_gw!r} GW is not finite")
    return generation


def power_required(generation_twh: float, capacity_factor: float) -> float:
    """Inverse of generation_capability: GW needed for a TWh/yr target."""
    _check_cf(capacity_factor)
    if generation_twh < 0:
        raise NegativeDemand(f"generation must be >= 0, got {generation_twh!r}")
    return generation_twh * 1000.0 / (capacity_factor * HOURS_PER_YEAR)


def series_to_generation(profile: TechnologyProfile) -> GenerationSeries:
    """Pointwise conversion of a profile's installed-power samples."""
    return GenerationSeries(
        technology=profile.name,
        samples=tuple(
            (year, generation_capability(value, profile.capacity_factor))
            for year, value in profile.series.samples
        ),
    )
