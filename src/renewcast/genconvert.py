"""Installed power to annual generation capability via capacity factors.

One global average capacity factor per technology, applied uniformly;
HOURS_PER_YEAR h/yr, no leap correction. The regional spread behind the averages
is deliberately out of scope. TechnologyProfile(name, capacity_factor, model)
and series_to_generation(series, capacity_factor) check the capacity factor.
"""

from __future__ import annotations

import math

from .corpus import HOURS_PER_YEAR, CapacitySeries
from .errors import ModelError


class TechnologyProfile:
    """A technology's capacity factor and fitted growth model."""

    def __init__(self, name: str, capacity_factor: float, model):
        _check_cf(capacity_factor)
        self.name = name
        self.capacity_factor = capacity_factor
        self.model = model


def _check_cf(capacity_factor: float):
    if not (0.0 < capacity_factor <= 1.0):
        raise ModelError(
            f"capacity factor must be in (0, 1], got {capacity_factor!r}"
        )


def generation_capability(power_gw: float, capacity_factor: float) -> float:
    """TWh/yr generated by power_gw running at the given capacity factor."""
    _check_cf(capacity_factor)
    if power_gw < 0:
        raise ModelError(f"installed power must be >= 0, got {power_gw!r}")
    generation = power_gw * capacity_factor * HOURS_PER_YEAR / 1000.0
    if not math.isfinite(generation):
        raise ModelError(f"the generation of {power_gw!r} GW is not finite")
    return generation


def power_required(generation_twh: float, capacity_factor: float) -> float:
    """Inverse of generation_capability: GW needed for a TWh/yr target."""
    _check_cf(capacity_factor)
    if not generation_twh >= 0:
        raise ModelError(f"generation must be >= 0, got {generation_twh!r}")
    return generation_twh * 1000.0 / (capacity_factor * HOURS_PER_YEAR)


def series_to_generation(series: CapacitySeries, capacity_factor: float) -> CapacitySeries:
    """Pointwise conversion of an installed-power series to an
    annual_generation series of the same technology."""
    return CapacitySeries(series.technology, "annual_generation", "TWh_per_year", series.years,
                          tuple(generation_capability(v, capacity_factor)
                                for v in series.values))
