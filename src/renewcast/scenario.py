"""Combined projections, demand-threshold crossings and generation mixes.

Crossing years are continuous roots of monotone projections, found by
bisection after a 0.1-year grid scan verifies monotonicity and brackets the
level; a projection that jumps over the level raises LevelNotMet. Sums of
exponentials have no general closed form; for a single exponential
component the bisection result matches the closed form to well under 1e-6
years (tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    EmptyCombination,
    LevelNotMet,
    NegativeDemand,
    NonMonotoneProjection,
    NotExponential,
    ParallelGrowth,
    YearBeforeWindow,
)
from .corpus import HOURS_PER_YEAR
from .genconvert import TechnologyProfile, generation_capability
from .growthfit import ExponentialFit, extrapolate

DEFAULT_HORIZON = 2050.0
GRID_STEP_YEARS = 0.1
YEAR_TOLERANCE = 1e-9           # bisection stops below this bracket width
LEVEL_TOLERANCE = 1e-6          # |projection - level| <= tol * level at root

ALREADY_SATISFIED = "already_satisfied"
CROSSED = "crossed"
NOT_REACHED = "not_reached"


@dataclass(frozen=True)
class DemandThreshold:
    """A named demand level."""

    name: str
    level_twh: float

    def __post_init__(self):
        if self.level_twh <= 0:
            raise NegativeDemand(f"threshold level must be > 0, got {self.level_twh!r}")


@dataclass(frozen=True)
class CrossingResult:
    threshold: str
    level_twh: float
    status: str                  # already_satisfied | crossed | not_reached
    year: float | None
    horizon: float


@dataclass(frozen=True)
class CombinedProjection:
    """Sum of per-technology generation extrapolations."""

    components: tuple[TechnologyProfile, ...]

    def __post_init__(self):
        if not self.components:
            raise EmptyCombination("a projection needs at least one component")

    @property
    def start_year(self) -> float:
        return max(p.model.window[0] for p in self.components)

    def component_values(self, year: float) -> list[tuple[str, float]]:
        if year < self.start_year:
            raise YearBeforeWindow(
                f"year {year:g} precedes projection start {self.start_year:g}"
            )
        return [
            (p.name, generation_capability(extrapolate(p.model, year),
                                           p.capacity_factor))
            for p in self.components
        ]

    def value(self, year: float) -> float:
        return sum(v for _, v in self.component_values(year))


def combine(profiles) -> CombinedProjection:
    return CombinedProjection(components=tuple(profiles))


def crossing_year(projection: CombinedProjection, threshold: DemandThreshold,
                  horizon: float = DEFAULT_HORIZON) -> CrossingResult:
    """First year the projection meets the threshold level, by bisection.

    The projection is sampled on a 0.1-year grid over [start, horizon] first;
    any decrease beyond float noise raises NonMonotoneProjection.
    """
    level = threshold.level_twh
    start = projection.start_year
    if horizon <= start:
        raise YearBeforeWindow(f"horizon {horizon:g} must exceed start {start:g}")

    n_steps = int(math.ceil((horizon - start) / GRID_STEP_YEARS))
    grid = [start + i * GRID_STEP_YEARS for i in range(n_steps)] + [horizon]
    values = [projection.value(t) for t in grid]
    for (t0, v0), (t1, v1) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if v1 < v0 - 1e-9 * max(1.0, abs(v0)):
            raise NonMonotoneProjection(
                f"projection decreases between {t0:g} ({v0:g}) and {t1:g} ({v1:g})"
            )

    if values[0] >= level:
        return CrossingResult(threshold.name, level, ALREADY_SATISFIED, start, horizon)
    if values[-1] < level:
        return CrossingResult(threshold.name, level, NOT_REACHED, None, horizon)

    hit = next(i for i, v in enumerate(values) if v >= level)
    lo, hi = grid[hit - 1], grid[hit]
    while hi - lo > YEAR_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if projection.value(mid) < level:
            lo = mid
        else:
            hi = mid
    year = 0.5 * (lo + hi)
    value = projection.value(year)
    if abs(value - level) > LEVEL_TOLERANCE * level:
        raise LevelNotMet(
            f"projection jumps past {level:g} at {year:g} (value {value:g}); "
            "the level is never met"
        )
    return CrossingResult(threshold.name, level, CROSSED, year, horizon)


@dataclass(frozen=True)
class MixEntry:
    technology: str
    generation_twh: float
    share_pct: float


def mix_at_year(projection: CombinedProjection, year: float) -> list[MixEntry]:
    """Per-technology generation and percentage shares at one year."""
    parts = projection.component_values(year)
    total = sum(v for _, v in parts)
    return [
        MixEntry(name, value, 100.0 * value / total)
        for name, value in parts
    ]


def pv_wind_generation_crossover(pv: TechnologyProfile,
                                 wind: TechnologyProfile) -> float:
    """Closed-form year where two exponential generation extrapolations meet.

    With ln generation a_i + b_i (t - t0_i) + ln(cf_i * 8.76) per technology,
    the intersection is linear in t; equal growth rates have none.
    """
    for p in (pv, wind):
        if not isinstance(p.model, ExponentialFit):
            raise NotExponential(
                f"{p.name}: crossover needs an exponential fit, got "
                f"{type(p.model).__name__}"
            )
    k = HOURS_PER_YEAR / 1000.0
    fp, fw = pv.model, wind.model
    cp = math.log(pv.capacity_factor * k) + fp.ln_intercept - fp.ln_slope * fp.reference_year
    cw = math.log(wind.capacity_factor * k) + fw.ln_intercept - fw.ln_slope * fw.reference_year
    if fp.ln_slope == fw.ln_slope:
        raise ParallelGrowth(
            f"{pv.name} and {wind.name} grow at the same rate "
            f"({fp.ln_slope!r}); no crossover"
        )
    return (cw - cp) / (fp.ln_slope - fw.ln_slope)
