"""Combined projections, demand-threshold crossings and generation mixes.

Crossing years are continuous roots of monotone projections, found by
bisection after a 0.1-year grid scan verifies monotonicity and brackets the
level; a projection that jumps over the level raises LevelNotMet. Each
projection samples its grid once per horizon, on the first crossing asked of
it, and every later threshold brackets its level from that same grid. Sums
of exponentials have no general closed form; for a single exponential
component the bisection result matches the closed form to well under 1e-6
years (tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    EmptyCombination,
    LevelNotMet,
    NegativeDemand,
    NegativePower,
    NonMonotoneProjection,
    NotExponential,
    ParallelGrowth,
    YearBeforeWindow,
)
from .corpus import HOURS_PER_YEAR
from .genconvert import TechnologyProfile
from .growthfit import ExponentialFit

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
    start_year: float = field(init=False)
    # (name, model.value_at, capacity factor) per component
    _terms: tuple = field(init=False, repr=False, compare=False)
    # horizon -> values sampled on the crossing grid, kept once they pass
    # the sign and monotonicity checks
    _grids: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.components:
            raise EmptyCombination("a projection needs at least one component")
        # the capacity factors were validated when each profile was made
        object.__setattr__(self, "start_year",
                           max(p.model.window[0] for p in self.components))
        object.__setattr__(self, "_terms", tuple(
            (p.name, p.model.value_at, p.capacity_factor) for p in self.components))
        object.__setattr__(self, "_grids", {})

    def _generation(self, year: float) -> list[float]:
        """TWh/yr of each component, in component order."""
        if year < self.start_year:
            raise YearBeforeWindow(
                f"year {year:g} precedes projection start {self.start_year:g}"
            )
        out = []
        for _, value_at, cf in self._terms:
            power = value_at(year)
            if power < 0:
                raise NegativePower(f"installed power must be >= 0, got {power!r}")
            out.append(power * cf * HOURS_PER_YEAR / 1000.0)
        return out

    def component_values(self, year: float) -> list[tuple[str, float]]:
        return [(term[0], v) for term, v in zip(self._terms, self._generation(year))]

    def value(self, year: float) -> float:
        return sum(self._generation(year))

    def grid_values(self, horizon: float) -> list[float]:
        """Values at start + i * GRID_STEP_YEARS (i < n) and at horizon, where
        n = ceil((horizon - start) / GRID_STEP_YEARS); sampled on the first
        call for a horizon. Any decrease beyond float noise raises
        NonMonotoneProjection."""
        values = self._grids.get(horizon)
        if values is not None:
            return values
        start = self.start_year
        n_steps = int(math.ceil((horizon - start) / GRID_STEP_YEARS))
        values = [self.value(start + i * GRID_STEP_YEARS) for i in range(n_steps)]
        values.append(self.value(horizon))
        for i, (v0, v1) in enumerate(zip(values, values[1:])):
            if v1 < v0 - 1e-9 * max(1.0, abs(v0)):
                t0 = start + i * GRID_STEP_YEARS
                t1 = horizon if i + 1 == n_steps else start + (i + 1) * GRID_STEP_YEARS
                raise NonMonotoneProjection(
                    f"projection decreases between {t0:g} ({v0:g}) and {t1:g} ({v1:g})"
                )
        self._grids[horizon] = values
        return values


def combine(profiles) -> CombinedProjection:
    return CombinedProjection(components=tuple(profiles))


def crossing_year(projection: CombinedProjection, threshold: DemandThreshold,
                  horizon: float = DEFAULT_HORIZON) -> CrossingResult:
    """First year the projection meets the threshold level, by bisection.

    The level is bracketed on the projection's 0.1-year grid over
    [start, horizon] (see CombinedProjection.grid_values).
    """
    level = threshold.level_twh
    start = projection.start_year
    if horizon <= start:
        raise YearBeforeWindow(f"horizon {horizon:g} must exceed start {start:g}")

    values = projection.grid_values(horizon)
    if values[0] >= level:
        return CrossingResult(threshold.name, level, ALREADY_SATISFIED, start, horizon)
    if values[-1] < level:
        return CrossingResult(threshold.name, level, NOT_REACHED, None, horizon)

    hit = next(i for i, v in enumerate(values) if v >= level)
    lo = start + (hit - 1) * GRID_STEP_YEARS
    hi = horizon if hit == len(values) - 1 else start + hit * GRID_STEP_YEARS
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
