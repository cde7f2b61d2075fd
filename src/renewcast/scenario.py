"""Combined projections, demand-threshold crossings and generation mixes.

crossing_year(projection, level, horizon) returns (status, year) for a level
in TWh/yr. The year is a continuous root, found by bisection from the
0.1-year lattice step whose upper end is the first lattice point at or above
the level. On a projection proven non-decreasing in closed form (growing
exponentials and polynomials of degree <= 2 with a non-negative derivative at
both ends) binary search finds that point; any other projection is sampled on
the whole lattice, which must not decrease. A projection that jumps over the
level raises ModelError. For a single exponential component the bisection
result matches the closed form to well under 1e-6 years (tested).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

from .config import MAX_HORIZON
from .errors import ModelError
from .corpus import HOURS_PER_YEAR
from .genconvert import TechnologyProfile
from .growthfit import ExponentialFit, PolynomialFit, check_fields

GRID_STEP_YEARS = 0.1
YEAR_TOLERANCE = 1e-9           # bisection stops below this bracket width
LEVEL_TOLERANCE = 1e-6          # |projection - level| <= tol * level at root

ALREADY_SATISFIED = "already_satisfied"
CROSSED = "crossed"
NOT_REACHED = "not_reached"


def plain_sum(values) -> float:
    """values added left to right, as builtins.sum adds floats before Python
    3.12; from 3.12 it compensates, which can change the last bit of a total
    and so the bytes of an artifact."""
    total = 0.0
    for v in values:
        total += v
    return total


class CombinedProjection:
    """Sum of per-technology generation extrapolations."""

    def __init__(self, components: tuple[TechnologyProfile, ...]):
        if not components:
            raise ModelError("a projection needs at least one component")
        self.components = components
        self.start_year = max(p.model.window[0] for p in components)

    def _generation(self, year: float) -> list[float]:
        """TWh/yr of each component, in component order."""
        if year < self.start_year:
            raise ModelError(
                f"year {year:g} precedes projection start {self.start_year:g}"
            )
        out = []
        for p in self.components:       # capacity factors were checked with each profile
            power = p.model.value_at(year)
            if power < 0:
                raise ModelError(f"{p.name} at {year:g}: installed power must be >= 0, "
                                 f"got {power!r}")
            out.append(power * p.capacity_factor * HOURS_PER_YEAR / 1000.0)
        return out

    def component_values(self, year: float) -> list[tuple[str, float]]:
        return [(p.name, v) for p, v in zip(self.components, self._generation(year))]

    def value(self, year: float) -> float:
        return plain_sum(self._generation(year))


def combine(profiles) -> CombinedProjection:
    """The projection of profiles, each of whose fits has finite fields."""
    profiles = tuple(profiles)
    for p in profiles:
        check_fields(p.model)
    return CombinedProjection(components=profiles)


def _non_decreasing(model, start: float, horizon: float) -> bool:
    """Whether model provably does not decrease on [start, horizon]."""
    if isinstance(model, ExponentialFit):
        return model.ln_slope >= 0
    if isinstance(model, PolynomialFit) and model.degree <= 2:
        _, c1, c2 = (*model.coefficients, 0.0, 0.0)[:3]   # c1 + 2 c2 x is smallest at an end
        return all(c1 + 2 * c2 * (t - model.reference_year) >= 0 for t in (start, horizon))
    return False


def crossing_year(projection: CombinedProjection, level: float,
                  horizon: float) -> tuple[str, float | None]:
    """(status, year): the first year the projection meets level TWh/yr, by
    bisection. status is ALREADY_SATISFIED (year is the projection start),
    CROSSED or NOT_REACHED (year is None).

    Lattice point i < n is start + i * GRID_STEP_YEARS and point n is the
    horizon, n = ceil((horizon - start) / GRID_STEP_YEARS). A sampled lattice
    that decreases beyond float noise raises ModelError.
    """
    if not level > 0:
        raise ModelError(f"threshold level must be > 0, got {level!r}")
    start = projection.start_year
    if not (start < horizon <= MAX_HORIZON):
        raise ModelError(f"horizon {horizon!r} must be in ({start:g}, {MAX_HORIZON:g}]")
    n = int(math.ceil((horizon - start) / GRID_STEP_YEARS))

    def year_of(i):
        return horizon if i == n else start + i * GRID_STEP_YEARS

    proven = all(_non_decreasing(p.model, start, horizon) for p in projection.components)
    if proven:
        values = {0: projection.value(start), n: projection.value(horizon)}   # the ends only
    else:
        values = [projection.value(year_of(i)) for i in range(n + 1)]
        for i, (v0, v1) in enumerate(zip(values, values[1:])):
            if v1 < v0 - 1e-9 * max(1.0, abs(v0)):
                raise ModelError(f"projection decreases between {year_of(i):g} "
                                 f"({v0:g}) and {year_of(i + 1):g} ({v1:g})")
    if values[0] >= level:
        return ALREADY_SATISFIED, start
    if values[n] < level:
        return NOT_REACHED, None

    if proven:
        hit = bisect_left(range(n), True, 1, n,
                          key=lambda i: projection.value(year_of(i)) >= level)
    else:
        # no lattice value meets the level only when values[n] is nan
        hit = next((i for i, v in enumerate(values) if v >= level), n)
    lo, hi = year_of(hit - 1), year_of(hit)
    while hi - lo > YEAR_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if projection.value(mid) < level:
            lo = mid
        else:
            hi = mid
    year = 0.5 * (lo + hi)
    value = projection.value(year)
    if not math.isfinite(value):
        raise ModelError(f"the projection is not finite ({value!r} at {year:g})")
    if abs(value - level) > LEVEL_TOLERANCE * level:
        raise ModelError(
            f"projection jumps past {level:g} at {year:g} (value {value:g}); "
            "the level is never met"
        )
    return CROSSED, year


class MixEntry(NamedTuple):
    technology: str
    generation_twh_per_year: float
    share_pct: float


def mix_at_year(projection: CombinedProjection, year: float) -> list[MixEntry]:
    """Per-technology generation and percentage shares at one year."""
    parts = projection.component_values(year)
    total = plain_sum(v for _, v in parts)
    if not 0.0 < total < math.inf:
        raise ModelError(f"total generation at {year:g} is {total!r} TWh/yr; "
                         "the shares are not finite")
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
        check_fields(p.model)
        if not isinstance(p.model, ExponentialFit):
            raise ModelError(
                f"{p.name}: crossover needs an exponential fit, got "
                f"{type(p.model).__name__}"
            )
    k = HOURS_PER_YEAR / 1000.0
    fp, fw = pv.model, wind.model
    cp = math.log(pv.capacity_factor * k) + fp.ln_intercept - fp.ln_slope * fp.reference_year
    cw = math.log(wind.capacity_factor * k) + fw.ln_intercept - fw.ln_slope * fw.reference_year
    if fp.ln_slope == fw.ln_slope:
        raise ModelError(
            f"{pv.name} and {wind.name} grow at the same rate "
            f"({fp.ln_slope!r}); no crossover"
        )
    return (cw - cp) / (fp.ln_slope - fw.ln_slope)
