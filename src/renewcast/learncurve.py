"""Time-domain cost decay and capacity-domain learning curves.

A learning curve is a straight line in bi-logarithmic axes: log10 cost =
intercept + slope * log10 x, with x the cumulative generation capability.
The slope is a dimensionless elasticity, identical in any log base, so the
per-doubling learning rate is 1 - 2**slope. The join from cost years to
capability x-values reuses the capacity series and capacity factor of the
same technology.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .corpus import CapacitySeries
from .errors import (
    CrossingOutOfRange,
    FitOutOfRange,
    MissingYear,
    NonPositiveValue,
    NonPositiveX,
    ParallelLines,
    PositiveSlope,
    TooFewPoints,
    UnitMismatch,
)
from .genconvert import generation_capability
from .growthfit import ols, r_squared

X_YEAR = "year"
X_GENERATION = "cumulative_generation"


class CostSeries:
    """(x, cost) samples; x_kind is X_YEAR or X_GENERATION."""

    def __init__(self, technology: str, x_kind: str,
                 samples: tuple[tuple[float, float], ...], cost_unit: str):
        if x_kind not in (X_YEAR, X_GENERATION):
            raise UnitMismatch(f"unknown x_kind {x_kind!r}")
        for x, c in samples:
            if c <= 0:
                raise NonPositiveValue(f"{technology}: cost {c!r} at x={x:g} must be > 0")
        self.technology = technology
        self.x_kind = x_kind
        self.samples = samples
        self.cost_unit = cost_unit

    @property
    def x_range(self) -> tuple[float, float]:
        return self.samples[0][0], self.samples[-1][0]


def cost_series(capacity_series: CapacitySeries) -> CostSeries:
    """View a loaded unit_cost series as a year-indexed CostSeries."""
    if capacity_series.quantity_kind != "unit_cost":
        raise UnitMismatch(
            f"{capacity_series.technology}: expected a unit_cost series, got "
            f"{capacity_series.quantity_kind!r}"
        )
    return CostSeries(
        technology=capacity_series.technology,
        x_kind=X_YEAR,
        samples=capacity_series.samples,
        cost_unit=capacity_series.unit,
    )


def join_cost_to_generation(cost: CostSeries, capacity: CapacitySeries,
                            capacity_factor: float) -> CostSeries:
    """Re-index a year-indexed cost series by generation capability.

    Every cost year must have a capacity sample; the x-value is the
    capability of the capacity installed by that year.
    """
    if cost.x_kind != X_YEAR:
        raise UnitMismatch("join expects a year-indexed cost series")
    joined = []
    for year, c in cost.samples:
        try:
            installed = capacity.value_at(year)
        except KeyError:
            raise MissingYear(
                f"{cost.technology}: no {capacity.technology} capacity sample "
                f"for cost year {year:g}"
            ) from None
        joined.append((generation_capability(installed, capacity_factor), c))
    joined.sort(key=lambda s: s[0])
    return CostSeries(
        technology=cost.technology,
        x_kind=X_GENERATION,
        samples=tuple(joined),
        cost_unit=cost.cost_unit,
    )


class LearningCurveFit(NamedTuple):
    """log10 cost(x) = log10_intercept + log10_slope * log10 x."""

    technology: str
    log10_intercept: float
    log10_slope: float
    r_squared: float
    rmse_log10: float
    x_range: tuple[float, float]
    cost_unit: str

    def cost_at(self, x: float) -> float:
        try:
            return 10.0 ** (self.log10_intercept + self.log10_slope * math.log10(x))
        except OverflowError:
            raise FitOutOfRange(f"the {self.technology} learning curve overflows at x = "
                                f"{x:g}") from None


class TimeDecayFit(NamedTuple):
    """cost(t) = cost0 * decay ** (t - reference_year)."""

    technology: str
    reference_year: float
    cost0: float
    decay: float                 # annual factor, in (0, inf)
    r_squared: float
    window: tuple[float, float]
    cost_unit: str

    def cost_at_year(self, year: float) -> float:
        try:
            cost = self.cost0 * self.decay ** (year - self.reference_year)
        except OverflowError:
            cost = math.inf
        if 0.0 < cost < math.inf:
            return cost
        raise FitOutOfRange(f"{self.technology} cost decay at {year:g} leaves the float range")


def fit_learning_curve(series: CostSeries) -> LearningCurveFit:
    """Least squares on (log10 x, log10 cost) of a capability-indexed series."""
    if series.x_kind != X_GENERATION:
        raise UnitMismatch(
            "learning curves need x_kind=cumulative_generation; "
            "join_cost_to_generation builds one"
        )
    if len(series.samples) < 2:
        raise TooFewPoints("learning-curve fit needs >= 2 samples")
    for x, _ in series.samples:
        if x <= 0:
            raise NonPositiveValue(f"x value {x!r} must be > 0")
    lx = [math.log10(s[0]) for s in series.samples]
    lc = [math.log10(s[1]) for s in series.samples]
    slope, xm, ym, sse, sst = ols(lx, lc)
    return LearningCurveFit(
        technology=series.technology,
        log10_intercept=ym - slope * xm,
        log10_slope=slope,
        r_squared=r_squared(sse, sst),
        rmse_log10=math.sqrt(sse / len(series.samples)),
        x_range=series.x_range,
        cost_unit=series.cost_unit,
    )


def learning_rate(fit: LearningCurveFit) -> float:
    """Fractional cost decline per doubling of cumulative quantity: 1 - 2**slope."""
    if fit.log10_slope > 0:
        raise PositiveSlope(
            f"{fit.technology}: cost rises with scale (slope "
            f"{fit.log10_slope!r}); learning rate undefined"
        )
    return 1.0 - 2.0 ** fit.log10_slope


def cost_at(fit: LearningCurveFit, x: float) -> float:
    """Model cost at cumulative generation x > 0."""
    if x <= 0:
        raise NonPositiveX(f"cumulative generation must be > 0, got {x!r}")
    return fit.cost_at(x)


def curve_crossing(a: LearningCurveFit, b: LearningCurveFit) -> tuple[float, float]:
    """Intersection of two bi-log lines: (x, cost) where the curves meet."""
    if a.log10_slope == b.log10_slope:
        raise ParallelLines(
            f"slopes are equal ({a.log10_slope!r}); the lines never cross"
        )
    log_x = (b.log10_intercept - a.log10_intercept) / (a.log10_slope - b.log10_slope)
    try:
        x = 10.0 ** log_x
        cost = a.cost_at(x)     # ValueError from log10 when x underflowed to 0
    except (OverflowError, ValueError, FitOutOfRange):
        cost = 0.0
    if cost == 0.0:             # 0.0 also when the cost itself underflowed
        raise CrossingOutOfRange(f"the lines meet at x = 10**{log_x:g}, where x or "
                                 "the cost leaves the float range")
    return x, cost


def fit_time_decay(series: CostSeries) -> TimeDecayFit:
    """Log-space least squares of cost against calendar year."""
    if series.x_kind != X_YEAR:
        raise UnitMismatch("time decay needs a year-indexed cost series")
    if len(series.samples) < 2:
        raise TooFewPoints("time-decay fit needs >= 2 samples")
    t = [float(s[0]) for s in series.samples]
    lnc = [math.log(s[1]) for s in series.samples]
    slope, tm, ym, sse, sst = ols(t, lnc)
    try:
        cost0, decay = math.exp(ym + slope * (t[0] - tm)), math.exp(slope)
        decay ** 10             # the report prints the decline over a decade
    except OverflowError:
        raise FitOutOfRange(f"{series.technology}: the decay fit overflows") from None
    return TimeDecayFit(
        technology=series.technology,
        reference_year=t[0],
        cost0=cost0,
        decay=decay,
        r_squared=r_squared(sse, sst),
        window=(t[0], t[-1]),
        cost_unit=series.cost_unit,
    )
