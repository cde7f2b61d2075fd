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
from .errors import DataError, ModelError
from .genconvert import generation_capability
from .growthfit import _exponential, _log_line, check_fields, ols, r_squared


class CostSeries(NamedTuple):
    """Costs indexed by cumulative generation capability x (TWh/yr), x
    ascending: the input of a learning-curve fit."""

    technology: str
    x: tuple[float, ...]
    costs: tuple[float, ...]
    cost_unit: str

    @property
    def x_range(self) -> tuple[float, float]:
        return self.x[0], self.x[-1]


def cost_series(series: CapacitySeries) -> CapacitySeries:
    """The series itself, once checked to be a year-indexed unit_cost series of finite samples."""
    kind = getattr(series, "quantity_kind", None)
    if kind != "unit_cost":
        raise DataError(f"{series.technology}: expected a unit_cost series, got {kind!r}")
    for y, v in zip(series.years, series.values):
        if not (math.isfinite(y) and math.isfinite(v)):
            raise DataError(f"series {series.technology!r}: non-finite sample ({y!r}, {v!r})")
    return series


def join_cost_to_generation(cost: CapacitySeries, capacity: CapacitySeries,
                            capacity_factor: float) -> CostSeries:
    """Re-index a unit_cost series by generation capability.

    Every cost year must have a capacity sample; the x-value is the
    capability of the capacity installed by that year.
    """
    cost = cost_series(cost)
    x = []
    for year in cost.years:
        try:
            installed = capacity.value_at(year)
        except KeyError:
            raise DataError(
                f"{cost.technology}: no {capacity.technology} capacity sample "
                f"for cost year {year:g}"
            ) from None
        x.append(generation_capability(installed, capacity_factor))
    order = sorted(range(len(x)), key=x.__getitem__)
    return CostSeries(cost.technology, tuple(x[i] for i in order),
                      tuple(cost.values[i] for i in order), cost.unit)


class LearningCurveFit(NamedTuple):
    """log10 cost(x) = log10_intercept + log10_slope * log10 x."""

    technology: str
    log10_intercept: float
    log10_slope: float
    r_squared: float
    x_range: tuple[float, float]
    cost_unit: str

    def cost_at(self, x: float) -> float:
        if not x > 0:
            raise ModelError(f"cumulative generation must be > 0, got {x!r}")
        try:
            cost = 10.0 ** (self.log10_intercept + self.log10_slope * math.log10(x))
        except OverflowError:
            cost = math.inf
        if not cost < math.inf:
            raise ModelError(f"the {self.technology} learning curve overflows at x = {x:g}")
        return cost


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
        raise ModelError(f"{self.technology} cost decay at {year:g} leaves the float range")


def fit_learning_curve(series: CostSeries) -> LearningCurveFit:
    """Least squares on (log10 x, log10 cost) of a capability-indexed series."""
    if not isinstance(series, CostSeries):
        raise DataError("learning curves need a generation-indexed CostSeries; "
                        "join_cost_to_generation builds one")
    if len(series.x) != len(series.costs):
        raise DataError(f"{series.technology}: {len(series.x)} x values but "
                        f"{len(series.costs)} costs")
    if len(series.x) < 2:
        raise ModelError(f"{series.technology}: learning-curve fit needs >= 2 samples")
    for x, c in zip(series.x, series.costs):
        if not (0 < x < math.inf and 0 < c < math.inf):
            raise DataError(f"{series.technology}: x {x!r} and cost {c!r} "
                            "must be finite and > 0")
    lx = list(map(math.log10, series.x))
    lc = list(map(math.log10, series.costs))
    slope, xm, ym, sse, sst = ols(lx, lc)
    return LearningCurveFit(
        technology=series.technology,
        log10_intercept=ym - slope * xm,
        log10_slope=slope,
        r_squared=r_squared(sse, sst),
        x_range=series.x_range,
        cost_unit=series.cost_unit,
    )


def learning_rate(fit: LearningCurveFit) -> float:
    """Fractional cost decline per doubling of cumulative quantity: 1 - 2**slope."""
    check_fields(fit)
    if fit.log10_slope > 0:
        raise ModelError(
            f"{fit.technology}: cost rises with scale (slope "
            f"{fit.log10_slope!r}); learning rate undefined"
        )
    return 1.0 - 2.0 ** fit.log10_slope


def cost_at(fit: LearningCurveFit, x: float) -> float:
    """Model cost at cumulative generation x > 0."""
    check_fields(fit)
    return fit.cost_at(x)


def curve_crossing(a: LearningCurveFit, b: LearningCurveFit) -> tuple[float, float]:
    """Intersection of two bi-log lines: (x, cost) where the curves meet."""
    check_fields(a)
    check_fields(b)
    if a.log10_slope == b.log10_slope:
        raise ModelError(
            f"slopes are equal ({a.log10_slope!r}); the lines never cross"
        )
    log_x = (b.log10_intercept - a.log10_intercept) / (a.log10_slope - b.log10_slope)
    try:
        x = 10.0 ** log_x
        cost = a.cost_at(x)     # ModelError when x underflowed to 0
    except (OverflowError, ModelError):
        cost = 0.0
    if cost == 0.0:             # 0.0 also when the cost itself underflowed
        raise ModelError(f"the lines meet at x = 10**{log_x:g}, where x or "
                         "the cost leaves the float range")
    return x, cost


def fit_time_decay(series: CapacitySeries) -> TimeDecayFit:
    """The exponential fit of a unit_cost series against calendar year, read
    as a cost at its first year and an annual factor."""
    series = cost_series(series)
    if len(series.years) < 2:
        raise ModelError(f"{series.technology}: time-decay fit needs >= 2 samples")
    years, values = series.years, series.values
    fit = _exponential(years, _log_line(series.technology, years, values)[1])
    try:
        cost0, decay = math.exp(fit.ln_intercept), math.exp(fit.ln_slope)
        decay ** 10             # the report prints the decline over a decade
    except OverflowError:
        raise ModelError(f"{series.technology}: the decay fit overflows") from None
    return TimeDecayFit(series.technology, fit.reference_year, cost0, decay,
                        fit.r_squared_logspace, fit.window, series.unit)
