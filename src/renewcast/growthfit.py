"""Exponential, polynomial and two-segment piecewise-exponential fits.

The evidentiary device throughout is the straight line in log scale, so
exponential fits are ordinary least squares on (year, ln value) rather than
nonlinear least squares on the raw values; the two estimators differ under
noise and the log-space one is the contract here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import CapacitySeries
from .errors import (
    DegreeZero,
    NonGrowingSeries,
    NonPositiveValue,
    TooFewPoints,
    YearBeforeWindow,
)

# Extrapolations further than this past the fit window are still computed
# but flagged.
HORIZON_WARNING_YEARS = 15.0


class ExtrapolatedValue(float):
    """Float carrying the horizon_warning flag for far extrapolations."""

    horizon_warning: bool = False

    def __new__(cls, value, horizon_warning=False):
        obj = super().__new__(cls, value)
        obj.horizon_warning = horizon_warning
        return obj


@dataclass(frozen=True)
class ExponentialFit:
    """value(t) = exp(ln_intercept + ln_slope * (t - reference_year))."""

    reference_year: float
    ln_intercept: float
    ln_slope: float
    r_squared_logspace: float
    rmse_logspace: float
    window: tuple[float, float]

    def value_at(self, year: float) -> float:
        return math.exp(self.ln_intercept + self.ln_slope * (year - self.reference_year))


@dataclass(frozen=True)
class PolynomialFit:
    """value(t) = sum_i coefficients[i] * (t - reference_year)**i."""

    reference_year: float
    coefficients: tuple[float, ...]
    degree: int
    rmse: float
    window: tuple[float, float]

    def value_at(self, year: float) -> float:
        x = year - self.reference_year
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class PiecewiseExponentialFit:
    """Two log-space segments split at changepoint_year (first right-segment year)."""

    changepoint_year: float
    left: ExponentialFit
    right: ExponentialFit
    sse_piecewise: float
    sse_single: float
    improvement_ratio: float
    window: tuple[float, float]

    def value_at(self, year: float) -> float:
        seg = self.left if year < self.changepoint_year else self.right
        return seg.value_at(year)


def _windowed(series: CapacitySeries, window):
    if window is None:
        return series.samples
    lo, hi = window
    picked = tuple(
        s for s in series.samples
        if (lo is None or s[0] >= lo) and (hi is None or s[0] <= hi)
    )
    return picked


def ols(x: np.ndarray, y: np.ndarray):
    """Centred least-squares line through (x, y).

    Returns (slope, mean x, mean y, sse, sst); the line is
    mean_y + slope * (x - mean_x).
    """
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    denom = float((dx * dx).sum())
    slope = float((dx * (y - ym)).sum() / denom)
    resid = y - (ym + slope * dx)
    sse = float((resid * resid).sum())
    sst = float(((y - ym) ** 2).sum())
    return slope, xm, ym, sse, sst


def r_squared(sse: float, sst: float) -> float:
    # Zero variance input: 1 when the residuals vanish too, else 0.
    if sst == 0.0:
        return 1.0 if sse == 0.0 else 0.0
    return 1.0 - sse / sst


def fit_exponential(series: CapacitySeries, window=None) -> ExponentialFit:
    """Least-squares straight line through (year, ln value).

    Deterministic: identical input yields a bit-identical fit.
    """
    samples = _windowed(series, window)
    if len(samples) < 2:
        raise TooFewPoints(
            f"{series.technology}: exponential fit needs >= 2 points, "
            f"got {len(samples)}"
        )
    for y, v in samples:
        if v <= 0:
            raise NonPositiveValue(
                f"{series.technology}: value {v!r} at {y:g} not log-fittable"
            )
    t = np.array([s[0] for s in samples], dtype=float)
    lnv = np.log([s[1] for s in samples])
    slope, tm, ym, sse, sst = ols(t, lnv)
    return ExponentialFit(
        reference_year=float(t[0]),
        ln_intercept=float(ym + slope * (t[0] - tm)),
        ln_slope=slope,
        r_squared_logspace=r_squared(sse, sst),
        rmse_logspace=math.sqrt(sse / len(samples)),
        window=(float(t[0]), float(t[-1])),
    )


def fit_polynomial(series: CapacitySeries, degree: int, window=None) -> PolynomialFit:
    """Least-squares polynomial in (year - first window year) of the raw values."""
    if degree < 1:
        raise DegreeZero(f"polynomial degree must be >= 1, got {degree}")
    samples = _windowed(series, window)
    if len(samples) < degree + 1:
        raise TooFewPoints(
            f"{series.technology}: degree-{degree} fit needs >= {degree + 1} "
            f"points, got {len(samples)}"
        )
    t = np.array([s[0] for s in samples], dtype=float)
    v = np.array([s[1] for s in samples], dtype=float)
    x = t - t[0]
    coeffs = np.polynomial.polynomial.polyfit(x, v, degree)
    resid = v - np.polynomial.polynomial.polyval(x, coeffs)
    return PolynomialFit(
        reference_year=float(t[0]),
        coefficients=tuple(float(c) for c in coeffs),
        degree=degree,
        rmse=math.sqrt(float((resid * resid).sum()) / len(samples)),
        window=(float(t[0]), float(t[-1])),
    )


def detect_changepoint(series: CapacitySeries, min_segment: int = 3,
                       window=None) -> PiecewiseExponentialFit:
    """Exhaustive scan for the split minimising total log-space SSE.

    Candidate changepoints are the sample years; each side gets its own
    log-space line and needs at least min_segment points. The caller judges
    significance from improvement_ratio against a configured threshold.
    """
    if min_segment < 2:
        raise TooFewPoints("min_segment must be >= 2 so each side is fittable")
    samples = _windowed(series, window)
    n = len(samples)
    if n < 2 * min_segment:
        raise TooFewPoints(
            f"{series.technology}: changepoint scan needs >= {2 * min_segment} "
            f"points, got {n}"
        )
    for y, v in samples:
        if v <= 0:
            raise NonPositiveValue(
                f"{series.technology}: value {v!r} at {y:g} not log-fittable"
            )
    t = np.array([s[0] for s in samples], dtype=float)
    lnv = np.log([s[1] for s in samples])

    sse_single = ols(t, lnv)[3]

    best_k = None
    best_sse = math.inf
    for k in range(min_segment, n - min_segment + 1):
        total = ols(t[:k], lnv[:k])[3] + ols(t[k:], lnv[k:])[3]
        if total < best_sse:
            best_sse = total
            best_k = k

    # SSEs at float-noise level are exactly-zero fits in disguise; clamping
    # keeps sse_piecewise <= sse_single and improvement_ratio meaningful for
    # noiselessly exponential inputs.
    noise_floor = n * (1e-12 * max(1.0, float(np.abs(lnv).max()))) ** 2
    if sse_single <= noise_floor:
        sse_single = 0.0
    if best_sse <= noise_floor:
        best_sse = 0.0

    sub = CapacitySeries(
        technology=series.technology,
        quantity_kind=series.quantity_kind,
        unit=series.unit,
        samples=tuple(samples),
        provenance=series.provenance,
    )
    left = fit_exponential(sub, window=(t[0], t[best_k - 1]))
    right = fit_exponential(sub, window=(t[best_k], t[-1]))
    improvement = 0.0 if sse_single == 0.0 else 1.0 - best_sse / sse_single
    return PiecewiseExponentialFit(
        changepoint_year=float(t[best_k]),
        left=left,
        right=right,
        sse_piecewise=best_sse,
        sse_single=sse_single,
        improvement_ratio=improvement,
        window=(float(t[0]), float(t[-1])),
    )


def extrapolate(model, year: float) -> ExtrapolatedValue:
    """Closed-form model evaluation at any year >= window start.

    The returned float carries horizon_warning=True when the year exceeds
    the window end by more than HORIZON_WARNING_YEARS.
    """
    lo, hi = model.window
    if year < lo:
        raise YearBeforeWindow(
            f"year {year:g} precedes fit window start {lo:g}"
        )
    return ExtrapolatedValue(
        model.value_at(year),
        horizon_warning=(year > hi + HORIZON_WARNING_YEARS),
    )


def doubling_time(fit: ExponentialFit) -> float:
    """Years for the fitted quantity to double: ln 2 / ln_slope."""
    if fit.ln_slope <= 0:
        raise NonGrowingSeries(
            f"doubling time undefined for ln_slope {fit.ln_slope!r} <= 0"
        )
    return math.log(2.0) / fit.ln_slope


def residual_signs(series: CapacitySeries, fit: ExponentialFit) -> str:
    """Log-space residual sign pattern over the fit window ('+', '-', '0').

    A run of same-sign residuals at the edges is the symptom of curvature a
    single exponential cannot express; the report surfaces the pattern
    instead of modelling it.
    """
    out = []
    for y, v in series.samples:
        if fit.window[0] <= y <= fit.window[1]:
            r = math.log(v) - (fit.ln_intercept + fit.ln_slope * (y - fit.reference_year))
            out.append("0" if r == 0 else ("+" if r > 0 else "-"))
    return "".join(out)
