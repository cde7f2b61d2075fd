"""Exponential, polynomial and two-segment piecewise-exponential fits.

The evidentiary device throughout is the straight line in log scale, so
exponential fits are ordinary least squares on (year, ln value) rather than
nonlinear least squares on the raw values; the two estimators differ under
noise and the log-space one is the contract here.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import accumulate
from math import fsum
from operator import mul, sub, truediv
from typing import NamedTuple

from .corpus import CapacitySeries
from .errors import (
    DegreeZero,
    FitOutOfRange,
    NonGrowingSeries,
    NonPositiveValue,
    TooFewPoints,
    YearBeforeWindow,
)

# Extrapolations further than this past the fit window are still computed
# but flagged (past_horizon).
HORIZON_WARNING_YEARS = 15.0


class ExponentialFit(NamedTuple):
    """value(t) = exp(ln_intercept + ln_slope * (t - reference_year))."""

    reference_year: float
    ln_intercept: float
    ln_slope: float
    r_squared_logspace: float
    rmse_logspace: float
    window: tuple[float, float]

    def value_at(self, year: float) -> float:
        try:
            return math.exp(self.ln_intercept + self.ln_slope * (year - self.reference_year))
        except OverflowError:
            raise FitOutOfRange(f"the fit at {year:g} exceeds the float range") from None

    def year_at(self, value: float) -> float:
        """Inverse of value_at: the year the fit reaches value."""
        return (math.log(value) - self.ln_intercept) / self.ln_slope + self.reference_year


class PolynomialFit(NamedTuple):
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


class PiecewiseExponentialFit(NamedTuple):
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
    lo = -math.inf if lo is None else lo
    hi = math.inf if hi is None else hi
    return tuple([s for s in series.samples if lo <= s[0] <= hi])


def ols(x, y):
    """Centred least-squares line through the points (x, y).

    Returns (slope, mean x, mean y, sse, sst); the line is
    mean_y + slope * (x - mean_x). Every sum is math.fsum, so each is
    exactly rounded whatever its length or order. TooFewPoints when x
    holds fewer than two distinct values, FitOutOfRange when a sum
    overflows.
    """
    n = len(x)
    try:
        xm = fsum(x) / n
        ym = fsum(y) / n
        dx = [v - xm for v in x]
        dy = [v - ym for v in y]
        denom = fsum(map(mul, dx, dx))
        if denom == 0.0:
            raise TooFewPoints("a least-squares line needs >= 2 distinct x values")
        slope = fsum(map(mul, dx, dy)) / denom
        resid = [v - (ym + slope * d) for d, v in zip(dx, y)]
        line = slope, xm, ym, fsum(map(mul, resid, resid)), fsum(map(mul, dy, dy))
        finite = all(map(math.isfinite, (denom, *line)))
    except (OverflowError, ValueError):     # fsum past the float range, or inf - inf
        finite = False
    if not finite:
        raise FitOutOfRange("a least-squares line overflows the float range")
    return line


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
    years, _, line = _log_line(series.technology, samples)
    return _exponential(years, line)


def _exponential(years, line) -> ExponentialFit:
    """The ExponentialFit of an ols line through (years, ln value)."""
    slope, tm, ym, sse, sst = line
    return ExponentialFit(
        reference_year=years[0],
        ln_intercept=ym + slope * (years[0] - tm),
        ln_slope=slope,
        r_squared_logspace=r_squared(sse, sst),
        rmse_logspace=math.sqrt(sse / len(years)),
        window=(years[0], years[-1]),
    )


def _log_line(technology: str, samples):
    """(years, ln values, ols line) of windowed samples, all > 0."""
    years = [s[0] for s in samples]
    values = [s[1] for s in samples]
    if min(values) <= 0:
        y, v = next(s for s in samples if s[1] <= 0)
        raise NonPositiveValue(f"{technology}: value {v!r} at {y:g} not log-fittable")
    lnv = list(map(math.log, values))
    return years, lnv, ols(years, lnv)


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
    t0 = samples[0][0]
    x = [s[0] - t0 for s in samples]
    v = [s[1] for s in samples]
    try:
        coeffs = _polyfit(x, v, degree)
        fitted = [0.0] * len(x)
        for c in reversed(coeffs):          # value_at's Horner steps, column-wise
            fitted = [f * xi + c for f, xi in zip(fitted, x)]
        resid = list(map(sub, v, fitted))
        rmse = math.sqrt(fsum(map(mul, resid, resid)) / len(samples))
        finite = all(map(math.isfinite, (*coeffs, rmse)))
    except (OverflowError, ValueError):     # fsum past the float range, or inf - inf
        finite = False
    if not finite:
        raise FitOutOfRange(f"{series.technology}: degree-{degree} fit overflows "
                            f"the float range")
    return PolynomialFit(
        reference_year=t0,
        coefficients=coeffs,
        degree=degree,
        rmse=rmse,
        window=(t0, samples[-1][0]),
    )


def _polyfit(x: list, v: list, degree: int) -> tuple:
    """Coefficients, lowest power first, of the least-squares polynomial.

    Householder QR of the Vandermonde matrix (Golub & Van Loan, Matrix
    Computations, 5.3), each reflection applied to a column's tail as one
    exactly rounded dot product and one list comprehension. numpy's polyfit
    scales the columns for its SVD cut-off; Householder QR's solution does
    not depend on column scaling (Higham, Accuracy and Stability of
    Numerical Algorithms, 19.4), so none is done.
    """
    cols = [[1.0] * len(x)]
    for _ in range(degree):
        cols.append(list(map(mul, cols[-1], x)))
    rhs = list(v)
    diag = []
    for j, col in enumerate(cols):
        # reflect head onto alpha * e1, alpha = -sign(h0) |head|: the vector
        # head - alpha * e1 has no cancellation and half_vv = |v|**2 / 2
        head = col[j:]
        h0 = head[0]
        norm = math.sqrt(fsum(map(mul, head, head)))
        if norm == 0.0:
            raise TooFewPoints(f"degree-{degree} fit needs >= {degree + 1} distinct years")
        alpha = -norm if h0 >= 0.0 else norm
        head[0] = h0 - alpha
        half_vv = norm * (norm + abs(h0))
        for other in (*cols[j + 1:], rhs):
            tail = other[j:]
            f = fsum(map(mul, head, tail)) / half_vv
            other[j:] = [a - f * h for a, h in zip(tail, head)]
        diag.append(alpha)
    # back substitution in R, whose row i holds diag[i] and cols[k][i], k > i
    coeffs = [0.0] * len(cols)
    for i in reversed(range(len(cols))):
        dot = fsum(cols[k][i] * coeffs[k] for k in range(i + 1, len(cols)))
        coeffs[i] = (rhs[i] - dot) / diag[i]
    return tuple(coeffs)


def detect_changepoint(series: CapacitySeries, min_segment: int = 3,
                       window=None) -> PiecewiseExponentialFit:
    """Split minimising the total log-space SSE of two straight lines.

    Candidate changepoints are the sample years; each side gets its own
    log-space line and needs at least min_segment points. One pass over
    prefix moments scores every split, then every split whose score lies
    within a rounding bound of the best is refitted with ols, in ascending
    order, and the first with the least total wins: the answer, bit for
    bit, of refitting every split. Its two ols lines become left and right.
    The caller judges significance from improvement_ratio against a
    configured threshold.
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
    years, lnv, single = _log_line(series.technology, samples)
    sse_single = single[3]

    @functools.cache
    def split(k):
        return ols(years[:k], lnv[:k]), ols(years[k:], lnv[k:])

    def split_sse(k):
        left, right = split(k)
        return left[3] + right[3]

    best_k = None
    best_sse = math.inf
    for k in _near_minimal_splits(years, lnv, min_segment, split_sse):
        total = split_sse(k)
        if total < best_sse:
            best_sse = total
            best_k = k

    # SSEs at float-noise level are exactly-zero fits in disguise; clamping
    # keeps sse_piecewise <= sse_single and improvement_ratio meaningful for
    # noiselessly exponential inputs.
    noise_floor = n * (1e-12 * max(1.0, max(map(abs, lnv)))) ** 2
    if sse_single <= noise_floor:
        sse_single = 0.0
    if best_sse <= noise_floor:
        best_sse = 0.0

    left, right = split(best_k)
    improvement = 0.0 if sse_single == 0.0 else 1.0 - best_sse / sse_single
    return PiecewiseExponentialFit(
        changepoint_year=years[best_k],
        left=_exponential(years[:best_k], left),
        right=_exponential(years[best_k:], right),
        sse_piecewise=best_sse,
        sse_single=sse_single,
        improvement_ratio=improvement,
        window=(years[0], years[-1]),
    )


_U = sys.float_info.epsilon / 2     # unit roundoff: fl(a op b) = (a op b)(1 + d), |d| <= _U


def _gamma(k: int) -> float:
    # bound on the relative error of k chained roundings
    return k * _U / (1.0 - k * _U)


def _max_slope(xs, ys) -> float:
    """Upper bound on |ys[i+1]-ys[i]| / (xs[i+1]-xs[i]); inf unless xs rises.

    Any least-squares slope through a run of the points is a weighted mean
    of these consecutive slopes, so this bounds it too.
    """
    dx = list(map(sub, xs[1:], xs[:-1]))
    if not min(dx) > 0.0:
        return math.inf
    dy = map(sub, ys[1:], ys[:-1])
    return max(map(abs, map(truediv, dy, dx))) * (1.0 + 8 * _U)


def _segment_sses(counts, sx, sz, sxx, sxz, szz) -> list:
    """Szz - Sxz**2 / Sxx of each segment from its raw moment sums; nan
    where the centred Sxx does not come out positive."""
    out = []
    for m, a, b, aa, ab, bb in zip(counts, sx, sz, sxx, sxz, szz):
        cxx = aa - a * a / m
        cxz = ab - a * b / m
        out.append((bb - b * b / m) - cxz * cxz / cxx if cxx > 0.0 else math.nan)
    return out


def _near_minimal_splits(t: list, y: list, min_segment: int, split_sse) -> list:
    """Ascending splits k that may minimise split_sse(k), the ols total.

    One pass scores each split as P(k) = sse(0, k) + sse(k, n), a segment's
    sse being Szz - Sxz**2 / Sxx from running sums of x = t - t[0],
    z = y - y[0], x*x, x*z and z*z. Let j be the split of least score. The
    minimiser k* of split_sse has F(k*) <= F(j), so every k with
    P(k) <= T(F(j)) is returned, where T(F) bounds the score of any split
    whose ols total is F; splits with no finite score are returned too.

    T comes from the standard rounding model: u is the unit roundoff,
    gamma(k) = ku / (1 - ku), and g = 2 gamma(n + 1) bounds the error of a
    segment sum, taken as a difference of prefix sums, relative to the sum
    of its absolute terms. X1, Z1 are the sums and Xm, Zm the maxima of |x|
    and |z|. L is the largest consecutive slope of (t, y) and of (x, z),
    which bounds every segment's least-squares slope. W = (Z1 + 2L X1)
    (Zm + 2L Xm).

    - A segment's centred Sxx, Sxz and Szz are off by at most 4g X1 Xm,
      4g (X1 Zm + Z1 Xm) and 4g Z1 Zm. As Sxz**2 / Sxx is the maximum over
      b of 2b Sxz - b**2 Sxx, and |b| <= L at the exact optimum, a score
      exceeds the exact SSE E' of the rounded (x, z) by at most 4g W, plus
      3.1u sum(z**2) <= 0.4g W for rounding the formula, given Sxx > 0.
    - x and z are the exact differences up to u|x| and u|z|, so
      sqrt(E') <= sqrt(E) + p with p = 1.01u (||z|| + L ||x||), E being
      the exact SSE of the samples.
    - ols's fitted values lie within 5.1u max|y| + 3.1u |residual| of a
      line, so sqrt(E) <= a sqrt(F_seg) + 6u max|y| sqrt(n) with
      a = 1 + gamma(n) + 5u.

    Over both segments, with c = 6u max|y| sqrt(n) + p,
    P(k) <= (1 + u)((a sqrt(F(k) / (1 - u)) + sqrt(2) c)**2 + 8.8g W).
    The code rounds the constants up to absorb the rounding of T itself.
    The moment bounds assume n g <= 0.01; past that every split is
    returned.
    """
    n = len(t)
    lo, hi = min_segment, n - min_segment + 1
    ks = range(lo, hi)
    x = [ti - t[0] for ti in t]
    z = [yi - y[0] for yi in y]
    sums = [list(accumulate(terms, initial=0.0))
            for terms in (x, z, map(mul, x, x), map(mul, x, z), map(mul, z, z))]
    left = _segment_sses(ks, *(s[lo:hi] for s in sums))
    right = _segment_sses([n - k for k in ks],
                          *([s[-1] - p for p in s[lo:hi]] for s in sums))
    scores = [a + b for a, b in zip(left, right)]
    scored = [(s, k) for s, k in zip(scores, ks) if math.isfinite(s)]
    g = 2 * _gamma(n + 1)
    if not scored or n * g > 0.01:
        return list(ks)

    slope = max(_max_slope(t, y), _max_slope(x, z))
    x1, xm = sum(map(abs, x)), max(map(abs, x))
    z1, zm = sum(map(abs, z)), max(map(abs, z))
    w = (z1 + 2 * slope * x1) * (zm + 2 * slope * xm)
    a = 1.0 + _gamma(n) + 8 * _U
    c = (6 * _U * max(map(abs, y)) * math.sqrt(n)
         + 1.01 * _U * (math.sqrt(sums[4][-1]) + slope * math.sqrt(sums[2][-1])))
    f = split_sse(min(scored)[1])
    thresh = ((a * math.sqrt(f) + 1.5 * c) ** 2 + 10 * g * w) * (1.0 + 32 * _U)
    # nan scores and a nan or infinite threshold keep the split
    return [k for k, s in zip(ks, scores) if not s > thresh]


def extrapolate(model, year: float) -> float:
    """Closed-form model evaluation at any year >= window start."""
    lo = model.window[0]
    if year < lo:
        raise YearBeforeWindow(
            f"year {year:g} precedes fit window start {lo:g}"
        )
    return model.value_at(year)


def past_horizon(model, year: float) -> bool:
    """True when year lies more than HORIZON_WARNING_YEARS past the fit window."""
    return year > model.window[1] + HORIZON_WARNING_YEARS


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
