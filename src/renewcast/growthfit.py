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
from bisect import bisect_left, bisect_right
from itertools import accumulate
from math import fsum
from operator import mul, sub
from typing import NamedTuple

from .corpus import CapacitySeries
from .errors import DataError, ModelError

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
            raise ModelError(f"the fit at {year:g} exceeds the float range") from None

    def year_at(self, value: float) -> float:
        """Inverse of value_at: the year the fit reaches value."""
        check_fields(self)
        if not 0 < value < math.inf:
            raise ModelError(f"value must be finite and > 0, got {value!r}")
        if self.ln_slope == 0:
            raise ModelError(f"a flat fit (ln_slope {self.ln_slope!r}) reaches no single year")
        year = (math.log(value) - self.ln_intercept) / self.ln_slope + self.reference_year
        if not math.isfinite(year):
            raise ModelError(f"the year the fit reaches {value!r} exceeds the float range")
        return year


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


def check_fields(fit, prefix: str = "") -> None:
    """ModelError naming the first float of a fit record that is not finite:
    a field, an item of a tuple field or a field of a nested record. A model
    that is no record passes unchecked."""
    if not hasattr(fit, "_fields"):
        return
    for field, value in zip(fit._fields, fit):
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ModelError(f"fit field {prefix}{field} must be finite, got {value!r}")
        elif hasattr(value, "_fields"):
            check_fields(value, f"{prefix}{field}.")
        elif isinstance(value, tuple):
            for i, v in enumerate(value):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ModelError(f"fit field {prefix}{field}[{i}] must be finite, got {v!r}")


def _windowed(series: CapacitySeries, window):
    """(years, values) of the samples with lo <= year <= hi, where window is
    None or (lo, hi) and a None end is open; cut by bisection of the years."""
    lo, hi = window or (None, None)
    if lo != lo or hi != hi:        # a nan end keeps no sample, as lo <= year <= hi does
        return (), ()
    years = series.years
    i = 0 if lo is None else bisect_left(years, lo)
    j = len(years) if hi is None else bisect_right(years, hi)
    return years[i:j], series.values[i:j]


def ols(x, y):
    """Centred least-squares line through the points (x, y).

    Returns (slope, mean x, mean y, sse, sst); the line is
    mean_y + slope * (x - mean_x). Every sum is math.fsum, so each is
    exactly rounded whatever its length or order. ModelError when x
    holds fewer than two distinct values or a sum overflows.
    """
    n = len(x)
    try:
        xm = fsum(x) / n
        ym = fsum(y) / n
        dx = [v - xm for v in x]
        dy = [v - ym for v in y]
        denom = fsum(map(mul, dx, dx))
        if denom == 0.0:
            raise ModelError("a least-squares line needs >= 2 distinct x values")
        slope = fsum(map(mul, dx, dy)) / denom
        resid = [v - (ym + slope * d) for d, v in zip(dx, y)]
        line = slope, xm, ym, fsum(map(mul, resid, resid)), fsum(map(mul, dy, dy))
        finite = all(map(math.isfinite, (denom, *line)))
    except (OverflowError, ValueError):     # fsum past the float range, or inf - inf
        finite = False
    if not finite:
        raise ModelError("a least-squares line overflows the float range")
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
    years, values = _windowed(series, window)
    if len(years) < 2:
        raise ModelError(
            f"{series.technology}: exponential fit needs >= 2 points, "
            f"got {len(years)}"
        )
    return _exponential(years, _log_line(series.technology, years, values)[1])


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


def _log_line(technology: str, years, values):
    """(ln values, ols line) of windowed columns whose values are all > 0."""
    if min(values) <= 0:
        y, v = next(s for s in zip(years, values) if s[1] <= 0)
        raise DataError(f"{technology}: value {v!r} at {y:g} not log-fittable")
    lnv = list(map(math.log, values))
    return lnv, ols(years, lnv)


def fit_polynomial(series: CapacitySeries, degree: int, window=None) -> PolynomialFit:
    """Least-squares polynomial in (year - first window year) of the raw values."""
    if degree < 1:
        raise ModelError(f"polynomial degree must be >= 1, got {degree}")
    years, v = _windowed(series, window)
    if len(years) < degree + 1:
        raise ModelError(
            f"{series.technology}: degree-{degree} fit needs >= {degree + 1} "
            f"points, got {len(years)}"
        )
    t0 = years[0]
    x = [y - t0 for y in years]
    try:
        coeffs = _polyfit(x, v, degree)
        fitted = [0.0] * len(x)
        for c in reversed(coeffs):          # value_at's Horner steps, column-wise
            fitted = [f * xi + c for f, xi in zip(fitted, x)]
        resid = list(map(sub, v, fitted))
        rmse = math.sqrt(fsum(map(mul, resid, resid)) / len(x))
        finite = all(map(math.isfinite, (*coeffs, rmse)))
    except (OverflowError, ValueError):     # fsum past the float range, or inf - inf
        finite = False
    if not finite:
        raise ModelError(f"{series.technology}: degree-{degree} fit overflows "
                         f"the float range")
    return PolynomialFit(
        reference_year=t0,
        coefficients=coeffs,
        degree=degree,
        rmse=rmse,
        window=(t0, years[-1]),
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
            raise ModelError(f"degree-{degree} fit needs >= {degree + 1} distinct years")
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
    On a noiseless series, where the single line and the first split both
    fit within the noise floor, every split ties and the first wins
    without a scan. The caller judges significance from improvement_ratio
    against a configured threshold.
    """
    if min_segment < 2:
        raise ModelError("min_segment must be >= 2 so each side is fittable")
    years, values = _windowed(series, window)
    n = len(years)
    if n < 2 * min_segment:
        raise ModelError(
            f"{series.technology}: changepoint scan needs >= {2 * min_segment} "
            f"points, got {n}"
        )
    lnv, single = _log_line(series.technology, years, values)
    sse_single = single[3]

    @functools.cache
    def split(k):
        return ols(years[:k], lnv[:k]), ols(years[k:], lnv[k:])

    def split_sse(k):
        left, right = split(k)
        return left[3] + right[3]

    # SSEs at float-noise level are exactly-zero fits in disguise; clamping
    # keeps sse_piecewise <= sse_single and improvement_ratio meaningful for
    # noiselessly exponential inputs, where every split ties at 0.
    noise_floor = n * (1e-12 * max(1.0, max(map(abs, lnv)))) ** 2
    if sse_single <= noise_floor and split_sse(min_segment) <= noise_floor:
        candidates = (min_segment,)
    else:
        candidates = _near_minimal_splits(years, lnv, min_segment, split_sse)
    best_k = None
    best_sse = math.inf
    for k in candidates:
        total = split_sse(k)
        if total < best_sse:
            best_sse = total
            best_k = k

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


def _segment_sses(counts, sx, sz, sxx, sxz, szz, exx, exz):
    """Szz - Sxz**2 / Sxx of each segment from its raw moment sums, nan where
    the centred Sxx does not come out positive; and the largest
    (|Sxz| + exz) / (Sxx - exx) over the others, inf if one has Sxx <= exx."""
    out = []
    slope = 0.0
    for m, a, b, aa, ab, bb in zip(counts, sx, sz, sxx, sxz, szz):
        cxx = aa - a * a / m
        cxz = ab - a * b / m
        if cxx > 0.0:
            s = (abs(cxz) + exz) / (cxx - exx) if cxx > exx else math.inf
            slope = s if s > slope else slope
        out.append((bb - b * b / m) - cxz * cxz / cxx if cxx > 0.0 else math.nan)
    return out, slope


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
    and |z|. B bounds the least-squares slope of every scored segment, both
    through the rounded (x, z) and through the exact (t, y), and
    W = (Z1 + 2B X1)(Zm + 2B Xm).

    - A segment's centred Sxx, Sxz and Szz are off by at most
      Exx = 4g X1 Xm, Exz = 4g (X1 Zm + Z1 Xm) and 4g Z1 Zm. As
      Sxz**2 / Sxx is the maximum over b of 2b Sxz - b**2 Sxx, and |b| <= B
      at the exact optimum, a score exceeds the exact SSE E' of the rounded
      (x, z) by at most 4g W, plus 3.1u sum(z**2) <= 0.4g W for rounding
      the formula, given Sxx > 0.
    - x and z are the exact differences up to u|x| and u|z|, so
      sqrt(E') <= sqrt(E) + p with p = 1.01u (||z|| + B ||x||), E being
      the exact SSE of the samples.
    - ols's fitted values lie within 5.1u max|y| + 3.1u |residual| of a
      line, so sqrt(E) <= a sqrt(F_seg) + 6u max|y| sqrt(n) with
      a = 1 + gamma(n) + 5u.
    - The moments of the exact differences lie within 4.1u X1 Xm and
      4.1u (X1 Zm + Z1 Xm), under a ninth of Exx and Exz as n >= 4, of
      those of (x, z). As a slope is Sxz / Sxx, B is the largest
      (|Sxz| + 2Exz) / (Sxx - 2Exx) over the scored segments.

    Over both segments, with c = 6u max|y| sqrt(n) + p,
    P(k) <= (1 + u)((a sqrt(F(k) / (1 - u)) + sqrt(2) c)**2 + 8.8g W).
    The code rounds the constants up to absorb the rounding of T itself.
    The moment bounds assume n g <= 0.01, and B that every scored segment
    has Sxx > 2Exx; past either, every split is returned.
    """
    n = len(t)
    lo, hi = min_segment, n - min_segment + 1
    ks = range(lo, hi)
    g = 2 * _gamma(n + 1)
    x = [ti - t[0] for ti in t]
    z = [yi - y[0] for yi in y]
    x1, xm = sum(map(abs, x)), max(map(abs, x))
    z1, zm = sum(map(abs, z)), max(map(abs, z))
    exx, exz = 8 * g * x1 * xm, 8 * g * (x1 * zm + z1 * xm)     # 2Exx, 2Exz
    sums = [list(accumulate(terms, initial=0.0))
            for terms in (x, z, map(mul, x, x), map(mul, x, z), map(mul, z, z))]
    left, left_slope = _segment_sses(ks, *(s[lo:hi] for s in sums), exx, exz)
    right, right_slope = _segment_sses([n - k for k in ks], *(
        [s[-1] - p for p in s[lo:hi]] for s in sums), exx, exz)
    scores = [a + b for a, b in zip(left, right)]
    scored = [(s, k) for s, k in zip(scores, ks) if math.isfinite(s)]
    slope = max(left_slope, right_slope) * (1.0 + 8 * _U)
    if not scored or n * g > 0.01 or slope == math.inf:
        return list(ks)
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
    check_fields(model)
    if not math.isfinite(year):
        raise ModelError(f"year must be finite, got {year!r}")
    lo = model.window[0]
    if year < lo:
        raise ModelError(
            f"year {year:g} precedes fit window start {lo:g}"
        )
    value = model.value_at(year)
    if not math.isfinite(value):
        raise ModelError(f"the fit at {year:g} exceeds the float range")
    return value


def past_horizon(model, year: float) -> bool:
    """True when year lies more than HORIZON_WARNING_YEARS past the fit window."""
    check_fields(model)
    if not math.isfinite(year):
        raise ModelError(f"year must be finite, got {year!r}")
    return year > model.window[1] + HORIZON_WARNING_YEARS


def doubling_time(fit: ExponentialFit) -> float:
    """Years for the fitted quantity to double: ln 2 / ln_slope."""
    check_fields(fit)
    if fit.ln_slope <= 0:
        raise ModelError(
            f"doubling time undefined for ln_slope {fit.ln_slope!r} <= 0"
        )
    years = math.log(2.0) / fit.ln_slope
    if years == math.inf:
        raise ModelError(f"the doubling time at ln_slope {fit.ln_slope!r} exceeds the float range")
    return years


def residual_signs(series: CapacitySeries, fit: ExponentialFit) -> str:
    """Log-space residual sign pattern over the fit window ('+', '-', '0').

    A run of same-sign residuals at the edges is the symptom of curvature a
    single exponential cannot express; the report surfaces the pattern
    instead of modelling it.
    """
    out = []
    for y, v in zip(*_windowed(series, fit.window)):
        r = math.log(v) - (fit.ln_intercept + fit.ln_slope * (y - fit.reference_year))
        out.append("0" if r == 0 else ("+" if r > 0 else "-"))
    return "".join(out)
