"""Fitting, changepoint detection and extrapolation contracts."""

import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewcast as rc
from exactfit import U, ols_reference
from renewcast import growthfit
from renewcast.errors import DataError, ModelError
from renewcast.genconvert import series_to_generation


def _series(samples, kind="installed_power", unit="GW", tech="toy"):
    return rc.make_series(tech, kind, unit, samples)


# -- exponential fits ---------------------------------------------------------

def test_exact_exponential_recovered():
    fit = rc.fit_exponential(_series([(2000, 1.0), (2001, 2.0), (2002, 4.0)]))
    assert fit.ln_slope == pytest.approx(math.log(2.0), rel=1e-12)
    assert fit.value_at(2000.0) == pytest.approx(1.0, rel=1e-12)
    assert fit.r_squared_logspace == pytest.approx(1.0, abs=1e-12)


def test_constant_series_r_squared_convention():
    fit = rc.fit_exponential(_series([(2000, 5.0), (2001, 5.0), (2002, 5.0)]))
    assert fit.ln_slope == 0.0
    assert fit.r_squared_logspace == 1.0
    assert fit.rmse_logspace == 0.0


def test_too_few_points():
    with pytest.raises(ModelError, match=r"^toy: exponential fit needs >= 2 points, got 1$"):
        rc.fit_exponential(_series([(2000, 1.0)]))


def test_nonpositive_value_rejected_by_fit():
    s = _series([(2000, 0.0), (2001, 2.0), (2002, 3.0)],
                kind="annual_generation", unit="TWh_per_year")
    with pytest.raises(DataError, match=r"^toy: value 0\.0 at 2000 not log-fittable$"):
        rc.fit_exponential(s)


def test_window_restricts_fit():
    s = _series([(2000, 1.0), (2001, 2.0), (2002, 4.0), (2003, 1000.0)])
    fit = rc.fit_exponential(s, window=(2000, 2002))
    assert fit.window == (2000.0, 2002.0)
    assert fit.ln_slope == pytest.approx(math.log(2.0), rel=1e-12)


_WEEKLY = _series([(2000.0 + k / 52, 1.0 + k) for k in range(520)])


@pytest.mark.parametrize("window", [
    None, (None, None), (None, 2004.5), (2004.5, None),
    (_WEEKLY.years[0], _WEEKLY.years[-1]), (_WEEKLY.years[10], _WEEKLY.years[300]),
    (_WEEKLY.years[7], _WEEKLY.years[7]), (2005.0, 2005.0),
    (2001.3, 2006.77), (1990.25, 2003.01), (2008.999, 2100.5), (2003.5, 2003.51),
    (1990.0, 1999.5), (2010.0, 2020.0), (2006.0, 2002.0),
    (math.nan, None), (2003.0, math.nan)])
def test_windowed_equals_the_year_filter(window):
    lo, hi = window or (None, None)
    lo = -math.inf if lo is None else lo
    hi = math.inf if hi is None else hi
    kept = [s for s in _WEEKLY.samples if lo <= s[0] <= hi]
    years, values = growthfit._windowed(_WEEKLY, window)
    assert list(zip(years, values)) == kept
    if len(kept) < 2:
        with pytest.raises(ModelError, match=r"^toy: exponential fit needs >= 2 points, "
                                             rf"got {len(kept)}$"):
            rc.fit_exponential(_WEEKLY, window)


def test_fit_is_deterministic(pv_series):
    a = rc.fit_exponential(pv_series, (2000.0, None))
    b = rc.fit_exponential(pv_series, (2000.0, None))
    assert a == b


def test_fit_recovery_random_noiseless():
    rng = random.Random(42)
    for _ in range(50):
        t0 = rng.uniform(1980, 2020)
        a = rng.uniform(-3, 3)
        b = rng.uniform(0.02, 0.9)
        years = [t0 + k for k in sorted(rng.sample(range(40), 8))]
        samples = [(y, math.exp(a + b * (y - t0))) for y in years]
        fit = rc.fit_exponential(_series(samples))
        assert fit.ln_slope == pytest.approx(b, rel=1e-9)
        assert fit.value_at(t0) == pytest.approx(math.exp(a), rel=1e-9)


def test_scale_equivariance():
    rng = random.Random(7)
    samples = [(2000.0 + k, rng.uniform(0.5, 20.0)) for k in range(12)]
    base = rc.fit_exponential(_series(samples))
    for c in (0.001, 3.7, 1e6):
        scaled = rc.fit_exponential(_series([(y, c * v) for y, v in samples]))
        assert scaled.ln_slope == pytest.approx(base.ln_slope, rel=1e-12, abs=1e-12)
        assert scaled.ln_intercept - base.ln_intercept == pytest.approx(
            math.log(c), rel=1e-9)


def test_time_shift_equivariance():
    rng = random.Random(8)
    samples = [(2000.0 + k, rng.uniform(0.5, 20.0)) for k in range(12)]
    base = rc.fit_exponential(_series(samples))
    for delta in (-250.0, 13.5, 1000.0):
        shifted = rc.fit_exponential(_series([(y + delta, v) for y, v in samples]))
        assert shifted.ln_slope == pytest.approx(base.ln_slope, rel=1e-9)


# -- polynomial fits ----------------------------------------------------------

def test_two_point_line():
    fit = rc.fit_polynomial(_series([(2000, 1.0), (2001, 3.0)]), 1)
    assert fit.reference_year == 2000.0
    assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-9)
    assert fit.coefficients[1] == pytest.approx(2.0, rel=1e-9)


def test_exact_parabola():
    fit = rc.fit_polynomial(_series([(0, 0.0), (1, 1.0), (2, 4.0)],
                                    kind="annual_generation",
                                    unit="TWh_per_year"), 2)
    assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-9)
    assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-9)
    assert fit.coefficients[2] == pytest.approx(1.0, rel=1e-9)


def test_polynomial_errors():
    with pytest.raises(ModelError, match=r"^polynomial degree must be >= 1, got 0$"):
        rc.fit_polynomial(_series([(2000, 1.0), (2001, 2.0)]), 0)
    with pytest.raises(ModelError, match=r"^toy: degree-2 fit needs >= 3 points, got 2$"):
        rc.fit_polynomial(_series([(2000, 1.0), (2001, 2.0)]), 2)
    # the kernel names the distinct years a degree needs
    with pytest.raises(ModelError, match=r"^degree-1 fit needs >= 2 distinct years$"):
        growthfit._polyfit([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], 1)


def test_bundled_hydro_quadratic_extrapolation(hydro_series):
    fit = rc.fit_polynomial(series_to_generation(hydro_series, rc.constant("cf_hydro")), 2)
    value_2030 = float(rc.extrapolate(fit, 2030.0))
    assert 6000.0 <= value_2030 <= 7200.0


# -- changepoint detection ----------------------------------------------------

def _synthetic_regime_series():
    samples = [(1996.0 + k, 2.0 ** k) for k in range(14)]     # 1996..2009
    level = samples[-1][1]
    for k in range(11):                                        # 2010..2020
        level += 30.0
        samples.append((2010.0 + k, level))
    return _series(samples)


def test_synthetic_changepoint_location_and_oracle():
    s = _synthetic_regime_series()
    piecewise = rc.detect_changepoint(s, min_segment=3)
    assert piecewise.changepoint_year in (2009.0, 2010.0)
    assert piecewise.improvement_ratio >= 0.5

    # independent exhaustive enumeration of every split, each side's sse
    # exact and with the bound on ols's rounding of it
    t = s.years
    lnv = [math.log(v) for v in s.values]
    totals = {}
    for k in range(3, len(t) - 2):
        (left, left_bound), (right, right_bound) = (ols_reference(t[:k], lnv[:k]),
                                                    ols_reference(t[k:], lnv[k:]))
        totals[t[k]] = left[3] + right[3], left_bound[3] + right_bound[3]
    best_year = min(totals, key=lambda y: (totals[y][0], y))
    assert piecewise.changepoint_year == best_year
    # the two sses, each within its bound, and their sum rounded once
    exact, bound = totals[best_year]
    assert abs(Fraction(piecewise.sse_piecewise) - exact) <= bound + U * piecewise.sse_piecewise


def test_exact_exponential_has_no_regime_change():
    s = _series([(2000.0 + k, 2.0 ** k) for k in range(10)])
    piecewise = rc.detect_changepoint(s, min_segment=3)
    assert piecewise.improvement_ratio < 0.5
    assert piecewise.sse_piecewise <= piecewise.sse_single


def test_bundled_wind_changepoint(wind_series):
    piecewise = rc.detect_changepoint(wind_series, min_segment=3)
    assert 2008.0 <= piecewise.changepoint_year <= 2011.0
    assert piecewise.improvement_ratio >= 0.5


def test_changepoint_needs_enough_points():
    s = _series([(2000.0 + k, 2.0 ** k) for k in range(5)])
    with pytest.raises(ModelError, match=r"^toy: changepoint scan needs >= 6 points, got 5$"):
        rc.detect_changepoint(s, min_segment=3)


def test_changepoint_min_segment_must_be_two():
    s = _series([(2000.0 + k, 2.0 ** k) for k in range(8)])
    with pytest.raises(ModelError, match=r"^min_segment must be >= 2 so each side is fittable$"):
        rc.detect_changepoint(s, min_segment=1)


def test_sse_piecewise_never_exceeds_sse_single():
    rng = random.Random(2021)
    for _ in range(60):
        n = rng.randint(8, 29)
        walk = accumulate(rng.gauss(0.0, 1.0) for _ in range(n))
        s = _series([(2000.0 + k, math.exp(z * 0.3 + 2.0)) for k, z in enumerate(walk)])
        piecewise = rc.detect_changepoint(s, min_segment=3)
        assert piecewise.sse_piecewise <= piecewise.sse_single * (1 + 1e-12)


def _exhaustive_changepoint(samples, min_segment):
    """Refit both ols lines at every split: (split year, sse_piecewise,
    sse_single, improvement_ratio), with detect_changepoint's noise floor
    and its tie rule: when the single line and the first split are both
    within the floor, the first split wins."""
    t = [y for y, _ in samples]
    lnv = [math.log(v) for _, v in samples]
    sse_single = growthfit.ols(t, lnv)[3]
    noise_floor = len(t) * (1e-12 * max(1.0, max(map(abs, lnv)))) ** 2
    best_k, best_sse = None, math.inf
    for k in range(min_segment, len(t) - min_segment + 1):
        total = growthfit.ols(t[:k], lnv[:k])[3] + growthfit.ols(t[k:], lnv[k:])[3]
        if total < best_sse:
            best_k, best_sse = k, total
        if k == min_segment and sse_single <= noise_floor and total <= noise_floor:
            break
    sse_single = 0.0 if sse_single <= noise_floor else sse_single
    best_sse = 0.0 if best_sse <= noise_floor else best_sse
    improvement = 0.0 if sse_single == 0.0 else 1.0 - best_sse / sse_single
    return t[best_k], best_sse, sse_single, improvement


@st.composite
def _changepoint_cases(draw):
    min_segment = draw(st.integers(2, 4))
    n = draw(st.one_of(st.just(2 * min_segment), st.integers(2 * min_segment, 40)))
    origin = draw(st.sampled_from((0.0, 2000.0))) + draw(st.floats(-3.0, 3.0))
    step = draw(st.sampled_from((1.0, 0.25, 1.0 / 52)))
    years = [origin + i * step for i in range(n)]
    shape = draw(st.sampled_from(("noisy", "noiseless", "mirror")))
    if shape == "noisy":
        lnv = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    elif shape == "noiseless":
        a, b = draw(st.floats(-3.0, 3.0)), draw(st.floats(-1.0, 1.0))
        lnv = [a + b * (y - years[0]) for y in years]
    else:
        # mirror-symmetric values tie split k with split n - k, and a
        # constant run of ones ties every split at exactly zero
        half = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0)),
                             min_size=n - n // 2, max_size=n - n // 2))
        lnv = half + half[:n // 2][::-1]
    return [(y, math.exp(v)) for y, v in zip(years, lnv)], min_segment


@settings(max_examples=300, deadline=None)
@given(case=_changepoint_cases())
def test_changepoint_equals_exhaustive_scan(case):
    samples, min_segment = case
    piecewise = rc.detect_changepoint(_series(samples), min_segment=min_segment)
    assert (piecewise.changepoint_year, piecewise.sse_piecewise, piecewise.sse_single,
            piecewise.improvement_ratio) == _exhaustive_changepoint(samples, min_segment)


def test_changepoint_equals_exhaustive_scan_on_clustered_years(monkeypatch):
    # four years within 3e-9 of each other: a segment of two of them has a
    # centred Sxx inside its rounding bound, which leaves the slope unbounded,
    # so each of the 9 splits is refitted
    years = [2000.0 + k * 1e-9 for k in range(4)] + [2010.0 + i for i in range(8)]
    lnv = [0.1, 0.3, 0.2, 0.4] + [1.0 + 0.2 * i for i in range(8)]
    samples = [(y, math.exp(v)) for y, v in zip(years, lnv)]
    calls = []
    ols = growthfit.ols
    monkeypatch.setattr(growthfit, "ols", lambda x, y: calls.append(1) or ols(x, y))
    piecewise = rc.detect_changepoint(_series(samples), min_segment=2)
    assert len(calls) == 1 + 2 * 9     # the single line, then both lines of each split
    assert (piecewise.changepoint_year, piecewise.sse_piecewise, piecewise.sse_single,
            piecewise.improvement_ratio) == _exhaustive_changepoint(samples, 2)


def _weekly_samples(n, shape):
    """n weekly samples from 2000 with log-normal noise: ln v rises 0.4 a
    year throughout ("trend"), or 0.1 a year from two thirds on ("break"),
    or rises and falls as a noisy tent that is the same read backwards
    ("mirror"), so that split k and split n - k tie up to rounding."""
    rng = random.Random(f"weekly-{n}-{shape}")
    years = [2000.0 + i / 52 for i in range(n)]
    knee = years[2 * n // 3] if shape == "break" else years[n // 2]
    bend = {"trend": 0.0, "break": 0.3, "mirror": 0.8}[shape]
    lnv = [0.4 * (y - 2000.0) - bend * max(0.0, y - knee)
           + rng.gauss(0.0, 0.03) for y in years]
    if shape == "mirror":
        lnv[n - n // 2:] = lnv[:n // 2][::-1]
    return [(y, math.exp(v)) for y, v in zip(years, lnv)]


@pytest.mark.parametrize("n", [521, 1041, 1197])
@pytest.mark.parametrize("shape", ["trend", "break", "mirror"])
def test_changepoint_equals_exhaustive_scan_on_weekly_series(n, shape):
    # weekly noise makes the consecutive slopes several times steeper than
    # any segment's least-squares slope, which the short series above
    # cannot show
    samples = _weekly_samples(n, shape)
    piecewise = rc.detect_changepoint(_series(samples), min_segment=3)
    assert (piecewise.changepoint_year, piecewise.sse_piecewise, piecewise.sse_single,
            piecewise.improvement_ratio) == _exhaustive_changepoint(samples, 3)


def test_noiseless_changepoint_takes_the_first_split_unscanned(monkeypatch):
    # a 3,000-point exactly exponential weekly series: every split ties
    years = [2000.0 + i / 52 for i in range(3000)]
    series = _series([(y, math.exp(0.3 * (y - 2000.0))) for y in years])
    calls = []
    ols = growthfit.ols
    monkeypatch.setattr(growthfit, "ols", lambda x, y: calls.append(1) or ols(x, y))
    piecewise = rc.detect_changepoint(series, min_segment=3)
    assert len(calls) <= 5
    assert piecewise.changepoint_year == years[3]
    assert piecewise.sse_piecewise == piecewise.sse_single == 0.0


@pytest.mark.parametrize("single, first, changepoint, improvement", [
    (1.0, 1.0, 3, 0.0),     # both at the floor: the first split, unscanned
    (2.0, 1.0, 4, 1.0),     # the single line above it: the scan finds the least total
])
def test_an_sse_at_the_noise_floor_counts_as_an_exact_fit(monkeypatch, single, first,
                                                         changepoint, improvement):
    # the stubbed ols gives each SSE as a multiple of the noise floor: a line
    # from the first year of n points gets floors[n] of them (1 if n is not
    # listed), a right side none; an SSE of exactly one floor is an exact fit
    years = [2000.0 + i for i in range(8)]
    series = _series([(y, math.exp(0.3 * (y - 2000.0))) for y in years])
    lnv = list(map(math.log, series.values))
    floor = len(years) * (1e-12 * max(1.0, max(map(abs, lnv)))) ** 2
    floors = {len(years): single, 3: first, 4: 0.0}
    ols = growthfit.ols

    def stub(x, y):
        slope, xm, ym, _, sst = ols(x, y)
        return slope, xm, ym, (floors.get(len(x), 1.0) if x[0] == years[0] else 0.0) * floor, sst

    monkeypatch.setattr(growthfit, "ols", stub)
    piecewise = rc.detect_changepoint(series, min_segment=3)
    assert piecewise.changepoint_year == years[changepoint]
    assert piecewise.sse_piecewise == 0.0
    assert piecewise.sse_single == (0.0 if single == 1.0 else single * floor)
    assert piecewise.improvement_ratio == improvement


# -- extrapolation and doubling time -----------------------------------------

def test_ten_doublings():
    fit = rc.fit_exponential(_series([(2000, 1.0), (2001, 2.0), (2002, 4.0)]))
    assert float(rc.extrapolate(fit, 2010.0)) == pytest.approx(1024.0, rel=1e-12)


def test_extrapolate_at_window_end_is_fitted_value(pv_series):
    fit = rc.fit_exponential(pv_series, (2000.0, None))
    end = fit.window[1]
    assert float(rc.extrapolate(fit, end)) == pytest.approx(fit.value_at(end),
                                                            rel=1e-15)
    assert float(rc.extrapolate(fit, end)) != pv_series.value_at(end)


def test_extrapolate_rejects_years_before_window():
    fit = rc.fit_exponential(_series([(2000, 1.0), (2001, 2.0)]))
    with pytest.raises(ModelError, match=r"^year 1999 precedes fit window start 2000$"):
        rc.extrapolate(fit, 1999.0)


@pytest.mark.parametrize("year", [math.nan, math.inf, -math.inf])
def test_extrapolate_refuses_a_nan_year(year):
    fit = rc.fit_exponential(_series([(2000, 1.0), (2001, 2.0)]))
    with pytest.raises(ModelError, match=rf"^year must be finite, got {year!r}$"):
        rc.extrapolate(fit, year)


def test_year_at_inverts_value_at():
    fit = rc.fit_exponential(_series([(2000, 1.0), (2001, 2.0)]))
    assert fit.year_at(fit.value_at(2013.5)) == pytest.approx(2013.5, abs=1e-12)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_year_at_refuses_a_value_the_fit_never_takes(value):
    fit = rc.fit_exponential(_series([(2000, 1.0), (2001, 2.0)]))
    with pytest.raises(ModelError, match=rf"^value must be finite and > 0, got {value!r}$"):
        fit.year_at(value)


def test_year_at_refuses_a_flat_fit():
    fit = rc.fit_exponential(_series([(2000, 3.0), (2001, 3.0)]))
    assert fit.ln_slope == 0.0
    with pytest.raises(ModelError, match=r"^a flat fit \(ln_slope 0\.0\) reaches no single year$"):
        fit.year_at(3.0)


def test_horizon_warning_flag():
    fit = rc.fit_exponential(_series([(2000, 1.0), (2001, 2.0), (2002, 4.0)]))
    assert rc.past_horizon(fit, 2016.9) is False
    assert rc.past_horizon(fit, 2017.0) is False    # exactly HORIZON_WARNING_YEARS past
    assert rc.past_horizon(fit, 2017.1) is True


@pytest.mark.parametrize("year", [math.nan, math.inf, -math.inf])
def test_horizon_warning_refuses_a_year_that_is_not_finite(year):
    fit = rc.ExponentialFit(2000.0, 1.0, 0.2, 1.0, 0.0, (2000.0, 2020.0))
    with pytest.raises(ModelError, match=rf"^year must be finite, got {year!r}$"):
        rc.past_horizon(fit, year)


def test_piecewise_extrapolation_uses_right_segment():
    s = _synthetic_regime_series()
    piecewise = rc.detect_changepoint(s, min_segment=3)
    year = 2030.0
    assert float(rc.extrapolate(piecewise, year)) == pytest.approx(
        piecewise.right.value_at(year), rel=1e-12)
    before = piecewise.changepoint_year - 5.0
    assert float(rc.extrapolate(piecewise, before)) == pytest.approx(
        piecewise.left.value_at(before), rel=1e-12)
    # the changepoint year is the right segment's first year
    year = piecewise.changepoint_year
    right, left = piecewise.right.value_at(year), piecewise.left.value_at(year)
    assert piecewise.value_at(year) == right != left


def test_doubling_time_examples():
    fit = rc.fit_exponential(_series([(2000, 1.0), (2001, 2.0), (2002, 4.0)]))
    assert rc.doubling_time(fit) == pytest.approx(1.0, rel=1e-12)

    slow = rc.ExponentialFit(2000.0, 0.0, 0.3466, 1.0, 0.0, (2000.0, 2010.0))
    assert rc.doubling_time(slow) == pytest.approx(math.log(2.0) / 0.3466,
                                                   rel=1e-12)

    decaying = rc.ExponentialFit(2000.0, 0.0, -0.1, 1.0, 0.0, (2000.0, 2010.0))
    with pytest.raises(ModelError, match=r"^doubling time undefined for ln_slope -0\.1 <= 0$"):
        rc.doubling_time(decaying)


_RECORD = rc.ExponentialFit(2000.0, 1.0, 0.2, 1.0, 0.0, (2000.0, 2020.0))


def _crossing(fit):
    return rc.crossing_year(rc.combine([rc.TechnologyProfile("x", 0.5, fit)]), 100.0, 2050.0)


# each call returned nan, a wrong number or an error about something else
# before a fit's fields were checked where the fit comes in
@pytest.mark.parametrize("call, fit, field", [
    (rc.doubling_time, _RECORD._replace(ln_slope=math.nan), "ln_slope = nan"),
    (lambda fit: fit.year_at(100.0), _RECORD._replace(ln_intercept=math.nan),
     "ln_intercept = nan"),
    (lambda fit: fit.year_at(100.0), _RECORD._replace(ln_slope=math.nan), "ln_slope = nan"),
    (lambda fit: fit.year_at(100.0), _RECORD._replace(reference_year=math.nan),
     "reference_year = nan"),
    (lambda fit: rc.extrapolate(fit, 2030.0), _RECORD._replace(window=(math.nan, 2020.0)),
     "window[0] = nan"),
    (lambda fit: rc.extrapolate(fit, 2030.0), _RECORD._replace(ln_slope=math.nan),
     "ln_slope = nan"),
    (lambda fit: rc.past_horizon(fit, 2100.0), _RECORD._replace(window=(2000.0, math.nan)),
     "window[1] = nan"),
    (_crossing, _RECORD._replace(window=(math.nan, 2020.0)), "window[0] = nan"),
    (lambda fit: rc.pv_wind_generation_crossover(rc.TechnologyProfile("pv", 0.2, fit),
                                                 rc.TechnologyProfile("wind", 0.3, _RECORD)),
     _RECORD._replace(ln_slope=math.nan), "ln_slope = nan"),
    (lambda fit: rc.extrapolate(fit, 2030.0),
     rc.PiecewiseExponentialFit(2010.0, _RECORD, _RECORD._replace(rmse_logspace=math.inf),
                                0.0, 1.0, 1.0, (2000.0, 2020.0)), "right.rmse_logspace = inf"),
    (lambda fit: rc.extrapolate(fit, 2030.0),
     rc.PolynomialFit(2000.0, (1.0, -math.inf), 1, 0.0, (2000.0, 2010.0)),
     "coefficients[1] = -inf"),
])
def test_a_fit_with_a_field_that_is_not_finite_is_refused(call, fit, field):
    name, value = field.split(" = ")
    with pytest.raises(ModelError) as got:
        call(fit)
    assert str(got.value) == f"fit field {name} must be finite, got {value}"


def test_a_slope_too_small_for_the_float_range_is_refused():
    fit = _RECORD._replace(ln_slope=5e-324)
    with pytest.raises(ModelError, match=r"^the doubling time at ln_slope 5e-324 exceeds "):
        rc.doubling_time(fit)
    with pytest.raises(ModelError, match=r"^the year the fit reaches 100\.0 exceeds "):
        fit.year_at(100.0)


def test_doubling_identity():
    rng = random.Random(11)
    for _ in range(30):
        b = rng.uniform(0.05, 0.8)
        samples = [(2000.0 + k, math.exp(0.4 + b * k)) for k in range(9)]
        fit = rc.fit_exponential(_series(samples))
        td = rc.doubling_time(fit)
        for t in (2003.0, 2008.5, 2030.0, 2050.0):
            assert float(rc.extrapolate(fit, t + td)) == pytest.approx(
                2.0 * float(rc.extrapolate(fit, t)), rel=1e-9)


def test_bundled_pv_doubling_time(pv_series):
    fit = rc.fit_exponential(pv_series, (2000.0, 2020.0))
    assert 1.5 <= rc.doubling_time(fit) <= 2.6


def test_bundled_pv_2030_generation_band(pv_profile):
    power = float(rc.extrapolate(pv_profile.model, 2030.0))
    generation = rc.generation_capability(power, pv_profile.capacity_factor)
    assert 60000.0 <= generation <= 95000.0


def test_residual_signs_pattern(pv_series):
    fit = rc.fit_exponential(pv_series, (2000.0, None))
    signs = growthfit.residual_signs(pv_series, fit)
    assert len(signs) == len(pv_series.samples)
    assert set(signs) <= {"+", "-", "0"}
    assert "+" in signs and "-" in signs
