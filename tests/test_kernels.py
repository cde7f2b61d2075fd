"""The pure-Python fit kernels against numpy references, and the series and
fit round trips they serve. numpy comes from the test extra only."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewcast as rc
from renewcast import growthfit
from renewcast.errors import ModelError
from renewcast.report import MAX_HYDRO_DEGREE


def _close(got, ref, scale, rtol=1e-12):
    """|got - ref| within rtol of the larger of |ref| and the quantity's
    natural scale, so a value that happens to be near zero is judged
    against the size of the numbers it came from."""
    return abs(got - ref) <= rtol * max(abs(ref), scale)


def _numpy_ols(x, y):
    """The numpy form of the centred least-squares line."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    slope = (dx * (y - ym)).sum() / (dx * dx).sum()
    resid = y - (ym + slope * dx)
    return slope, xm, ym, (resid * resid).sum(), ((y - ym) ** 2).sum()


@st.composite
def _lines(draw):
    """n points with increasing x (years or arbitrary), a random line and a
    noise level from none to dominant; data drawn from one seed so that
    n can reach 2,000 cheaply."""
    n = draw(st.integers(2, 2000))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    origin = draw(st.sampled_from((0.0, 1950.0, -300.0)))
    step = draw(st.sampled_from((1.0, 0.25, 1.0 / 52, 3.7)))
    x = [origin + step * i + rng.uniform(0.0, 0.1 * step) for i in range(n)]
    a, b = rng.uniform(-5.0, 5.0), rng.uniform(-2.0, 2.0)
    noise = draw(st.sampled_from((0.0, 1e-9, 1e-3, 1.0, 100.0)))
    y = [a + b * (xi - origin) + rng.gauss(0.0, noise) for xi in x]
    return x, y


@settings(max_examples=150, deadline=None)
@given(case=_lines())
def test_ols_matches_numpy(case):
    x, y = case
    slope, xm, ym, sse, sst = growthfit.ols(x, y)
    r_slope, r_xm, r_ym, r_sse, r_sst = _numpy_ols(x, y)
    sxx = math.fsum((v - xm) ** 2 for v in x)
    assert _close(xm, r_xm, max(map(abs, x)))
    assert _close(ym, r_ym, max(map(abs, y)))
    assert _close(sst, r_sst, 0.0)
    # slope and sse against their natural sizes: the spread of y per unit
    # spread of x, and sst (sse <= sst)
    assert _close(slope, r_slope, math.sqrt(sst / sxx))
    assert _close(sse, r_sse, sst)


def test_ols_rejects_a_single_distinct_x():
    with pytest.raises(ModelError, match=r"^a least-squares line needs >= 2 distinct x values$"):
        growthfit.ols([2000.0, 2000.0], [1.0, 2.0])


@pytest.mark.parametrize("far_years", [(-1e200,), (-1.7e308, -1.6e308)])
def test_fits_that_overflow_are_model_errors(far_years):
    # years whose squares, or whose sum, leave the float range leave no fit
    series = rc.make_series("toy", "installed_power", "GW",
                            [(y, 1.0) for y in far_years] + [(2000.0, 2.0), (2001.0, 3.0)])
    with pytest.raises(ModelError, match=r"^a least-squares line overflows the float range$"):
        rc.fit_exponential(series)
    with pytest.raises(ModelError, match=r"^toy: degree-2 fit overflows the float range$"):
        rc.fit_polynomial(series, 2)


@st.composite
def _polynomial_cases(draw):
    degree = draw(st.integers(1, MAX_HYDRO_DEGREE))
    n = draw(st.integers(degree + 1, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from((1.0, 0.25, 1.0 / 52)))
    shape = draw(st.sampled_from(("polynomial", "exponential", "noise")))
    x = [i * step for i in range(n)]
    if shape == "polynomial":
        c = [rng.uniform(-10.0, 10.0) for _ in range(degree + 1)]
        v = [abs(sum(ck * xi ** k for k, ck in enumerate(c))) * (1 + rng.gauss(0, 0.05))
             for xi in x]
    elif shape == "exponential":
        v = [math.exp(1.0 + rng.uniform(-0.2, 0.2) * xi + rng.gauss(0, 0.1)) for xi in x]
    else:
        v = [rng.uniform(0.0, 100.0) for _ in x]
    return x, v, degree


@settings(max_examples=100, deadline=None)
@given(case=_polynomial_cases())
def test_fit_polynomial_matches_numpy_polyfit(case):
    # The coefficients of a degree-5 fit are ill-conditioned (they part by
    # up to 1e-10 between two stable solvers), so the fitted polynomials are
    # compared on the sample points, against the largest |value|.
    x, v, degree = case
    series = rc.make_series("toy", "annual_generation", "TWh_per_year",
                            [(2000.0 + xi, vi) for xi, vi in zip(x, v)])
    fit = rc.fit_polynomial(series, degree)
    # the offsets the fit sees: 2000 + x rounds x to an ulp of 2000
    x = np.array(series.years) - 2000.0
    ref_values = np.polynomial.polynomial.polyval(
        x, np.polynomial.polynomial.polyfit(x, np.array(v), degree))
    scale = max(map(abs, v))
    for year, r in zip(series.years, ref_values):
        assert _close(fit.value_at(year), float(r), scale)


@pytest.mark.parametrize("degree", range(1, MAX_HYDRO_DEGREE + 1))
def test_hydro_coefficients_match_polyfit_for_every_allowed_degree(hydro_series, degree):
    fit = rc.fit_polynomial(hydro_series, degree)
    x = np.array(hydro_series.years) - hydro_series.years[0]
    ref = np.polynomial.polynomial.polyfit(x, np.array(hydro_series.values), degree)
    for got, want in zip(fit.coefficients, ref):
        assert abs(got - want) <= 1e-12 * abs(want)


_SAMPLES = st.lists(
    st.tuples(st.one_of(st.integers(1800, 2200).map(float), st.floats(1800.0, 2200.0)),
              st.floats(1e-6, 1e9)),
    min_size=1, max_size=60, unique_by=lambda s: s[0])


@settings(max_examples=100, deadline=None)
@given(samples=_SAMPLES)
def test_series_load_dump_round_trip(samples):
    series = rc.make_series("toy", "installed_power", "GW", samples, "a note")
    text = rc.dump_series(series)
    loaded = rc.load_capacity_series(text)
    assert loaded.samples == series.samples == tuple(sorted(samples))
    assert (loaded.technology, loaded.quantity_kind, loaded.unit, loaded.provenance) == (
        "toy", "installed_power", "GW", "a note")
    assert rc.dump_series(loaded) == text


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 1000), seed=st.integers(0, 2**32 - 1),
       step=st.sampled_from((1.0, 0.5, 1.0 / 52)),
       origin=st.sampled_from((1950.0, 2000.0)))
def test_noiseless_exponential_recovered(n, seed, step, origin):
    rng = random.Random(seed)
    years = [origin + step * i for i in range(n)]
    # values stay within exp(+-33): normal floats, far from under- or overflow
    a, b = rng.uniform(-3.0, 3.0), rng.uniform(-30.0, 30.0) / (years[-1] - origin)
    fit = rc.fit_exponential(rc.make_series(
        "toy", "installed_power", "GW", [(y, math.exp(a + b * (y - origin))) for y in years]))
    # ln(exp(z)) is z to within about an ulp of max(1, |z|), and the mean
    # year to within an ulp of the last year, which moves the line by |b|
    # times that; an ols slope moves by such errors over the span
    span = years[-1] - origin
    scale = 1.0 + max(abs(a), abs(a + b * span)) + abs(b) * years[-1]
    assert _close(fit.ln_slope, b, scale / span)
    assert _close(fit.ln_intercept, a, scale)
    assert fit.r_squared_logspace == pytest.approx(1.0, abs=1e-9)
    assert fit.reference_year == origin and fit.window == (origin, years[-1])
