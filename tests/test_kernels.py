"""The pure-Python fit kernels against exact rational least-squares
solutions of their float inputs (tests/exactfit.py), each within a bound
derived from the kernel's rounding, and the series and fit round trips they
serve."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import renewcast as rc
from exactfit import (PolynomialReference, ols_reference, polyfit_coefficient_bounds,
                      polyfit_fitted_bound)
from renewcast import growthfit
from renewcast.config import MAX_HYDRO_DEGREE
from renewcast.errors import ModelError


def _close(got, ref, scale, rtol=1e-12):
    """|got - ref| within rtol of the larger of |ref| and the quantity's
    natural scale, so a value that happens to be near zero is judged
    against the size of the numbers it came from."""
    return abs(got - ref) <= rtol * max(abs(ref), scale)


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


def _pure_noise(seed, n=20_000):
    """n unit-spaced points of standard normal noise. The line through them
    is nearly flat, so the residuals' rounding is no larger than their own
    and sse's bound is a few ulps of it: there a running sum of the n
    squares errs by more than the bound, where fsum stays inside it."""
    rng = random.Random(seed)
    return [float(i) for i in range(n)], [rng.gauss(0.0, 1.0) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(case=_lines())
@example(case=_pure_noise(0))
@example(case=_pure_noise(1))
@example(case=_pure_noise(2))
def test_ols_matches_the_exact_line(case):
    # each of slope, mean x, mean y, sse and sst within its rounding bound
    # of the exact value; a plain running sum in place of any of ols's fsums
    # breaks a bound on long lines
    x, y = case
    exact, bounds = ols_reference(x, y)
    for name, got, want, bound in zip(("slope", "xm", "ym", "sse", "sst"),
                                      growthfit.ols(x, y), exact, bounds):
        assert abs(Fraction(got) - want) <= bound, name


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
def test_fit_polynomial_matches_the_exact_fit(case):
    # The coefficients of a degree-5 fit are ill-conditioned, so the fit is
    # judged by its fitted values on the sample points: their distance from
    # the exact fitted values is sqrt(excess sse), exactly.
    x, v, degree = case
    series = rc.make_series("toy", "annual_generation", "TWh_per_year",
                            [(2000.0 + xi, vi) for xi, vi in zip(x, v)])
    fit = rc.fit_polynomial(series, degree)
    # the offsets the fit sees: 2000 + x rounds x to an ulp of 2000
    exact = PolynomialReference([year - 2000.0 for year in series.years],
                                series.values, degree)
    bound = polyfit_fitted_bound(exact)
    assert exact.excess_sse(fit.coefficients) <= bound * bound


@pytest.mark.parametrize("degree", range(1, MAX_HYDRO_DEGREE + 1))
def test_hydro_coefficients_match_polyfit_for_every_allowed_degree(hydro_series, degree):
    fit = rc.fit_polynomial(hydro_series, degree)
    exact = PolynomialReference([year - hydro_series.years[0] for year in hydro_series.years],
                                hydro_series.values, degree)
    bounds = polyfit_coefficient_bounds(exact)
    for got, want, bound in zip(fit.coefficients, exact.coefficients, bounds):
        assert abs(Fraction(got) - want) <= bound


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
