"""Learning curves, cost decays and their crossing."""

import math
import random
import re
from itertools import accumulate

import pytest

import renewcast as rc
from renewcast.corpus import load_bundled
from renewcast.errors import DataError, ModelError, RenewcastError
from renewcast.learncurve import CostSeries


def _gen_cost(samples, tech="toy", unit="USD_per_MWh"):
    return CostSeries(tech, tuple(x for x, _ in samples), tuple(c for _, c in samples), unit)


def _year_cost(samples, tech="toy", unit="USD_per_MWh"):
    return rc.make_series(tech, "unit_cost", unit, samples)


@pytest.fixture(scope="module")
def pv_learning(pv_series):
    cost = rc.cost_series(load_bundled("pv_lcoe"))
    joined = rc.join_cost_to_generation(cost, pv_series, rc.constant("cf_pv"))
    return rc.fit_learning_curve(joined)


@pytest.fixture(scope="module")
def wind_learning(wind_series):
    cost = rc.cost_series(load_bundled("wind_lcoe"))
    joined = rc.join_cost_to_generation(cost, wind_series, rc.constant("cf_wind"))
    return rc.fit_learning_curve(joined)


# -- fitting -------------------------------------------------------------------

def test_two_point_slope():
    fit = rc.fit_learning_curve(_gen_cost([(10.0, 100.0), (100.0, 80.0)]))
    assert fit.log10_slope == pytest.approx(math.log10(0.8), rel=1e-12)


def test_flat_cost_means_zero_learning():
    fit = rc.fit_learning_curve(_gen_cost([(1.0, 7.0), (10.0, 7.0)]))
    assert fit.log10_slope == 0.0
    assert rc.learning_rate(fit) == 0.0


def test_learning_curve_needs_generation_axis():
    with pytest.raises(DataError, match=r"^learning curves need a generation-indexed CostSeries; "):
        rc.fit_learning_curve(_year_cost([(2009.0, 100.0), (2010.0, 90.0)]))


def test_learning_curve_too_few_points():
    with pytest.raises(ModelError, match=r"^learning-curve fit needs >= 2 samples$"):
        rc.fit_learning_curve(_gen_cost([(10.0, 100.0)]))


@pytest.mark.parametrize("samples", [[(10.0, 100.0), (0.0, 90.0)],
                                     [(10.0, 100.0), (20.0, 0.0)],
                                     [(-10.0, 100.0), (20.0, 90.0)],
                                     [(10.0, 100.0), (20.0, -90.0)]])
def test_learning_curve_refuses_nonpositive_x_or_cost(samples):
    with pytest.raises(DataError,
                       match=r"^toy: x -?[0-9.]+ and cost -?[0-9.]+ must be finite and > 0$"):
        rc.fit_learning_curve(_gen_cost(samples))


@pytest.mark.parametrize("x, cost", [(math.nan, 2.0), (math.inf, 2.0),
                                     (3.0, math.nan), (3.0, math.inf)])
def test_learning_curve_refuses_a_sample_that_is_not_finite(x, cost):
    with pytest.raises(DataError, match=rf"^toy: x {x!r} and cost {cost!r} must be finite and > 0$"):
        rc.fit_learning_curve(_gen_cost([(1.0, 4.0), (x, cost)]))


def test_learning_curve_refuses_columns_of_unequal_length():
    with pytest.raises(RenewcastError, match="3 x values but 2 costs"):
        rc.fit_learning_curve(CostSeries("toy", (1.0, 2.0, 4.0), (9.0, 8.0), "USD_per_MWh"))


def test_join_is_a_stable_sort_by_generation():
    # capacity dips back in 2002, so x falls back; the costs follow their x
    capacity = rc.make_series("toy", "installed_power", "GW",
                              [(2000.0, 1.0), (2001.0, 3.0), (2002.0, 2.0), (2003.0, 3.0)])
    cost = _year_cost([(2000.0, 40.0), (2001.0, 30.0), (2002.0, 35.0), (2003.0, 25.0)])
    joined = rc.join_cost_to_generation(cost, capacity, 0.5)
    x = tuple(rc.generation_capability(gw, 0.5) for gw in (1.0, 2.0, 3.0, 3.0))
    assert joined == CostSeries("toy", x, (40.0, 35.0, 30.0, 25.0), "USD_per_MWh")
    assert joined.x_range == (x[0], x[-1])


def test_cost_series_is_the_checked_unit_cost_series():
    cost = load_bundled("pv_lcoe")
    assert rc.cost_series(cost) is cost
    wrong_kind = r"^pv: expected a unit_cost series, got 'installed_power'$"
    with pytest.raises(DataError, match=wrong_kind):
        rc.cost_series(load_bundled("pv"))
    with pytest.raises(DataError, match=wrong_kind):
        rc.join_cost_to_generation(load_bundled("pv"), load_bundled("pv"), 0.2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["years", "values"])
def test_cost_series_refuses_a_sample_that_is_not_finite(column, bad):
    # the first bad sample is named, as the loader names it
    cost = _year_cost([(2000.0, 40.0), (2001.0, 30.0), (2002.0, 20.0)])
    cost = cost._replace(**{column: (*getattr(cost, column)[:1], bad, bad)})
    sample = (bad, 30.0) if column == "years" else (2001.0, bad)
    message = f"^{re.escape(f'series {cost.technology!r}: non-finite sample {sample!r}')}$"
    for call in (rc.cost_series, rc.fit_time_decay,
                 lambda c: rc.join_cost_to_generation(c, load_bundled("pv"), 0.2)):
        with pytest.raises(DataError, match=message):
            call(cost)


def test_twenty_percent_per_doubling_slope():
    samples = [(100.0 * 2.0 ** k, 50.0 * 0.8 ** k) for k in range(5)]
    fit = rc.fit_learning_curve(_gen_cost(samples))
    assert rc.learning_rate(fit) == pytest.approx(0.20, abs=1e-12)


def test_positive_slope_is_reported_not_accepted():
    fit = rc.fit_learning_curve(_gen_cost([(10.0, 50.0), (100.0, 80.0)]))
    with pytest.raises(ModelError, match=r"^toy: cost rises with scale \(slope "):
        rc.learning_rate(fit)


# -- evaluation ----------------------------------------------------------------

def test_cost_at_observed_endpoint(pv_learning):
    x_last = pv_learning.x_range[1]
    value = rc.cost_at(pv_learning, x_last)
    assert float(value) == pytest.approx(pv_learning.cost_at(x_last), rel=1e-15)


def test_doubling_x_multiplies_cost_by_two_to_slope(pv_learning):
    for x in (100.0, 1234.5):
        ratio = (rc.cost_at(pv_learning, 2 * x) / rc.cost_at(pv_learning, x))
        assert ratio == pytest.approx(2.0 ** pv_learning.log10_slope, rel=1e-12)


def test_cost_at_rejects_nonpositive(pv_learning):
    with pytest.raises(ModelError, match=r"^cumulative generation must be > 0, got 0\.0$"):
        rc.cost_at(pv_learning, 0.0)


@pytest.mark.parametrize("x, shown", [(0.0, r"0\.0"), (-1.0, r"-1\.0"), (math.nan, "nan")])
def test_cost_at_method_rejects_nonpositive(pv_learning, x, shown):
    # the method, as fig8 and curve_crossing call it, refuses what the function does
    with pytest.raises(ModelError, match=rf"^cumulative generation must be > 0, got {shown}$"):
        pv_learning.cost_at(x)


# -- crossing ------------------------------------------------------------------

def test_crossing_analytic_example():
    a = rc.LearningCurveFit("a", 3.0, -0.5, 1.0, (1.0, 100.0), "USD_per_MWh")
    b = rc.LearningCurveFit("b", 2.0, -0.2, 1.0, (1.0, 100.0), "USD_per_MWh")
    x, cost = rc.curve_crossing(a, b)
    assert math.log10(x) == pytest.approx(10.0 / 3.0, rel=1e-12)
    assert x == pytest.approx(10.0 ** (10.0 / 3.0), rel=1e-9)
    assert cost == pytest.approx(a.cost_at(x), rel=1e-15)


def test_crossing_satisfies_both_lines():
    a = rc.LearningCurveFit("a", 3.1, -0.62, 1.0, (1.0, 100.0), "USD_per_MWh")
    b = rc.LearningCurveFit("b", 2.4, -0.31, 1.0, (1.0, 100.0), "USD_per_MWh")
    x, _ = rc.curve_crossing(a, b)
    assert a.cost_at(x) == pytest.approx(b.cost_at(x), rel=1e-9)


def test_identical_lines_never_cross():
    a = rc.LearningCurveFit("a", 3.0, -0.5, 1.0, (1.0, 100.0), "USD_per_MWh")
    with pytest.raises(ModelError, match=r"^slopes are equal \(-0\.5\); the lines never cross$"):
        rc.curve_crossing(a, a)


def test_steeper_and_higher_crosses_later():
    # steeper negative slope and higher cost at the smallest common x
    # imply the crossing lies beyond that x
    x0 = 50.0
    a = rc.LearningCurveFit("a", math.log10(30.0) + 0.9 * math.log10(x0),
                            -0.9, 1.0, (x0, 500.0), "USD_per_MWh")
    b = rc.LearningCurveFit("b", math.log10(20.0) + 0.3 * math.log10(x0),
                            -0.3, 1.0, (x0, 500.0), "USD_per_MWh")
    assert a.cost_at(x0) > b.cost_at(x0)
    assert a.log10_slope < b.log10_slope
    x, _ = rc.curve_crossing(a, b)
    assert x > x0


_CURVE = rc.LearningCurveFit("pv", 3.0, -0.5, 0.9, (10.0, 1000.0), "USD_per_MWh")
_OTHER = rc.LearningCurveFit("wind", 2.0, -0.2, 0.9, (10.0, 1000.0), "USD_per_MWh")


@pytest.mark.parametrize("call", [
    rc.learning_rate,
    lambda fit: rc.cost_at(fit, 100.0),
    lambda fit: rc.curve_crossing(fit, _OTHER),
    lambda fit: rc.curve_crossing(_OTHER, fit),
], ids=["learning_rate", "cost_at", "curve_crossing_a", "curve_crossing_b"])
@pytest.mark.parametrize("field", ["log10_intercept", "log10_slope"])
def test_a_curve_with_a_field_that_is_not_finite_is_refused(call, field):
    with pytest.raises(ModelError) as got:
        call(_CURVE._replace(**{field: math.nan}))
    assert str(got.value) == f"fit field {field} must be finite, got nan"


# -- invariances ---------------------------------------------------------------

def test_axis_rescaling_invariance():
    rng = random.Random(17)
    xs = list(accumulate(rng.uniform(5, 50) for _ in range(8)))
    base_samples = [(x, math.exp(rng.gauss(3.0, 0.4))) for x in xs]
    base = rc.fit_learning_curve(_gen_cost(base_samples))
    for k in (0.01, 2.0, 1e4):
        sx = rc.fit_learning_curve(_gen_cost([(k * x, c) for x, c in base_samples]))
        assert sx.log10_slope == pytest.approx(base.log10_slope, abs=1e-12)
        assert sx.log10_intercept - base.log10_intercept == pytest.approx(
            -base.log10_slope * math.log10(k), rel=1e-9, abs=1e-9)
        sc = rc.fit_learning_curve(_gen_cost([(x, k * c) for x, c in base_samples]))
        assert sc.log10_slope == pytest.approx(base.log10_slope, abs=1e-12)


def test_learning_rate_invariant_under_rescaling(pv_series):
    cost = rc.cost_series(load_bundled("pv_lcoe"))
    joined = rc.join_cost_to_generation(cost, pv_series, rc.constant("cf_pv"))
    base_rate = rc.learning_rate(rc.fit_learning_curve(joined))
    for k in (0.5, 42.0):
        scaled = joined._replace(x=tuple(k * x for x in joined.x))
        assert rc.learning_rate(rc.fit_learning_curve(scaled)) == pytest.approx(
            base_rate, abs=1e-12)


# -- time decay -----------------------------------------------------------------

def test_halving_cost_decay():
    # two samples are enough for a fit
    two = rc.fit_time_decay(_year_cost([(2000.0, 8.0), (2001.0, 4.0)]))
    assert two.decay == pytest.approx(0.5, rel=1e-12)
    fit = rc.fit_time_decay(_year_cost([(2000.0, 8.0), (2001.0, 4.0),
                                        (2002.0, 2.0)]))
    assert fit.decay == pytest.approx(0.5, rel=1e-12)
    assert fit.cost_at_year(2003.0) == pytest.approx(1.0, rel=1e-9)


def test_geometric_recovery_randomized():
    rng = random.Random(19)
    for _ in range(40):
        r = rng.uniform(0.3, 1.5)
        c0 = rng.uniform(1.0, 500.0)
        samples = [(2000.0 + k, c0 * r ** k) for k in range(8)]
        fit = rc.fit_time_decay(_year_cost(samples))
        assert fit.decay == pytest.approx(r, rel=1e-9)
        assert fit.cost0 == pytest.approx(c0, rel=1e-9)


def test_time_decay_too_few_points():
    with pytest.raises(ModelError, match=r"^time-decay fit needs >= 2 samples$"):
        rc.fit_time_decay(_year_cost([(2000.0, 8.0)]))


def test_time_decay_needs_year_axis():
    with pytest.raises(DataError, match=r"^toy: expected a unit_cost series, got None$"):
        rc.fit_time_decay(_gen_cost([(10.0, 100.0), (20.0, 80.0)]))


# -- bundled-data results --------------------------------------------------------

def test_bundled_pv_learning_rate_band(pv_learning):
    assert 0.20 <= rc.learning_rate(pv_learning) <= 0.40


def test_bundled_capability_domain_geometry(pv_learning, wind_learning):
    # PV sits below wind across the common observed range while wind's line
    # is the steeper one, which is exactly what makes the curves cross in the
    # future rather than never.
    assert wind_learning.log10_slope < pv_learning.log10_slope < 0.0
    lo = max(pv_learning.x_range[0], wind_learning.x_range[0])
    hi = min(pv_learning.x_range[1], wind_learning.x_range[1])
    for x in (lo + (hi - lo) * k / 6 for k in range(7)):
        assert pv_learning.cost_at(x) < wind_learning.cost_at(x)


def test_bundled_crossing_beyond_observed(pv_learning, wind_learning):
    x, cost = rc.curve_crossing(pv_learning, wind_learning)
    assert x > max(pv_learning.x_range[1], wind_learning.x_range[1])
    assert cost > 0.0


def test_bundled_pv_cost_at_stated_2030_generation(pv_learning):
    value = rc.cost_at(pv_learning, rc.constant("stated_mix_2030_pv"))
    assert float(value) < 10.0
    assert rc.constant("stated_mix_2030_pv") > pv_learning.x_range[1]


def test_bundled_time_decays():
    pv = rc.fit_time_decay(rc.cost_series(load_bundled("pv_lcoe")))
    wind = rc.fit_time_decay(rc.cost_series(load_bundled("wind_lcoe")))
    assert 0.75 <= pv.decay <= 0.85
    # PV's cost falls faster over time than wind's
    assert pv.decay < wind.decay


def test_bundled_battery_2030_band():
    battery = rc.fit_time_decay(rc.cost_series(load_bundled("battery")))
    assert 7.0 <= battery.cost_at_year(2030.0) <= 13.0
    assert battery.cost_unit == "USD_per_kWh"


def test_join_requires_matching_years(pv_series):
    cost = _year_cost([(1950.0, 100.0)])
    with pytest.raises(DataError, match=r"^toy: no pv capacity sample for cost year 1950$"):
        rc.join_cost_to_generation(cost, pv_series, 0.256)
