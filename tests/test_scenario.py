"""Combined projections, crossings, mixes and the PV/wind crossover."""

import math

import numpy as np
import pytest

import renewcast as rc
from renewcast.errors import (
    EmptyCombination,
    LevelNotMet,
    ModelError,
    NonMonotoneProjection,
    NotExponential,
    ParallelGrowth,
    YearBeforeWindow,
)


def _exp_profile(name, value0, ratio_per_year, t0=2000.0, cf=1.0, n=3):
    samples = [(t0 + k, value0 * ratio_per_year ** k) for k in range(n)]
    s = rc.make_series(name, "installed_power", "GW", samples)
    return rc.TechnologyProfile(name, cf, s, rc.fit_exponential(s))


def _threshold(level, name="toy"):
    return rc.DemandThreshold(name, level)


# -- combine -------------------------------------------------------------------

def test_single_profile_identity():
    p = _exp_profile("a", 1.0, 2.0)
    proj = rc.combine([p])
    for t in (2000.0, 2005.0, 2012.5):
        expected = rc.generation_capability(float(rc.extrapolate(p.model, t)),
                                            p.capacity_factor)
        assert proj.value(t) == pytest.approx(expected, rel=1e-15)


def test_two_identical_profiles_double():
    p = _exp_profile("a", 1.0, 2.0)
    q = _exp_profile("a", 1.0, 2.0)
    single = rc.combine([p])
    double = rc.combine([p, q])
    for t in (2000.0, 2004.0, 2010.0):
        assert double.value(t) == pytest.approx(2.0 * single.value(t), rel=1e-12)


def test_empty_combination():
    with pytest.raises(EmptyCombination):
        rc.combine([])


def test_combined_at_least_each_component(pv_profile, wind_profile, hydro_profile):
    proj = rc.combine([pv_profile, wind_profile, hydro_profile])
    for t in (2000.0, 2020.0, 2035.0):
        parts = dict(proj.component_values(t))
        for v in parts.values():
            assert proj.value(t) >= v


def test_additivity_of_components(pv_profile, wind_profile, hydro_profile):
    proj = rc.combine([pv_profile, wind_profile, hydro_profile])
    for t in np.linspace(2000.0, 2045.0, 40):
        total = proj.value(float(t))
        parts = sum(v for _, v in proj.component_values(float(t)))
        assert total == pytest.approx(parts, rel=1e-12)


def test_bundled_total_2025(pv_profile, wind_profile, hydro_profile):
    proj = rc.combine([pv_profile, wind_profile, hydro_profile])
    assert 28000.0 <= proj.value(2025.0) <= 40000.0


# -- crossing years ------------------------------------------------------------

def test_crossing_matches_closed_form():
    # capability(t) = 8.76 * 2^(t - 2000) TWh/yr
    p = _exp_profile("a", 1.0, 2.0)
    res = rc.crossing_year(rc.combine([p]), _threshold(8960.0), horizon=2050.0)
    closed_form = 2000.0 + math.log2(8960.0 / 8.76)
    assert res.status == "crossed"
    assert res.year == pytest.approx(closed_form, abs=1e-6)


def test_already_satisfied():
    p = _exp_profile("a", 10.0, 2.0)   # 87.6 TWh at the window start
    res = rc.crossing_year(rc.combine([p]), _threshold(50.0))
    assert res.status == "already_satisfied"
    assert res.year == 2000.0


def test_not_reached_by_horizon():
    p = _exp_profile("a", 1.0, 1.01)
    res = rc.crossing_year(rc.combine([p]), _threshold(1e9), horizon=2030.0)
    assert res.status == "not_reached"
    assert res.year is None


def test_nonmonotone_projection_rejected():
    p = _exp_profile("a", 4.0, 0.5)    # decaying
    with pytest.raises(NonMonotoneProjection):
        rc.crossing_year(rc.combine([p]), _threshold(1e3))


class _StepModel:
    """1 GW before 2005.03 and 1000 GW from then on."""

    window = (2000.0, 2010.0)

    def value_at(self, year):
        return 1.0 if year < 2005.03 else 1000.0


def test_step_projection_never_meets_level():
    # generation jumps from 4.38 to 4380 TWh/yr at 2005.03: bisection closes
    # in on the step, where the level of 100 is never met
    series = rc.make_series("step", "installed_power", "GW",
                            [(2000.0, 1.0), (2010.0, 1000.0)])
    step = rc.TechnologyProfile("step", 0.5, series, _StepModel())
    with pytest.raises(LevelNotMet) as err:
        rc.crossing_year(rc.combine([step]), _threshold(100.0), 2020.0)
    assert isinstance(err.value, ModelError)
    assert "2005.03" in str(err.value)


def test_threshold_monotonicity(pv_profile, wind_profile):
    proj = rc.combine([pv_profile, wind_profile])
    years = [rc.crossing_year(proj, _threshold(level)).year
             for level in (20000.0, 33000.0, 50000.0, 100000.0)]
    assert years == sorted(years)


def test_adding_component_never_delays(pv_profile, wind_profile, hydro_profile):
    for level in (20000.0, 33000.0, 106950.0):
        two = rc.crossing_year(rc.combine([pv_profile, wind_profile]),
                               _threshold(level))
        three = rc.crossing_year(
            rc.combine([pv_profile, wind_profile, hydro_profile]),
            _threshold(level))
        assert three.year <= two.year


def test_bisection_equals_closed_form_randomized():
    rng = np.random.default_rng(13)
    for _ in range(40):
        v0 = rng.uniform(0.5, 50.0)
        growth = rng.uniform(1.05, 2.0)
        cf = rng.uniform(0.1, 1.0)
        p = _exp_profile("a", v0, growth, cf=cf)
        fit = p.model
        level = rng.uniform(2.0, 1e4) * rc.generation_capability(v0, cf)
        closed = (fit.reference_year
                  + (math.log(level * 1000.0 / (cf * 8760.0)) - fit.ln_intercept)
                  / fit.ln_slope)
        if closed >= 2049.0:
            continue
        res = rc.crossing_year(rc.combine([p]), _threshold(level), horizon=2050.0)
        assert res.status == "crossed"
        assert res.year == pytest.approx(closed, abs=1e-6)


def test_bundled_wind_pv_crossing(pv_profile, wind_profile):
    res = rc.crossing_year(rc.combine([pv_profile, wind_profile]),
                           _threshold(33000.0, "electric"))
    assert 2025.0 <= res.year <= 2027.0


# -- mixes ----------------------------------------------------------------------

def test_single_component_mix_is_100():
    p = _exp_profile("solo", 1.0, 2.0)
    entries = rc.mix_at_year(rc.combine([p]), 2005.0)
    assert len(entries) == 1
    assert entries[0].share_pct == pytest.approx(100.0, abs=1e-9)


def test_two_equal_components_split_evenly():
    p = _exp_profile("a", 1.0, 2.0)
    q = _exp_profile("b", 1.0, 2.0)
    entries = rc.mix_at_year(rc.combine([p, q]), 2007.0)
    assert [e.share_pct for e in entries] == [pytest.approx(50.0, abs=1e-9)] * 2


def test_mix_shares_sum_to_100(pv_profile, wind_profile, hydro_profile):
    proj = rc.combine([pv_profile, wind_profile, hydro_profile])
    for year in (2010.0, 2025.0, 2030.0, 2040.0):
        entries = rc.mix_at_year(proj, year)
        assert sum(e.share_pct for e in entries) == pytest.approx(100.0,
                                                                  abs=1e-9)


def test_bundled_mix_ordering_2030(pv_profile, wind_profile, hydro_profile):
    proj = rc.combine([pv_profile, wind_profile, hydro_profile])
    by_name = {e.technology: e.generation_twh
               for e in rc.mix_at_year(proj, 2030.0)}
    assert by_name["pv"] > by_name["wind"] > by_name["hydro"]


def test_mix_before_window_start_rejected(pv_profile):
    with pytest.raises(YearBeforeWindow):
        rc.mix_at_year(rc.combine([pv_profile]), 1995.0)


# -- crossover -------------------------------------------------------------------

def test_crossover_closed_form_example():
    pv = _exp_profile("pv", 1.0, 2.0)
    wind = _exp_profile("wind", 4.0, 1.5)
    year = rc.pv_wind_generation_crossover(pv, wind)
    assert year == pytest.approx(2000.0 + math.log(4.0) / math.log(4.0 / 3.0),
                                 rel=1e-9)


def test_crossover_identical_profiles_degenerate():
    pv = _exp_profile("pv", 1.0, 2.0)
    with pytest.raises(ParallelGrowth):
        rc.pv_wind_generation_crossover(pv, pv)


def test_crossover_requires_exponential_fits(hydro_profile):
    pv = _exp_profile("pv", 1.0, 2.0)
    with pytest.raises(NotExponential):
        rc.pv_wind_generation_crossover(pv, hydro_profile)


def test_crossover_generations_agree():
    pv = _exp_profile("pv", 1.0, 2.0, cf=0.256)
    wind = _exp_profile("wind", 4.0, 1.5, cf=0.354)
    year = rc.pv_wind_generation_crossover(pv, wind)
    g_pv = rc.generation_capability(float(rc.extrapolate(pv.model, year)), 0.256)
    g_wind = rc.generation_capability(float(rc.extrapolate(wind.model, year)), 0.354)
    assert g_pv == pytest.approx(g_wind, rel=1e-9)


def test_bundled_crossover_band(pv_profile, wind_profile):
    year = rc.pv_wind_generation_crossover(pv_profile, wind_profile)
    assert 2023.0 <= year <= 2026.0
