"""Combined projections, crossings, mixes and the PV/wind crossover."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewcast as rc
from renewcast import scenario
from renewcast.config import MAX_HORIZON
from renewcast.corpus import HOURS_PER_YEAR, load_bundled
from renewcast.errors import ModelError
from renewcast.growthfit import ExponentialFit, PolynomialFit


def _exp_profile(name, value0, ratio_per_year, t0=2000.0, cf=1.0, n=3):
    samples = [(t0 + k, value0 * ratio_per_year ** k) for k in range(n)]
    s = rc.make_series(name, "installed_power", "GW", samples)
    return rc.TechnologyProfile(name, cf, rc.fit_exponential(s))


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
    with pytest.raises(ModelError, match=r"^a projection needs at least one component$"):
        rc.combine([])


def test_combined_at_least_each_component(pv_profile, wind_profile, hydro_profile):
    proj = rc.combine([pv_profile, wind_profile, hydro_profile])
    for t in (2000.0, 2020.0, 2035.0):
        parts = dict(proj.component_values(t))
        for v in parts.values():
            assert proj.value(t) >= v


def test_additivity_of_components(pv_profile, wind_profile, hydro_profile):
    proj = rc.combine([pv_profile, wind_profile, hydro_profile])
    for t in (2000.0 + 45.0 * k / 39 for k in range(40)):
        total = proj.value(t)
        parts = sum(v for _, v in proj.component_values(t))
        assert total == pytest.approx(parts, rel=1e-12)


def test_bundled_total_2025(pv_profile, wind_profile, hydro_profile):
    proj = rc.combine([pv_profile, wind_profile, hydro_profile])
    assert 28000.0 <= proj.value(2025.0) <= 40000.0


# -- crossing years ------------------------------------------------------------

def test_crossing_matches_closed_form():
    # capability(t) = 8.76 * 2^(t - 2000) TWh/yr
    p = _exp_profile("a", 1.0, 2.0)
    status, year = rc.crossing_year(rc.combine([p]), 8960.0, horizon=2050.0)
    closed_form = 2000.0 + math.log2(8960.0 / 8.76)
    assert status == "crossed"
    assert year == pytest.approx(closed_form, abs=1e-6)


def test_already_satisfied():
    p = _exp_profile("a", 10.0, 2.0)   # 87.6 TWh at the window start
    assert rc.crossing_year(rc.combine([p]), 50.0, 2050.0) == ("already_satisfied", 2000.0)


def test_not_reached_by_horizon():
    p = _exp_profile("a", 1.0, 1.01)
    assert rc.crossing_year(rc.combine([p]), 1e9, horizon=2030.0) == ("not_reached", None)


def test_nonmonotone_projection_rejected():
    proj = rc.combine([_exp_profile("a", 4.0, 0.5)])    # decaying
    with pytest.raises(ModelError) as got:
        rc.crossing_year(proj, 1e3, 2050.0)
    # the message names the two lattice years around the decrease
    assert str(got.value) == (f"projection decreases between 2000 ({proj.value(2000.0):g}) "
                              f"and 2000.1 ({proj.value(2000.1):g})")


class _Dip:
    """A flat growth model whose installed power falls by the fraction drop
    from 2005 on."""

    window = (2000.0, 2010.0)

    def __init__(self, drop):
        self.drop = drop

    def value_at(self, year):
        return 1000.0 if year < 2005.0 else 1000.0 * (1.0 - self.drop)


def test_the_lattice_scan_forgives_a_decrease_of_float_noise_only():
    # a lattice value may fall below the one before by 1e-9 of its size
    # (8.76e-6 TWh/yr at 8760 TWh/yr), not more
    noise = rc.combine([rc.TechnologyProfile("dip", 1.0, _Dip(1e-10))])
    assert rc.crossing_year(noise, 1e4, 2010.0) == ("not_reached", None)
    edge = rc.combine([rc.TechnologyProfile("dip", 1.0, _Dip(1e-9))])
    assert edge.value(2005.0) == 8760.0 - 1e-9 * 8760.0     # exactly the tolerance
    assert rc.crossing_year(edge, 1e4, 2010.0) == ("not_reached", None)
    fall = rc.combine([rc.TechnologyProfile("dip", 1.0, _Dip(1e-8))])
    with pytest.raises(ModelError, match=r"^projection decreases between 2004\.9 "):
        rc.crossing_year(fall, 1e4, 2010.0)


def test_a_lattice_point_exactly_at_the_level_ends_the_bracket():
    # the scan brackets the root between the lattice point before the first
    # one at or above the level and that point, so the year lies below it
    proj = rc.combine([_cubic_profile()])
    assert not _proven(proj, 2050.0)
    level = proj.value(2000.0 + 50 * 0.1)
    status, year = rc.crossing_year(proj, level, 2050.0)
    assert status == "crossed"
    assert 2004.9 < year < 2005.0
    assert (status, year) == _lattice_scan(proj, level, 2050.0)


@pytest.mark.parametrize("level", [0.0, -1.0, math.nan])
def test_level_must_be_positive(level):
    # checked before the projection is sampled: a nan level would otherwise
    # compare false everywhere and come back crossed just before the horizon
    with pytest.raises(ModelError, match=r"^threshold level must be > 0, got "):
        rc.crossing_year(rc.combine([_exp_profile("a", 1.0, 2.0)]), level, 2050.0)


def _cubic_profile():
    # 1 + x + x**2 + x**3 grows, but no cubic is proven non-decreasing, so
    # its crossings sample the whole lattice up to the horizon
    return _profile(PolynomialFit(2000.0, (1.0, 1.0, 1.0, 1.0), 3, 0.0, (2000.0, 2010.0)))


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, MAX_HORIZON + 1.0,
                                     2000.0])
def test_horizon_must_be_after_start_and_within_max(horizon):
    # checked before the lattice is sized: a nan or infinite horizon cannot
    # size it, a finite one past MAX_HORIZON would sample every step, and
    # one at the start leaves no step at all
    proj = rc.combine([_cubic_profile()])
    assert not _proven(proj, 2050.0)
    with pytest.raises(ModelError, match=rf"^horizon {horizon!r} must be in \(2000, 2200\]$"):
        rc.crossing_year(proj, 1e3, horizon)


def test_max_horizon_still_solves():
    proj = rc.combine([_cubic_profile()])
    assert rc.crossing_year(proj, 1e3, MAX_HORIZON) == _lattice_scan(proj, 1e3, MAX_HORIZON)
    assert rc.crossing_year(proj, 1e12, MAX_HORIZON) == ("not_reached", None)


class _StepModel:
    """low GW before 2005.03 and high GW from then on."""

    window = (2000.0, 2010.0)

    def __init__(self, low=1.0, high=1000.0):
        self.low, self.high = low, high

    def value_at(self, year):
        return self.low if year < 2005.03 else self.high


def _step_profile():
    return rc.TechnologyProfile("step", 0.5, _StepModel())


def test_step_projection_never_meets_level():
    # generation jumps from 4.38 to 4380 TWh/yr at 2005.03: bisection closes
    # in on the step, where the level of 100 is never met
    with pytest.raises(ModelError, match=r"^projection jumps past 100 at ") as err:
        rc.crossing_year(rc.combine([_step_profile()]), 100.0, 2020.0)
    assert "2005.03" in str(err.value)


def _power_for(twh):
    """The installed power whose generation at capacity factor 1 is exactly twh."""
    power = twh * 1000.0 / HOURS_PER_YEAR
    for _ in range(8):
        generation = rc.combine([rc.TechnologyProfile("x", 1.0, _Flat(power))]).value(2005.0)
        if generation == twh:
            return power
        power = math.nextafter(power, math.inf if generation < twh else -math.inf)
    raise AssertionError(f"no power gives {twh!r} TWh/yr")


def test_a_root_exactly_at_the_level_tolerance_is_a_crossing():
    # the projection steps from level - tol to level + tol, tol =
    # LEVEL_TOLERANCE * level exactly (2**-6 at 15625), so the value at the
    # bisected year lies tol from the level on either side of the step
    level = 15625.0
    tol = scenario.LEVEL_TOLERANCE * level
    assert tol == 2.0 ** -6
    model = _StepModel(_power_for(level - tol), _power_for(level + tol))
    status, year = rc.crossing_year(
        rc.combine([rc.TechnologyProfile("two", 1.0, model)]), level, 2010.0)
    assert status == "crossed"
    assert abs(year - 2005.03) < scenario.YEAR_TOLERANCE


class _PlateauModel:
    """Rising by 1 GW a year to 100 GW at 2003.02, flat at 100 GW up to
    2003.07 and 1000 GW from then on."""

    window = (2000.0, 2010.0)

    def value_at(self, year):
        return min(100.0, 100.0 - (2003.02 - year)) if year < 2003.07 else 1000.0


def test_a_projection_at_the_level_over_an_interval_crosses_at_its_start():
    # the plateau lies inside the lattice step (2003.0, 2003.1]; bisection
    # keeps the lower end only below the level, so it closes in on the year
    # the level is first met, not on the year the plateau ends
    proj = rc.combine([rc.TechnologyProfile("plateau", 1.0, _PlateauModel())])
    level = proj.value(2003.05)
    status, year = rc.crossing_year(proj, level, 2010.0)
    assert status == "crossed"
    assert abs(year - 2003.02) < scenario.YEAR_TOLERANCE


@pytest.mark.parametrize("field", ["ln_intercept", "reference_year", "ln_slope"])
def test_a_projection_that_is_not_finite_is_refused(field):
    # combine refuses such a fit, so the projection is built without it. A
    # nan intercept or reference year keeps the proven path, where every
    # comparison with the level is false; a nan slope takes the lattice
    # scan, where no lattice value meets the level
    fit = _exponential(0.0, 0.3, 2000.0)._replace(**{field: math.nan})
    with pytest.raises(ModelError, match=r"^the projection is not finite \(nan at "):
        rc.crossing_year(scenario.CombinedProjection((_profile(fit),)), 100.0, 2050.0)


def _quartic_hydro_profile():
    # a quartic hydro fit turns negative inside the default horizon
    series = load_bundled("hydro")
    return rc.TechnologyProfile("hydro", rc.constant("cf_hydro"), rc.fit_polynomial(series, 4))


@pytest.mark.parametrize("make_profile, level, horizon, error", [
    (lambda: _exp_profile("a", 4.0, 0.5), 1e3, 2050.0, "^projection decreases"),
    (_step_profile, 100.0, 2020.0, "^projection jumps past"),
    (_quartic_hydro_profile, 5000.0, 2050.0, "^hydro at [0-9.]+: installed power must be >= 0, got -"),
])
def test_failed_crossing_fails_again_on_the_same_projection(make_profile, level,
                                                           horizon, error):
    # none of these is proven non-decreasing, so each fails on the full
    # lattice scan as the reference does; the solver keeps no state on a
    # projection, so a failed solve is not turned into an answer next time
    proj = rc.combine([make_profile()])
    assert not _proven(proj, horizon)
    for solve in (rc.crossing_year, rc.crossing_year, _lattice_scan):
        with pytest.raises(ModelError, match=error):
            solve(proj, level, horizon)


@settings(max_examples=30, deadline=None)
@given(requests=st.lists(
    st.tuples(st.floats(1e3, 1e6), st.sampled_from((2030.0, 2050.0, 2077.7))),
    min_size=1, max_size=8, unique=True))
def test_shared_projection_solves_like_fresh_ones(pv_profile, wind_profile,
                                                  hydro_profile, requests):
    # requests arrive in arbitrary level and horizon order; solving on a
    # shared projection must give the fresh projection's answer every time
    parts = [pv_profile, wind_profile, hydro_profile]
    shared = rc.combine(parts)
    results = {}
    for level, horizon in requests:
        res = rc.crossing_year(shared, level, horizon)
        assert res == rc.crossing_year(rc.combine(parts), level, horizon)
        results[level, horizon] = res
    for horizon in {h for _, h in requests}:
        years = [math.inf if year is None else year
                 for (_, h), (_, year) in sorted(results.items()) if h == horizon]
        assert years == sorted(years)


# -- the proven path against the full lattice scan ------------------------------

def _lattice_scan(projection, level, horizon):
    """Reference solver: sample every 0.1-year lattice point, bracket the
    first at or above the level, then bisect to 1e-9 years."""
    start = projection.start_year
    n = math.ceil((horizon - start) / 0.1)
    years = [start + i * 0.1 for i in range(n)] + [horizon]
    values = [projection.value(t) for t in years]
    for v0, v1 in zip(values, values[1:]):
        if v1 < v0 - 1e-9 * max(1.0, abs(v0)):
            raise ModelError("projection decreases")
    if values[0] >= level:
        return "already_satisfied", start
    if values[-1] < level:
        return "not_reached", None
    hit = next(i for i, v in enumerate(values) if v >= level)
    lo, hi = years[hit - 1], years[hit]
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if projection.value(mid) < level else (lo, mid)
    year = 0.5 * (lo + hi)
    if abs(projection.value(year) - level) > 1e-6 * level:
        raise ModelError("projection jumps past the level")
    return "crossed", year


def _proven(projection, horizon):
    return all(scenario._non_decreasing(p.model, projection.start_year, horizon)
               for p in projection.components)


def _profile(model, cf=0.5):
    return rc.TechnologyProfile("x", cf, model)


def _exponential(ln_intercept, ln_slope, start):
    return ExponentialFit(start - 3.0, ln_intercept, ln_slope, 1.0, 0.0, (start, start + 9.0))


@st.composite
def _growing_projections(draw):
    """Growing exponentials and, maybe, a quadratic whose derivative is >= 0
    at both ends of [start, horizon]; the quadratic may be concave."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        parts.append(_exponential(draw(st.floats(-2.0, 6.0)), draw(st.floats(0.0, 0.6)),
                                  draw(st.sampled_from((1996.0, 2000.0, 2011.0)))))
    start = max(m.window[0] for m in parts)
    horizon = start + draw(st.floats(0.05, 150.0))
    if draw(st.booleans()):
        t0 = draw(st.sampled_from((1980.0, 1990.0)))
        c2 = draw(st.floats(-1.0, 1.0))
        # the derivative c1 + 2 c2 (t - t0) is smallest at one end
        c1 = max(0.0, -2 * c2 * (start - t0), -2 * c2 * (horizon - t0))
        c1 += draw(st.floats(0.0, 5.0))
        c0 = 1.0 - c1 * (start - t0) - c2 * (start - t0) ** 2 + draw(st.floats(0.0, 500.0))
        parts.append(PolynomialFit(t0, (c0, c1, c2), 2, 0.0, (t0, start)))
    return rc.combine([_profile(m) for m in parts]), horizon


@settings(max_examples=300, deadline=None)
@given(case=_growing_projections(), pick=st.sampled_from(("scale", "year", "lattice")),
       scale=st.floats(-1.0, 5.0), at=st.floats(0.0, 1.0))
def test_proven_path_equals_lattice_scan(case, pick, scale, at):
    proj, horizon = case
    assert _proven(proj, horizon)
    start = proj.start_year
    n = math.ceil((horizon - start) / 0.1)
    # a level from below the start value to beyond the horizon value, the
    # value at any year of the span, or exactly the value at a lattice point
    if pick == "scale":
        level = proj.value(start) * 10.0 ** scale
    elif pick == "year":
        level = proj.value(start + at * (horizon - start))
    else:
        i = round(at * n)
        level = proj.value(horizon if i == n else start + i * 0.1)
    assert rc.crossing_year(proj, level, horizon) == _lattice_scan(proj, level, horizon)


def _cubic_hydro_profile():
    series = load_bundled("hydro")
    return rc.TechnologyProfile("hydro", rc.constant("cf_hydro"), rc.fit_polynomial(series, 3))


_FAILURES = ("projection decreases", "projection jumps past", "installed power must be >= 0")


def _outcome(solve):
    """The result, or the error type and which of _FAILURES it is (else its message)."""
    try:
        return solve()
    except ModelError as exc:
        return type(exc), next((f for f in _FAILURES if str(exc).startswith(f)), str(exc))


@settings(max_examples=60, deadline=None)
@given(make=st.sampled_from((_cubic_hydro_profile, _quartic_hydro_profile, _step_profile,
                             lambda: _exp_profile("a", 4.0, 0.5),
                             lambda: _exp_profile("a", 40.0, 0.97),
                             # rises until 2000.04, then falls
                             lambda: _profile(PolynomialFit(2000.0, (100.0, 0.016, -0.2), 2,
                                                            0.0, (2000.0, 2010.0))))),
       with_pv=st.booleans(), level=st.floats(1.0, 1e5), span=st.floats(0.05, 120.0))
def test_unproven_projections_take_the_lattice_scan(pv_profile, make, with_pv, level,
                                                    span):
    # one component that cannot be proven non-decreasing (a cubic or quartic
    # hydro, a step, a shrinking exponential, a quadratic falling before the
    # horizon) puts the whole projection on the full lattice, where it fails,
    # or succeeds, as the reference does
    proj = rc.combine([pv_profile, make()] if with_pv else [make()])
    horizon = proj.start_year + span
    assert not _proven(proj, horizon)
    expected = _outcome(lambda: _lattice_scan(proj, level, horizon))
    assert _outcome(lambda: rc.crossing_year(proj, level, horizon)) == expected


def test_default_projections_take_the_proven_path(default_report, monkeypatch):
    # every default projection is proven, so a crossing samples about 40
    # points instead of a 0.1-year lattice of several hundred
    horizon = default_report.config.horizon
    calls = []
    value = scenario.CombinedProjection.value

    def counting(self, year):
        calls.append(year)
        return value(self, year)

    monkeypatch.setattr(scenario.CombinedProjection, "value", counting)
    assert len(default_report.projections) == 7
    for proj in default_report.projections.values():
        assert _proven(proj, horizon)
        calls.clear()
        status, _ = rc.crossing_year(proj, 33000.0, horizon)
        assert status == "crossed"
        assert len(calls) <= 50 < (horizon - proj.start_year) / 0.1


def test_threshold_monotonicity(pv_profile, wind_profile):
    proj = rc.combine([pv_profile, wind_profile])
    years = [rc.crossing_year(proj, level, 2050.0)[1]
             for level in (20000.0, 33000.0, 50000.0, 100000.0)]
    assert years == sorted(years)


def test_adding_component_never_delays(pv_profile, wind_profile, hydro_profile):
    for level in (20000.0, 33000.0, 106950.0):
        _, two = rc.crossing_year(rc.combine([pv_profile, wind_profile]), level, 2050.0)
        _, three = rc.crossing_year(
            rc.combine([pv_profile, wind_profile, hydro_profile]), level, 2050.0)
        assert three <= two


def test_bisection_equals_closed_form_randomized():
    rng = random.Random(13)
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
        status, year = rc.crossing_year(rc.combine([p]), level, horizon=2050.0)
        assert status == "crossed"
        assert year == pytest.approx(closed, abs=1e-6)


def test_bundled_wind_pv_crossing(pv_profile, wind_profile):
    _, year = rc.crossing_year(rc.combine([pv_profile, wind_profile]), 33000.0, 2050.0)
    assert 2025.0 <= year <= 2027.0


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


class _Flat:
    """A growth model whose installed power is gw in every year."""

    def __init__(self, gw):
        self.window, self.gw = (2000.0, 2010.0), gw

    def value_at(self, year):
        return self.gw


def test_totals_are_added_left_to_right_on_every_python():
    # builtins.sum compensates from Python 3.12; these generations have
    # different plain and compensated totals
    gens = [0.1, 0.2, 0.3]
    plain = 0.1 + 0.2 + 0.3
    assert plain != math.fsum(gens)
    proj = rc.combine([rc.TechnologyProfile(name, 1.0, _Flat(twh * 1000.0 / 8760))
                       for name, twh in zip(("pv", "wind", "hydro"), gens)])
    assert [v for _, v in proj.component_values(2005.0)] == gens
    assert proj.value(2005.0) == plain
    assert [e.share_pct for e in rc.mix_at_year(proj, 2005.0)] == [
        100.0 * g / plain for g in gens]
    report = rc.run_scenario(rc.ScenarioConfig())
    report.__dict__["mixes"] = {"2025": [scenario.MixEntry(name, twh, 0.0) for name, twh in
                                         zip(("pv", "wind", "hydro"), gens)]}
    (total,) = (d.computed for d in report.discrepancies if d.name == "mix_2025_total_twh")
    assert total == plain


def test_a_mix_with_no_generation_is_refused():
    # every share would divide by a total of 0
    proj = rc.combine([rc.TechnologyProfile("pv", 1.0, _Flat(0.0)),
                       rc.TechnologyProfile("wind", 1.0, _Flat(0.0))])
    with pytest.raises(ModelError, match=r"^total generation at 2005 is 0\.0 TWh/yr; "):
        rc.mix_at_year(proj, 2005.0)


def test_bundled_mix_ordering_2030(pv_profile, wind_profile, hydro_profile):
    proj = rc.combine([pv_profile, wind_profile, hydro_profile])
    by_name = {e.technology: e.generation_twh_per_year
               for e in rc.mix_at_year(proj, 2030.0)}
    assert by_name["pv"] > by_name["wind"] > by_name["hydro"]


def test_mix_before_window_start_rejected(pv_profile):
    with pytest.raises(ModelError, match=r"^year 1995 precedes projection start 2000$"):
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
    with pytest.raises(ModelError, match=r"^pv and pv grow at the same rate "):
        rc.pv_wind_generation_crossover(pv, pv)


def test_crossover_requires_exponential_fits(hydro_profile):
    pv = _exp_profile("pv", 1.0, 2.0)
    with pytest.raises(ModelError, match=r"^hydro: crossover needs an exponential fit, "
                                         r"got PolynomialFit$"):
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
