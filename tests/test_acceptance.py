"""Acceptance gate: every quantitative and property criterion, one test each.

Each test prints one `[acceptance] criterion ...: PASS/FAIL` line. Two
criteria are internally contradictory with the rest of the gate and are
expected to stay red on the bundled data (see README, "Known deviations"):

* 4b: no single log-linear PV fit can cross 33,000 TWh/yr inside
  [2026, 2028] and 198,000 TWh/yr inside [2034.5, 2038] - the crossing gap
  is ln(6)/slope years, which caps the slope at 0.276/yr, while criteria
  4a/5 and any published PV history force ~0.34/yr. The source's two stated
  years come from fits over different windows.
* 8b: a PV learning rate strictly above wind's is impossible alongside
  criterion 9: PV sits below wind across the observed range, so a future
  crossing (9) requires the wind line to be the steeper one.
"""

import math
import random
from itertools import accumulate

import pytest

import renewcast as rc
from renewcast.learncurve import CostSeries


def _check(criterion, ok, detail):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _sig4(value):
    if value == 0:
        return 0.0
    exponent = math.floor(math.log10(abs(value)))
    scale = 10.0 ** (exponent - 3)
    return round(value / scale) * scale


@pytest.fixture(scope="module")
def rep(default_report):
    return default_report


def test_c01_wind_pv_electric_crossing(rep):
    year = rep.crossing_for("electric_fig5", "wind_pv", "trend").year
    _check("1", 2025.0 <= year <= 2027.0,
           f"wind+pv cross 33000 TWh/yr at {year:.4f}, band [2025, 2027]")


def test_c02_three_tech_electric_crossing(rep):
    year3 = rep.crossing_for("electric_fig5", "wind_pv_hydro", "trend").year
    year2 = rep.crossing_for("electric_fig5", "wind_pv", "trend").year
    _check("2", 2024.5 <= year3 <= 2026.5 and year3 <= year2,
           f"wind+pv+hydro cross at {year3:.4f} (<= {year2:.4f}), "
           f"band [2024.5, 2026.5]")


def test_c03_reduced_primary_crossing(rep):
    year = rep.crossing_for("reduced_primary_2030", "wind_pv_hydro", "trend").year
    _check("3", 2029.0 <= year <= 2032.0,
           f"combined cross 106950 TWh/yr at {year:.4f}, band [2029, 2032]")


def test_c04a_pv_alone_electric_crossing(rep):
    year = rep.crossing_for("electric_fig5", "pv").year
    _check("4a", 2026.0 <= year <= 2028.0,
           f"pv alone crosses 33000 TWh/yr at {year:.4f}, band [2026, 2028]")


@pytest.mark.known_red
def test_c04b_pv_alone_primary_crossing(rep):
    # Contradictory with 4a/5 for any single log-linear PV fit; expected red.
    year = rep.crossing_for("primary_fig5", "pv").year
    _check("4b", 2034.5 <= year <= 2038.0,
           f"pv alone crosses 198000 TWh/yr at {year:.4f}, band [2034.5, 2038]")


def test_c05_mixes(rep):
    mix25 = {e["technology"]: e["generation_twh_per_year"]
             for e in rep.to_dict()["mixes"]["2025"]}
    mix30 = {e["technology"]: e["generation_twh_per_year"]
             for e in rep.to_dict()["mixes"]["2030"]}
    ok25 = (15000.0 * 0.8 <= mix25["pv"] <= 15000.0 * 1.2
            and 11700.0 * 0.8 <= mix25["wind"] <= 11700.0 * 1.2
            and 6300.0 * 0.8 <= mix25["hydro"] <= 6300.0 * 1.2)
    ok30 = (mix30["pv"] > mix30["wind"] > mix30["hydro"]
            and 60000.0 <= mix30["pv"] <= 95000.0)
    _check("5", ok25 and ok30,
           f"2025 mix pv={mix25['pv']:.0f} wind={mix25['wind']:.0f} "
           f"hydro={mix25['hydro']:.0f} (+-20% of 15000/11700/6300); "
           f"2030 pv={mix30['pv']:.0f} in [60000, 95000] with ordering")


def test_c06_wind_changepoint(rep):
    year = rep.to_dict()["fits"]["wind_piecewise"]["changepoint_year"]
    ratio = rep.to_dict()["fits"]["wind_piecewise"]["improvement_ratio"]
    _check("6", 2008.0 <= year <= 2011.0 and ratio >= 0.5,
           f"wind changepoint {year:g} (improvement {ratio:.3f}), "
           f"band [2008, 2011]")


def test_c07_pv_wind_crossover(rep):
    claim = next(c for c in rep.claims if c.name == "pv_overtakes_wind")
    year = claim.computed_year
    _check("7", 2023.0 <= year <= 2026.0,
           f"pv/wind generation crossover at {year:.4f}, band [2023, 2026]")


def test_c08a_pv_learning_rate_band(rep):
    rate = rep.to_dict()["learning"]["pv_learning_curve"]["learning_rate_per_doubling"]
    _check("8a", 0.20 <= rate <= 0.40,
           f"pv learning rate {rate:.4f} per doubling, band [0.20, 0.40]")


@pytest.mark.known_red
def test_c08b_pv_learning_rate_exceeds_wind(rep):
    # Contradictory with criterion 9 given the observed geometry; expected red.
    pv = rep.to_dict()["learning"]["pv_learning_curve"]["learning_rate_per_doubling"]
    wind = rep.to_dict()["learning"]["wind_learning_curve"]["learning_rate_per_doubling"]
    _check("8b", pv > wind,
           f"pv learning rate {pv:.4f} vs wind {wind:.4f}")


def test_c08c_twenty_percent_slope_identity():
    samples = tuple((100.0 * 2.0 ** k, 50.0 * 0.8 ** k) for k in range(6))
    fit = rc.fit_learning_curve(CostSeries("x", tuple(x for x, _ in samples),
                                           tuple(c for _, c in samples), "USD_per_MWh"))
    rate = rc.learning_rate(fit)
    _check("8c", abs(rate - 0.20) <= 1e-12,
           f"20%-per-doubling input reproduces 1 - 2**slope = {rate!r}")


def test_c09_learning_curve_crossing_and_cost(rep):
    cross = rep.to_dict()["learning"]["curve_crossing"]
    pv_range = rep.to_dict()["learning"]["pv_learning_curve"]["x_range_twh_per_year"]
    wind_range = rep.to_dict()["learning"]["wind_learning_curve"]["x_range_twh_per_year"]
    beyond = cross["x_twh_per_year"] > max(pv_range[1], wind_range[1])
    cost_2030 = rep.to_dict()["learning"]["pv_cost_at_stated_2030_generation_usd_per_mwh"]
    _check("9", beyond and cost_2030 < 10.0,
           f"crossing x {cross['x_twh_per_year']:.0f} beyond observed "
           f"{max(pv_range[1], wind_range[1]):.0f}; pv cost at 75500 TWh/yr "
           f"= {cost_2030:.3f} USD/MWh < 10")


def test_c10_battery_extrapolation(rep):
    value = rep.to_dict()["learning"]["battery_cost_2030_usd_per_kwh"]
    _check("10", 7.0 <= value <= 13.0,
           f"battery cost 2030 = {value:.3f} USD/kWh, band [7, 13]")


def test_c11_discrepancy_recomputations(rep):
    rows = {r.name: r for r in rep.discrepancies}
    targets = [
        ("pv_area_electric_2030_km2", 364652.0),
        ("pv_area_primary_2030_km2", 1.938e6),
        ("onshore_times_primary", 3.71),
        ("wind_fraction_electric", 0.11598),
    ]
    ok = all(_sig4(rows[name].computed) == _sig4(expected)
             for name, expected in targets)
    exact = rows["reduced_primary_2030_twh"].computed == 106950.0
    detail = ", ".join(f"{name}={rows[name].computed:.6g}"
                       for name, _ in targets)
    _check("11", ok and exact,
           f"{detail}, reduced primary exactly "
           f"{rows['reduced_primary_2030_twh'].computed!r}")


def test_c12_fit_recovery_property():
    rng = random.Random(20260810)
    worst_param = 0.0
    worst_doubling = 0.0
    for _ in range(1000):
        t0 = rng.uniform(1950.0, 2030.0)
        a = rng.uniform(-4.0, 4.0)
        b = rng.uniform(0.01, 1.0)
        n = rng.randint(3, 24)
        years = [t0 + k for k in sorted(rng.sample(range(60), n))]
        samples = [(y, math.exp(a + b * (y - t0))) for y in years]
        series = rc.make_series("r", "installed_power", "GW", samples)
        fit = rc.fit_exponential(series)
        worst_param = max(worst_param, abs(fit.ln_slope - b) / b,
                          abs(fit.value_at(t0) - math.exp(a)) / math.exp(a))
        td = rc.doubling_time(fit)
        t_probe = years[-1] + rng.uniform(0.0, 20.0)
        lhs = float(rc.extrapolate(fit, t_probe + td))
        rhs = 2.0 * float(rc.extrapolate(fit, t_probe))
        worst_doubling = max(worst_doubling, abs(lhs - rhs) / rhs)
    _check("12", worst_param <= 1e-9 and worst_doubling <= 1e-9,
           f"1000 noiseless fits: worst parameter error {worst_param:.2e}, "
           f"worst doubling-identity error {worst_doubling:.2e} (<= 1e-9)")


def test_c13_bisection_equals_closed_form():
    rng = random.Random(987654)
    worst = 0.0
    checked = 0
    while checked < 200:
        v0 = rng.uniform(0.1, 100.0)
        growth = rng.uniform(1.02, 2.5)
        cf = rng.uniform(0.05, 1.0)
        samples = [(2000.0 + k, v0 * growth ** k) for k in range(4)]
        series = rc.make_series("r", "installed_power", "GW", samples)
        profile = rc.TechnologyProfile("r", cf, rc.fit_exponential(series))
        fit = profile.model
        level = rc.generation_capability(v0, cf) * rng.uniform(3.0, 1e4)
        closed = (fit.reference_year
                  + (math.log(level * 1000.0 / (cf * 8760.0)) - fit.ln_intercept)
                  / fit.ln_slope)
        if not 2001.0 < closed < 2049.0:
            continue
        checked += 1
        _, year = rc.crossing_year(rc.combine([profile]), level, horizon=2050.0)
        worst = max(worst, abs(year - closed))
    _check("13", worst <= 1e-6,
           f"{checked} randomized projections: worst |bisection - closed "
           f"form| = {worst:.2e} yr (<= 1e-6)")


def test_c14_identity_properties(rep):
    rng = random.Random(31415)

    worst_area = 0.0
    for _ in range(200):
        demand = rng.uniform(0.0, 5e5)
        density = rng.uniform(1.0, 100.0)
        cf = rng.uniform(0.05, 1.0)
        area = rc.pv_area_required(demand, density, cf)
        back = area * density * cf * 8760.0 / 1e6
        worst_area = max(worst_area, abs(back - demand) / max(demand, 1e-12))

    worst_mix = 0.0
    proj = rc.combine([rep.profiles["pv"], rep.profiles["wind_trend"],
                       rep.profiles["hydro"]])
    for year in (2005.0, 2020.0, 2030.0, 2045.0):
        total = sum(e.share_pct for e in rc.mix_at_year(proj, year))
        worst_mix = max(worst_mix, abs(total - 100.0))

    sse_ok = True
    for _ in range(50):
        n = rng.randint(8, 23)
        walk = accumulate(rng.gauss(0.0, 0.4) for _ in range(n))
        series = rc.make_series("r", "installed_power", "GW",
                                [(2000.0 + k, math.exp(z + 1.0))
                                 for k, z in enumerate(walk)])
        piecewise = rc.detect_changepoint(series, 3)
        sse_ok &= piecewise.sse_piecewise <= piecewise.sse_single * (1 + 1e-12)

    worst_slope = 0.0
    base_x = tuple(accumulate(rng.uniform(10, 50) for _ in range(9)))
    base_costs = tuple(math.exp(rng.gauss(3.0, 0.5)) for _ in range(9))
    base = rc.fit_learning_curve(CostSeries("r", base_x, base_costs, "USD_per_MWh"))
    for k in (1e-3, 0.25, 7.0, 1e5):
        scaled = rc.fit_learning_curve(CostSeries(
            "r", tuple(k * x for x in base_x), base_costs, "USD_per_MWh"))
        worst_slope = max(worst_slope,
                          abs(scaled.log10_slope - base.log10_slope))

    _check("14", worst_area <= 1e-9 and worst_mix <= 1e-9 and sse_ok
           and worst_slope <= 1e-12,
           f"area round trip {worst_area:.2e} (<=1e-9); mix share error "
           f"{worst_mix:.2e} (<=1e-9); sse_piecewise<=sse_single on 50 random "
           f"series: {sse_ok}; slope shift under axis rescaling "
           f"{worst_slope:.2e} (<=1e-12)")


def test_c15_report_determinism(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    rc.write_outputs(rc.run_scenario(rc.ScenarioConfig()), first)
    rc.write_outputs(rc.run_scenario(rc.ScenarioConfig()), second)
    names = sorted(p.name for p in first.iterdir())
    identical = (names == sorted(p.name for p in second.iterdir())
                 and all((first / n).read_bytes() == (second / n).read_bytes()
                         for n in names))
    _check("15", identical,
           f"two `report` runs produced byte-identical artifacts "
           f"({len(names)} files)")
