"""Area/potential budget arithmetic and the discrepancy checker."""

import math
import random

import pytest

import renewcast as rc
from renewcast import resourcebudget
from renewcast.errors import DataError, ModelError

DENSITY = 42.8
CF = 0.256


def _area(demand):
    # independent hand formula: TWh -> MWh over MWh per km2 and year
    return demand * 1e6 / (DENSITY * CF * 8760.0)


def test_zero_demand_zero_area():
    assert rc.pv_area_required(0.0, DENSITY, CF) == 0.0


def test_electric_demand_area():
    computed = rc.pv_area_required(35000.0, DENSITY, CF)
    assert computed == pytest.approx(_area(35000.0), rel=1e-15)
    assert computed == pytest.approx(364653.0, rel=1e-4)


def test_primary_demand_area():
    computed = rc.pv_area_required(186000.0, DENSITY, CF)
    assert computed == pytest.approx(_area(186000.0), rel=1e-15)
    assert computed == pytest.approx(1.93787e6, rel=1e-4)


def test_area_errors():
    with pytest.raises(ModelError, match=r"^demand must be >= 0, got -1\.0$"):
        rc.pv_area_required(-1.0, DENSITY, CF)
    with pytest.raises(ModelError, match=r"^density must be > 0, got 0\.0$"):
        rc.pv_area_required(1.0, 0.0, CF)
    with pytest.raises(ModelError, match=r"^capacity factor must be in \(0, 1\], got 1\.5$"):
        rc.pv_area_required(1.0, DENSITY, 1.5)


def test_desert_fraction_examples():
    assert resourcebudget.desert_fraction(34.93e6) == pytest.approx(1.0, rel=1e-12)
    assert resourcebudget.desert_fraction(0.0) == 0.0
    # the stated area itself occupies 1.024%, not the stated 1.21%
    assert resourcebudget.desert_fraction(357667.0) == pytest.approx(0.01024, abs=5e-6)


def test_desert_fraction_linear():
    rng = random.Random(23)
    for _ in range(50):
        a, b = rng.uniform(0.0, 1e7), rng.uniform(0.0, 1e7)
        assert resourcebudget.desert_fraction(a + b) == pytest.approx(
            resourcebudget.desert_fraction(a) + resourcebudget.desert_fraction(b), rel=1e-12)


def test_potential_fraction_examples():
    frac, times = rc.potential_fraction(186000.0, 690000.0)
    assert times == pytest.approx(3.70968, rel=1e-5)

    frac, times = rc.potential_fraction(35000.0, 301775.0)
    assert frac == pytest.approx(0.115980, rel=1e-5)

    frac, times = rc.potential_fraction(1234.0, 1234.0)
    assert frac == 1.0 and times == 1.0


def test_potential_fraction_zero_demand():
    frac, times = rc.potential_fraction(0.0, 10.0)
    assert frac == 0.0
    assert times == math.inf


@pytest.mark.parametrize("potential", [0.0, -1.0, math.nan, math.inf])
def test_potential_must_be_positive(potential):
    # a nan potential would otherwise give (nan, nan)
    with pytest.raises(DataError, match=r"^potential must be finite and > 0, got "):
        rc.potential_fraction(1.0, potential)


def test_potential_fraction_refuses_negative_demand():
    with pytest.raises(ModelError, match=r"^demand must be finite and >= 0, got -1\.0$"):
        rc.potential_fraction(-1.0, 10.0)


def test_fraction_times_product():
    rng = random.Random(29)
    for _ in range(50):
        demand = rng.uniform(1.0, 1e6)
        frac, times = rc.potential_fraction(demand, rng.uniform(1.0, 1e6))
        assert frac * times == pytest.approx(1.0, rel=1e-12)


def test_area_round_trip():
    rng = random.Random(31)
    for _ in range(50):
        demand = rng.uniform(0.0, 1e6)
        density = rng.uniform(1.0, 100.0)
        cf = rng.uniform(0.05, 1.0)
        area = rc.pv_area_required(demand, density, cf)
        back = area * density * cf * 8760.0 / 1e6
        assert back == pytest.approx(demand, rel=1e-9, abs=1e-9)


def test_area_scaling_laws():
    rng = random.Random(37)
    for _ in range(50):
        demand = rng.uniform(1.0, 1e5)
        k = rng.uniform(0.1, 10.0)
        base = rc.pv_area_required(demand, DENSITY, CF)
        assert rc.pv_area_required(k * demand, DENSITY, CF) == pytest.approx(
            k * base, rel=1e-12)
        assert rc.pv_area_required(demand, k * DENSITY, CF) == pytest.approx(
            base / k, rel=1e-12)


# -- offshore depth extrapolation ---------------------------------------------

def test_exact_proportional_points():
    assert rc.offshore_depth_extrapolation([(1.0, 10.0), (2.0, 20.0)], 3.0) \
        == pytest.approx(30.0, rel=1e-12)
    assert rc.offshore_depth_extrapolation([(1.0, 10.0), (2.0, 20.0)], 1.5) \
        == pytest.approx(15.0, rel=1e-12)


def test_depth_extrapolation_needs_points():
    with pytest.raises(ModelError, match=r"^depth extrapolation needs >= 2 points, got 1$"):
        rc.offshore_depth_extrapolation([(1.0, 10.0)], 2.0)


@pytest.mark.parametrize("points, shown", [
    ([(1.0, 10.0), (0.0, 20.0)], r"\(0\.0, 20\.0\)"),
    ([(1.0, 10.0), (2.0, -5.0)], r"\(2\.0, -5\.0\)"),
    ([(math.nan, 10.0), (2.0, 20.0)], r"\(nan, 10\.0\)"),
    ([(1.0, 10.0), (2.0, math.inf)], r"\(2\.0, inf\)"),
    ([(math.inf, 10.0), (2.0, 20.0)], r"\(inf, 10\.0\)"),
])
def test_depth_extrapolation_refuses_nonpositive_points(points, shown):
    with pytest.raises(DataError,
                       match=rf"^area and potential must be finite and > 0, got {shown}$"):
        rc.offshore_depth_extrapolation(points, 3.0)


def test_bundled_fixture_reproduces_registered_potential():
    points, target = resourcebudget.load_offshore_depth_fixture()
    assert len(points) == 3
    value = rc.offshore_depth_extrapolation(points, target)
    registered = rc.constant("offshore_1000m")
    assert abs(value - registered) / registered <= 0.01


# -- discrepancy checker --------------------------------------------------------

def test_appendix_rows_present_and_signed():
    rows = {r.name: r for r in rc.appendix_discrepancies()}
    required = {
        "pv_area_electric_2030_km2",
        "pv_area_primary_2030_km2",
        "desert_fraction_electric_of_stated_area",
        "desert_fraction_primary",
        "desert_fraction_reduced",
        "wind_fraction_electric",
        "wind_fraction_primary",
        "wind_fraction_reduced",
        "onshore_times_primary",
        "onshore_times_electric",
        "offshore50_times_electric",
        "offshore1000_times_primary",
        "wind_total_potential_twh",
        "reduced_primary_2030_twh",
        "offshore_1000m_extrapolated_twh",
        "pv_area_electric_fig5_km2",
    }
    assert required <= set(rows)

    # the stated 357,667 km2 lies ~1.9% below the 35,000-demand recomputation
    row = rows["pv_area_electric_2030_km2"]
    assert row.relative_deviation == pytest.approx(-0.0192, abs=5e-4)
    assert row.stated == 357667.0

    # the stated total potential is inconsistent with its own addends
    assert rows["wind_total_potential_twh"].computed == 991085.0

    # the efficiency arithmetic is the one figure that reproduces exactly
    assert rows["reduced_primary_2030_twh"].relative_deviation == 0.0

    for row in rows.values():
        expected = (row.stated - row.computed) / row.computed
        assert row.relative_deviation == pytest.approx(expected, rel=1e-12)
        assert row.citation.strip()
