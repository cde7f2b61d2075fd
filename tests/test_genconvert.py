"""Capacity-factor conversion arithmetic."""

import math

import numpy as np
import pytest

import renewcast as rc
from renewcast.errors import ModelError


def test_full_utilization():
    assert rc.generation_capability(1000.0, 1.0) == 8760.0


def test_pv_capacity_factor_example():
    assert rc.generation_capability(1000.0, 0.256) == pytest.approx(2242.56,
                                                                    rel=1e-12)


def test_zero_power():
    assert rc.generation_capability(0.0, 0.5) == 0.0


def test_single_sample_profile():
    s = rc.make_series("pv", "installed_power", "GW", [(2019, 630.0)])
    gen = rc.series_to_generation(s, 0.256)
    assert gen.samples == ((2019.0, pytest.approx(630.0 * 0.256 * 8.76,
                                                  rel=1e-12)),)


def test_shape_preserved():
    s = rc.make_series("toy", "installed_power", "GW", [(2000, 1.0), (2001, 2.0)])
    gen = rc.series_to_generation(s, 0.5)
    assert gen == rc.CapacitySeries("toy", "annual_generation", "TWh_per_year",
                                    (2000.0, 2001.0), (4.38, 8.76))


def test_bundled_hydro_capability_at_last_year(hydro_series):
    gen = rc.series_to_generation(hydro_series, rc.constant("cf_hydro"))
    assert 4200.0 <= gen.values[-1] <= 4800.0


@pytest.mark.parametrize("cf", [0.0, -0.1, 1.0001, 2.0, math.nan])
def test_capacity_factor_bounds(cf):
    out_of_range = rf"^capacity factor must be in \(0, 1\], got {cf!r}$"
    with pytest.raises(ModelError, match=out_of_range):
        rc.generation_capability(1.0, cf)
    with pytest.raises(ModelError, match=out_of_range):
        rc.TechnologyProfile("x", cf, None)
    with pytest.raises(ModelError, match=out_of_range):
        rc.series_to_generation(rc.make_series("x", "installed_power", "GW", [(2000, 1.0)]), cf)
    with pytest.raises(ModelError, match=out_of_range):
        rc.pv_area_required(1.0, 42.8, cf)


def test_negative_power_rejected():
    with pytest.raises(ModelError, match=r"^installed power must be >= 0, got -1\.0$"):
        rc.generation_capability(-1.0, 0.5)


def test_negative_generation_rejected():
    with pytest.raises(ModelError, match=r"^generation must be >= 0, got -1\.0$"):
        rc.power_required(-1.0, 0.5)


def test_linearity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = rng.uniform(0.0, 5000.0)
        alpha = rng.uniform(0.0, 100.0)
        cf = rng.uniform(0.01, 1.0)
        assert rc.generation_capability(alpha * p, cf) == pytest.approx(
            alpha * rc.generation_capability(p, cf), rel=1e-14, abs=1e-12)


def test_round_trip_with_power_required():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = rng.uniform(1e-6, 1e5)
        cf = rng.uniform(0.01, 1.0)
        back = rc.power_required(rc.generation_capability(p, cf), cf)
        assert back == pytest.approx(p, rel=1e-12)


def test_monotone_in_power():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p1, p2 = sorted(rng.uniform(0.0, 1e4, size=2))
        cf = rng.uniform(0.01, 1.0)
        assert rc.generation_capability(p1, cf) <= rc.generation_capability(p2, cf)
