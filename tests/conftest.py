"""Shared fixtures: bundled series and one default scenario run per session."""

import pytest

import renewcast as rc
from renewcast.corpus import load_bundled


@pytest.fixture(scope="session")
def pv_series():
    return load_bundled("pv")


@pytest.fixture(scope="session")
def wind_series():
    return load_bundled("wind")


@pytest.fixture(scope="session")
def hydro_series():
    return load_bundled("hydro")


@pytest.fixture(scope="session")
def offshore_series():
    return load_bundled("offshore_wind")


@pytest.fixture(scope="session")
def default_report():
    return rc.run_scenario(rc.ScenarioConfig())


@pytest.fixture(scope="session")
def pv_profile(pv_series):
    fit = rc.fit_exponential(pv_series, (2000.0, None))
    return rc.TechnologyProfile("pv", rc.constant("cf_pv"), fit)


@pytest.fixture(scope="session")
def wind_profile(wind_series):
    fit = rc.fit_exponential(wind_series)
    return rc.TechnologyProfile("wind", rc.constant("cf_wind"), fit)


@pytest.fixture(scope="session")
def hydro_profile(hydro_series):
    fit = rc.fit_polynomial(hydro_series, 2)
    return rc.TechnologyProfile("hydro", rc.constant("cf_hydro"), fit)
