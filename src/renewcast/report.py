"""Scenario orchestration: configuration, the report and its artifacts.

run_scenario validates the config and loads the datasets. Every other
section of the ScenarioReport it returns is computed when first read and
then kept: fits, threshold crossings under each wind treatment, mixes,
learning curves, resource budgets, and the discrepancy, claims and
warnings tables. A caller pays only for the sections it reads, and a
model error aborts only the callers that read the failing section.
Outputs are a versioned JSON document, CSV tables and standalone SVG
figures; identical config and datasets produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property, partial
from pathlib import Path

from . import corpus, growthfit, learncurve, resourcebudget, scenario
from .corpus import constant, get_constant
from .errors import ConfigInvalid, DatasetMissing, MissingFit, OutputUnwritable
from .genconvert import TechnologyProfile
from .svgchart import Axis, Chart, render

SCHEMA_VERSION = 1
# Latest accepted horizon or evaluation year; it bounds the crossing grid.
MAX_HORIZON = 2200.0
# Highest accepted hydro_degree: on the bundled hydro series the fit's and
# numpy polyfit's coefficients agree to 3e-14 up to degree 5, 1.3e-12 at 6.
MAX_HYDRO_DEGREE = 5

WIND_TREATMENTS = ("trend", "piecewise", "rebound")
COMBINATIONS = ("pv", "wind_pv", "wind_pv_hydro")
FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
              "appfig1", "appfig6")

# threshold name -> registered constant holding its level
_THRESHOLD_CONSTANTS = {
    "electric_fig5": "electric_threshold_fig5",
    "electric_2030": "electric_demand_2030",
    "reduced_primary_2030": "reduced_primary_2030",
    "primary_fig5": "primary_threshold_fig5",
}
THRESHOLD_NAMES = tuple(_THRESHOLD_CONSTANTS)


def check_year(name: str, year: float):
    """Reject a non-finite year or one after MAX_HORIZON."""
    if not (math.isfinite(year) and year <= MAX_HORIZON):
        raise ConfigInvalid(
            f"{name} must be a finite year <= {MAX_HORIZON:g}, got {year!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Run configuration; every field has a default matching the bundled setup."""

    data_dir: str | None = None
    out_dir: str = "out"
    horizon: float = 2050.0
    wind_treatment: str = "trend"
    changepoint_min_segment: int = 3
    changepoint_threshold: float = 0.5
    pv_window: tuple = (2000.0, None)
    wind_window: tuple = (None, None)
    wind_regime_window: tuple = (1996.0, 2009.0)
    offshore_window: tuple = (2009.0, None)
    hydro_window: tuple = (None, None)
    hydro_degree: int = 2
    cf_pv: float | None = None
    cf_wind: float | None = None
    cf_hydro: float | None = None
    mix_years: tuple = (2025.0, 2030.0)
    thresholds: tuple = THRESHOLD_NAMES

    def validate(self):
        if self.wind_treatment not in WIND_TREATMENTS:
            raise ConfigInvalid(
                f"wind_treatment must be one of {WIND_TREATMENTS}, "
                f"got {self.wind_treatment!r}"
            )
        check_year("horizon", self.horizon)
        for year in self.mix_years:
            check_year("mix year", year)
        if not math.isfinite(self.changepoint_threshold):
            raise ConfigInvalid("changepoint_threshold must be finite")
        if self.changepoint_min_segment < 2:
            raise ConfigInvalid("changepoint_min_segment must be >= 2")
        if not 1 <= self.hydro_degree <= MAX_HYDRO_DEGREE:
            raise ConfigInvalid(
                f"hydro_degree must be in 1..{MAX_HYDRO_DEGREE}, got {self.hydro_degree}")
        for t in self.thresholds:
            if t not in THRESHOLD_NAMES:
                raise ConfigInvalid(
                    f"unknown threshold {t!r}; known: {', '.join(sorted(THRESHOLD_NAMES))}"
                )
        for cf in (self.cf_pv, self.cf_wind, self.cf_hydro):
            if cf is not None and not (0.0 < cf <= 1.0):
                raise ConfigInvalid(f"capacity factor {cf!r} outside (0, 1]")
        for key in _WINDOW_KEYS:
            lo, hi = getattr(self, key)
            text = ":".join("" if b is None else repr(b) for b in (lo, hi))
            if any(b is not None and not math.isfinite(b) for b in (lo, hi)):
                raise ConfigInvalid(f"{key} bounds must be finite, got {text}")
            if lo is not None and hi is not None and lo > hi:
                raise ConfigInvalid(f"{key} starts after it ends: {text}")
        return self


_WINDOW_KEYS = (
    "pv_window", "wind_window", "wind_regime_window", "offshore_window",
    "hydro_window",
)
_FLOAT_KEYS = {"horizon", "changepoint_threshold", "cf_pv", "cf_wind", "cf_hydro"}
_INT_KEYS = {"changepoint_min_segment", "hydro_degree"}
_STR_KEYS = {"data_dir", "out_dir", "wind_treatment"}


def _parse_window(text: str):
    if ":" not in text:
        raise ConfigInvalid(f"window must look like 'start:end', got {text!r}")
    lo_txt, hi_txt = text.split(":", 1)
    lo = float(lo_txt) if lo_txt.strip() else None
    hi = float(hi_txt) if hi_txt.strip() else None
    return (lo, hi)


def parse_config(path) -> ScenarioConfig:
    """Flat 'key = value' file with '#' comments; every key optional."""
    p = Path(path)
    if not p.is_file():
        raise ConfigInvalid(f"config file {path} not found")
    values = {}
    for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigInvalid(f"{path}:{n}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip().strip('"').strip("'")
        try:
            if key in _WINDOW_KEYS:
                values[key] = _parse_window(raw)
            elif key in _FLOAT_KEYS:
                values[key] = float(raw)
            elif key in _INT_KEYS:
                values[key] = int(raw)
            elif key in _STR_KEYS:
                values[key] = raw
            elif key == "mix_years":
                values[key] = tuple(float(v) for v in raw.split(",") if v.strip())
            elif key == "thresholds":
                values[key] = tuple(v.strip() for v in raw.split(",") if v.strip())
            else:
                raise ConfigInvalid(f"{path}:{n}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigInvalid(f"{path}:{n}: bad value for {key}: {exc}") from None
    return ScenarioConfig(**values).validate()


# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingEntry:
    threshold: str
    level_twh_per_year: float
    combination: str
    wind_treatment: str | None
    status: str
    year: float | None
    horizon_warning: bool


@dataclass(frozen=True)
class ClaimRow:
    name: str
    stated_year: float
    computed_year: float | None
    delta_years: float | None
    citation: str


@dataclass
class ScenarioReport:
    """One scenario over its loaded series. Every other section is computed
    from these two fields when it is first read, then kept, and is held as
    the typed objects that computed it. Each published row (CrossingEntry,
    scenario.MixEntry, resourcebudget.AreaBudget, DiscrepancyRow, ClaimRow)
    names its fields as report.json and the CSV tables name its columns;
    to_dict writes a copy of each row's fields, and the CSV writers take
    their headers from the row type."""

    config: ScenarioConfig
    series: dict

    def to_dict(self) -> dict:
        # out_dir is not echoed: artifacts must not depend on where they are
        # written
        cfg = {
            "data_dir": self.config.data_dir,
            "horizon": self.config.horizon,
            "wind_treatment": self.config.wind_treatment,
            "changepoint_min_segment": self.config.changepoint_min_segment,
            "changepoint_threshold": self.config.changepoint_threshold,
            "pv_window": list(self.config.pv_window),
            "wind_window": list(self.config.wind_window),
            "wind_regime_window": list(self.config.wind_regime_window),
            "offshore_window": list(self.config.offshore_window),
            "hydro_window": list(self.config.hydro_window),
            "hydro_degree": self.config.hydro_degree,
            "capacity_factors": self.capacity_factors,
            "mix_years": list(self.config.mix_years),
            "thresholds": list(self.config.thresholds),
        }
        return {
            "schema_version": SCHEMA_VERSION,
            "config": cfg,
            "fits": {name: self.fit_dict(name) for name in self.fits},
            "crossings": _row_dicts(self.crossings),
            "mixes": {year: _row_dicts(entries) for year, entries in self.mixes.items()},
            "learning": self.learning_dict(),
            "budget": {**self.budget, "areas": {
                name: dict(vars(area)) for name, area in self.budget["areas"].items()}},
            "discrepancies": _row_dicts(self.discrepancies),
            "claims": _row_dicts(self.claims),
            "warnings": self.warnings,
        }

    def fit_dict(self, name: str) -> dict:
        """JSON form of one fit; name is a key of fits."""
        fit = self.fits[name]
        if name == "wind_piecewise":
            return {
                "kind": "piecewise_exponential",
                "changepoint_year": fit.changepoint_year,
                "left": _exp_fit_dict(fit.left),
                "right": _exp_fit_dict(fit.right),
                "sse_piecewise": fit.sse_piecewise,
                "sse_single": fit.sse_single,
                "improvement_ratio": fit.improvement_ratio,
                "regime_change": self.regime_change,
                "window": list(fit.window),
            }
        if name == "hydro":
            return {
                "kind": "polynomial",
                "reference_year": fit.reference_year,
                "coefficients": list(fit.coefficients),
                "degree": fit.degree,
                "rmse": fit.rmse,
                "window": list(fit.window),
            }
        out = _exp_fit_dict(fit)
        if name == "pv":
            out["residual_signs"] = growthfit.residual_signs(self.series["pv"], fit)
        return out

    def learning_dict(self) -> dict:
        pv_lc = self.learning["pv_learning_curve"]
        wind_lc = self.learning["wind_learning_curve"]
        cross_x, cross_cost = self.curve_crossing
        return {
            "pv_learning_curve": _learning_curve_dict(pv_lc),
            "wind_learning_curve": _learning_curve_dict(wind_lc),
            "curve_crossing": {
                "x_twh_per_year": cross_x,
                "cost_usd_per_mwh": cross_cost,
                "beyond_observed_range": cross_x > max(pv_lc.x_range[1],
                                                       wind_lc.x_range[1]),
            },
            "pv_cost_at_stated_2030_generation_usd_per_mwh":
                self.pv_cost_at_stated_2030,
            "pv_time_decay": _decay_dict(self.learning["pv_time_decay"]),
            "wind_time_decay": _decay_dict(self.learning["wind_time_decay"]),
            "battery_time_decay": _decay_dict(self.learning["battery_time_decay"]),
            "battery_cost_2030_usd_per_kwh": self.battery_cost_2030,
        }

    @cached_property
    def capacity_factors(self) -> dict:
        config = self.config
        cf_pv = config.cf_pv if config.cf_pv is not None else constant("cf_pv")
        cf_wind = config.cf_wind if config.cf_wind is not None else constant("cf_wind")
        cf_hydro = config.cf_hydro if config.cf_hydro is not None else constant("cf_hydro")
        return {"pv": cf_pv, "wind": cf_wind, "hydro": cf_hydro}

    @cached_property
    def fits(self) -> Mapping:
        """name -> growthfit Exponential/PiecewiseExponential/PolynomialFit,
        each fitted when first read."""
        config, series = self.config, self.series
        exponential = growthfit.fit_exponential
        return _LazyMap({
            "pv": partial(exponential, series["pv"], config.pv_window),
            "wind_trend": partial(exponential, series["wind"], config.wind_window),
            "wind_piecewise": partial(growthfit.detect_changepoint, series["wind"],
                                      config.changepoint_min_segment, config.wind_window),
            "wind_rebound": partial(exponential, series["wind"], config.wind_regime_window),
            "offshore_wind": partial(exponential, series["offshore_wind"],
                                     config.offshore_window),
            "hydro": partial(growthfit.fit_polynomial, series["hydro"], config.hydro_degree,
                             config.hydro_window),
        })

    @cached_property
    def profiles(self) -> Mapping:
        """name -> TechnologyProfile of the fit of that name, built when first read."""
        # the makers hold no reference to self, so a report is freed without
        # waiting for the cycle collector
        series, fits, factors = self.series, self.fits, self.capacity_factors

        def profile(name):
            tech = "wind" if name.startswith("wind_") else name
            fit = fits[name]
            # the piecewise treatment projects from the right segment
            model = fit.right if name == "wind_piecewise" else fit
            return TechnologyProfile(tech, factors["wind" if tech == "offshore_wind" else tech],
                                     series[tech], model)

        return _LazyMap({name: partial(profile, name) for name in fits})

    @cached_property
    def projections(self) -> Mapping:
        """(combination, wind treatment) -> summed generation, in crossing
        order, each combined when first read; "pv" alone has treatment None.
        Every section shares these objects, so each is built at most once
        per report."""
        profiles = self.profiles

        def projection(combo, treatment):
            parts = ["pv"] if combo == "pv" else ["pv", f"wind_{treatment}"]
            if combo == "wind_pv_hydro":
                parts.append("hydro")
            return scenario.combine([profiles[name] for name in parts])

        keys = [("pv", None)] + [(c, t) for c in COMBINATIONS[1:] for t in WIND_TREATMENTS]
        return _LazyMap({key: partial(projection, *key) for key in keys})

    @cached_property
    def crossing_entries(self) -> Mapping:
        """(threshold, combination, wind treatment) -> CrossingEntry for each
        configured threshold and each projection, in crossing order, each
        solved when first read."""
        projections, horizon = self.projections, self.config.horizon

        def entry(threshold, combination, wind_treatment):
            proj = projections[(combination, wind_treatment)]
            level = constant(_THRESHOLD_CONSTANTS[threshold])
            res = scenario.crossing_year(proj, scenario.DemandThreshold(threshold, level),
                                         horizon)
            # a crossing is flagged when any component fit had to reach more
            # than HORIZON_WARNING_YEARS past its own window
            warn = res.year is not None and any(
                growthfit.past_horizon(p.model, res.year) for p in proj.components)
            return CrossingEntry(threshold, level, combination, wind_treatment,
                                 res.status, res.year, warn)

        return _LazyMap({(name, *key): partial(entry, name, *key)
                         for name in THRESHOLD_NAMES if name in self.config.thresholds
                         for key in projections})

    @cached_property
    def crossings(self) -> list:
        """CrossingEntry per configured threshold, combination and treatment."""
        return list(self.crossing_entries.values())

    @cached_property
    def mixes(self) -> dict:
        """"%g" year -> list of scenario.MixEntry, headline wind treatment."""
        three_tech = self.projections[("wind_pv_hydro", self.config.wind_treatment)]
        return {f"{year:g}": scenario.mix_at_year(three_tech, year)
                for year in self.config.mix_years}

    @cached_property
    def learning(self) -> dict:
        """name -> learncurve LearningCurveFit/TimeDecayFit."""
        series, cf = self.series, self.capacity_factors
        pv_cost = learncurve.cost_series(series["pv_lcoe"])
        wind_cost = learncurve.cost_series(series["wind_lcoe"])
        return {
            "pv_learning_curve": learncurve.fit_learning_curve(
                learncurve.join_cost_to_generation(pv_cost, series["pv"], cf["pv"])),
            "wind_learning_curve": learncurve.fit_learning_curve(
                learncurve.join_cost_to_generation(wind_cost, series["wind"],
                                                   cf["wind"])),
            "pv_time_decay": learncurve.fit_time_decay(pv_cost),
            "wind_time_decay": learncurve.fit_time_decay(wind_cost),
            "battery_time_decay": learncurve.fit_time_decay(
                learncurve.cost_series(series["battery"])),
        }

    @cached_property
    def budget(self) -> dict:
        density = constant("pv_density")
        demands = {
            "electric_2030": constant("electric_demand_2030"),
            "electric_fig5": constant("electric_threshold_fig5"),
            "primary_2030": constant("primary_demand_2030"),
            "primary_fig5": constant("primary_threshold_fig5"),
            "reduced_primary_2030": corpus.reduced_primary(
                constant("primary_demand_2030")),
        }
        budget_areas = {
            name: resourcebudget.area_budget(demand, density, self.capacity_factors["pv"])
            for name, demand in demands.items()
        }
        potentials = {
            name: resourcebudget.ResourcePotential(name, constant(const), qualifier,
                                                   get_constant(const).citation)
            for name, const, qualifier in (
                ("onshore", "onshore_wind_potential", "onshore"),
                ("offshore_50m", "offshore_50m", "water depth < 50 m"),
                ("offshore_1000m", "offshore_1000m", "water depth < 1000 m"),
                ("wind_total_as_stated", "wind_total_potential_as_stated", "as stated"),
            )
        }
        budget_fractions = {}
        for pot_name, pot in potentials.items():
            for dem_name in ("electric_2030", "primary_2030", "reduced_primary_2030"):
                frac, times = resourcebudget.potential_fraction(demands[dem_name], pot)
                budget_fractions[f"{dem_name}_vs_{pot_name}"] = {
                    "fraction": frac,
                    "times_over": times,
                }
        fixture_points, fixture_target = resourcebudget.load_offshore_depth_fixture()
        offshore_extrapolated = resourcebudget.offshore_depth_extrapolation(
            fixture_points, fixture_target)
        return {
            "pv_density_mw_per_km2": density,
            "desert_area_km2": constant("desert_area"),
            "areas": budget_areas,
            "potential_fractions": budget_fractions,
            "offshore_depth_extrapolation": {
                "points_area_mkm2_potential_twh": [list(p) for p in fixture_points],
                "target_area_mkm2": fixture_target,
                "extrapolated_potential_twh_per_year": offshore_extrapolated,
            },
        }

    @property
    def regime_change(self) -> bool:
        return (self.fits["wind_piecewise"].improvement_ratio
                >= self.config.changepoint_threshold)

    @property
    def curve_crossing(self) -> tuple[float, float]:
        """(x, cost) where the PV and wind learning curves meet."""
        return learncurve.curve_crossing(self.learning["pv_learning_curve"],
                                         self.learning["wind_learning_curve"])

    @property
    def pv_cost_at_stated_2030(self) -> float:
        return learncurve.cost_at(self.learning["pv_learning_curve"],
                                  constant("stated_mix_2030_pv"))

    @property
    def battery_cost_2030(self) -> float:
        return self.learning["battery_time_decay"].cost_at_year(2030.0)

    def crossing_for(self, threshold, combination, wind_treatment=None):
        """The CrossingEntry of one configured threshold, solved on first
        request; MissingFit for a threshold or pair the report does not have."""
        key = (threshold, combination, wind_treatment)
        if key not in self.crossing_entries:
            raise MissingFit(
                f"no crossing entry for {threshold}/{combination}/{wind_treatment}"
            )
        return self.crossing_entries[key]

    @cached_property
    def discrepancies(self) -> list:
        """Appendix recomputations plus the scenario-level rows, sorted by
        |relative deviation| descending."""
        rows = list(resourcebudget.appendix_discrepancies())
        for year_key in ("2025", "2030"):
            if year_key not in self.mixes:
                continue
            generation = {e.technology: e.generation_twh_per_year
                          for e in self.mixes[year_key]}
            for tech in ("pv", "wind", "hydro"):
                rows.append(resourcebudget.discrepancy_row(
                    f"mix_{year_key}_{tech}_twh", f"stated_mix_{year_key}_{tech}",
                    generation[tech]))
            if year_key == "2025":
                rows.append(resourcebudget.discrepancy_row(
                    "mix_2025_total_twh", "stated_mix_2025_total",
                    sum(generation.values())))
        rows.append(resourcebudget.discrepancy_row(
            "battery_cost_2030_usd_per_kwh", "stated_battery_cost_2030",
            self.battery_cost_2030))
        rows.sort(key=lambda d: (-abs(d.relative_deviation), d.name))
        return rows

    @cached_property
    def claims(self) -> list:
        """Stated years against the computed ones, headline wind treatment."""
        headline = self.config.wind_treatment

        def claim(name, const_name, computed_year):
            c = get_constant(const_name)
            delta = None if computed_year is None else computed_year - c.value
            return ClaimRow(name, c.value, computed_year, delta, c.citation)

        def year(threshold, combo, treatment=None):
            try:
                return self.crossing_for(threshold, combo, treatment).year
            except MissingFit:
                return None

        crossover_year = scenario.pv_wind_generation_crossover(
            self.profiles["pv"], self.profiles[f"wind_{headline}"])
        offshore_1tw_year = self.fits["offshore_wind"].year_at(1000.0)
        return [
            claim("wind_pv_meet_electric_fig5", "stated_year_wind_pv_electric",
                  year("electric_fig5", "wind_pv", headline)),
            claim("three_tech_meet_electric_fig5", "stated_year_three_tech_electric",
                  year("electric_fig5", "wind_pv_hydro", headline)),
            claim("three_tech_meet_reduced_primary",
                  "stated_year_three_tech_reduced_primary",
                  year("reduced_primary_2030", "wind_pv_hydro", headline)),
            claim("pv_alone_meets_electric_fig5", "stated_year_pv_alone_electric",
                  year("electric_fig5", "pv")),
            claim("pv_alone_meets_electric_fig5_alt",
                  "stated_year_pv_alone_electric_alt", year("electric_fig5", "pv")),
            claim("pv_alone_meets_primary_fig5", "stated_year_pv_alone_primary",
                  year("primary_fig5", "pv")),
            claim("pv_overtakes_wind", "stated_year_pv_overtakes_wind", crossover_year),
            claim("offshore_reaches_1tw", "stated_offshore_1tw_year", offshore_1tw_year),
        ]

    @cached_property
    def warnings(self) -> list:
        warnings = []
        piecewise = self.fits["wind_piecewise"]
        if self.regime_change:
            warnings.append(
                f"wind growth regime change at {piecewise.changepoint_year:g} "
                f"(improvement_ratio "
                f"{piecewise.improvement_ratio:.3f} >= "
                f"{self.config.changepoint_threshold:g})"
            )
        floor = constant("stated_lcoe_floor")
        for label, value in (("PV cost at stated 2030 generation",
                              self.pv_cost_at_stated_2030),
                             ("learning-curve crossing cost", self.curve_crossing[1])):
            if value < floor:
                warnings.append(
                    f"{label} {value:.3f} USD/MWh lies below the stated "
                    f"{floor:g} USD/MWh floor"
                )
        for c in self.crossings:
            if c.horizon_warning:
                warnings.append(
                    f"crossing of {c.threshold} by {c.combination}"
                    f"{'' if c.wind_treatment is None else '/' + c.wind_treatment} "
                    f"at {c.year:.2f} extrapolates a fit more than "
                    f"{growthfit.HORIZON_WARNING_YEARS:g} years past its window"
                )
        return warnings


class _LazyMap(Mapping):
    """name -> value, each made by its maker when first read, then kept."""

    def __init__(self, makers: dict):
        self._makers, self._values = makers, {}

    def __getitem__(self, key):
        if key not in self._values:
            self._values[key] = self._makers[key]()
        return self._values[key]

    def __contains__(self, key):
        return key in self._makers

    def __iter__(self):
        return iter(self._makers)

    def __len__(self):
        return len(self._makers)


def _row_dicts(rows) -> list:
    """A copy of each row's fields: editing the result leaves the rows as they are."""
    return [dict(vars(row)) for row in rows]


def _exp_fit_dict(fit: growthfit.ExponentialFit) -> dict:
    return {
        "kind": "exponential",
        "reference_year": fit.reference_year,
        "ln_intercept": fit.ln_intercept,
        "ln_slope": fit.ln_slope,
        "doubling_time_years": (growthfit.doubling_time(fit)
                                if fit.ln_slope > 0 else None),
        "r_squared_logspace": fit.r_squared_logspace,
        "rmse_logspace": fit.rmse_logspace,
        "window": list(fit.window),
    }


def _learning_curve_dict(fit: learncurve.LearningCurveFit) -> dict:
    return {
        "log10_intercept": fit.log10_intercept,
        "log10_slope": fit.log10_slope,
        "learning_rate_per_doubling": learncurve.learning_rate(fit),
        "r_squared": fit.r_squared,
        "x_range_twh_per_year": list(fit.x_range),
        "cost_unit": fit.cost_unit,
    }


def _decay_dict(fit: learncurve.TimeDecayFit) -> dict:
    return {
        "reference_year": fit.reference_year,
        "cost_at_reference": fit.cost0,
        "annual_decay_factor": fit.decay,
        "decade_decline_fraction": 1.0 - fit.decay ** 10,
        "r_squared": fit.r_squared,
        "window": list(fit.window),
        "cost_unit": fit.cost_unit,
    }


def load_series(config: ScenarioConfig) -> dict:
    names = ("pv", "wind", "offshore_wind", "hydro", "pv_lcoe", "wind_lcoe",
             "battery")
    out = {}
    for name in names:
        if config.data_dir is None:
            out[name] = corpus.load_bundled(name)
        else:
            path = Path(config.data_dir) / corpus.BUNDLED_DATASETS[name]
            if not path.is_file():
                raise DatasetMissing(f"dataset file {path} not found")
            out[name] = corpus.load_capacity_series(path.read_text(encoding="utf-8"))
    return out


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Validate the config and load the series; config and data errors are
    raised here, model errors by the first report section that meets one."""
    config.validate()
    series = load_series(config)
    last_data_year = max(s.last_year for s in series.values())
    if config.horizon <= last_data_year:
        raise ConfigInvalid(
            f"horizon {config.horizon:g} must exceed the last data year "
            f"{last_data_year:g}"
        )
    return ScenarioReport(config, series)


# --------------------------------------------------------------------------
# Artifact emission

def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    text = str(v)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv(header, rows) -> str:
    return "\n".join(",".join(_csv_cell(c) for c in row)
                     for row in (header, *rows)) + "\n"


def _field_names(row_type) -> tuple:
    return tuple(f.name for f in fields(row_type))


def _rows_csv(row_type, rows) -> str:
    """One column per field of row_type, headed by the field's name."""
    return _csv(_field_names(row_type), (vars(row).values() for row in rows))


def crossings_csv(report: ScenarioReport) -> str:
    return _rows_csv(CrossingEntry, report.crossings)


def mixes_csv(report: ScenarioReport) -> str:
    return _csv(("year", *_field_names(scenario.MixEntry)),
                [(year, *vars(e).values()) for year, entries in report.mixes.items()
                 for e in entries])


def budget_csv(report: ScenarioReport) -> str:
    rows = []
    for name, area in report.budget["areas"].items():
        rows.append((f"area_{name}", area.required_area_km2, "km2"))
        rows.append((f"desert_fraction_{name}", area.desert_fraction, "fraction"))
    for name, entry in report.budget["potential_fractions"].items():
        rows.append((f"fraction_{name}", entry["fraction"], "fraction"))
        rows.append((f"times_over_{name}", entry["times_over"], "ratio"))
    ode = report.budget["offshore_depth_extrapolation"]
    rows.append(("offshore_depth_extrapolated_potential",
                 ode["extrapolated_potential_twh_per_year"], "TWh_per_year"))
    return _csv(("name", "value", "unit"), rows)


def discrepancies_csv(report: ScenarioReport) -> str:
    return _rows_csv(resourcebudget.DiscrepancyRow, report.discrepancies)


def claims_csv(report: ScenarioReport) -> str:
    return _rows_csv(ClaimRow, report.claims)


def emit_discrepancies(rows) -> str:
    """Plain-text discrepancy table, one row per stated literal, in the order
    given (the report sorts them by |relative deviation| descending). Values
    keep full precision so every number shown also exists in the
    machine-readable output."""
    header = _field_names(resourcebudget.DiscrepancyRow)[:4]   # all but the citation
    widths = [44, 24, 24, 24]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for d in rows:
        cells = (d.name, repr(d.stated), repr(d.computed),
                 repr(d.relative_deviation))
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"


def report_json(report: ScenarioReport) -> str:
    return json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"


def write_artifacts(out_dir, artifacts) -> list:
    """Write (file name, text) pairs into out_dir; returns the written paths.

    Each text goes to a hidden sibling of its file as the iterable yields
    it, and the siblings replace their files only once every text is
    written. If anything fails first, the siblings are removed and out_dir
    keeps exactly the files it held before the call.

    Raises OutputUnwritable when the directory or a file cannot be written.
    """
    out = Path(out_dir)
    staged = []     # (sibling, file) pairs
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts:
            path = out / name
            if path.is_dir():
                # os.replace cannot put a file there, and would fail only
                # after the earlier files had been replaced
                raise IsADirectoryError(f"{path} is a directory")
            sibling = out / f".{name}.tmp"
            staged.append((sibling, path))
            sibling.write_text(text, encoding="utf-8")
        for sibling, path in staged:
            os.replace(sibling, path)
    except BaseException as exc:
        for sibling, _ in staged:
            sibling.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OutputUnwritable(f"cannot write to {out_dir}: {exc}") from None
        raise
    return [path for _, path in staged]


def write_outputs(report: ScenarioReport, out_dir) -> list:
    """Write every artifact; returns the written paths."""
    def artifacts():
        yield "report.json", report_json(report)
        yield "crossings.csv", crossings_csv(report)
        yield "mixes.csv", mixes_csv(report)
        yield "budget.csv", budget_csv(report)
        yield "discrepancies.csv", discrepancies_csv(report)
        yield "claims.csv", claims_csv(report)
        yield "discrepancies.txt", emit_discrepancies(report.discrepancies)
        for fig_id in FIGURE_IDS:
            yield f"{fig_id}.svg", emit_figure(report, fig_id)

    return write_artifacts(out_dir, artifacts())


# --------------------------------------------------------------------------
# Figures

def _series_xy(series):
    return list(series.years), list(series.values)


def _line_points(model, lo, hi, step=0.5):
    xs, ys = [], []
    t = lo
    while t <= hi + 1e-9:
        xs.append(t)
        ys.append(model.value_at(t))
        t += step
    return xs, ys


def _capability_line(model, cf, lo, hi, step=0.5):
    xs, raw = _line_points(model, lo, hi, step)
    return xs, [v * cf * corpus.HOURS_PER_YEAR / 1000.0 for v in raw]


def _pow10_lo(v):
    return 10.0 ** math.floor(math.log10(v))


def _pow10_hi(v):
    return 10.0 ** math.ceil(math.log10(v))


def _capacity_panels(series, fits_and_styles, title):
    xs, ys = _series_xy(series)
    x_axis = Axis("year", "linear", math.floor(xs[0]), math.ceil(xs[-1]) + 1)
    lin = Chart(f"{title} (linear)",
                Axis("year", "linear", x_axis.lo, x_axis.hi),
                Axis("installed power [GW]", "linear", 0.0, max(ys) * 1.15))
    log = Chart(f"{title} (log)",
                Axis("year", "linear", x_axis.lo, x_axis.hi),
                Axis("installed power [GW]", "log", _pow10_lo(min(ys)),
                     _pow10_hi(max(ys))))
    for chart in (lin, log):
        chart.add_points(xs, ys, "#222222", "data")
        for model, color, label in fits_and_styles:
            lx, ly = _line_points(model, model.window[0], x_axis.hi - 1)
            chart.add_line(lx, ly, color, label, dashed=True)
    return render([lin, log], title)


def emit_figure(report: ScenarioReport, figure_id: str) -> str:
    """Standalone SVG for one figure id; see FIGURE_IDS for the valid set."""
    if figure_id not in FIGURE_IDS:
        raise MissingFit(
            f"unknown figure id {figure_id!r}; valid ids: "
            f"{', '.join(FIGURE_IDS)}"
        )
    series = report.series
    profiles = report.profiles
    pv_fit = profiles["pv"].model
    cf = report.capacity_factors

    if figure_id == "fig1":
        return _capacity_panels(series["pv"], [(pv_fit, "#e6a817", "fit")],
                                "installed PV power")
    if figure_id == "fig2":
        left = profiles["wind_rebound"].model
        right = profiles["wind_piecewise"].model
        return _capacity_panels(
            series["wind"],
            [(left, "#c53030", "pre-changepoint fit"),
             (right, "#2b6cb0", "post-changepoint fit")],
            "installed wind power")
    if figure_id == "fig3":
        return _capacity_panels(series["offshore_wind"],
                                [(profiles["offshore_wind"].model, "#2b6cb0", "fit")],
                                "installed offshore wind power")

    if figure_id == "fig4":
        pv_xs, pv_gw = _series_xy(series["pv"])
        w_xs, w_gw = _series_xy(series["wind"])
        gw = Chart("installed power",
                   Axis("year", "linear", 1996, 2022),
                   Axis("installed power [GW]", "log", 1.0,
                        _pow10_hi(max(max(pv_gw), max(w_gw)))))
        gw.add_points(pv_xs, pv_gw, "#e6a817", "pv")
        gw.add_points(w_xs, w_gw, "#2b6cb0", "wind")
        k_pv = cf["pv"] * corpus.HOURS_PER_YEAR / 1000.0
        k_w = cf["wind"] * corpus.HOURS_PER_YEAR / 1000.0
        cap = Chart("generation capability",
                    Axis("year", "linear", 1996, 2022),
                    Axis("generation capability [TWh/yr]", "log", 1.0,
                         _pow10_hi(max(max(v * k_pv for v in pv_gw),
                                       max(v * k_w for v in w_gw)))))
        cap.add_points(pv_xs, [v * k_pv for v in pv_gw], "#e6a817", "pv")
        cap.add_points(w_xs, [v * k_w for v in w_gw], "#2b6cb0", "wind")
        return render([gw, cap], "installed power and generation capability")

    levels = {name: constant(const) for name, const in _THRESHOLD_CONSTANTS.items()}
    hline_specs = [
        (levels["electric_fig5"], "electricity demand"),
        (levels["reduced_primary_2030"], "reduced primary demand"),
        (levels["primary_fig5"], "primary demand"),
    ]

    if figure_id == "fig5":
        chart = Chart("generation capability and extrapolations",
                      Axis("year", "linear", 1996, 2040),
                      Axis("generation capability [TWh/yr]", "log", 1.0, 1e6),
                      width=720, height=480)
        for name, key, color in (("pv", "pv", "#e6a817"),
                                 ("wind", "wind", "#2b6cb0"),
                                 ("hydro", "hydro", "#2f855a")):
            prof = profiles["wind_trend"] if key == "wind" else profiles[key]
            xs, gw = _series_xy(series[key])
            k = prof.capacity_factor * corpus.HOURS_PER_YEAR / 1000.0
            chart.add_points(xs, [v * k for v in gw], color, name)
            lx, ly = _capability_line(prof.model, prof.capacity_factor,
                                      max(prof.model.window[0], 1996), 2040)
            chart.add_line(lx, ly, color, dashed=True)
        for level, label in hline_specs:
            chart.add_hline(level, f"{label} ({level:g} TWh/yr)")
        return render([chart], "generation capability and extrapolations")

    if figure_id == "fig6":
        headline = report.config.wind_treatment
        wind_prof = profiles[f"wind_{headline}"]
        chart = Chart("combined generation capability",
                      Axis("year", "linear", 2000, 2040),
                      Axis("generation capability [TWh/yr]", "log", 10.0, 1e6),
                      width=720, height=480)
        start = max(wind_prof.model.window[0], 2000.0)
        two = report.projections[("wind_pv", headline)]
        three = report.projections[("wind_pv_hydro", headline)]
        for proj, color, label in ((two, "#6b46c1", "wind+pv"),
                                   (three, "#2f855a", "wind+pv+hydro")):
            xs = [start + 0.5 * i for i in range(int((2040 - start) / 0.5) + 1)]
            chart.add_line(xs, [proj.value(t) for t in xs], color, label)
        for level, label in hline_specs:
            chart.add_hline(level, f"{label} ({level:g} TWh/yr)")
        for combo in ("wind_pv", "wind_pv_hydro"):
            entry = report.crossing_for("electric_fig5", combo, headline)
            if entry.year is not None:
                chart.add_marker(entry.year, entry.level_twh_per_year,
                                 f"{combo} {entry.year:.1f}")
        return render([chart], "combined generation capability")

    if figure_id == "fig7":
        pv_xs, pv_c = _series_xy(series["pv_lcoe"])
        w_xs, w_c = _series_xy(series["wind_lcoe"])
        xs = [pv_xs[0] + 0.5 * i
              for i in range(int((w_xs[-1] + 2 - pv_xs[0]) / 0.5) + 1)]

        lin = Chart("LCOE (linear)", Axis("year", "linear", 2008, 2021),
                    Axis("LCOE [USD/MWh]", "linear", 0.0, max(pv_c) * 1.1))
        log = Chart("LCOE (log)", Axis("year", "linear", 2008, 2021),
                    Axis("LCOE [USD/MWh]", "log", 10.0, 1000.0))
        for chart in (lin, log):
            chart.add_points(pv_xs, pv_c, "#e6a817", "pv")
            chart.add_points(w_xs, w_c, "#2b6cb0", "wind")
            for decay, color in ((report.learning["pv_time_decay"], "#e6a817"),
                                 (report.learning["wind_time_decay"], "#2b6cb0")):
                chart.add_line(xs, [decay.cost_at_year(t) for t in xs], color,
                               dashed=True)
        return render([lin, log], "levelized cost of electricity over time")

    if figure_id == "fig8":
        cross_x, cross_cost = report.curve_crossing
        k_pv = cf["pv"] * corpus.HOURS_PER_YEAR / 1000.0
        k_w = cf["wind"] * corpus.HOURS_PER_YEAR / 1000.0
        pv_pts = [(series["pv"].value_at(y) * k_pv, c)
                  for y, c in series["pv_lcoe"].samples]
        w_pts = [(series["wind"].value_at(y) * k_w, c)
                 for y, c in series["wind_lcoe"].samples]
        x_hi = _pow10_hi(cross_x * 2)
        chart = Chart("learning curves vs cumulative generation capability",
                      Axis("cumulative generation capability [TWh/yr]", "log",
                           10.0, x_hi),
                      Axis("LCOE [USD/MWh]", "log", 1.0, 1000.0),
                      width=720, height=480)
        chart.add_points([p[0] for p in pv_pts], [p[1] for p in pv_pts],
                         "#e6a817", "pv")
        chart.add_points([p[0] for p in w_pts], [p[1] for p in w_pts],
                         "#2b6cb0", "wind")
        xs, x = [], 10.0
        while x <= x_hi * 1.0001:
            xs.append(x)
            x *= 1.2589254117941673  # 10**0.1
        for lc, color in ((report.learning["pv_learning_curve"], "#e6a817"),
                          (report.learning["wind_learning_curve"], "#2b6cb0")):
            chart.add_line(xs, [lc.cost_at(x) for x in xs], color, dashed=True)
        chart.add_vline(levels["electric_fig5"], "electricity demand")
        chart.add_vline(levels["primary_fig5"], "primary demand")
        chart.add_marker(cross_x, cross_cost, f"crossing at {cross_x:.0f} TWh/yr")
        return render([chart], "learning curves")

    if figure_id == "appfig1":
        ode = report.budget["offshore_depth_extrapolation"]
        pts = ode["points_area_mkm2_potential_twh"]
        target = ode["target_area_mkm2"]
        value = ode["extrapolated_potential_twh_per_year"]
        chart = Chart("offshore potential vs available sea area",
                      Axis("available sea area [million km2]", "linear", 0.0,
                           target * 1.15),
                      Axis("potential [TWh/yr]", "linear", 0.0, value * 1.2))
        chart.add_points([p[0] for p in pts], [p[1] for p in pts],
                         "#2b6cb0", "published potentials")
        xs = [0.0, target * 1.1]
        chart.add_line(xs, [resourcebudget.offshore_depth_extrapolation(pts, x)
                            for x in xs], "#2b6cb0", dashed=True)
        chart.add_marker(target, value, f"extrapolated {value:.0f} TWh/yr")
        return render([chart], "offshore depth extrapolation")

    # appfig6
    b_xs, b_c = _series_xy(series["battery"])
    decay = report.learning["battery_time_decay"]
    chart = Chart("lithium-ion pack cost",
                  Axis("year", "linear", 2009, 2032),
                  Axis("pack cost [USD/kWh]", "log", 1.0, 10000.0))
    chart.add_points(b_xs, b_c, "#2f855a", "survey data")
    xs = [b_xs[0] + 0.5 * i for i in range(int((2031 - b_xs[0]) / 0.5) + 1)]
    chart.add_line(xs, [decay.cost_at_year(t) for t in xs], "#2f855a", dashed=True)
    value_2030 = report.battery_cost_2030
    chart.add_marker(2030.0, value_2030, f"2030: {value_2030:.1f} USD/kWh")
    chart.add_hline(constant("stated_battery_cost_2030"), "stated 2030 cost")
    return render([chart], "battery cost decay")
