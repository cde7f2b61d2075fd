"""Scenario orchestration: configuration, the full report and its artifacts.

run_scenario loads the datasets, fits every technology, solves all
threshold crossings under each wind treatment, evaluates mixes, learning
curves and resource budgets, and assembles the discrepancy and claims
tables. Outputs are a versioned JSON document, CSV tables and standalone
SVG figures; identical config and datasets produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

from . import corpus, growthfit, learncurve, resourcebudget, scenario
from .corpus import constant, get_constant
from .errors import ConfigInvalid, DatasetMissing, MissingFit, OutputUnwritable
from .genconvert import TechnologyProfile
from .svgchart import Axis, Chart, render

SCHEMA_VERSION = 1
# Latest accepted horizon or evaluation year; it bounds the crossing grid.
MAX_HORIZON = 2200.0

WIND_TREATMENTS = ("trend", "piecewise", "rebound")
COMBINATIONS = ("pv", "wind_pv", "wind_pv_hydro")
FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
              "appfig1", "appfig6")

_THRESHOLD_SPECS = (
    ("electric_fig5", "electric_threshold_fig5", 2026.0),
    ("electric_2030", "electric_demand_2030", 2030.0),
    ("reduced_primary_2030", "reduced_primary_2030", 2030.0),
    ("primary_fig5", "primary_threshold_fig5", 2032.0),
)
THRESHOLD_NAMES = tuple(s[0] for s in _THRESHOLD_SPECS)


def check_year(name: str, year: float):
    """Reject a non-finite year or one after MAX_HORIZON."""
    if not (math.isfinite(year) and year <= MAX_HORIZON):
        raise ConfigInvalid(
            f"{name} must be a finite year <= {MAX_HORIZON:g}, got {year!r}")


def default_thresholds():
    out = []
    for name, const_name, year in _THRESHOLD_SPECS:
        c = get_constant(const_name)
        out.append(scenario.DemandThreshold(name, c.value, year, c.citation))
    return tuple(out)


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
        if self.hydro_degree < 1:
            raise ConfigInvalid("hydro_degree must be >= 1")
        known = {s[0] for s in _THRESHOLD_SPECS}
        for t in self.thresholds:
            if t not in known:
                raise ConfigInvalid(
                    f"unknown threshold {t!r}; known: {', '.join(sorted(known))}"
                )
        for cf in (self.cf_pv, self.cf_wind, self.cf_hydro):
            if cf is not None and not (0.0 < cf <= 1.0):
                raise ConfigInvalid(f"capacity factor {cf!r} outside (0, 1]")
        return self


_WINDOW_KEYS = {
    "pv_window", "wind_window", "wind_regime_window", "offshore_window",
    "hydro_window",
}
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
        except ConfigInvalid:
            raise
        except ValueError as exc:
            raise ConfigInvalid(f"{path}:{n}: bad value for {key}: {exc}") from None
    return ScenarioConfig(**values).validate()


# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingEntry:
    threshold: str
    level_twh: float
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
    """Everything one run computed, held as the typed objects that computed
    it; to_dict is the one place they become JSON keys."""

    config: ScenarioConfig
    series: dict
    fits: dict          # name -> growthfit Exponential/PiecewiseExponential/PolynomialFit
    profiles: dict
    crossings: list
    mixes: dict         # "%g" year -> list of scenario.MixEntry
    learning: dict      # name -> learncurve LearningCurveFit/TimeDecayFit
    budget: dict
    discrepancies: list
    claims: list
    warnings: list

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
            "capacity_factors": self.capacity_factors(),
            "mix_years": list(self.config.mix_years),
            "thresholds": list(self.config.thresholds),
        }
        fits = self.fits
        piecewise, hydro = fits["wind_piecewise"], fits["hydro"]
        pv_lc = self.learning["pv_learning_curve"]
        wind_lc = self.learning["wind_learning_curve"]
        cross_x, cross_cost = self.curve_crossing
        return {
            "schema_version": SCHEMA_VERSION,
            "config": cfg,
            "fits": {
                "pv": {
                    **_exp_fit_dict(fits["pv"]),
                    "residual_signs": growthfit.residual_signs(self.series["pv"],
                                                               fits["pv"]),
                },
                "wind_trend": _exp_fit_dict(fits["wind_trend"]),
                "wind_piecewise": {
                    "kind": "piecewise_exponential",
                    "changepoint_year": piecewise.changepoint_year,
                    "left": _exp_fit_dict(piecewise.left),
                    "right": _exp_fit_dict(piecewise.right),
                    "sse_piecewise": piecewise.sse_piecewise,
                    "sse_single": piecewise.sse_single,
                    "improvement_ratio": piecewise.improvement_ratio,
                    "regime_change": self.regime_change,
                    "window": list(piecewise.window),
                },
                "wind_rebound": _exp_fit_dict(fits["wind_rebound"]),
                "offshore_wind": _exp_fit_dict(fits["offshore_wind"]),
                "hydro": {
                    "kind": "polynomial",
                    "reference_year": hydro.reference_year,
                    "coefficients": list(hydro.coefficients),
                    "degree": hydro.degree,
                    "rmse": hydro.rmse,
                    "window": list(hydro.window),
                },
            },
            "crossings": [
                {
                    "threshold": c.threshold,
                    "level_twh_per_year": c.level_twh,
                    "combination": c.combination,
                    "wind_treatment": c.wind_treatment,
                    "status": c.status,
                    "year": c.year,
                    "horizon_warning": c.horizon_warning,
                }
                for c in self.crossings
            ],
            "mixes": {
                year: [{"technology": e.technology,
                        "generation_twh_per_year": e.generation_twh,
                        "share_pct": e.share_pct} for e in entries]
                for year, entries in self.mixes.items()
            },
            "learning": {
                "pv_learning_curve": _learning_curve_dict(pv_lc),
                "wind_learning_curve": _learning_curve_dict(wind_lc),
                "curve_crossing": {
                    "x_twh_per_year": cross_x,
                    "cost_usd_per_mwh": cross_cost,
                    "beyond_observed_range": cross_x > max(pv_lc.x_range[1],
                                                           wind_lc.x_range[1]),
                },
                "pv_cost_at_stated_2030_generation_usd_per_mwh":
                    float(self.pv_cost_at_stated_2030),
                "pv_time_decay": _decay_dict(self.learning["pv_time_decay"]),
                "wind_time_decay": _decay_dict(self.learning["wind_time_decay"]),
                "battery_time_decay": _decay_dict(self.learning["battery_time_decay"]),
                "battery_cost_2030_usd_per_kwh": self.battery_cost_2030,
            },
            "budget": self.budget,
            "discrepancies": [asdict(d) for d in self.discrepancies],
            "claims": [asdict(c) for c in self.claims],
            "warnings": self.warnings,
        }

    def capacity_factors(self):
        return {
            "pv": self.profiles["pv"].capacity_factor,
            "wind": self.profiles["wind_trend"].capacity_factor,
            "hydro": self.profiles["hydro"].capacity_factor,
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
    def pv_cost_at_stated_2030(self) -> learncurve.CostValue:
        return learncurve.cost_at(self.learning["pv_learning_curve"],
                                  constant("stated_mix_2030_pv"))

    @property
    def battery_cost_2030(self) -> float:
        return self.learning["battery_time_decay"].cost_at_year(2030.0)

    def crossing_for(self, threshold, combination, wind_treatment=None):
        for c in self.crossings:
            if (c.threshold == threshold and c.combination == combination
                    and c.wind_treatment == wind_treatment):
                return c
        raise MissingFit(
            f"no crossing entry for {threshold}/{combination}/{wind_treatment}"
        )


def _exp_fit_dict(fit: growthfit.ExponentialFit) -> dict:
    return {
        "kind": "exponential",
        "reference_year": fit.reference_year,
        "ln_intercept": fit.ln_intercept,
        "ln_slope": fit.ln_slope,
        "doubling_time_years": (math.log(2.0) / fit.ln_slope
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
    config.validate()
    series = load_series(config)
    last_data_year = max(s.last_year for s in series.values())
    if config.horizon <= last_data_year:
        raise ConfigInvalid(
            f"horizon {config.horizon:g} must exceed the last data year "
            f"{last_data_year:g}"
        )

    cf_pv = config.cf_pv if config.cf_pv is not None else constant("cf_pv")
    cf_wind = config.cf_wind if config.cf_wind is not None else constant("cf_wind")
    cf_hydro = config.cf_hydro if config.cf_hydro is not None else constant("cf_hydro")

    # -- fits
    fits = {
        "pv": growthfit.fit_exponential(series["pv"], config.pv_window),
        "wind_trend": growthfit.fit_exponential(series["wind"], config.wind_window),
        "wind_piecewise": growthfit.detect_changepoint(
            series["wind"], config.changepoint_min_segment, config.wind_window),
        "wind_rebound": growthfit.fit_exponential(series["wind"],
                                                  config.wind_regime_window),
        "offshore_wind": growthfit.fit_exponential(series["offshore_wind"],
                                                   config.offshore_window),
        "hydro": growthfit.fit_polynomial(series["hydro"], config.hydro_degree,
                                          config.hydro_window),
    }
    profiles = {
        "pv": TechnologyProfile("pv", cf_pv, series["pv"], fits["pv"]),
        "wind_trend": TechnologyProfile("wind", cf_wind, series["wind"],
                                        fits["wind_trend"]),
        # the piecewise treatment projects from the right segment
        "wind_piecewise": TechnologyProfile("wind", cf_wind, series["wind"],
                                            fits["wind_piecewise"].right),
        "wind_rebound": TechnologyProfile("wind", cf_wind, series["wind"],
                                          fits["wind_rebound"]),
        "hydro": TechnologyProfile("hydro", cf_hydro, series["hydro"], fits["hydro"]),
        "offshore_wind": TechnologyProfile("offshore_wind", cf_wind,
                                           series["offshore_wind"],
                                           fits["offshore_wind"]),
    }

    # -- crossings, all treatments
    thresholds = [t for t in default_thresholds() if t.name in config.thresholds]
    crossings = []

    def projections_for(combo, treatment):
        if combo == "pv":
            return scenario.combine([profiles["pv"]])
        wind_profile = profiles[f"wind_{treatment}"]
        parts = [profiles["pv"], wind_profile]
        if combo == "wind_pv_hydro":
            parts.append(profiles["hydro"])
        return scenario.combine(parts)

    for threshold in thresholds:
        for combo in COMBINATIONS:
            treatments = (None,) if combo == "pv" else WIND_TREATMENTS
            for treatment in treatments:
                proj = projections_for(combo, treatment)
                res = scenario.crossing_year(proj, threshold, config.horizon)
                # a crossing is flagged when any component fit had to reach
                # more than HORIZON_WARNING_YEARS past its own window
                warn = res.year is not None and any(
                    growthfit.extrapolate(p.model, res.year).horizon_warning
                    for p in proj.components)
                crossings.append(CrossingEntry(
                    threshold=threshold.name,
                    level_twh=threshold.level_twh,
                    combination=combo,
                    wind_treatment=treatment,
                    status=res.status,
                    year=res.year,
                    horizon_warning=warn,
                ))

    # -- mixes at the configured years, headline wind treatment
    three_tech = projections_for("wind_pv_hydro", config.wind_treatment)
    mixes = {f"{year:g}": scenario.mix_at_year(three_tech, year)
             for year in config.mix_years}

    # -- learning curves
    pv_cost = learncurve.cost_series(series["pv_lcoe"])
    wind_cost = learncurve.cost_series(series["wind_lcoe"])
    learning = {
        "pv_learning_curve": learncurve.fit_learning_curve(
            learncurve.join_cost_to_generation(pv_cost, series["pv"], cf_pv)),
        "wind_learning_curve": learncurve.fit_learning_curve(
            learncurve.join_cost_to_generation(wind_cost, series["wind"], cf_wind)),
        "pv_time_decay": learncurve.fit_time_decay(pv_cost),
        "wind_time_decay": learncurve.fit_time_decay(wind_cost),
        "battery_time_decay": learncurve.fit_time_decay(
            learncurve.cost_series(series["battery"])),
    }

    # -- resource budgets
    density = constant("pv_density")
    demands = {
        "electric_2030": constant("electric_demand_2030"),
        "electric_fig5": constant("electric_threshold_fig5"),
        "primary_2030": constant("primary_demand_2030"),
        "primary_fig5": constant("primary_threshold_fig5"),
        "reduced_primary_2030": corpus.reduced_primary(constant("primary_demand_2030")),
    }
    budget_areas = {}
    for name, demand in demands.items():
        ab = resourcebudget.area_budget(demand, density, cf_pv)
        budget_areas[name] = {
            "demand_twh_per_year": demand,
            "required_area_km2": ab.required_area_km2,
            "desert_fraction": ab.fraction,
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
    budget = {
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

    report = ScenarioReport(
        config=config, series=series, fits=fits, profiles=profiles,
        crossings=crossings, mixes=mixes, learning=learning,
        budget=budget, discrepancies=[], claims=[], warnings=[],
    )
    report.discrepancies = _discrepancies(report)
    report.claims = _claims(report)
    report.warnings = _warnings(report)
    return report


def _discrepancies(report: ScenarioReport) -> list:
    """Appendix recomputations plus the scenario-level rows, sorted by
    |relative deviation| descending."""
    rows = list(resourcebudget.appendix_discrepancies())
    for year_key in ("2025", "2030"):
        if year_key not in report.mixes:
            continue
        generation = {e.technology: e.generation_twh for e in report.mixes[year_key]}
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
        report.battery_cost_2030))
    rows.sort(key=lambda d: (-abs(d.relative_deviation), d.name))
    return rows


def _claims(report: ScenarioReport) -> list:
    """Stated years against the computed ones, headline wind treatment."""
    headline = report.config.wind_treatment

    def claim(name, const_name, computed_year):
        c = get_constant(const_name)
        delta = None if computed_year is None else computed_year - c.value
        return ClaimRow(name, c.value, computed_year, delta, c.citation)

    def year(threshold, combo, treatment=None):
        try:
            return report.crossing_for(threshold, combo, treatment).year
        except MissingFit:
            return None

    crossover_year = scenario.pv_wind_generation_crossover(
        report.profiles["pv"], report.profiles[f"wind_{headline}"])
    offshore_fit = report.fits["offshore_wind"]
    offshore_1tw_year = (
        (math.log(1000.0) - offshore_fit.ln_intercept) / offshore_fit.ln_slope
        + offshore_fit.reference_year
    )
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


def _warnings(report: ScenarioReport) -> list:
    warnings = []
    piecewise = report.fits["wind_piecewise"]
    if report.regime_change:
        warnings.append(
            f"wind growth regime change at {piecewise.changepoint_year:g} "
            f"(improvement_ratio "
            f"{piecewise.improvement_ratio:.3f} >= "
            f"{report.config.changepoint_threshold:g})"
        )
    floor = constant("stated_lcoe_floor")
    for label, value in (("PV cost at stated 2030 generation",
                          report.pv_cost_at_stated_2030),
                         ("learning-curve crossing cost", report.curve_crossing[1])):
        if value < floor:
            warnings.append(
                f"{label} {float(value):.3f} USD/MWh lies below the stated "
                f"{floor:g} USD/MWh floor"
            )
    for c in report.crossings:
        if c.horizon_warning:
            warnings.append(
                f"crossing of {c.threshold} by {c.combination}"
                f"{'' if c.wind_treatment is None else '/' + c.wind_treatment} "
                f"at {c.year:.2f} extrapolates a fit more than "
                f"{growthfit.HORIZON_WARNING_YEARS:g} years past its window"
            )
    return warnings


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


def crossings_csv(report: ScenarioReport) -> str:
    return _csv(("threshold", "level_twh_per_year", "combination", "wind_treatment",
                 "status", "year", "horizon_warning"),
                map(astuple, report.crossings))


def mixes_csv(report: ScenarioReport) -> str:
    return _csv(("year", "technology", "generation_twh_per_year", "share_pct"),
                [(year, *astuple(e)) for year, entries in report.mixes.items()
                 for e in entries])


def budget_csv(report: ScenarioReport) -> str:
    rows = []
    for name, entry in report.budget["areas"].items():
        rows.append((f"area_{name}", entry["required_area_km2"], "km2"))
        rows.append((f"desert_fraction_{name}", entry["desert_fraction"], "fraction"))
    for name, entry in report.budget["potential_fractions"].items():
        rows.append((f"fraction_{name}", entry["fraction"], "fraction"))
        rows.append((f"times_over_{name}", entry["times_over"], "ratio"))
    ode = report.budget["offshore_depth_extrapolation"]
    rows.append(("offshore_depth_extrapolated_potential",
                 ode["extrapolated_potential_twh_per_year"], "TWh_per_year"))
    return _csv(("name", "value", "unit"), rows)


def discrepancies_csv(report: ScenarioReport) -> str:
    return _csv(("name", "stated", "computed", "relative_deviation", "citation"),
                map(astuple, report.discrepancies))


def claims_csv(report: ScenarioReport) -> str:
    return _csv(("name", "stated_year", "computed_year", "delta_years", "citation"),
                map(astuple, report.claims))


def emit_discrepancies(rows) -> str:
    """Plain-text discrepancy table, one row per stated literal, in the order
    given (run_scenario sorts by |relative deviation| descending). Values
    keep full precision so every number shown also exists in the
    machine-readable output."""
    header = ("name", "stated", "computed", "relative_deviation")
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
    """Write (file name, text) pairs into out_dir as the iterable yields
    them; returns the written paths.

    Raises OutputUnwritable when the directory or a file cannot be written.
    """
    out = Path(out_dir)
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts:
            path = out / name
            path.write_text(text, encoding="utf-8")
            written.append(path)
    except OSError as exc:
        raise OutputUnwritable(f"cannot write to {out_dir}: {exc}") from None
    return written


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
    cf = report.capacity_factors()

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

    thresholds = {t.name: t for t in default_thresholds()}
    hline_specs = [
        (thresholds["electric_fig5"], "electricity demand"),
        (thresholds["reduced_primary_2030"], "reduced primary demand"),
        (thresholds["primary_fig5"], "primary demand"),
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
        for t, label in hline_specs:
            chart.add_hline(t.level_twh, f"{label} ({t.level_twh:g} TWh/yr)")
        return render([chart], "generation capability and extrapolations")

    if figure_id == "fig6":
        headline = report.config.wind_treatment
        wind_prof = profiles[f"wind_{headline}"]
        chart = Chart("combined generation capability",
                      Axis("year", "linear", 2000, 2040),
                      Axis("generation capability [TWh/yr]", "log", 10.0, 1e6),
                      width=720, height=480)
        start = max(wind_prof.model.window[0], 2000.0)
        two = scenario.combine([profiles["pv"], wind_prof])
        three = scenario.combine([profiles["pv"], wind_prof, profiles["hydro"]])
        for proj, color, label in ((two, "#6b46c1", "wind+pv"),
                                   (three, "#2f855a", "wind+pv+hydro")):
            xs = [start + 0.5 * i for i in range(int((2040 - start) / 0.5) + 1)]
            chart.add_line(xs, [proj.value(t) for t in xs], color, label)
        for t, label in hline_specs:
            chart.add_hline(t.level_twh, f"{label} ({t.level_twh:g} TWh/yr)")
        for combo, proj in (("wind_pv", two), ("wind_pv_hydro", three)):
            entry = report.crossing_for("electric_fig5", combo, headline)
            if entry.year is not None:
                chart.add_marker(entry.year, entry.level_twh,
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
        chart.add_vline(thresholds["electric_fig5"].level_twh, "electricity demand")
        chart.add_vline(thresholds["primary_fig5"].level_twh, "primary demand")
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
