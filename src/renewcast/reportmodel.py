"""The scenario report. run_scenario validates the config and loads the
datasets; every other section of the ScenarioReport it returns (fits,
crossings under each wind treatment, mixes, learning curves, budgets, and
the discrepancy, claims and warnings tables) is computed when first read,
then kept. A caller pays only for the sections it reads, and a model error
aborts only the callers that read the failing section. Each section
imports the layers it computes with in its own body."""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property, partial
from os import PathLike, fspath
from typing import NamedTuple

from . import corpus, growthfit
from .config import (_THRESHOLD_CONSTANTS, COMBINATIONS, THRESHOLD_NAMES, WIND_TREATMENTS,
                     ScenarioConfig)
from .corpus import constant, get_constant
from .errors import ConfigError, ModelError

SCHEMA_VERSION = 1


class CrossingEntry(NamedTuple):
    threshold: str
    level_twh_per_year: float
    combination: str
    wind_treatment: str | None
    status: str
    year: float | None
    horizon_warning: bool


class ClaimRow(NamedTuple):
    name: str
    stated_year: float
    computed_year: float | None
    delta_years: float | None
    citation: str


class ScenarioReport:
    """One scenario over its loaded series. Every other section is computed
    from these two attributes when it is first read, then kept, and is held
    as the typed objects that computed it. Each published row (CrossingEntry,
    scenario.MixEntry, DiscrepancyRow, ClaimRow, and the budget's
    resourcebudget.ReferenceBudget, AreaBudget, PotentialFraction and
    DepthExtrapolation) is a NamedTuple whose fields name the report.json
    keys and the CSV columns; to_dict shares no container with the report."""

    def __init__(self, config: ScenarioConfig, series: dict):
        self.config = config
        self.series = series

    def to_dict(self) -> dict:
        # the config as given, with the capacity factors as resolved; out_dir
        # is not echoed: artifacts must not depend on where they are written
        cfg = {}
        for name, value in self.config._asdict().items():
            if name == "cf_pv":
                cfg["capacity_factors"] = self.capacity_factors
            elif name not in ("out_dir", "cf_wind", "cf_hydro"):
                cfg[name] = fspath(value) if isinstance(value, PathLike) else value
        return {
            "schema_version": SCHEMA_VERSION,
            "config": _json(cfg),
            "fits": {name: self.fit_dict(name) for name in self.fits},
            # a flat row is one dict of scalars, which _json would copy again
            "crossings": [row._asdict() for row in self.crossings],
            "mixes": {year: [e._asdict() for e in rows] for year, rows in self.mixes.items()},
            "learning": self.learning_dict(),
            "budget": _json(self.budget),
            "discrepancies": [row._asdict() for row in self.discrepancies],
            "claims": [row._asdict() for row in self.claims],
            "warnings": _json(self.warnings),
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
            return {"kind": "polynomial", **_json(fit)}
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
        return {tech: constant(f"cf_{tech}") if cf is None else cf for tech, cf in
                (("pv", config.cf_pv), ("wind", config.cf_wind), ("hydro", config.cf_hydro))}

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
        from .genconvert import TechnologyProfile
        # the makers hold no reference to self, so a report is freed without
        # waiting for the cycle collector
        fits, factors = self.fits, self.capacity_factors

        def profile(name):
            tech = "wind" if name.startswith("wind_") else name
            fit = fits[name]
            # the piecewise treatment projects from the right segment
            model = fit.right if name == "wind_piecewise" else fit
            return TechnologyProfile(tech, factors["wind" if tech == "offshore_wind" else tech],
                                     model)

        return _LazyMap({name: partial(profile, name) for name in fits})

    @cached_property
    def projections(self) -> Mapping:
        """(combination, wind treatment) -> summed generation, in crossing
        order, each combined when first read; "pv" alone has treatment None.
        Every section shares these objects, so each is built at most once
        per report."""
        from . import scenario
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
        """(threshold, combination, wind treatment) -> CrossingEntry for every
        known threshold and each projection, in crossing order, each solved
        when first read."""
        from . import scenario
        projections, horizon = self.projections, self.config.horizon

        def entry(threshold, combination, wind_treatment):
            proj = projections[(combination, wind_treatment)]
            level = constant(_THRESHOLD_CONSTANTS[threshold])
            status, year = scenario.crossing_year(proj, level, horizon)
            # a crossing is flagged when any component fit had to reach more
            # than HORIZON_WARNING_YEARS past its own window
            warn = year is not None and any(
                growthfit.past_horizon(p.model, year) for p in proj.components)
            return CrossingEntry(threshold, level, combination, wind_treatment,
                                 status, year, warn)

        return _LazyMap({(name, *key): partial(entry, name, *key)
                         for name in THRESHOLD_NAMES for key in projections})

    @cached_property
    def crossings(self) -> list:
        """CrossingEntry per configured threshold, combination and treatment."""
        entries, thresholds = self.crossing_entries, self.config.thresholds
        return [entries[key] for key in entries if key[0] in thresholds]

    @cached_property
    def mixes(self) -> dict:
        """"%g" year -> list of scenario.MixEntry, headline wind treatment."""
        from . import scenario
        three_tech = self.projections[("wind_pv_hydro", self.config.wind_treatment)]
        return {f"{year:g}": scenario.mix_at_year(three_tech, year)
                for year in self.config.mix_years}

    @cached_property
    def learning(self) -> Mapping:
        """name -> learncurve LearningCurveFit/TimeDecayFit, each fitted when
        first read."""
        from . import learncurve
        series, cf = self.series, self.capacity_factors

        def curve(tech):
            return learncurve.fit_learning_curve(learncurve.join_cost_to_generation(
                series[f"{tech}_lcoe"], series[tech], cf[tech]))

        decay = learncurve.fit_time_decay
        return _LazyMap({
            "pv_learning_curve": partial(curve, "pv"),
            "wind_learning_curve": partial(curve, "wind"),
            "pv_time_decay": partial(decay, series["pv_lcoe"]),
            "wind_time_decay": partial(decay, series["wind_lcoe"]),
            "battery_time_decay": partial(decay, series["battery"]),
        })

    @cached_property
    def budget(self):
        """The resourcebudget.ReferenceBudget at the scenario's PV capacity factor."""
        from . import resourcebudget
        return resourcebudget.reference_budget(self.capacity_factors["pv"])

    @cached_property
    def regime_change(self) -> bool:
        return (self.fits["wind_piecewise"].improvement_ratio
                >= self.config.changepoint_threshold)

    @cached_property
    def curve_crossing(self) -> tuple[float, float]:
        """(x, cost) where the PV and wind learning curves meet."""
        from . import learncurve
        return learncurve.curve_crossing(self.learning["pv_learning_curve"],
                                         self.learning["wind_learning_curve"])

    @cached_property
    def pv_cost_at_stated_2030(self) -> float:
        from . import learncurve
        return learncurve.cost_at(self.learning["pv_learning_curve"],
                                  constant("stated_mix_2030_pv"))

    @cached_property
    def battery_cost_2030(self) -> float:
        return self.learning["battery_time_decay"].cost_at_year(2030.0)

    def crossing_for(self, threshold, combination, wind_treatment=None):
        """The CrossingEntry of any known threshold, solved on first request;
        ModelError for a threshold, combination or treatment it does not know."""
        key = (threshold, combination, wind_treatment)
        if key not in self.crossing_entries:
            raise ModelError(
                f"no crossing entry for {threshold}/{combination}/{wind_treatment}"
            )
        return self.crossing_entries[key]

    @cached_property
    def discrepancies(self) -> list:
        """Appendix recomputations plus the scenario-level rows, sorted by
        |relative deviation| descending."""
        from . import resourcebudget
        from .scenario import plain_sum
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
                    plain_sum(generation.values())))
        rows.append(resourcebudget.discrepancy_row(
            "battery_cost_2030_usd_per_kwh", "stated_battery_cost_2030",
            self.battery_cost_2030))
        rows.sort(key=lambda d: (-abs(d.relative_deviation), d.name))
        return rows

    @cached_property
    def claims(self) -> list:
        """Stated years against the computed ones, headline wind treatment."""
        from . import scenario
        headline = self.config.wind_treatment

        def claim(name, const_name, computed_year):
            c = get_constant(const_name)
            delta = None if computed_year is None else computed_year - c.value
            return ClaimRow(name, c.value, computed_year, delta, c.citation)

        def year(threshold, combo, treatment=None):
            # published only for a configured threshold, like crossings
            return (self.crossing_for(threshold, combo, treatment).year
                    if threshold in self.config.thresholds else None)

        crossover_year = scenario.pv_wind_generation_crossover(
            self.profiles["pv"], self.profiles[f"wind_{headline}"])
        offshore = self.fits["offshore_wind"]
        # a fit that does not grow never reaches 1 TW, like an unreached crossing
        offshore_1tw_year = offshore.year_at(1000.0) if offshore.ln_slope > 0 else None
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


def _json(value):
    """A fresh JSON container of a record (its fields by name), dict, tuple or
    list, every record, dict, tuple and list in it converted alike: editing
    the result leaves the report as it is."""
    if isinstance(value, dict) or hasattr(value, "_fields"):
        items = value.items() if isinstance(value, dict) else zip(value._fields, value)
        return {k: _json(v) if isinstance(v, (dict, tuple, list)) else v for k, v in items}
    return [_json(v) if isinstance(v, (dict, tuple, list)) else v for v in value]


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


def _learning_curve_dict(fit) -> dict:
    """JSON form of a learncurve.LearningCurveFit."""
    from .learncurve import learning_rate
    return {
        "log10_intercept": fit.log10_intercept,
        "log10_slope": fit.log10_slope,
        "learning_rate_per_doubling": learning_rate(fit),
        "r_squared": fit.r_squared,
        "x_range_twh_per_year": list(fit.x_range),
        "cost_unit": fit.cost_unit,
    }


def _decay_dict(fit) -> dict:
    """JSON form of a learncurve.TimeDecayFit."""
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
    return {name: corpus.load_series(name, config.data_dir) for name in corpus.SERIES_SCHEMAS}


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Validate the config and load the series; config and data errors are
    raised here, model errors by the first report section that meets one."""
    config.validate()
    series = load_series(config)
    last_data_year = max(s.last_year for s in series.values())
    if config.horizon <= last_data_year:
        raise ConfigError(
            f"horizon {config.horizon:g} must exceed the last data year "
            f"{last_data_year:g}"
        )
    return ScenarioReport(config, series)

