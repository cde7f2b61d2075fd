"""renewcast: deterministic growth-curve and learning-curve scenario engine
for renewable-energy time series.

Fits exponential, polynomial and piecewise-exponential models to installed
capacity histories, converts installed power to generation capability via
capacity factors, solves demand-threshold crossing years, derives learning
rates and cost crossings, budgets land and resource requirements, and emits
reproducible reports including a discrepancy table of stated versus
recomputed reference figures.

Importing the package loads none of its modules: each public name below
imports its module when first read.
"""

from importlib import import_module

_EXPORTS = {
    "corpus": ("CapacitySeries", "Constant", "constant", "dump_series", "get_constant",
               "load_capacity_series", "make_series"),
    "genconvert": ("TechnologyProfile", "generation_capability"),
    "growthfit": ("ExponentialFit", "PiecewiseExponentialFit", "PolynomialFit",
                  "detect_changepoint", "doubling_time", "extrapolate", "fit_exponential",
                  "fit_polynomial", "past_horizon"),
    "learncurve": ("CostSeries", "LearningCurveFit", "TimeDecayFit", "cost_at",
                   "cost_series", "curve_crossing", "fit_learning_curve", "fit_time_decay",
                   "join_cost_to_generation", "learning_rate"),
    "config": ("ScenarioConfig", "parse_config"),
    "reportmodel": ("ScenarioReport", "run_scenario"),
    "artifacts": ("emit_discrepancies", "write_outputs"),
    "figures": ("emit_figure",),
    "resourcebudget": ("AreaBudget", "appendix_discrepancies", "offshore_depth_extrapolation",
                       "potential_fraction", "pv_area_required"),
    "scenario": ("CombinedProjection", "combine", "crossing_year", "mix_at_year",
                 "pv_wind_generation_crossover"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    """A public name from its module; a submodule by its name."""
    try:
        module = import_module(f".{_MODULE_OF.get(name, name)}", __name__)
    except ModuleNotFoundError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name) if name in _MODULE_OF else module


def __dir__():
    return sorted({*globals(), *__all__})
