"""renewcast: deterministic growth-curve and learning-curve scenario engine
for renewable-energy time series.

Fits exponential, polynomial and piecewise-exponential models to installed
capacity histories, converts installed power to generation capability via
capacity factors, solves demand-threshold crossing years, derives learning
rates and cost crossings, budgets land and resource requirements, and emits
reproducible reports including a discrepancy table of stated versus
recomputed reference figures.
"""

from .corpus import (
    CapacitySeries,
    Constant,
    constant,
    constant_names,
    dump_series,
    get_constant,
    load_bundled,
    load_capacity_series,
    make_series,
    reduced_primary,
)
from .genconvert import (
    GenerationSeries,
    TechnologyProfile,
    generation_capability,
    power_required,
    series_to_generation,
)
from .growthfit import (
    ExponentialFit,
    PiecewiseExponentialFit,
    PolynomialFit,
    detect_changepoint,
    doubling_time,
    extrapolate,
    fit_exponential,
    fit_polynomial,
    past_horizon,
)
from .learncurve import (
    CostSeries,
    LearningCurveFit,
    TimeDecayFit,
    cost_at,
    cost_series,
    curve_crossing,
    fit_learning_curve,
    fit_time_decay,
    join_cost_to_generation,
    learning_rate,
)
from .report import (
    ScenarioConfig,
    ScenarioReport,
    emit_discrepancies,
    emit_figure,
    parse_config,
    run_scenario,
    write_outputs,
)
from .resourcebudget import (
    AreaBudget,
    ResourcePotential,
    appendix_discrepancies,
    desert_fraction,
    offshore_depth_extrapolation,
    potential_fraction,
    pv_area_required,
)
from .scenario import (
    CombinedProjection,
    CrossingResult,
    DemandThreshold,
    combine,
    crossing_year,
    mix_at_year,
    pv_wind_generation_crossover,
)

__version__ = "0.1.0"
