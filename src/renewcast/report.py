"""The whole pipeline under one name: configuration, run_scenario, the
ScenarioReport, its artifacts and figures. Importing it loads every layer;
the command line imports only the modules each subcommand runs."""

from . import corpus, genconvert, growthfit, learncurve, resourcebudget, scenario, svgchart
from .artifacts import (budget_csv, claims_csv, crossings_csv, discrepancies_csv,
                        emit_discrepancies, mixes_csv, report_json, write_artifacts,
                        write_outputs)
from .config import (_WINDOW_KEYS, COMBINATIONS, FIGURE_IDS, MAX_HORIZON, MAX_HYDRO_DEGREE,
                     THRESHOLD_NAMES, WIND_TREATMENTS, ScenarioConfig, check_year,
                     parse_config)
from .figures import emit_figure
from .reportmodel import (SCHEMA_VERSION, ClaimRow, CrossingEntry, ScenarioReport, load_series,
                          run_scenario)
