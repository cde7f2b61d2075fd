"""Run configuration: the accepted names and bounds, ScenarioConfig and the
flat config-file parser. Every subcommand loads this module and nothing
else of the report."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigError

# Latest accepted horizon or evaluation year; it bounds the crossing grid.
MAX_HORIZON = 2200.0
# Highest accepted hydro_degree: a chosen bound, not a precision limit. On
# the bundled hydro series the fit's coefficients stay within 1e-12 of the
# exact least-squares solution (relative) up to degree 7; the cap stays at 5
# until crossings at every degree have a monotonicity proof.
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
        raise ConfigError(
            f"{name} must be a finite year <= {MAX_HORIZON:g}, got {year!r}")


class ScenarioConfig(NamedTuple):
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
            raise ConfigError(
                f"wind_treatment must be one of {WIND_TREATMENTS}, "
                f"got {self.wind_treatment!r}"
            )
        check_year("horizon", self.horizon)
        for year in self.mix_years:
            check_year("mix year", year)
        if not math.isfinite(self.changepoint_threshold):
            raise ConfigError("changepoint_threshold must be finite")
        if self.changepoint_min_segment < 2:
            raise ConfigError("changepoint_min_segment must be >= 2")
        if not 1 <= self.hydro_degree <= MAX_HYDRO_DEGREE:
            raise ConfigError(
                f"hydro_degree must be in 1..{MAX_HYDRO_DEGREE}, got {self.hydro_degree}")
        for t in self.thresholds:
            if t not in THRESHOLD_NAMES:
                raise ConfigError(
                    f"unknown threshold {t!r}; known: {', '.join(sorted(THRESHOLD_NAMES))}"
                )
        for cf in (self.cf_pv, self.cf_wind, self.cf_hydro):
            if cf is not None and not (0.0 < cf <= 1.0):
                raise ConfigError(f"capacity factor {cf!r} outside (0, 1]")
        for key in _WINDOW_KEYS:
            lo, hi = getattr(self, key)
            text = ":".join("" if b is None else repr(b) for b in (lo, hi))
            if any(b is not None and not math.isfinite(b) for b in (lo, hi)):
                raise ConfigError(f"{key} bounds must be finite, got {text}")
            if lo is not None and hi is not None and lo > hi:
                raise ConfigError(f"{key} starts after it ends: {text}")
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
        raise ConfigError(f"window must look like 'start:end', got {text!r}")
    lo_txt, hi_txt = text.split(":", 1)
    lo = float(lo_txt) if lo_txt.strip() else None
    hi = float(hi_txt) if hi_txt.strip() else None
    return (lo, hi)


def parse_config(path) -> ScenarioConfig:
    """Flat 'key = value' UTF-8 file with '#' comments; every key optional."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for n, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{n}: expected 'key = value', got {line!r}")
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
                raise ConfigError(f"{path}:{n}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}:{n}: bad value for {key}: {exc}") from None
    return ScenarioConfig(**values).validate()
