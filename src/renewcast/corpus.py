"""Bundled datasets, the fixed-constants registry and series ingestion.

Series file grammar (UTF-8):

    file      := header-line* data-row+
    header    := '#' <text>                      -- provenance, kept verbatim
    directive := '# unit: <unit>' | '# kind: <kind>' | '# technology: <name>'
    data-row  := <year> ',' <value>              -- year may be fractional

Header lines come first; directives may appear anywhere in the header block,
the last of each key wins, and every other header line joins the provenance.
Blank lines are ignored. Rows are sorted by year on load, so serialising a
loaded series reproduces the input byte for byte modulo row order.

Canonical units: GW for installed power, TWh_per_year for energy rates,
USD_per_MWh for electricity cost, USD_per_kWh for storage cost. Conversions
happen only at load and report boundaries.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from itertools import repeat
from operator import contains, lt
from typing import NamedTuple

from .errors import DataError, ModelError

# Units accepted for each quantity kind. installed_power and unit_cost series
# feed log-space fits, so their values must be strictly positive at load.
_KIND_UNITS = {
    "installed_power": ("GW",),
    "annual_generation": ("TWh_per_year",),
    "unit_cost": ("USD_per_MWh", "USD_per_kWh"),
}
_LOG_FIT_KINDS = ("installed_power", "unit_cost")


class CapacitySeries(NamedTuple):
    """Yearly samples of one technology's cumulative power, generation or cost.

    Immutable after construction; two columns, years strictly increasing
    and values the samples at those years.
    """

    technology: str
    quantity_kind: str
    unit: str
    years: tuple[float, ...]
    values: tuple[float, ...]
    provenance: str = ""
    header_lines: tuple[str, ...] = ()
    row_text: tuple[str, ...] = ()

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        """(year, value) pairs, zipped from the two columns on each read."""
        return tuple(zip(self.years, self.values))

    @property
    def last_year(self) -> float:
        return self.years[-1]

    def value_at(self, year: float) -> float:
        i = bisect_left(self.years, year)
        if i < len(self.years) and self.years[i] == year:
            return self.values[i]
        raise KeyError(f"{self.technology}: no sample for year {year}")


def _format_row(year: float, value: float) -> str:
    ytxt = f"{year:g}"
    if float(ytxt) != year:     # :g keeps 6 significant digits
        ytxt = repr(float(year))
    vtxt = repr(value) if isinstance(value, float) else str(value)
    return f"{ytxt},{vtxt}"


def make_series(technology, quantity_kind, unit, samples, provenance="") -> CapacitySeries:
    """Build and validate a series from in-memory (year, value) pairs."""
    header = [f"# technology: {technology}", f"# kind: {quantity_kind}", f"# unit: {unit}"]
    if provenance:
        header = [f"# {provenance}"] + header
    years, values = [float(y) for y, _ in samples], [float(v) for _, v in samples]
    for y, v in zip(years, values):
        if not (math.isfinite(y) and math.isfinite(v)):
            raise DataError(f"series {technology!r}: non-finite sample ({y!r}, {v!r})")
    return _assemble(technology, quantity_kind, unit, years, values, provenance, header, ())


def _assemble(technology, kind, unit, years, values, provenance, header_lines, row_text):
    """Check and year-order float columns into a series, a column per check;
    the samples are walked one by one only to name the first bad one."""
    if kind not in _KIND_UNITS:
        raise DataError(f"unknown quantity kind {kind!r}")
    if unit not in _KIND_UNITS[kind]:
        raise DataError(f"unit {unit!r} not valid for kind {kind!r}")
    if not years:
        raise DataError(f"series {technology!r} has no data rows")
    if not all(map(lt, years, years[1:])):     # rows usually come in year order
        order = sorted(range(len(years)), key=years.__getitem__)
        years = [years[i] for i in order]
        values = [values[i] for i in order]
        row_text = [row_text[i] for i in order] if row_text else []
        for y0, y1 in zip(years, years[1:]):
            if y1 == y0:
                raise DataError(f"series {technology!r}: year {y0:g} repeated")
    strict = kind in _LOG_FIT_KINDS     # annual_generation may be 0
    if not (min(values) > 0 if strict else min(values) >= 0):
        for y, v in zip(years, values):
            if v < 0 or strict and v == 0:
                raise DataError(f"series {technology!r}: value {v!r} at {y:g} "
                                f"must be {'>' if strict else '>='} 0")
    return CapacitySeries(
        technology=technology,
        quantity_kind=kind,
        unit=unit,
        years=tuple(years),
        values=tuple(values),
        provenance=provenance,
        header_lines=tuple(header_lines),
        row_text=tuple(row_text),
    )


def load_capacity_series(source: str) -> CapacitySeries:
    """Parse a series from its file text, the data rows in bulk, a column at
    a time. If a check fails, a walk of the lines names the first bad row;
    it finds none when only the columns' sums overflow, and those rows load."""
    lines = source.splitlines()
    start = 0                           # the header block ends at the first data row
    while start < len(lines) and (lines[start].startswith("#") or not lines[start].strip()):
        start += 1
    header = [line for line in lines[:start] if line.startswith("#")]
    rows = list(filter(str.strip, lines[start:]))
    tokens = ",".join(rows).split(",") if rows else []
    # every row holds a comma, and the rows hold as many commas as rows
    well_formed = len(tokens) == 2 * len(rows) and all(map(contains, rows, repeat(",")))
    try:
        years = list(map(float, tokens[0::2]))
        values = list(map(float, tokens[1::2]))
        well_formed = well_formed and math.isfinite(sum(years) + sum(values))
    except ValueError:
        well_formed = False
    if not well_formed:
        _raise_first_bad_row(lines, start)

    meta, notes = {"technology": "", "kind": "", "unit": ""}, []
    for line in header:
        body = line[1:].strip()
        key, colon, value = body.partition(":")
        if colon and key in meta:       # the last directive wins
            meta[key] = value.strip()
        else:
            notes.append(body)
    provenance = " ".join(notes)
    return _assemble(meta["technology"] or "unnamed", meta["kind"], meta["unit"], years,
                     values, provenance, header, rows)


def _raise_first_bad_row(lines, start):
    """Raise DataError for the first bad line from lines[start] on, if any."""
    for n, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            raise DataError(f"line {n}: comment after data rows")
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"line {n}: expected 'year,value', got {line!r}")
        try:
            year, value = map(float, parts)
        except ValueError as exc:
            raise DataError(f"line {n}: {exc}") from None
        if not (math.isfinite(year) and math.isfinite(value)):
            raise DataError(f"line {n}: non-finite entry in {line!r}")


def dump_series(series: CapacitySeries) -> str:
    """Serialise a series back to file text (header, then rows by year)."""
    rows = series.row_text or tuple(map(_format_row, series.years, series.values))
    return "\n".join((*series.header_lines, *rows)) + "\n"


# --------------------------------------------------------------------------
# Bundled datasets

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")     # plain files, never zipped
BUNDLED_DATASETS = {
    "pv": "pv_installed_gw.csv",
    "wind": "wind_installed_gw.csv",
    "offshore_wind": "offshore_wind_installed_gw.csv",
    "hydro": "hydro_installed_gw.csv",
    "pv_lcoe": "pv_lcoe_usd_mwh.csv",
    "wind_lcoe": "wind_lcoe_usd_mwh.csv",
    "battery": "battery_pack_cost_usd_kwh.csv",
}

# series dataset -> the (quantity kind, unit) its file must declare
_GW, _USD_PER_MWH = ("installed_power", "GW"), ("unit_cost", "USD_per_MWh")
SERIES_SCHEMAS = {"pv": _GW, "wind": _GW, "offshore_wind": _GW, "hydro": _GW,
                  "pv_lcoe": _USD_PER_MWH, "wind_lcoe": _USD_PER_MWH,
                  "battery": ("unit_cost", "USD_per_kWh")}


def bundled_path(name: str) -> str:
    try:
        fname = BUNDLED_DATASETS[name]
    except KeyError:
        raise DataError(
            f"no bundled dataset {name!r}; known: {', '.join(sorted(BUNDLED_DATASETS))}"
        ) from None
    return os.path.join(_DATA_DIR, fname)


def read_dataset(name: str, data_dir=None) -> str:
    """Text of a dataset file, bundled or of the same name in data_dir;
    DataError when it cannot be read or is not UTF-8."""
    path = bundled_path(name)
    if data_dir is not None:
        path = os.path.join(data_dir, BUNDLED_DATASETS[name])
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset file {path} is not UTF-8 text: {exc}") from None


def load_series(name: str, data_dir=None) -> CapacitySeries:
    """The named series, parsed from its bundled file or its namesake in
    data_dir; DataError when the file declares another kind or unit than
    SERIES_SCHEMAS gives the dataset."""
    series = load_capacity_series(read_dataset(name, data_dir))
    kind, unit = SERIES_SCHEMAS[name]
    if (series.quantity_kind, series.unit) != (kind, unit):
        raise DataError(f"dataset file {BUNDLED_DATASETS[name]} declares "
                        f"{series.quantity_kind}/{series.unit}, not {kind}/{unit}")
    return series


def load_bundled(name: str) -> CapacitySeries:
    return load_series(name)


# --------------------------------------------------------------------------
# Constants registry

class Constant(NamedTuple):
    value: float
    unit: str
    citation: str


_AREA_NOTE = (": a stand-in, calibrated once against the registered <1000 m offshore "
              "potential, because no source tabulates the areas")

# Fixed input numbers of the bundled reference scenario. Values are registered
# verbatim and never recomputed; the discrepancy checker re-derives whatever
# can be re-derived and reports deviations instead of reconciling them.
_CONSTANTS: dict[str, Constant] = {
    "electric_demand_2030": Constant(35000.0, "TWh_per_year",
        "global electricity demand projected for 2030 (Schalk 2019, EnergyPost forecast)"),
    "primary_demand_2030": Constant(186000.0, "TWh_per_year",
        "global primary energy demand projected for 2030 (Schalk 2019, EnergyPost forecast)"),
    "reduced_primary_2030": Constant(106950.0, "TWh_per_year",
        "2030 primary demand after the 42.5% efficiency reduction of an "
        "all-electric supply (Jacobson et al. 2017)"),
    "electric_threshold_fig5": Constant(33000.0, "TWh_per_year",
        "electricity-demand level reached in 2026, as marked on the reference "
        "scenario chart (Schalk 2019)"),
    "primary_threshold_fig5": Constant(198000.0, "TWh_per_year",
        "primary-demand level reached in 2032, as marked on the reference "
        "scenario chart (Schalk 2019)"),
    "efficiency_reduction": Constant(0.425, "fraction",
        "primary-energy saving of a fully electrified renewable supply "
        "(Jacobson et al. 2017)"),
    "cf_pv": Constant(0.256, "fraction",
        "average US utility PV capacity factor, 2017 data (EIA Electric Power "
        "Monthly, table 6.07.B)"),
    "cf_wind": Constant(0.354, "fraction",
        "average wind capacity factor (EIA Electric Power Monthly, table 6.07.B)"),
    "cf_hydro": Constant(0.43, "fraction",
        "average hydropower capacity factor (IHA statistics)"),
    "pv_density": Constant(42.8, "MW_per_km2",
        "mean installed power density of large utility PV plants (compiled "
        "from public plant listings)"),
    "desert_area": Constant(34.93e6, "km2",
        "global desert area excluding Antarctica (Wikipedia: List of deserts "
        "by area)"),
    "onshore_wind_potential": Constant(690000.0, "TWh_per_year",
        "global onshore wind generation potential (Lu, McElroy & Kiviluoma "
        "2009, PNAS)"),
    "offshore_20m": Constant(41200.0, "TWh_per_year",
        "offshore wind potential for water depth < 20 m (Arent et al. 2012, NREL)"),
    "offshore_50m": Constant(92500.0, "TWh_per_year",
        "offshore wind potential for water depth < 50 m (Arent et al. 2012, NREL)"),
    "offshore_200m": Constant(192000.0, "TWh_per_year",
        "offshore wind potential for water depth < 200 m incl. floating "
        "turbines (Arent et al. 2012; Kausche et al. 2018)"),
    "offshore_1000m": Constant(301085.0, "TWh_per_year",
        "offshore wind potential extrapolated to 1000 m water depth for "
        "floating turbines (after Kausche et al. 2018)"),
    "offshore_area_20m": Constant(2.75, "million_km2", "sea area < 20 m deep" + _AREA_NOTE),
    "offshore_area_50m": Constant(6.2, "million_km2", "sea area < 50 m deep" + _AREA_NOTE),
    "offshore_area_200m": Constant(12.8, "million_km2", "sea area < 200 m deep" + _AREA_NOTE),
    "offshore_area_1000m": Constant(20.07, "million_km2", "sea area < 1000 m deep" + _AREA_NOTE),
    "wind_total_potential_as_stated": Constant(301775.0, "TWh_per_year",
        "combined onshore+offshore wind potential as stated in the reference "
        "scenario (inconsistent with its own addends; reported, not fixed)"),
    "hours_per_year": Constant(8760.0, "h",
        "hours per calendar year, no leap correction"),
    "swanson_learning_rate": Constant(0.20, "fraction_per_doubling",
        "PV module price decline per doubling of shipped capacity "
        "(Reichelstein & Sahoo 2015)"),
    "hydro_developed_potential_as_stated": Constant(6.5, "TWh_per_year",
        "developed hydropower potential as stated in the reference scenario; "
        "likely a unit slip, registered verbatim (Mariusson & Thorsteinsson 1997)"),
    "hydro_exploitable_potential_as_stated": Constant(10.5, "TWh_per_year",
        "exploitable hydropower potential as stated in the reference scenario; "
        "likely a unit slip, registered verbatim (Mariusson & Thorsteinsson 1997)"),
    # Stated results of the reference scenario, re-derived by the discrepancy
    # checker (resourcebudget.appendix_discrepancies).
    "stated_pv_area_electric_km2": Constant(357667.0, "km2",
        "reference scenario: stated PV plant area covering 2030 electricity demand"),
    "stated_pv_area_primary_km2": Constant(2.015e6, "km2",
        "reference scenario: stated PV plant area covering 2030 primary demand"),
    "stated_desert_fraction_electric": Constant(0.0121, "fraction",
        "reference scenario: stated desert share for the electricity-demand area"),
    "stated_desert_fraction_primary": Constant(0.0683, "fraction",
        "reference scenario: stated desert share for the primary-demand area"),
    "stated_desert_fraction_reduced": Constant(0.0393, "fraction",
        "reference scenario: stated desert share for the reduced-primary area"),
    "stated_wind_fraction_electric": Constant(0.1159, "fraction",
        "reference scenario: stated share of total wind potential needed for "
        "2030 electricity demand"),
    "stated_wind_fraction_primary": Constant(0.6163, "fraction",
        "reference scenario: stated share of total wind potential needed for "
        "2030 primary demand"),
    "stated_wind_fraction_reduced": Constant(0.3544, "fraction",
        "reference scenario: stated share of total wind potential needed for "
        "reduced primary demand"),
    "stated_onshore_times_primary": Constant(3.7, "ratio",
        "reference scenario: onshore potential as multiple of 2030 primary demand"),
    "stated_onshore_times_electric": Constant(19.9, "ratio",
        "reference scenario: onshore potential as multiple of 2030 electricity demand"),
    "stated_offshore50_times_electric": Constant(2.64, "ratio",
        "reference scenario: <50 m offshore potential as multiple of 2030 "
        "electricity demand"),
    "stated_offshore1000_times_primary": Constant(1.6, "ratio",
        "reference scenario: <1000 m offshore potential as multiple of 2030 "
        "primary demand"),
    "stated_battery_cost_2030": Constant(10.0, "USD_per_kWh",
        "reference scenario: extrapolated lithium-ion pack cost in 2030"),
    "stated_offshore_1tw_year": Constant(2032.0, "year",
        "reference scenario: year offshore wind reaches 1 TW installed"),
    "stated_mix_2025_pv": Constant(15000.0, "TWh_per_year",
        "reference scenario: PV generation in the 2025 split"),
    "stated_mix_2025_wind": Constant(11700.0, "TWh_per_year",
        "reference scenario: wind generation in the 2025 split"),
    "stated_mix_2025_hydro": Constant(6300.0, "TWh_per_year",
        "reference scenario: hydro generation in the 2025 split"),
    "stated_mix_2025_total": Constant(33000.0, "TWh_per_year",
        "reference scenario: total renewable generation reached in 2025"),
    "stated_mix_2030_pv": Constant(75500.0, "TWh_per_year",
        "reference scenario: PV generation in the 2030 split"),
    "stated_mix_2030_wind": Constant(31100.0, "TWh_per_year",
        "reference scenario: wind generation in the 2030 split"),
    "stated_mix_2030_hydro": Constant(6500.0, "TWh_per_year",
        "reference scenario: hydro generation in the 2030 split"),
    "stated_year_wind_pv_electric": Constant(2026.0, "year",
        "reference scenario: combined wind+PV meet the 33,000 TWh/yr "
        "electricity level"),
    "stated_year_three_tech_electric": Constant(2025.0, "year",
        "reference scenario: wind+PV+hydro meet the 33,000 TWh/yr "
        "electricity level"),
    "stated_year_three_tech_reduced_primary": Constant(2030.0, "year",
        "reference scenario: wind+PV+hydro meet the reduced primary demand"),
    "stated_year_pv_alone_electric": Constant(2027.0, "year",
        "reference scenario: PV alone meets the electricity level (later "
        "passage)"),
    "stated_year_pv_alone_electric_alt": Constant(2032.0, "year",
        "reference scenario: PV alone meets the electricity level (earlier "
        "passage; the two stated years conflict and both are reported)"),
    "stated_year_pv_alone_primary": Constant(2036.5, "year",
        "reference scenario: PV alone meets the 198,000 TWh/yr primary level"),
    "stated_year_pv_overtakes_wind": Constant(2024.0, "year",
        "reference scenario: PV generation overtakes wind generation"),
    "stated_lcoe_floor": Constant(1.0, "USD_per_MWh",
        "reference scenario: approximate floor quoted for far-future "
        "generation cost"),
    "stated_pv_cost_ceiling_2030": Constant(10.0, "USD_per_MWh",
        "reference scenario: 2030 PV generation cost stated as far below "
        "this value"),
}
HOURS_PER_YEAR = _CONSTANTS["hours_per_year"].value


def get_constant(name: str) -> Constant:
    """Return the registered (value, unit, citation); never recomputed."""
    try:
        return _CONSTANTS[name]
    except KeyError:
        raise DataError(f"no constant named {name!r}") from None


def constant(name: str) -> float:
    return get_constant(name).value


def reduced_primary(demand_twh: float) -> float:
    """Apply the 42.5% efficiency reduction to a primary-energy demand.

    Computed as demand * 575 / 1000 so the registered 2030 figure
    (186000 -> 106950) is reproduced bit-exactly.
    """
    if not demand_twh >= 0:
        raise ModelError(f"demand must be >= 0, got {demand_twh!r}")
    retention = 1000.0 - 1000.0 * constant("efficiency_reduction")
    return demand_twh * retention / 1000.0
