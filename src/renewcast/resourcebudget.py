"""Land-area and resource-potential budgets, plus the discrepancy checker.

potential_fraction(demand_twh, potential_twh) takes plain TWh/yr values.
Every stated budget figure of the bundled reference scenario is recomputed
from the registered inputs and reported as (stated, computed, deviation).
Several stated values deviate by 2-20%; the checker never adjusts inputs to
force agreement, because surfacing those gaps precisely is the point.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .corpus import HOURS_PER_YEAR, constant, get_constant, reduced_primary
from .errors import DataError, ModelError
from .genconvert import _check_cf
from .growthfit import ols


class AreaBudget(NamedTuple):
    demand_twh_per_year: float
    required_area_km2: float
    desert_fraction: float       # of the global desert area


def pv_area_required(demand_twh: float, density_mw_km2: float,
                     capacity_factor: float) -> float:
    """km2 of PV plants needed to generate demand_twh per year.

    area = demand * 1e6 / (density * cf * HOURS_PER_YEAR): the denominator is the
    annual MWh yield of one km2.
    """
    if not demand_twh >= 0:
        raise ModelError(f"demand must be >= 0, got {demand_twh!r}")
    if not density_mw_km2 > 0:
        raise ModelError(f"density must be > 0, got {density_mw_km2!r}")
    _check_cf(capacity_factor)
    mwh_km2 = density_mw_km2 * capacity_factor * HOURS_PER_YEAR
    area = demand_twh * 1e6 / mwh_km2 if mwh_km2 > 0 else math.inf
    if not area < math.inf:
        raise ModelError(f"the area of {demand_twh!r} TWh/yr at {mwh_km2!r} MWh/km2 overflows")
    return area


def area_budget(demand_twh: float, density_mw_km2: float,
                capacity_factor: float) -> AreaBudget:
    area = pv_area_required(demand_twh, density_mw_km2, capacity_factor)
    return AreaBudget(demand_twh, area, desert_fraction(area))


def desert_fraction(area_km2: float) -> float:
    """Share of the global desert area (excl. Antarctica) an area occupies."""
    if not area_km2 >= 0:
        raise ModelError(f"area must be >= 0, got {area_km2!r}")
    return area_km2 / constant("desert_area")


class PotentialFraction(NamedTuple):
    fraction: float              # demand / potential
    times_over: float            # potential / demand, inf at zero demand


class DepthExtrapolation(NamedTuple):
    points_area_mkm2_potential_twh: tuple[tuple[float, float], ...]
    target_area_mkm2: float
    extrapolated_potential_twh_per_year: float


class ReferenceBudget(NamedTuple):
    pv_density_mw_per_km2: float
    desert_area_km2: float
    areas: dict                  # demand name -> AreaBudget
    potential_fractions: dict    # "<demand>_vs_<potential>" -> PotentialFraction
    offshore_depth_extrapolation: DepthExtrapolation


def potential_fraction(demand_twh: float, potential_twh: float) -> PotentialFraction:
    """demand/potential and potential/demand; times_over is inf at zero demand."""
    if not 0 < potential_twh < math.inf:
        raise DataError(f"potential must be finite and > 0, got {potential_twh!r}")
    if not 0 <= demand_twh < math.inf:
        raise ModelError(f"demand must be finite and >= 0, got {demand_twh!r}")
    fraction = demand_twh / potential_twh
    times_over = math.inf if demand_twh == 0 else potential_twh / demand_twh
    if fraction == math.inf or times_over == math.inf and demand_twh:
        raise ModelError(f"demand {demand_twh!r} against potential {potential_twh!r} overflows")
    return PotentialFraction(fraction, times_over)


def offshore_depth_extrapolation(points, target_area) -> float:
    """Linear least squares of potential against an available-area proxy,
    evaluated at the target area."""
    points = list(points)
    if len(points) < 2:
        raise ModelError(f"depth extrapolation needs >= 2 points, got {len(points)}")
    for x, p in points:
        if not (0 < x < math.inf and 0 < p < math.inf):
            raise DataError(f"area and potential must be finite and > 0, got ({x!r}, {p!r})")
    if not 0 <= target_area < math.inf:
        raise DataError(f"target area must be finite and >= 0, got {target_area!r}")
    slope, xm, ym, _, _ = ols([float(x) for x, _ in points],
                              [float(p) for _, p in points])
    potential = (ym - slope * xm) + slope * float(target_area)
    if not math.isfinite(potential):
        raise ModelError(f"the extrapolation to area {target_area:g} exceeds the float range")
    return potential


def load_offshore_depth_fixture():
    """Registered (area, potential) points to 200 m deep, and the target area to 1000 m."""
    return ([(constant(f"offshore_area_{d}m"), constant(f"offshore_{d}m")) for d in (20, 50, 200)],
            constant("offshore_area_1000m"))


def reference_budget(cf_pv: float) -> ReferenceBudget:
    """Areas, potential fractions and the offshore depth extrapolation of
    the reference scenario's demands, for PV at capacity factor cf_pv."""
    density = constant("pv_density")
    demands = {
        "electric_2030": constant("electric_demand_2030"),
        "electric_fig5": constant("electric_threshold_fig5"),
        "primary_2030": constant("primary_demand_2030"),
        "primary_fig5": constant("primary_threshold_fig5"),
        "reduced_primary_2030": reduced_primary(constant("primary_demand_2030")),
    }
    potentials = {"onshore": constant("onshore_wind_potential"),
                  "offshore_50m": constant("offshore_50m"),
                  "offshore_1000m": constant("offshore_1000m"),
                  "wind_total_as_stated": constant("wind_total_potential_as_stated")}
    points, target = load_offshore_depth_fixture()
    return ReferenceBudget(
        pv_density_mw_per_km2=density,
        desert_area_km2=constant("desert_area"),
        areas={name: area_budget(demand, density, cf_pv) for name, demand in demands.items()},
        potential_fractions={
            f"{dem_name}_vs_{pot_name}": potential_fraction(demands[dem_name], pot)
            for pot_name, pot in potentials.items()
            for dem_name in ("electric_2030", "primary_2030", "reduced_primary_2030")},
        offshore_depth_extrapolation=DepthExtrapolation(
            tuple(points), target, offshore_depth_extrapolation(points, target)),
    )


# --------------------------------------------------------------------------
# Discrepancy checker

class DiscrepancyRow(NamedTuple):
    """One stated figure against its recomputation.

    relative_deviation = (stated - computed) / computed, signed.
    """

    name: str
    stated: float
    computed: float
    relative_deviation: float
    citation: str


def discrepancy_row(name: str, constant_name: str, computed: float) -> DiscrepancyRow:
    """The registered constant_name as stated, against computed."""
    c = get_constant(constant_name)
    if computed == 0:
        raise ModelError(f"{name} is computed as 0: its relative deviation is undefined")
    return DiscrepancyRow(
        name=name,
        stated=c.value,
        computed=computed,
        relative_deviation=(c.value - computed) / computed,
        citation=c.citation,
    )


def appendix_discrepancies() -> list[DiscrepancyRow]:
    """Every stated budget figure against its recomputation, read from the
    reference budget at the registered PV capacity factor."""
    budget = reference_budget(constant("cf_pv"))
    areas, fractions = budget.areas, budget.potential_fractions

    rows = [
        ("pv_area_electric_2030_km2", "stated_pv_area_electric_km2",
         areas["electric_2030"].required_area_km2),
        ("pv_area_primary_2030_km2", "stated_pv_area_primary_km2",
         areas["primary_2030"].required_area_km2),
        # The stated desert shares do not even follow from the stated areas;
        # recomputed here from the stated area (electric) and the recomputed
        # areas (primary, reduced) to expose both gaps.
        ("desert_fraction_electric_of_stated_area", "stated_desert_fraction_electric",
         desert_fraction(constant("stated_pv_area_electric_km2"))),
        ("desert_fraction_primary", "stated_desert_fraction_primary",
         areas["primary_2030"].desert_fraction),
        ("desert_fraction_reduced", "stated_desert_fraction_reduced",
         areas["reduced_primary_2030"].desert_fraction),
        ("wind_fraction_electric", "stated_wind_fraction_electric",
         fractions["electric_2030_vs_wind_total_as_stated"].fraction),
        ("wind_fraction_primary", "stated_wind_fraction_primary",
         fractions["primary_2030_vs_wind_total_as_stated"].fraction),
        ("wind_fraction_reduced", "stated_wind_fraction_reduced",
         fractions["reduced_primary_2030_vs_wind_total_as_stated"].fraction),
        ("onshore_times_primary", "stated_onshore_times_primary",
         fractions["primary_2030_vs_onshore"].times_over),
        ("onshore_times_electric", "stated_onshore_times_electric",
         fractions["electric_2030_vs_onshore"].times_over),
        ("offshore50_times_electric", "stated_offshore50_times_electric",
         fractions["electric_2030_vs_offshore_50m"].times_over),
        ("offshore1000_times_primary", "stated_offshore1000_times_primary",
         fractions["primary_2030_vs_offshore_1000m"].times_over),
        ("wind_total_potential_twh", "wind_total_potential_as_stated",
         constant("onshore_wind_potential") + constant("offshore_1000m")),
        ("reduced_primary_2030_twh", "reduced_primary_2030",
         areas["reduced_primary_2030"].demand_twh_per_year),
        ("offshore_1000m_extrapolated_twh", "offshore_1000m",
         budget.offshore_depth_extrapolation.extrapolated_potential_twh_per_year),
        # Which demand the stated electric-demand area used is unstated;
        # neither candidate reproduces it, so both recomputations are reported.
        ("pv_area_electric_fig5_km2", "stated_pv_area_electric_km2",
         areas["electric_fig5"].required_area_km2),
    ]
    return [discrepancy_row(*row) for row in rows]
