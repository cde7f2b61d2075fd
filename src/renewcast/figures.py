"""Standalone SVG figures of a report, drawn with svgchart. Loaded only by
the subcommands that draw one; each figure reads only the fits it draws."""

from __future__ import annotations

import math

from .config import _THRESHOLD_CONSTANTS, FIGURE_IDS
from .corpus import HOURS_PER_YEAR, constant
from .errors import ModelError
from .growthfit import _windowed
from .reportmodel import ScenarioReport
from .svgchart import Axis, Chart, render

# the technologies fig4, fig7 and fig8 draw side by side, with their colours
_PV_WIND = (("pv", "#e6a817"), ("wind", "#2b6cb0"))

# fig1-3: id -> (capacity series, title, (profile, colour, label) per fit drawn)
_CAPACITY_FIGURES = {
    "fig1": ("pv", "installed PV power", (("pv", "#e6a817", "fit"),)),
    "fig2": ("wind", "installed wind power",
             (("wind_rebound", "#c53030", "pre-changepoint fit"),
              ("wind_piecewise", "#2b6cb0", "post-changepoint fit"))),
    "fig3": ("offshore_wind", "installed offshore wind power",
             (("offshore_wind", "#2b6cb0", "fit"),)),
}


def _half_years(lo, hi):
    """lo, lo + 0.5, ... up to hi; none when hi < lo."""
    return [lo + 0.5 * i for i in range(math.floor((hi - lo) / 0.5) + 1)]


def _line_points(model, lo, hi):
    xs = _half_years(lo, hi)
    return xs, [model.value_at(t) for t in xs]


def _decades(lo, hi):
    """Powers of ten around lo and hi for a log axis, at least a decade apart."""
    lo_k = math.floor(math.log10(lo))
    return 10.0 ** lo_k, 10.0 ** max(math.ceil(math.log10(hi)), lo_k + 1)


def _lin_log_pair(title, x_axis, y_label, lin_hi, log_lo, log_hi):
    """The linear chart (from 0) and the log chart of one quantity."""
    return (Chart(f"{title} (linear)", x_axis, Axis(y_label, "linear", 0.0, lin_hi)),
            Chart(f"{title} (log)", x_axis, Axis(y_label, "log", log_lo, log_hi)))


def _add_demand_lines(chart):
    for threshold, label in (("electric_fig5", "electricity demand"),
                             ("reduced_primary_2030", "reduced primary demand"),
                             ("primary_fig5", "primary demand")):
        level = constant(_THRESHOLD_CONSTANTS[threshold])
        chart.add_hline(level, f"{label} ({level:g} TWh/yr)")


def _add_pv_wind(chart, points, lines=()):
    """Labelled points, then unlabelled dashed lines: (xs, ys) per _PV_WIND entry."""
    for (tech, color), (xs, ys) in zip(_PV_WIND, points):
        chart.add_points(xs, ys, color, tech)
    for (_, color), (xs, ys) in zip(_PV_WIND, lines):
        chart.add_line(xs, ys, color, dashed=True)


def emit_figure(report: ScenarioReport, figure_id: str) -> str:
    """Standalone SVG for one figure id; see FIGURE_IDS for the valid set."""
    if figure_id not in FIGURE_IDS:
        raise ModelError(f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}")
    series = report.series

    if figure_id in _CAPACITY_FIGURES:
        name, title, drawn = _CAPACITY_FIGURES[figure_id]
        xs, ys = series[name].years, series[name].values
        x_hi = math.ceil(xs[-1]) + 1
        lines = []  # each fit evaluated once, for both charts
        for profile, color, label in drawn:
            model = report.profiles[profile].model
            lines.append((*_line_points(model, model.window[0], x_hi - 1), color, label))
        charts = _lin_log_pair(title, Axis("year", "linear", math.floor(xs[0]), x_hi),
                               "installed power [GW]", max(ys) * 1.15,
                               *_decades(min(ys), max(ys)))
        for chart in charts:
            chart.add_points(xs, ys, "#222222", "data")
            for lx, ly, color, label in lines:
                chart.add_line(lx, ly, color, label, dashed=True)
        return render(charts, title)

    if figure_id == "fig4":
        gw = [(series[tech].years, series[tech].values) for tech, _ in _PV_WIND]
        twh_per_gw = [report.capacity_factors[t] * HOURS_PER_YEAR / 1000.0 for t, _ in _PV_WIND]
        twh = [(xs, [v * k for v in ys]) for (xs, ys), k in zip(gw, twh_per_gw)]
        charts = []
        for title, unit, points in (("installed power", "GW", gw),
                                    ("generation capability", "TWh/yr", twh)):
            charts.append(Chart(title, Axis("year", "linear", 1996, 2022),
                                Axis(f"{title} [{unit}]", "log",
                                     *_decades(1.0, max(max(ys) for _, ys in points)))))
            _add_pv_wind(charts[-1], points)
        return render(charts, "installed power and generation capability")

    if figure_id == "fig5":
        chart = Chart("generation capability and extrapolations",
                      Axis("year", "linear", 1996, 2040),
                      Axis("generation capability [TWh/yr]", "log", 1.0, 1e6),
                      width=720, height=480)
        for tech, color in (*_PV_WIND, ("hydro", "#2f855a")):
            prof = report.profiles["wind_trend" if tech == "wind" else tech]
            # only the samples on the x axis: hydro's start before it
            xs, gw = _windowed(series[tech], (chart.x.lo, chart.x.hi))
            k = prof.capacity_factor * HOURS_PER_YEAR / 1000.0
            chart.add_points(xs, [v * k for v in gw], color, tech)
            lx, ly = _line_points(prof.model, max(prof.model.window[0], 1996), 2040)
            chart.add_line(lx, [v * k for v in ly], color, dashed=True)
        _add_demand_lines(chart)
        return render([chart], chart.title)

    if figure_id == "fig6":
        headline = report.config.wind_treatment
        start = max(report.profiles[f"wind_{headline}"].model.window[0], 2000.0)
        chart = Chart("combined generation capability",
                      Axis("year", "linear", 2000, 2040),
                      Axis("generation capability [TWh/yr]", "log", 10.0, 1e6),
                      width=720, height=480)
        combos = ("wind_pv", "wind_pv_hydro")
        projections = [report.projections[(combo, headline)] for combo in combos]
        xs = _half_years(start, 2040)
        for proj, color, label in zip(projections, ("#6b46c1", "#2f855a"),
                                      ("wind+pv", "wind+pv+hydro")):
            chart.add_line(xs, [proj.value(t) for t in xs], color, label)
        _add_demand_lines(chart)
        for combo in combos:
            entry = report.crossing_for("electric_fig5", combo, headline)
            if entry.year is not None:
                chart.add_marker(entry.year, entry.level_twh_per_year,
                                 f"{combo} {entry.year:.1f}")
        return render([chart], chart.title)

    if figure_id == "fig7":
        pv, wind = series["pv_lcoe"], series["wind_lcoe"]
        xs = _half_years(pv.years[0], wind.years[-1] + 2)
        lines = [(xs, [decay.cost_at_year(t) for t in xs]) for decay in
                 (report.learning["pv_time_decay"], report.learning["wind_time_decay"])]
        charts = _lin_log_pair("LCOE", Axis("year", "linear", 2008, 2021), "LCOE [USD/MWh]",
                               max(pv.values) * 1.1, 10.0, 1000.0)
        for chart in charts:
            _add_pv_wind(chart, [(s.years, s.values) for s in (pv, wind)], lines)
        return render(charts, "levelized cost of electricity over time")

    if figure_id == "fig8":
        cross_x, cross_cost = report.curve_crossing
        points = []
        for tech, _ in _PV_WIND:
            k = report.capacity_factors[tech] * HOURS_PER_YEAR / 1000.0
            cost = series[f"{tech}_lcoe"]
            points.append(([series[tech].value_at(y) * k for y in cost.years], cost.values))
        _, x_hi = _decades(10.0, cross_x * 2)
        xs, x = [], 10.0
        while x <= x_hi * 1.0001:
            xs.append(x)
            x *= 1.2589254117941673  # 10**0.1
        curves = [report.learning[f"{tech}_learning_curve"] for tech, _ in _PV_WIND]
        lines = [(xs, [curve.cost_at(x) for x in xs]) for curve in curves]
        chart = Chart("learning curves vs cumulative generation capability",
                      Axis("cumulative generation capability [TWh/yr]", "log", 10.0, x_hi),
                      Axis("LCOE [USD/MWh]", "log", 1.0, 1000.0),
                      width=720, height=480)
        _add_pv_wind(chart, points, lines)
        chart.add_vline(constant(_THRESHOLD_CONSTANTS["electric_fig5"]), "electricity demand")
        chart.add_vline(constant(_THRESHOLD_CONSTANTS["primary_fig5"]), "primary demand")
        chart.add_marker(cross_x, cross_cost, f"crossing at {cross_x:.0f} TWh/yr")
        return render([chart], "learning curves")

    if figure_id == "appfig1":
        from . import resourcebudget
        pts, target, value = report.budget.offshore_depth_extrapolation
        chart = Chart("offshore potential vs available sea area",
                      Axis("available sea area [million km2]", "linear", 0.0, target * 1.15),
                      Axis("potential [TWh/yr]", "linear", 0.0, value * 1.2))
        chart.add_points(*zip(*pts), "#2b6cb0", "published potentials")
        xs = [0.0, target * 1.1]
        chart.add_line(xs, [resourcebudget.offshore_depth_extrapolation(pts, x) for x in xs],
                       "#2b6cb0", dashed=True)
        chart.add_marker(target, value, f"extrapolated {value:.0f} TWh/yr")
        return render([chart], "offshore depth extrapolation")

    # appfig6
    b_xs, b_c = series["battery"].years, series["battery"].values
    decay = report.learning["battery_time_decay"]
    chart = Chart("lithium-ion pack cost",
                  Axis("year", "linear", 2009, 2032),
                  Axis("pack cost [USD/kWh]", "log", 1.0, 10000.0))
    chart.add_points(b_xs, b_c, "#2f855a", "survey data")
    xs = _half_years(b_xs[0], 2031)
    chart.add_line(xs, [decay.cost_at_year(t) for t in xs], "#2f855a", dashed=True)
    value_2030 = report.battery_cost_2030
    chart.add_marker(2030.0, value_2030, f"2030: {value_2030:.1f} USD/kWh")
    chart.add_hline(constant("stated_battery_cost_2030"), "stated 2030 cost")
    return render([chart], "battery cost decay")
