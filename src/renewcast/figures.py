"""Standalone SVG figures of a report, drawn with svgchart. Loaded only by
the subcommands that draw one."""

from __future__ import annotations

import math

from .config import _THRESHOLD_CONSTANTS, FIGURE_IDS
from .corpus import HOURS_PER_YEAR, constant
from .errors import MissingFit
from .reportmodel import ScenarioReport
from .svgchart import Axis, Chart, render


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
    return xs, [v * cf * HOURS_PER_YEAR / 1000.0 for v in raw]


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
        k_pv = cf["pv"] * HOURS_PER_YEAR / 1000.0
        k_w = cf["wind"] * HOURS_PER_YEAR / 1000.0
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
            k = prof.capacity_factor * HOURS_PER_YEAR / 1000.0
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
        k_pv = cf["pv"] * HOURS_PER_YEAR / 1000.0
        k_w = cf["wind"] * HOURS_PER_YEAR / 1000.0
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
        from . import resourcebudget
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
