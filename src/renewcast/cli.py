"""Command-line front door.

Exit codes: 0 success, 2 configuration error (including an output that
cannot be written), 3 data error, 4 numeric or model error. All output
artifacts are deterministic for a given config and dataset set.
"""

from __future__ import annotations

import argparse
import sys

from . import reportmodel
from .config import FIGURE_IDS, THRESHOLD_NAMES, ScenarioConfig, check_year, parse_config
from .errors import ConfigError, DataError, ModelError

_TECHS = ("pv", "wind", "offshore_wind", "hydro")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewcast",
        description="Growth-curve and learning-curve scenario engine for "
                    "renewable-energy time series.",
    )
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value config file (defaults are built in)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (report artifacts)")
    parser.add_argument("--horizon", type=float, metavar="YEAR",
                        help="projection horizon override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one technology and print the parameters")
    p_fit.add_argument("technology", choices=_TECHS)

    p_proj = sub.add_parser("project", help="extrapolate one technology's generation")
    p_proj.add_argument("technology", choices=_TECHS)
    p_proj.add_argument("--year", type=float, required=True)

    p_cross = sub.add_parser("cross", help="crossing year for one demand threshold")
    p_cross.add_argument("--threshold", required=True,
                         choices=THRESHOLD_NAMES)

    p_mix = sub.add_parser("mix", help="generation mix at one year")
    p_mix.add_argument("--year", type=float, required=True)

    sub.add_parser("learn", help="learning-curve and cost-decay results")
    sub.add_parser("budget", help="resource budgets and discrepancy table")
    sub.add_parser("report", help="run everything and write all artifacts")

    p_fig = sub.add_parser("figures", help="write one or all SVG figures")
    p_fig.add_argument("--id", dest="figure_id", default=None, choices=FIGURE_IDS,
                       help="the one figure to write (default: all)")
    return parser


def _load_config(args) -> ScenarioConfig:
    config = parse_config(args.config) if args.config else ScenarioConfig()
    if args.out is not None:
        config = config._replace(out_dir=args.out)
    if args.horizon is not None:
        config = config._replace(horizon=args.horizon)
    if getattr(args, "year", None) is not None:
        check_year("--year", args.year)
    # cross and mix compute only their own threshold or year
    if args.command == "cross":
        config = config._replace(thresholds=(args.threshold,))
    if args.command == "mix":
        config = config._replace(mix_years=(args.year,))
    return config.validate()


def _print_fit(name, fit_dict):
    print(f"[{name}]")
    for key, value in fit_dict.items():
        print(f"  {key} = {value}")


def _run(args) -> int:
    config = _load_config(args)
    rep = reportmodel.run_scenario(config)

    if args.command == "fit":
        keys = {"pv": ("pv",), "wind": ("wind_trend", "wind_piecewise", "wind_rebound"),
                "offshore_wind": ("offshore_wind",), "hydro": ("hydro",)}
        for key in keys[args.technology]:
            _print_fit(key, rep.fit_dict(key))
        return 0

    if args.command == "project":
        from .genconvert import generation_capability
        from .growthfit import extrapolate, past_horizon
        key = {"pv": "pv", "wind": f"wind_{config.wind_treatment}",
               "offshore_wind": "offshore_wind", "hydro": "hydro"}[args.technology]
        profile = rep.profiles[key]
        power = extrapolate(profile.model, args.year)
        generation = generation_capability(power, profile.capacity_factor)
        print(f"technology = {args.technology}")
        print(f"year = {args.year}")
        print(f"installed_power_gw = {power!r}")
        print(f"generation_twh_per_year = {generation!r}")
        if past_horizon(profile.model, args.year):
            print("horizon_warning = true")
        return 0

    if args.command == "cross":
        for c in rep.crossings:
            treatment = c.wind_treatment or "-"
            year = "" if c.year is None else repr(c.year)
            print(f"{c.threshold},{c.combination},{treatment},{c.status},{year}")
        return 0

    if args.command == "mix":
        (entries,) = rep.mixes.values()
        for entry in entries:
            print(f"{entry.technology},{entry.generation_twh_per_year!r},"
                  f"{entry.share_pct!r}")
        return 0

    if args.command == "learn":
        for key, value in rep.learning_dict().items():
            print(f"{key} = {value}")
        return 0

    if args.command == "budget":
        from .artifacts import emit_discrepancies
        for name, area in rep.budget["areas"].items():
            print(f"area_{name}_km2 = {area.required_area_km2!r}")
            print(f"desert_fraction_{name} = {area.desert_fraction!r}")
        ode = rep.budget["offshore_depth_extrapolation"]
        print("offshore_depth_extrapolated_twh = "
              f"{ode['extrapolated_potential_twh_per_year']!r}")
        print()
        print(emit_discrepancies(rep.discrepancies), end="")
        return 0

    if args.command == "report":
        from .artifacts import write_outputs
        written = write_outputs(rep, config.out_dir)
        for path in written:
            print(f"wrote {path}")
        print(f"crossings: {len(rep.crossings)}  discrepancies: "
              f"{len(rep.discrepancies)}  warnings: {len(rep.warnings)}")
        return 0

    if args.command == "figures":
        from .artifacts import write_artifacts
        from .figures import emit_figure
        ids = FIGURE_IDS if args.figure_id is None else (args.figure_id,)
        svgs = ((f"{i}.svg", emit_figure(rep, i)) for i in ids)
        for path in write_artifacts(config.out_dir, svgs):
            print(f"wrote {path}")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
