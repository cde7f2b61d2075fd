"""Command-line front door.

Exit codes: 0 success, 2 configuration error (including an output that
cannot be written), 3 data error, 4 numeric or model error. All output
artifacts are deterministic for a given config and dataset set.
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace

from . import reportmodel
from .config import FIGURE_IDS, THRESHOLD_NAMES, ScenarioConfig, check_year, parse_config
from .errors import ConfigError, DataError, ModelError

_TECHS = ("pv", "wind", "offshore_wind", "hydro")


def _braces(names):
    return "{" + ",".join(names) + "}"


# The grammar. A parser is (help, the choices of its one positional, its
# options); an option is flag: (dest, metavar, type, required, help), and its
# type is str, float or the tuple of its choices.
_YEAR = {"--year": ("year", "YEAR", float, True, "")}
_COMMANDS = {
    "fit": ("fit one technology and print the parameters", _TECHS, {}),
    "project": ("extrapolate one technology's generation", _TECHS, _YEAR),
    "cross": ("crossing year for one demand threshold", (), {"--threshold": (
        "threshold", _braces(THRESHOLD_NAMES), THRESHOLD_NAMES, True, "")}),
    "mix": ("generation mix at one year", (), _YEAR),
    "learn": ("learning-curve and cost-decay results", (), {}),
    "budget": ("resource budgets and discrepancy table", (), {}),
    "report": ("run everything and write all artifacts", (), {}),
    "figures": ("write one or all SVG figures", (), {"--id": (
        "figure_id", _braces(FIGURE_IDS), FIGURE_IDS, False,
        "the one figure to write (default: all)")}),
}
# per parser, the top level (None) too: prog, positional dest, help, choices, options
_PARSERS = {c: (f"renewcast {c}", "technology", *spec) for c, spec in _COMMANDS.items()}
_PARSERS[None] = ("renewcast", "command", "Growth-curve and learning-curve scenario "
                  "engine for renewable-energy time\nseries.", tuple(_COMMANDS), {
    "--config": ("config", "PATH", str, False,
                 "flat key=value config file (defaults are built in)"),
    "--out": ("out", "DIR", str, False, "output directory (report artifacts)"),
    "--horizon": ("horizon", "YEAR", float, False, "projection horizon override")})


def _help(cmd) -> str:
    """The text of -h, byte for byte as argparse printed it at 80 columns."""
    prog, _, text, choices, options = _PARSERS[cmd]
    words, rows = [f"usage: {prog} [-h]"], [("-h, --help", "show this help message and exit")]
    for flag, (_, metavar, _, required, doc) in options.items():
        words += [flag, metavar] if required else [f"[{flag} {metavar}]"]
        rows.append((f"{flag} {metavar}", doc))
    pos = [_braces(choices)] * bool(choices) + ["..."] * (cmd is None)
    listed = [(p, "") for p in pos[:1]] + [
        (f"  {name}", spec[0]) for name, spec in _COMMANDS.items() if cmd is None]
    usage = " ".join(words + pos)
    if len(usage) > 78:  # the one line break argparse made in each long usage here
        cut = len(words) - (not pos)
        usage = f"{' '.join(words[:cut])}\n{'':{len(prog) + 8}}{' '.join(words[cut:] + pos)}"
    # each row: an invocation, then its help from column width, or below it if too long
    width = min(24, max(len(inv) for inv, _ in rows + listed) + 4)
    sections = (("positional arguments", listed), ("options", rows))
    return "\n\n".join([usage] + [text] * (cmd is None) + [f"{title}:" + "".join(
        f"\n  {inv}" if not doc else f"\n  {inv:<{width - 2}}{doc}"
        if len(inv) <= width - 4 else f"\n  {inv}\n{'':{width}}{doc}" for inv, doc in section)
        for title, section in sections if section]) + "\n"


def _error(code, message) -> int:
    """code, after writing message to stderr if stderr can be written."""
    try:
        sys.stderr.write(f"{message}\n")
    except OSError:  # os.devnull takes what is still buffered
        sys.stderr = open(os.devnull, "w")
    return code


def _fail(cmd, message):  # argparse's exit 2
    usage = _help(cmd).partition("\n\n")[0]
    raise SystemExit(_error(2, f"{usage}\n{_PARSERS[cmd][0]}: error: {message}"))


def _read(flags, token):
    """What argparse took a token before "--" for: "A" for a positional, else
    the (flag, attached value) pairs it may name, or [(None, None)]."""
    if not token.startswith("-") or token == "-":
        return "A"
    name, eq, value = token.partition("=")
    if token in flags or eq and name in flags:
        return [(name, value if eq else None)]
    if token.startswith("--"):  # the flags it is a prefix of
        found = [(flag, value if eq else None) for flag in flags if flag.startswith(name)]
    else:  # -h with text attached
        found = [(flag, token[2:]) for flag in flags if flag == token[:2]]
    # argparse's ^-\d+$|^-\d*\.\d+$, where $ also matches before a final newline
    whole, dot, frac = token[1:].removesuffix("\n").partition(".")
    number = ((not whole or whole.isdecimal()) and frac.isdecimal() if dot
              else whole.isdecimal())
    return found or ("A" if number or " " in token else [(None, None)])


def _value(cmd, name, word, kind):  # kind is str, float or a tuple of choices
    if kind is float:
        try:
            return float(word)
        except ValueError:
            _fail(cmd, f"argument {name}: invalid float value: {word!r}")
    if kind is not str and word not in kind:
        _fail(cmd, f"argument {name}: invalid choice: {word!r} "
                   f"(choose from {', '.join(map(repr, kind))})")
    return word


def _parse(argv, cmd, ns) -> list:
    """Read argv into ns as argparse's parser for the top level (cmd None) or a
    subcommand did; return what it did not recognize. Unlike argparse 3.10-3.12,
    fit --h is fit --help, and --opt=-- gives the value "--"."""
    _, dest, _, choices, options = _PARSERS[cmd]
    flags = ("-h", "--help", *options)
    vars(ns).update(dict.fromkeys([dest] * bool(choices) + [o[0] for o in options.values()]))
    reads = []  # per token: "A" a positional, "-" the first "--", else what _read found
    for token in argv:
        reads.append("A" if "-" in reads else "-" if token == "--" else _read(flags, token))
    extras, i = [], 0
    while i < len(argv):
        read, j = reads[i], i + (reads[i] == "-")
        if read in ("A", "-") and choices and not vars(ns)[dest] and reads[j:j + 1] == ["A"]:
            if cmd is None:  # the subcommand, which reads all that follows
                ns.command = _value(cmd, dest, argv[i], choices)
                extras += _parse(argv[i + 1:], argv[i], ns)
                break
            setattr(ns, dest, _value(cmd, dest, argv[j], choices))  # without "--"
            i = j + 1 + (reads[j + 1:j + 2] == ["-"])
        elif read in ("A", "-") or read[0][0] is None:
            extras.append(argv[i])
            i += 1
        elif len(read) > 1:  # at the top level, only before the subcommand
            _fail(cmd, f"ambiguous option: {argv[i]} could match "
                       f"{', '.join(flag for flag, _ in read)}")
        else:
            (flag, value), i = read[0], i + 1
            if flag in ("-h", "--help"):  # -hh is -h -h; other attached text is an error
                rest = (value.lstrip("h") or None) if flag == "-h" and value else value
                if rest is not None:
                    _fail(cmd, f"argument -h/--help: ignored explicit argument {rest!r}")
                (sys.stdout or sys.stderr).write(_help(cmd))  # stderr if stdout is closed
                raise SystemExit(0)
            if value is None:
                if reads[i:i + 1] != ["A"]:
                    _fail(cmd, f"argument {flag}: expected one argument")
                value, i = argv[i], i + 1
            setattr(ns, options[flag][0], _value(cmd, flag, value, options[flag][2]))
    missing = [dest] * (bool(choices) and vars(ns)[dest] is None) + [
        flag for flag, spec in options.items() if spec[3] and vars(ns)[spec[0]] is None]
    if missing:
        _fail(cmd, f"the following arguments are required: {', '.join(missing)}")
    if extras and cmd is None:
        _fail(cmd, f"unrecognized arguments: {' '.join(extras)}")
    return extras


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
    return config  # run_scenario validates it


def _run(args) -> int:
    config = _load_config(args)
    rep = reportmodel.run_scenario(config)

    if args.command == "fit":
        keys = {"pv": ("pv",), "wind": ("wind_trend", "wind_piecewise", "wind_rebound"),
                "offshore_wind": ("offshore_wind",), "hydro": ("hydro",)}
        for key in keys[args.technology]:
            print(f"[{key}]")
            for name, value in rep.fit_dict(key).items():
                print(f"  {name} = {value}")
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
            year = "" if c.year is None else repr(c.year)
            print(f"{c.threshold},{c.combination},{c.wind_treatment or '-'},{c.status},{year}")
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
        for name, area in rep.budget.areas.items():
            print(f"area_{name}_km2 = {area.required_area_km2!r}")
            print(f"desert_fraction_{name} = {area.desert_fraction!r}")
        ode = rep.budget.offshore_depth_extrapolation
        print(f"offshore_depth_extrapolated_twh = {ode.extrapolated_potential_twh_per_year!r}")
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
    args = SimpleNamespace()
    try:
        try:
            _parse(sys.argv[1:] if argv is None else list(argv), None, args)
            return _run(args)
        finally:
            if sys.stdout is not None:  # None when started with stdout closed
                sys.stdout.flush()
    except ConfigError as exc:
        return _error(2, f"config error: {exc}")
    except DataError as exc:
        return _error(3, f"data error: {exc}")
    except ModelError as exc:
        return _error(4, f"model error: {exc}")
    except OSError as exc:
        # every file opened turns its OSError into a ConfigError or DataError,
        # so this is standard output; os.devnull takes what is still buffered
        sys.stdout = open(os.devnull, "w")
        return _error(2, f"config error: cannot write to standard output: {exc}")


def run():
    """The process entry (python -m renewcast.cli, the renewcast script): main(),
    then the exit of a finished process without the interpreter's teardown,
    which frees every object only for the process to end. The atexit hooks
    run and stdout and stderr are flushed first; a failed flush exits 120, as
    CPython's own finalization does. Any exception but SystemExit propagates."""
    try:
        code = main()
    except SystemExit as exc:  # -h and usage errors, with int codes
        code = exc.code
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when started with it closed
                stream.flush()
        except OSError:
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
