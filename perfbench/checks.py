"""Correctness checks for every benchmark op.

The crossing check is independent of the program: it re-evaluates the fitted
models from the parameters that ``report.json`` publishes, with its own
formulas, and tests the level equation and the start/horizon statuses. Each
check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import ast
import json
import math
from pathlib import Path

HOURS_PER_YEAR = 8760.0
LEVEL_TOLERANCE = 1e-6          # |sum of generation - level| <= tol * level
GOLDEN_TOLERANCE = 1e-9         # relative, for numbers against the golden copy

ARTIFACTS = ("report.json", "crossings.csv", "mixes.csv", "budget.csv",
             "discrepancies.csv", "claims.csv", "discrepancies.txt",
             "fig1.svg", "fig2.svg", "fig3.svg", "fig4.svg", "fig5.svg",
             "fig6.svg", "fig7.svg", "fig8.svg", "appfig1.svg", "appfig6.svg")
COMBINATION_PARTS = {"pv": ("pv",), "wind_pv": ("pv", "wind"),
                     "wind_pv_hydro": ("pv", "wind", "hydro")}
FIT_KEYS = {"pv": "pv", "wind": "wind_trend", "offshore_wind": "offshore_wind",
            "hydro": "hydro"}
CF_KEYS = {"pv": "pv", "wind": "wind", "offshore_wind": "wind", "hydro": "hydro"}


def model_value(fit: dict, year: float) -> float:
    """Installed power of a published fit at ``year``."""
    kind = fit.get("kind")
    if kind == "exponential":
        return math.exp(fit["ln_intercept"]
                        + fit["ln_slope"] * (year - fit["reference_year"]))
    if kind == "polynomial":
        x = year - fit["reference_year"]
        return sum(c * x ** i for i, c in enumerate(fit["coefficients"]))
    if kind == "piecewise_exponential":
        seg = fit["left"] if year < fit["changepoint_year"] else fit["right"]
        return model_value(seg, year)
    raise ValueError(f"unknown fit kind {kind!r}")


def _component_fits(doc: dict, combination: str, treatment: str | None):
    fits = doc["fits"]
    cf = doc["config"]["capacity_factors"]
    out = []
    for part in COMBINATION_PARTS[combination]:
        if part == "wind":
            fit = fits[f"wind_{treatment}"]
            if fit["kind"] == "piecewise_exponential":
                # the piecewise treatment projects the right segment
                fit = fit["right"]
            out.append((fit, cf["wind"]))
        else:
            out.append((fits[part], cf[part]))
    return out


def generation(components, year: float) -> float:
    return sum(model_value(fit, year) * cf * HOURS_PER_YEAR / 1000.0
               for fit, cf in components)


def check_crossing(doc: dict, row: dict) -> list[str]:
    """Recompute one crossing row of report.json from the published fits."""
    label = f"{row['threshold']}/{row['combination']}/{row['wind_treatment']}"
    comps = _component_fits(doc, row["combination"], row["wind_treatment"])
    level = row["level_twh_per_year"]
    start = max(fit["window"][0] for fit, _ in comps)
    horizon = doc["config"]["horizon"]
    status, year = row["status"], row["year"]
    if status == "crossed":
        if year is None or not start < year <= horizon:
            return [f"{label}: crossed year {year!r} outside ({start}, {horizon}]"]
        value = generation(comps, year)
        if abs(value - level) > LEVEL_TOLERANCE * level:
            return [f"{label}: generation {value!r} at {year!r} != level {level!r}"]
        return []
    if status == "already_satisfied":
        if generation(comps, start) < level or year != start:
            return [f"{label}: already_satisfied but start value is below level"]
        return []
    if status == "not_reached":
        if year is not None or generation(comps, horizon) >= level:
            return [f"{label}: not_reached but horizon value meets level"]
        return []
    return [f"{label}: unknown status {status!r}"]


def check_report_doc(doc: dict) -> list[str]:
    problems = []
    crossings = doc["crossings"]
    expected = 7 * len(doc["config"]["thresholds"])
    if len(crossings) != expected:
        problems.append(f"{len(crossings)} crossing rows, expected {expected}")
    for row in crossings:
        problems += check_crossing(doc, row)
    for year, entries in doc["mixes"].items():
        share = sum(e["share_pct"] for e in entries)
        if abs(share - 100.0) > 1e-9:
            problems.append(f"mix {year}: shares sum to {share!r}")
    return problems


def check_artifacts(out_dir: Path) -> tuple[list[str], dict | None]:
    """All 17 artifacts exist and are well formed; returns the parsed report."""
    problems = []
    for name in ARTIFACTS:
        p = out_dir / name
        if not p.is_file() or p.stat().st_size == 0:
            problems.append(f"missing artifact {name}")
        elif name.endswith(".svg"):
            text = p.read_text(encoding="utf-8")
            if not (text.startswith("<?xml") and text.endswith("</svg>\n")):
                problems.append(f"{name} is not a complete SVG document")
    try:
        doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"report.json unreadable: {exc}"], None
    return problems, doc


def check_outputs(out_dir: Path) -> list[str]:
    """The full per-op check of an artifact-writing op."""
    problems, doc = check_artifacts(out_dir)
    if doc is not None:
        try:
            problems += check_report_doc(doc)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"report.json malformed: {exc!r}")
    return problems


def compare(actual, expected, path="report") -> list[str]:
    """Structural equality with numbers within GOLDEN_TOLERANCE relative."""
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, float)):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return [f"{path}: {actual!r} is not a number"]
        if abs(actual - expected) <= GOLDEN_TOLERANCE * abs(expected):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        out = []
        for key in expected:
            out += compare(actual[key], expected[key], f"{path}.{key}")
        return out
    if not isinstance(actual, list) or len(actual) != len(expected):
        return [f"{path}: length differs"]
    out = []
    for i, (a, e) in enumerate(zip(actual, expected)):
        out += compare(a, e, f"{path}[{i}]")
    return out


# --------------------------------------------------------------------------
# CLI stdout checks, against the golden report of the default config

def _key_values(lines, expected: dict) -> dict:
    """Parse ``key = value`` lines; values are Python literals except where
    the expected value is a string (printed bare)."""
    out = {}
    for line in lines:
        key, sep, text = line.strip().partition(" = ")
        if not sep:
            continue
        if isinstance(expected.get(key), str):
            out[key] = text
            continue
        try:
            out[key] = ast.literal_eval(text)
        except (ValueError, SyntaxError):
            out[key] = text
    return out


def _rel_ok(a: float, b: float) -> bool:
    return abs(a - b) <= GOLDEN_TOLERANCE * abs(b)


def check_cli(argv: list[str], stdout: str, out_dir: Path, golden: dict) -> list[str]:
    """Check one CLI subcommand's output; ``golden`` is the default-config
    report.json the CLI must reproduce."""
    cmd = argv[0]
    lines = stdout.splitlines()
    cf = golden["config"]["capacity_factors"]
    if cmd == "fit":
        blocks, current = {}, None
        for line in lines:
            if line.startswith("[") and line.endswith("]"):
                current = blocks.setdefault(line[1:-1], [])
            elif current is not None:
                current.append(line)
        names = [FIT_KEYS[argv[1]]]
        if argv[1] == "wind":
            names += ["wind_piecewise", "wind_rebound"]
        if sorted(blocks) != sorted(names):
            return [f"fit printed blocks {sorted(blocks)}, expected {sorted(names)}"]
        out = []
        for name in names:
            expected = golden["fits"][name]
            out += compare(_key_values(blocks[name], expected), expected, f"fit.{name}")
        return out
    if cmd == "project":
        tech, year = argv[1], float(argv[3])
        kv = _key_values(lines, {})
        fit = golden["fits"][FIT_KEYS[tech]]
        power = model_value(fit, year)
        gen = power * cf[CF_KEYS[tech]] * HOURS_PER_YEAR / 1000.0
        out = []
        if not _rel_ok(kv.get("installed_power_gw", math.nan), power):
            out.append(f"project {tech} {year}: power {kv.get('installed_power_gw')!r} "
                       f"!= {power!r}")
        if not _rel_ok(kv.get("generation_twh_per_year", math.nan), gen):
            out.append(f"project {tech} {year}: generation mismatch")
        if (kv.get("horizon_warning") == "true") != (year > fit["window"][1] + 15.0):
            out.append(f"project {tech} {year}: horizon_warning flag wrong")
        return out
    if cmd == "cross":
        threshold = argv[2]
        expected = [r for r in golden["crossings"] if r["threshold"] == threshold]
        if len(lines) != len(expected):
            return [f"cross {threshold}: {len(lines)} rows, expected {len(expected)}"]
        out = []
        for line, exp in zip(lines, expected):
            t, combo, treatment, status, year = line.split(",")
            row = dict(exp, status=status, year=float(year) if year else None)
            if (t, combo, treatment if treatment != "-" else None) != (
                    exp["threshold"], exp["combination"], exp["wind_treatment"]):
                out.append(f"cross {threshold}: unexpected row {line!r}")
                continue
            out += compare(row, exp, f"cross.{combo}")
            out += check_crossing(golden, row)
        return out
    if cmd == "mix":
        year = float(argv[2])
        comps = _component_fits(golden, "wind_pv_hydro", golden["config"]["wind_treatment"])
        gens = [generation([c], year) for c in comps]
        total = sum(gens)
        if len(lines) != 3:
            return [f"mix {year}: {len(lines)} rows, expected 3"]
        out = []
        for line, tech, gen in zip(lines, ("pv", "wind", "hydro"), gens):
            name, g, share = line.split(",")
            if name != tech or not _rel_ok(float(g), gen) \
                    or not _rel_ok(float(share), 100.0 * gen / total):
                out.append(f"mix {year}: row {line!r} disagrees with the fits")
        return out
    if cmd == "learn":
        return compare(_key_values(lines, golden["learning"]), golden["learning"], "learn")
    if cmd == "budget":
        expected = {}
        for name, entry in golden["budget"]["areas"].items():
            expected[f"area_{name}_km2"] = entry["required_area_km2"]
            expected[f"desert_fraction_{name}"] = entry["desert_fraction"]
        ode = golden["budget"]["offshore_depth_extrapolation"]
        expected["offshore_depth_extrapolated_twh"] = \
            ode["extrapolated_potential_twh_per_year"]
        out = compare(_key_values(lines, expected), expected, "budget")
        table = lines[len(expected) + 1:]
        if len(table) != len(golden["discrepancies"]) + 1:
            out.append(f"budget: {len(table)} discrepancy table lines")
        return out
    if cmd == "figures":
        p = out_dir / f"{argv[2]}.svg"
        if not p.is_file():
            return [f"figures: {p.name} not written"]
        text = p.read_text(encoding="utf-8")
        if not (text.startswith("<?xml") and text.endswith("</svg>\n")):
            return [f"figures: {p.name} is not a complete SVG document"]
        return []
    if cmd == "report":
        problems, doc = check_artifacts(out_dir)
        if doc is None:
            return problems
        return problems + check_report_doc(doc) + compare(doc, golden)
    return [f"unknown subcommand {cmd!r}"]
