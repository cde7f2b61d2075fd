"""Seeded input generator for the three workloads.

Everything the program under test receives is made here from the workload
seed: scenario config files, the dense series files of a generated
``data_dir`` and the CLI argument lists. The same seed gives byte-identical
inputs; nothing depends on the checkout's location or the clock.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

THRESHOLD_NAMES = ("electric_fig5", "electric_2030", "reduced_primary_2030",
                   "primary_fig5")
WIND_TREATMENTS = ("trend", "piecewise", "rebound")
FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
              "appfig1", "appfig6")
TECHNOLOGIES = ("pv", "wind", "offshore_wind", "hydro")
CLI_SUBCOMMANDS = ("fit", "project", "cross", "mix", "learn", "budget",
                   "figures", "report")

# Installed-power histories that dense_series resamples weekly; the cost
# series stay annual because learning curves join them on whole years.
DENSE_CAPACITY_FILES = ("pv_installed_gw.csv", "wind_installed_gw.csv",
                        "offshore_wind_installed_gw.csv", "hydro_installed_gw.csv")
ANNUAL_COST_FILES = ("pv_lcoe_usd_mwh.csv", "wind_lcoe_usd_mwh.csv",
                     "battery_pack_cost_usd_kwh.csv")
DIRECTIVES = ("technology", "kind", "unit")
WEEKS_PER_YEAR = 52
DENSE_NOISE_SIGMA = 0.03        # log-normal noise on every weekly sample

SCENARIO_POOL = 64              # configs per scenario_batch run (16 per threshold count)
DENSE_POOL = 16
CLI_CYCLES = 8                  # seeded argument sets per subcommand


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds are hashed with sha512, so the stream is stable across runs
    return random.Random(f"{workload}:{seed}")


def _bit_reverse(i: int, bits: int) -> int:
    return int(format(i, f"0{bits}b")[::-1], 2)


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One value per equal-width stratum of [lo, hi), in bit-reversed stratum
    order so that every prefix of the list spreads over the whole range."""
    bits = max(1, (n - 1).bit_length())
    order = sorted(range(n), key=lambda j: _bit_reverse(j, bits))
    return [lo + (hi - lo) * (j + rng.random()) / n for j in order]


def _config_text(fields: dict) -> str:
    lines = ["# generated benchmark scenario"]
    for key, value in fields.items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def scenario_batch_configs(seed: int) -> list[str]:
    """Config files for scenario_batch, in run order.

    Threshold counts cycle 1..4 so that every four ops share the same
    amount of crossing work on average; horizons are stratified over
    2035-2100 within each count, so seeds differ in the exact values but
    not in the distribution of work. electric_fig5 is always included:
    write_outputs cannot draw fig6 without it (it raises MissingFit).
    """
    rng = _rng("scenario_batch", seed)
    per_count = SCENARIO_POOL // 4
    horizons = {k: _stratified(rng, per_count, 2035.0, 2100.0) for k in range(1, 5)}
    configs = []
    for i in range(SCENARIO_POOL):
        k = 1 + i % 4
        fields = {
            "horizon": f"{horizons[k][i // 4]:.2f}",
            "wind_treatment": rng.choice(WIND_TREATMENTS),
            "thresholds": ", ".join(
                ("electric_fig5", *rng.sample(THRESHOLD_NAMES[1:], k - 1))),
            "mix_years": ", ".join(
                f"{y:g}" for y in sorted(rng.sample(range(2021, 2046), rng.randint(1, 3)))),
        }
        for key, lo, hi in (("cf_pv", 0.12, 0.30), ("cf_wind", 0.25, 0.45),
                            ("cf_hydro", 0.35, 0.50)):
            if rng.random() < 0.5:
                fields[key] = f"{rng.uniform(lo, hi):.4f}"
        configs.append(_config_text(fields))
    return configs


def _read_rows(path: Path) -> tuple[list[str], list[tuple[float, float]]]:
    header, rows = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line.strip():
            y, v = line.split(",")
            rows.append((float(y), float(v)))
    return header, rows


def dense_series_files(seed: int, bundled_dir: Path) -> dict[str, str]:
    """File name -> text for a data_dir of weekly capacity series.

    Each weekly value follows the bundled annual history (log-linear
    between whole years, which stay on the grid so the annual cost series
    can join on them), times seeded log-normal noise.
    """
    rng = _rng("dense_series", seed)
    files = {}
    for name in DENSE_CAPACITY_FILES:
        header, rows = _read_rows(bundled_dir / name)
        out = [f"# weekly resampling of {name} with seeded noise"]
        out += [h for h in header if h[1:].split(":")[0].strip() in DIRECTIVES]
        for (y0, v0), (y1, v1) in zip(rows, rows[1:]):
            weeks = WEEKS_PER_YEAR if y1 - y0 == 1.0 else 1
            for w in range(weeks):
                f = w / weeks
                year = y0 + f * (y1 - y0)
                value = math.exp((1 - f) * math.log(v0) + f * math.log(v1))
                value *= math.exp(rng.gauss(0.0, DENSE_NOISE_SIGMA))
                out.append(f"{year!r},{value!r}")
        out.append(f"{rows[-1][0]!r},{rows[-1][1]!r}")
        files[name] = "\n".join(out) + "\n"
    for name in ANNUAL_COST_FILES:
        files[name] = (bundled_dir / name).read_text(encoding="utf-8")
    return files


def dense_series_configs(seed: int, data_dir: str) -> list[str]:
    """Short-horizon configs over the generated data_dir, all thresholds."""
    rng = _rng("dense_series:configs", seed)
    horizons = _stratified(rng, DENSE_POOL, 2026.0, 2034.0)
    return [
        _config_text({
            "data_dir": data_dir,
            "horizon": f"{h:.2f}",
            "wind_treatment": WIND_TREATMENTS[i % 3],
        })
        for i, h in enumerate(horizons)
    ]


def cli_mix_argvs(seed: int) -> list[list[str]]:
    """Subcommand argument lists (global flags excluded), cycling through
    all eight subcommands with seeded years, thresholds and figure ids."""
    rng = _rng("cli_mix", seed)
    out = []
    for _ in range(CLI_CYCLES):
        for cmd in CLI_SUBCOMMANDS:
            if cmd == "fit":
                out.append([cmd, rng.choice(TECHNOLOGIES)])
            elif cmd == "project":
                out.append([cmd, rng.choice(TECHNOLOGIES),
                            "--year", f"{rng.uniform(2021.0, 2050.0):.1f}"])
            elif cmd == "cross":
                out.append([cmd, "--threshold", rng.choice(THRESHOLD_NAMES)])
            elif cmd == "mix":
                out.append([cmd, "--year", f"{rng.uniform(2021.0, 2050.0):.1f}"])
            elif cmd == "figures":
                out.append([cmd, "--id", rng.choice(FIGURE_IDS)])
            else:
                out.append([cmd])
    return out


def write_inputs(workload: str, seed: int, work: Path, bundled_dir: Path,
                 data_dir_text: str) -> dict:
    """Write the workload's input files under ``work``; return what the
    runner needs: config paths (in-process) or argument lists (CLI)."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "cli_mix":
        return {"argvs": cli_mix_argvs(seed)}
    if workload == "scenario_batch":
        texts = scenario_batch_configs(seed)
    else:
        data = work / "data"
        data.mkdir(exist_ok=True)
        for name, text in dense_series_files(seed, bundled_dir).items():
            (data / name).write_text(text, encoding="utf-8")
        texts = dense_series_configs(seed, data_dir_text)
    paths = []
    for i, text in enumerate(texts):
        p = work / f"config_{i:02d}.cfg"
        p.write_text(text, encoding="utf-8")
        paths.append(p)
    return {"configs": paths}
