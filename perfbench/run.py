"""renewcast benchmark: one closed-loop client, three seeded workloads.

    python3 perfbench/run.py --workload {cli_mix,scenario_batch,dense_series}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nothing else. Inputs are generated from the seed under
``.bench_work/``. Every op is checked (see checks.py). The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. The lines before it print the same
metrics, and the error rate, for people.

An op is one CLI process (cli_mix) or one ``run_scenario`` plus
``write_outputs`` in this process (scenario_batch, dense_series). At most
one child process runs at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")      # relative to ROOT; ignored by git

import checks  # noqa: E402  (BENCH is on sys.path as the script directory)
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("cli_mix", "scenario_batch", "dense_series")
SETUP_REPEATS = 5               # fresh interpreters per run for setup_s
IMPORTTIME_REPEATS = 3
CLI_LAYER_REPEATS = 2           # per subcommand, in the in-process trace runs
COUNT_OPS = 8                   # ops in the counter pass
PAIRED_SHARE = 0.5              # of --seconds, for the traced/untraced pairs
CHILD_TIMEOUT_S = 120
# Speed calibration. The shared machine's speed drifts by +-20% within
# seconds and by more between minutes, which moves every time alike. A fixed
# calibration task that resembles the op but runs none of the program is
# timed between ops, and each end-to-end time is reported scaled by the
# task's reference time over the mean of the two task times that bracket
# it: the time the op would take where the task takes its reference time.
# Wall times are scaled by the task's wall time and CPU times by its CPU
# time, because time stolen by the hypervisor lengthens only the former.
# - in-process ops: a pure-Python kernel in the program's style (small
#   objects, method calls, math.exp, float formatting), between all ops;
# - child processes (CLI ops, set-up): an interpreter importing a few of the
#   standard-library modules the CLI imports, every PROBE_EVERY ops.
# The reference times are close to the task's median times on the machine
# the baseline was recorded on (shared 2-vCPU VM, 2.1 GHz), so that scaled
# figures stay near what the program takes there; the unscaled figures and
# the speed factor are printed too.
KERNEL_ITERATIONS = 1500
REF_KERNEL_S = 0.003
PROBE_ARGS = ["-c", "import argparse, dataclasses, json, pathlib"]
REF_PROBE_S = 0.07
PROBE_EVERY = 4
UNSCALED_PREFIX = "# unscaled "
GOLDEN = json.loads((BENCH / "golden" / "report.json").read_text(encoding="utf-8"))
SETUP_CODE = ("import sys, renewcast; from renewcast import report; "
               "report.run_scenario(report.parse_config(sys.argv[1]))")

E2E_UNITS = {"op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
             "cpu_ms_per_op": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "import.cli_ms": "ms", "import.numpy_ms": "ms",
    **{f"cli.{c}_ms": "ms" for c in inputs.CLI_SUBCOMMANDS},
    "corpus.load_ms": "ms", "corpus.rows": "count",
    "growthfit.fit_ms": "ms", "growthfit.changepoint_ms": "ms",
    "growthfit.points": "count",
    "scenario.crossing_ms": "ms", "scenario.crossings": "count",
    "scenario.value_calls": "count", "scenario.extrapolate_calls": "count",
    "scenario.mix_ms": "ms", "genconvert.calls": "count",
    "learncurve.fit_ms": "ms", "resourcebudget.budget_ms": "ms",
    "report.pipeline_self_ms": "ms", "report.tables_ms": "ms",
    "report.figures_self_ms": "ms", "report.write_self_ms": "ms",
    "report.bytes_written": "bytes",
    "svgchart.render_ms": "ms", "svgchart.points": "count",
    "trace.overhead_pct": "%", "trace.coverage_pct": "%",
}
# span layer -> per-layer metric of its summed self time
LAYER_METRICS = {
    "corpus.load": "corpus.load_ms", "growthfit.fit": "growthfit.fit_ms",
    "growthfit.changepoint": "growthfit.changepoint_ms",
    "scenario.crossing": "scenario.crossing_ms", "scenario.mix": "scenario.mix_ms",
    "learncurve.fit": "learncurve.fit_ms",
    "resourcebudget.budget": "resourcebudget.budget_ms",
    "report.pipeline": "report.pipeline_self_ms", "report.tables": "report.tables_ms",
    "report.figures": "report.figures_self_ms", "report.write": "report.write_self_ms",
    "svgchart.render": "svgchart.render_ms",
}
# Their self time is whatever in run_scenario or write_outputs no named layer
# claims, so trace.coverage_pct leaves it out.
CATCH_ALL_LAYERS = ("report.pipeline", "report.write")


class Ledger:
    """Attempted and failed op counts; the first failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: {'; '.join(problems[:3])}", file=sys.stderr)


# --------------------------------------------------------------------------
# Children

def run_child(args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - start


def cli_args(argv, out_dir, config=None) -> list[str]:
    flags = ["--out", str(out_dir)] + (["--config", str(config)] if config else [])
    return ["-m", "renewcast.cli", *flags, *argv]


def exit_problems(proc) -> list[str]:
    if proc.returncode == 0:
        return []
    return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]


class _Curve:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def value(self, t):
        return math.exp(self.a + self.b * (t - 2000.0))


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def kernel_seconds() -> tuple[float, float]:
    """Wall and CPU time of the fixed calibration kernel, with the garbage
    collector off so that the program's heap cannot change it."""
    gc.disable()
    try:
        cpu = cpu_seconds(resource.RUSAGE_SELF)
        start = time.perf_counter()
        curves = [_Curve(0.1 * k, 0.01 * k) for k in (1, 2, 3)]
        total, parts = 0.0, []
        for i in range(KERNEL_ITERATIONS):
            t = 2000.0 + 0.01 * i
            total += sum([c.value(t) * 0.25 for c in curves])
            parts.append(f"{total:.2f},{t:.2f}")
        " ".join(parts)
        return time.perf_counter() - start, cpu_seconds(resource.RUSAGE_SELF) - cpu
    finally:
        gc.enable()


def probe_seconds() -> tuple[float, float]:
    """Wall and CPU time of the calibration process."""
    cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
    proc, wall = run_child(PROBE_ARGS)
    if proc.returncode != 0:
        raise RuntimeError(f"calibration process failed: {proc.stderr[-300:]}")
    return wall, cpu_seconds(resource.RUSAGE_CHILDREN) - cpu


def setup_seconds(ledger: Ledger, args: list[str]) -> tuple[float, float]:
    """Median wall time of fresh interpreters doing the workload's set-up,
    unscaled and at the reference speed."""
    times, cal = [], [probe_seconds()[0]]
    for _ in range(SETUP_REPEATS):
        proc, wall = run_child(args)
        ledger.record(exit_problems(proc), "set-up")
        times.append(wall)
        cal.append(probe_seconds()[0])
    scaled = [t * 2 * REF_PROBE_S / (cal[k] + cal[k + 1]) for k, t in enumerate(times)]
    return statistics.median(times), statistics.median(scaled)


def bracket_scales(cal: list[tuple[int, float]], n_ops: int, reference_s: float):
    """Per-op factor to the reference speed. ``cal`` holds (index of the
    next op, calibration seconds) and ends with a sample taken after the
    last op."""
    scales, j = [], 0
    for i in range(n_ops):
        while cal[j + 1][0] <= i:
            j += 1
        scales.append(2 * reference_s / (cal[j][1] + cal[j + 1][1]))
    return scales


def import_times(ledger: Ledger) -> dict:
    """import.cli_ms and import.numpy_ms from ``python -X importtime``."""
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc, _ = run_child(["-X", "importtime", "-c", "import renewcast.cli"])
        ledger.record(exit_problems(proc), "importtime")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        cli_ms.append(cumulative.get("renewcast.cli", 0) / 1000.0)
        numpy_ms.append(cumulative.get("numpy", 0) / 1000.0)
    return {"import.cli_ms": statistics.median(cli_ms),
            "import.numpy_ms": statistics.median(numpy_ms)}


# --------------------------------------------------------------------------
# Ops

def import_program():
    """Import renewcast from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import renewcast
    from renewcast import cli, report

    if Path(renewcast.__file__).resolve().parent != (SRC / "renewcast").resolve():
        raise SystemExit(f"renewcast imported from {renewcast.__file__}, not {SRC}")
    return report, cli


def clear(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    for p in out_dir.iterdir():
        p.unlink()


def snapshot(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class InProcessOps:
    """scenario_batch and dense_series: run_scenario + write_outputs here."""

    who = resource.RUSAGE_SELF
    reference_s = REF_KERNEL_S
    calibrate_every = 1

    def __init__(self, report, config_paths, out_dir: Path):
        self.report = report
        self.configs = [report.parse_config(p) for p in config_paths]
        self.out = out_dir

    def __len__(self):
        return len(self.configs)

    def calibrate(self):
        return kernel_seconds()

    def do(self, i):
        # module attributes are looked up per call so traced wrappers apply
        rep = self.report.run_scenario(self.configs[i])
        self.report.write_outputs(rep, self.out)

    def verify(self, i, _result) -> list[str]:
        return checks.check_outputs(self.out)


class CliOps:
    """cli_mix: one renewcast CLI process per op, default config."""

    who = resource.RUSAGE_CHILDREN
    reference_s = REF_PROBE_S
    calibrate_every = PROBE_EVERY

    def __init__(self, argvs, out_dir: Path):
        self.argvs = argvs
        self.out = out_dir

    def __len__(self):
        return len(self.argvs)

    def calibrate(self):
        return probe_seconds()

    def do(self, i):
        return run_child(cli_args(self.argvs[i], self.out))[0]

    def verify(self, i, proc) -> list[str]:
        return exit_problems(proc) or checks.check_cli(
            self.argvs[i], proc.stdout, self.out, GOLDEN)


class InProcessCli:
    """cli_mix ops through ``renewcast.cli.main`` in this process, for the
    span and counter passes (a child process cannot be wrapped)."""

    def __init__(self, cli, argvs, out_dir: Path):
        self.cli = cli
        self.argvs = argvs
        self.out = out_dir

    def __len__(self):
        return len(self.argvs)

    def do(self, i):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(["--out", str(self.out), *self.argvs[i]])
        return code, stdout.getvalue()

    def verify(self, i, result) -> list[str]:
        code, stdout = result
        if code != 0:
            return [f"main() returned {code}"]
        return checks.check_cli(self.argvs[i], stdout, self.out, GOLDEN)


def attempt(ops, i):
    """Run op i; returns (result, problems from an exception)."""
    try:
        return ops.do(i), []
    except Exception:  # an op failure is counted, the run goes on
        return None, [traceback.format_exc().strip().splitlines()[-1]]


def checked(ops, i, result, problems) -> list[str]:
    if problems:
        return problems
    try:
        return ops.verify(i, result)
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # malformed output
        return [f"unparseable output: {exc!r}"]


def timed_loop(ledger: Ledger, ops, seconds: float, min_ops: int = 2) -> dict:
    """Closed loop over ops for ``seconds`` and at least ``min_ops`` ops.
    Per op: wall and CPU time of the op alone, the wall time of its whole
    iteration (clearing the output directory, the op and its check, but not
    the calibration task), and the calibration times."""
    walls, cpus, iterations, cal = [], [], [], []
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline or n < min_ops:
        i = n % len(ops)
        if n % ops.calibrate_every == 0:
            cal.append((n, ops.calibrate()))
        begin = time.perf_counter()
        clear(ops.out)
        cpu = cpu_seconds(ops.who)
        start = time.perf_counter()
        result, problems = attempt(ops, i)
        walls.append(time.perf_counter() - start)
        cpus.append(cpu_seconds(ops.who) - cpu)
        ledger.record(checked(ops, i, result, problems), f"op {n} (item {i})")
        iterations.append(time.perf_counter() - begin)
        n += 1
    cal.append((n, ops.calibrate()))
    return {"walls": walls, "cpus": cpus, "iterations": iterations, "cal": cal}


def warm_up(ledger: Ledger, ops):
    clear(ops.out)
    result, problems = attempt(ops, 0)
    ledger.record(checked(ops, 0, result, problems), "warm-up op")


# --------------------------------------------------------------------------
# Workloads

def prepare(workload: str, seed: int) -> dict:
    work = ROOT / WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    return inputs.write_inputs(workload, seed, work, SRC / "renewcast" / "data",
                               str(WORK / workload / "data"))


def golden_check(ledger: Ledger, report):
    """The default config must reproduce the golden report.json."""
    out = WORK / "golden"
    clear(out)
    try:
        report.write_outputs(report.run_scenario(report.ScenarioConfig()), out)
        problems = checks.check_outputs(out)
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        problems += checks.compare(doc, GOLDEN)
    except Exception:  # counted as a failed op
        problems = [traceback.format_exc().strip().splitlines()[-1]]
    ledger.record(problems, "golden check")


def end_to_end(workload: str, seed: int, seconds: float, ledger: Ledger) -> dict:
    generated = prepare(workload, seed)
    out = WORK / workload / "out"
    if workload == "cli_mix":
        raw_setup, setup = setup_seconds(ledger, ["-c", "import renewcast.cli"])
        ops = CliOps(generated["argvs"], out)
    else:
        raw_setup, setup = setup_seconds(
            ledger, ["-c", SETUP_CODE, str(generated["configs"][0])])
        report, _ = import_program()
        golden_check(ledger, report)
        ops = InProcessOps(report, generated["configs"], out)
    warm_up(ledger, ops)
    loop = timed_loop(ledger, ops, seconds)
    n = len(loop["walls"])
    scales = bracket_scales([(i, w) for i, (w, _) in loop["cal"]], n, ops.reference_s)
    cpu_scales = bracket_scales([(i, c) for i, (_, c) in loop["cal"]], n, ops.reference_s)
    walls = [w * k for w, k in zip(loop["walls"], scales)]
    # the same figures before scaling, for comparison with other measurements
    print(UNSCALED_PREFIX + json.dumps({
        "op_ms_p50": 1e3 * statistics.median(loop["walls"]),
        "op_ms_p90": 1e3 * statistics.quantiles(loop["walls"], n=10)[8],
        "setup_s": raw_setup,
        "speed_factor": statistics.median(scales),
        "timed_ops": n}))
    return {
        "op_ms_p50": 1e3 * statistics.median(walls),
        "op_ms_p90": 1e3 * statistics.quantiles(walls, n=10)[8],
        "ops_per_s": n / sum(w * k for w, k in zip(loop["iterations"], scales)),
        "cpu_ms_per_op": 1e3 * sum(c * k for c, k in zip(loop["cpus"], cpu_scales)) / n,
        "peak_rss_mb": resource.getrusage(ops.who).ru_maxrss / 1024.0,
        "setup_s": setup,
    }


def paired_spans(ledger: Ledger, ops, seconds: float):
    """Each op untraced, then traced; artifacts and stdout must agree."""
    recorder = tracing.SpanRecorder()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline or n < 2:
        i = n % len(ops)
        clear(ops.out)
        start = time.perf_counter()
        plain, problems = attempt(ops, i)
        untraced.append(time.perf_counter() - start)
        ledger.record(checked(ops, i, plain, problems), f"untraced op {n}")
        before = snapshot(ops.out)
        clear(ops.out)
        with recorder.install():
            try:
                result, wall = recorder.op(n, ops.do, i)
                problems = []
            except Exception:  # counted as a failed op
                result, wall = None, 0.0
                problems = [traceback.format_exc().strip().splitlines()[-1]]
        traced.append(wall)
        problems = checked(ops, i, result, problems)
        if snapshot(ops.out) != before or plain != result:
            problems.append("traced op output differs from untraced output")
        ledger.record(problems, f"traced op {n}")
        n += 1
    return recorder.self_times(), untraced, traced


def counted(ledger: Ledger, ops) -> dict:
    """Counter pass: mean counts per op over the first COUNT_OPS ops."""
    totals = dict.fromkeys(tracing.Counters.NAMES + ("report.bytes_written",), 0)
    n = min(COUNT_OPS, len(ops))
    for i in range(n):
        clear(ops.out)
        counters = tracing.Counters()
        with counters.install():
            result, problems = attempt(ops, i)
        ledger.record(checked(ops, i, result, problems), f"counted op {i}")
        for key, value in counters.counts.items():
            totals[key] += value
        totals["report.bytes_written"] += sum(p.stat().st_size for p in ops.out.iterdir())
    return {key: value / n for key, value in totals.items()}


def cli_walls(ledger: Ledger, argvs, out, config) -> list[float]:
    """Wall time of a CLI process per argv, with ``config``; outside the
    default config only the exit code can be checked."""
    walls = []
    for argv in argvs:
        clear(out)
        proc, wall = run_child(cli_args(argv, out, config))
        ledger.record(exit_problems(proc), f"cli {' '.join(argv)}")
        walls.append(wall)
    return walls


def cli_medians(argvs, walls) -> dict:
    """Median wall time of each subcommand; walls[k] is a run of argvs[k]."""
    per_cmd = {c: [] for c in inputs.CLI_SUBCOMMANDS}
    for argv, wall in zip(argvs, walls):
        per_cmd[argv[0]].append(wall)
    return {f"cli.{c}_ms": 1e3 * statistics.median(w) for c, w in per_cmd.items() if w}


def layers(workload: str, seed: int, seconds: float, ledger: Ledger) -> dict:
    generated = prepare(workload, seed)
    out = WORK / workload / "out"
    report, cli = import_program()
    metrics = {}
    if workload == "cli_mix":
        argvs = generated["argvs"]
        # untraced CLI processes give the per-subcommand wall times
        cli_ops = CliOps(argvs, out)
        loop = timed_loop(ledger, cli_ops, PAIRED_SHARE * seconds,
                          min_ops=len(inputs.CLI_SUBCOMMANDS))
        metrics.update(cli_medians(
            [argvs[n % len(argvs)] for n in range(len(loop["walls"]))], loop["walls"]))
        ops = InProcessCli(cli, argvs, out)
        cli_op_s = statistics.median(loop["walls"])
        pair_seconds = 0.15 * seconds
    else:
        ops = InProcessOps(report, generated["configs"], out)
        cycles = inputs.cli_mix_argvs(seed)[:len(inputs.CLI_SUBCOMMANDS)] * CLI_LAYER_REPEATS
        metrics.update(cli_medians(
            cycles, cli_walls(ledger, cycles, out, generated["configs"][0])))
        pair_seconds = PAIRED_SHARE * seconds
    warm_up(ledger, ops)
    self_times, untraced, traced = paired_spans(ledger, ops, pair_seconds)
    n_ops = len(untraced)
    sums = {layer: 0.0 for layer in LAYER_METRICS}
    for per_op in self_times.values():
        for layer, secs in per_op.items():
            if layer != tracing.OP_SPAN:
                sums[layer] += secs
    for layer, name in LAYER_METRICS.items():
        metrics[name] = 1e3 * sums[layer] / n_ops
    metrics.update(counted(ledger, ops))
    metrics.update(import_times(ledger))
    named = sum(secs for layer, secs in sums.items() if layer not in CATCH_ALL_LAYERS)
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(untraced) - 1.0)
    if workload == "cli_mix":
        # a CLI process also starts the interpreter and imports the package
        per_op_ms = 1e3 * named / n_ops + metrics["import.cli_ms"]
        metrics["trace.coverage_pct"] = 100.0 * per_op_ms / (1e3 * cli_op_s)
    else:
        metrics["trace.coverage_pct"] = 100.0 * named / sum(traced)
    return {name: metrics[name] for name in LAYER_UNITS}


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "renewcast" / "__init__.py").is_file():
        print(f"no renewcast sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    ledger = Ledger()
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    measure = layers if args.trace else end_to_end
    values = measure(args.workload, args.seed, args.seconds, ledger)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    error_rate = ledger.failed / ledger.attempted
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {error_rate:.6g} ({ledger.failed}/{ledger.attempted})")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
