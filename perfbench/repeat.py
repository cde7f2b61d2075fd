"""Run the end-to-end benchmark once per seed and summarise the spread.

    python3 perfbench/repeat.py --workload scenario_batch --seeds 1-10 \
        [--json summary.json]

Runs are sequential (one benchmark process at a time), each for
``run_seconds`` of BENCHMARK.json. For every metric it prints the median,
the first and third quartiles (``statistics.quantiles`` with n=4) and the
quartile spread as a share of the median, and checks that spread against
the metric's bound. The summary also holds the medians of the unscaled
figures each run prints (see README.md).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, UNSCALED_PREFIX  # the script directory is on sys.path


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--json", type=Path, help="write the summary here")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        unscaled = next(json.loads(line[len(UNSCALED_PREFIX):]) for line in lines
                        if line.startswith(UNSCALED_PREFIX))
        runs.append({"seed": seed, **json.loads(lines[-1]), "unscaled": unscaled})
        print(f"seed {seed}: correct={runs[-1]['correct']} "
              f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}",
              file=sys.stderr)

    summary = {"workload": args.workload, "seconds": spec["run_seconds"],
               "runs": runs, "metrics": {}, "unscaled": {}}
    ok = all(r["correct"] for r in runs)
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = spread([r["metrics"][name]["value"] for r in runs])
        summary["metrics"][name] = {"unit": metric["unit"], **stats, "bound": bound}
        ok = ok and stats["spread"] <= bound
        flag = ("ok" if stats["spread"] <= bound / 3 else
                "WITHIN BOUND" if stats["spread"] <= bound else "OVER BOUND")
        print(f"{name:16s} median {stats['median']:12.6g}  q1 {stats['q1']:12.6g}  "
              f"q3 {stats['q3']:12.6g}  spread {stats['spread']:7.4f}  {flag}")
    for name in runs[0]["unscaled"]:
        summary["unscaled"][name] = statistics.median(r["unscaled"][name] for r in runs)
        print(f"unscaled {name:16s} median {summary['unscaled'][name]:12.6g}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
