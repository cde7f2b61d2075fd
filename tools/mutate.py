"""Mutation probe: flip one operator at a time and see whether a test notices.

    python tools/mutate.py                  # every module with an operator
    python tools/mutate.py scenario.py      # the named modules only

A mutant flips one comparison, + - * / or and/or of a src/renewcast module in
a temporary copy of src/, tests/ and perfbench/ holding each probed module's
ast.unparse form. Each test file runs once under a line tracer and must pass;
a mutant then runs the files that ran a line of its operator (README.md).
"""

import ast
import functools
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "renewcast")
TIMEOUT = 60.0      # seconds a mutant's run may take beyond its files' traced time
WORKERS = 2         # copies of the tree, each running one mutant at a time

# python -c _TRACE OUT ARGS runs pytest ARGS and writes each [module, line] of
# src/renewcast that it ran to OUT; a test's child processes are not traced
_TRACE = """import json, os, sys, pytest
package, seen = os.path.join(os.getcwd(), "src", "renewcast", ""), set()
def trace(frame, event, arg):
    if frame.f_code.co_filename.startswith(package):
        seen.add((frame.f_code.co_filename[len(package):], frame.f_lineno))
        return trace
sys.settrace(trace)
code = pytest.main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    json.dump(sorted(seen), out)
sys.exit(code)"""

# (module, source line stripped, mutation) -> why no input tells them apart;
# a key covers each place on its line where that mutation applies
_INLINE = "the inline float path and text() write a float alike"
_CLIP = "the test only picks the fast path, which draws what the filter would"
EQUIVALENT = {
    ("scenario.py", "while hi - lo > YEAR_TOLERANCE:", "> -> >="):
        "hi - lo is a multiple of the smaller end's ulp and 1e-9 an odd multiple of 2**-82, "
        "so they are equal only within 2**-29 years of year 0",
    ("growthfit.py", 'out.append("0" if r == 0 else ("+" if r > 0 else "-"))', "> -> >="):
        "r == 0 is handled first, so r > 0 and r >= 0 pick alike",
    ("corpus.py", "if not (min(values) > 0 if strict else min(values) >= 0):", ">= -> >"):
        "the walk of the values decides, and passes a minimum of 0 where 0 is allowed",
    ("corpus.py", "well_formed = well_formed and math.isfinite(sum(years) + sum(values))",
     "+ -> -"): "a nan or inf makes a + b and a - b alike not finite; the walk decides",
    ("artifacts.py", "+ (float.__repr__(v) if type(v) is float and v - v == 0.0", "- -> +"):
        _INLINE,
    ("artifacts.py", "items = [float.__repr__(v) if type(v) is float and v - v == 0.0",
     "- -> +"): _INLINE,
    ("cli.py", "if len(usage) > 78:  # the one line break argparse made in each long usage "
     "here", "> -> >="): "no usage line of the nine fixed parsers is 78 characters long",
    ("cli.py", "if len(inv) <= width - 4 else f\"\\n  {inv}\\n{'':{width}}{doc}\" for inv, "
     "doc in section)", "- -> +"):
        "no help row of the nine fixed parsers is width - 3 to width + 4 characters long",
    ("figures.py", "while x <= x_hi * 1.0001:", "<= -> <"):
        "x steps by 10**0.1 within 1e-12 of each power of ten, never onto x_hi * 1.0001",
    ("svgchart.py", "ticks.append(0.0 if abs(t) < 1e-12 * step else t)", "< -> <="):
        "seven roundings within six steps leave a tick near 0 under 1e-14 steps from it",
    ("svgchart.py", "if not (xs and xlo <= min(xs) and max(xs) <= xhi and ylo <= min(ys)",
     "<= -> <"): _CLIP,
    ("svgchart.py", "and max(ys) <= yhi and math.isfinite(sum(xs) + sum(ys))):",
     "<= -> <"): _CLIP,
    ("svgchart.py", "and max(ys) <= yhi and math.isfinite(sum(xs) + sum(ys))):",
     "+ -> -"): _CLIP + ", as a nan or inf makes a + b and a - b alike not finite",
}

_PAIRS = [(ast.Lt, ast.LtE), (ast.Gt, ast.GtE), (ast.Eq, ast.NotEq), (ast.Add, ast.Sub),
          (ast.Mult, ast.Div), (ast.And, ast.Or)]
_SWAPS = {**dict(_PAIRS), **{b: a for a, b in _PAIRS}}
_TEXT = dict(zip(_SWAPS, "< > == + * and <= >= != - / or".split()))


def _sites(tree) -> list:
    """(node, index, left operand) per operator that can flip, in ast.walk
    order: node.ops[index] for a comparison, node.op when index is None."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sites += [(node, i, left) for i, (op, left)
                      in enumerate(zip(node.ops, [node.left, *node.comparators]))
                      if type(op) in _SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            sites.append((node, None, getattr(node, "left", None) or node.target))
        elif isinstance(node, ast.BoolOp):
            sites.append((node, None, node.values[0]))
    return sites


@functools.cache
def _unparsed(module: str) -> str:
    return ast.unparse(ast.parse((ROOT / PACKAGE / module).read_text(encoding="utf-8")))


def mutants(module: str):
    """(line, mutation, source line, lines, mutated text) per mutant, in source
    order: line is where the left operand ends in the source, and lines hold
    the operator in the unparsed module, whose tree ast.walk pairs with the
    source's, as the two have one shape."""
    source = (ROOT / PACKAGE / module).read_text(encoding="utf-8")
    sites = _sites(ast.parse(source))
    for k in sorted(range(len(sites)),
                    key=lambda k: (sites[k][2].end_lineno, sites[k][2].end_col_offset)):
        tree = ast.parse(_unparsed(module))     # a fresh tree per mutant, flipped in place
        node, index, _ = _sites(tree)[k]
        old = node.op if index is None else node.ops[index]
        if index is None:
            node.op = _SWAPS[type(old)]()
        else:
            node.ops[index] = _SWAPS[type(old)]()
        line = sites[k][2].end_lineno
        yield (line, f"{_TEXT[type(old)]} -> {_TEXT[_SWAPS[type(old)]]}",
               source.splitlines()[line - 1].strip(), range(node.lineno, node.end_lineno + 1),
               ast.unparse(tree))


def _passes(trees: queue.Queue, files: list, timeout=None, trace=None, module=None,
            text=None) -> bool:
    """Whether files pass in time on a free copy, which holds text as module
    while they run; with trace, the lines they run are written there."""
    tree = trees.get()
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, *(["-c", _TRACE, trace] if trace else ["-m", "pytest"]), "-x",
            "-q", "-p", "no:cacheprovider", "-m", "not known_red",
            *(os.path.join("tests", name) for name in files)]
    try:
        if module:
            (tree / PACKAGE / module).write_text(text, encoding="utf-8")
        return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False
    finally:
        if module:
            (tree / PACKAGE / module).write_text(_unparsed(module), encoding="utf-8")
        trees.put(tree)


def main(modules) -> int:
    start, survived, trees = time.monotonic(), 0, queue.Queue()
    tmp, pool = tempfile.TemporaryDirectory(prefix="mutate-"), ThreadPoolExecutor(WORKERS)

    def record(name):   # ({(module, line) the test file ran}, seconds it took traced)
        began, out = time.monotonic(), os.path.join(tmp.name, name + ".json")
        if not _passes(trees, [name], trace=out):
            raise SystemExit(f"{name} fails on the unparsed modules")
        with open(out, encoding="utf-8") as f:
            return {tuple(site) for site in json.load(f)}, time.monotonic() - began

    try:
        for k in range(WORKERS):
            tree = Path(tmp.name).resolve() / str(k)
            for name in ("src", "tests", "perfbench"):
                shutil.copytree(ROOT / name, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".*"))
            shutil.copy(ROOT / "pyproject.toml", tree)
            for module in modules:
                (tree / PACKAGE / module).write_text(_unparsed(module), encoding="utf-8")
            trees.put(tree)
        names = sorted(path.name for path in (ROOT / "tests").glob("test_*.py"))
        recorded = dict(zip(names, pool.map(record, names)))
        print(f"recorded {len(names)} test files in {time.monotonic() - start:.0f} s",
              flush=True)
        runs = {module: [] for module in modules}   # all queued before the first is read
        for module in modules:
            for line, mutation, source, lines, mutated in mutants(module):
                files = sorted((n for n, (ran, _) in recorded.items()
                                if any((module, k) in ran for k in lines)),
                               key=lambda n: recorded[n][1])
                timeout = TIMEOUT + sum(recorded[n][1] for n in files)
                runs[module].append((line, mutation, source, files and pool.submit(
                    _passes, trees, files, timeout, module=module, text=mutated)))
        for module, probed in runs.items():
            tally = dict.fromkeys(("killed", "equivalent", "survived", "not reached"), 0)
            for line, mutation, source, run in probed:
                reason = EQUIVALENT.get((module, source, mutation))
                status = ("not reached" if not run else "killed" if not run.result()
                          else "equivalent" if reason else "survived")
                tally[status] += 1
                if status != "killed":
                    print(f"{status:11} {module}:{line}: {mutation}  | {source}"
                          + (f"  ({reason})" if status == "equivalent" else ""), flush=True)
            left = tally["survived"] + tally["not reached"]
            survived += left
            print(f"{module}: killed {tally['killed']} of {len(probed)}, {tally['equivalent']} "
                  f"equivalent, {left} survived ({tally['not reached']} not reached)", flush=True)
    finally:
        pool.shutdown(cancel_futures=True)
        tmp.cleanup()
    print(f"probed {len(modules)} modules in {time.monotonic() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(
        path.name for path in (ROOT / PACKAGE).glob("*.py")
        if _sites(ast.parse(path.read_text(encoding="utf-8"))))))
