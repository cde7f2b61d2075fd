"""Mutation probe: flip one operator at a time and see whether a test notices.

Each mutant changes one comparison (< <= > >= == !=), one arithmetic
operator (+ - * /, also in an augmented assignment) or one and/or in a
module of src/renewcast, in a copy of the tree; src/ itself is never
written. The module's mapped test files then run on that copy, and a
mutant that passes them survived. Survivors
known to be equivalent (no input tells them from the original) are listed
in EQUIVALENT with the reason, and are counted apart.

    python tools/mutate.py scenario.py learncurve.py artifacts.py

Each mutant is the module's tree with one operator flipped, written back
with ast.unparse; the unmutated module, unparsed alike, must pass its tests
first. It prints each survivor as module:line (the line the operator's
left operand ends on), the mutation and the source line, and one kill-rate
line per module. One mutant runs at a time, and a test run that takes
longer than TIMEOUT seconds (a mutant may loop forever) kills its mutant.
It is no test: neither the test suite nor CI runs it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "renewcast")
TIMEOUT = 60.0

# module -> the test files that pin it; known-red criteria are deselected
TESTS = {
    "scenario.py": ["test_scenario.py", "test_golden.py", "test_cli_sections.py",
                    "test_acceptance.py"],
    "learncurve.py": ["test_learncurve.py", "test_golden.py", "test_cli_sections.py",
                      "test_acceptance.py", "test_report_cli.py"],
    "artifacts.py": ["test_report_cli.py", "test_golden.py", "test_cli_sections.py",
                     "test_figures.py"],
    "resourcebudget.py": ["test_resourcebudget.py", "test_golden.py", "test_report_cli.py",
                          "test_cli_sections.py", "test_acceptance.py"],
    "corpus.py": ["test_corpus.py", "test_golden.py", "test_cli_sections.py",
                  "test_acceptance.py"],
    "growthfit.py": ["test_growthfit.py", "test_figures.py", "test_kernels.py",
                     "test_golden.py", "test_acceptance.py", "test_scenario.py",
                     "test_cli_sections.py"],
}

# (module, source line stripped, mutation) -> why no input tells them apart;
# a key covers each place on its line where that mutation applies
EQUIVALENT = {
    ("scenario.py", "while hi - lo > YEAR_TOLERANCE:", "> -> >="):
        "hi - lo is exact and a multiple of the smaller bracket end's ulp, and "
        "the float 1e-9 is an odd multiple of 2**-82, so the width can equal it "
        "only for a bracket within 2**-29 years of year 0",
    ("growthfit.py", 'out.append("0" if r == 0 else ("+" if r > 0 else "-"))', "> -> >="):
        "r == 0 is handled first, so r > 0 and r >= 0 pick alike",
    ("corpus.py", "if not (min(values) > 0 if strict else min(values) >= 0):", ">= -> >"):
        "the minimum only decides whether the walk of the values runs, and the "
        "walk gives the verdict: at a minimum of exactly 0, where 0 is allowed, "
        "it runs and finds no bad value",
    ("corpus.py", "well_formed = well_formed and math.isfinite(sum(years) + sum(values))",
     "+ -> -"):
        "the sum only decides whether the walk of the lines runs, and the walk "
        "gives the verdict: a nan or infinite entry makes a + b and a - b alike "
        "not finite, and a walk that finds no bad line lets the rows load",
    ("artifacts.py", "+ (float.__repr__(v) if type(v) is float and v - v == 0.0", "- -> +"):
        "the inline float path and text() write a float alike; the mutant only "
        "sends every float but 0.0 through text()",
    ("artifacts.py", "items = [float.__repr__(v) if type(v) is float and v - v == 0.0",
     "- -> +"):
        "the inline float path and text() write a float alike; the mutant only "
        "sends every float but 0.0 through text()",
}

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}
_TEXT = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.And: "and", ast.Or: "or",
}


def _sites(tree) -> list:
    """(node, field, index, line) per operator that can flip, in source
    order: the node holds the operator in node.field (node.field[index] for
    a comparison), and its left operand ends on line."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, (op, left) in enumerate(zip(node.ops, [node.left, *node.comparators])):
                if type(op) in _SWAPS:
                    sites.append((node, "ops", i, left))
        elif isinstance(node, ast.BinOp) and type(node.op) in _SWAPS:
            sites.append((node, "op", None, node.left))
        elif isinstance(node, ast.AugAssign) and type(node.op) in _SWAPS:
            sites.append((node, "op", None, node.target))
        elif isinstance(node, ast.BoolOp):
            sites.append((node, "op", None, node.values[0]))
    sites.sort(key=lambda site: (site[3].end_lineno, site[3].end_col_offset))
    return [(node, field, index, left.end_lineno) for node, field, index, left in sites]


def _flip(node, field, index):
    """Swap the operator in place; returns the old and the new one."""
    if index is None:
        old = getattr(node, field)
        setattr(node, field, _SWAPS[type(old)]())
        return old, getattr(node, field)
    ops = getattr(node, field)
    old = ops[index]
    ops[index] = _SWAPS[type(old)]()
    return old, ops[index]


def _source(module: str) -> str:
    with open(os.path.join(ROOT, PACKAGE, module), encoding="utf-8") as f:
        return f.read()


def mutants(module: str):
    """(line, mutation, source line, mutated module text) per mutant of
    module, in source order; the text is ast.unparse of the flipped tree."""
    source = _source(module)
    lines = source.splitlines()
    for k in range(len(_sites(ast.parse(source)))):
        tree = ast.parse(source)        # a fresh tree per mutant, flipped in place
        node, field, index, line = _sites(tree)[k]
        old, new = _flip(node, field, index)
        yield (line, f"{_TEXT[type(old)]} -> {_TEXT[type(new)]}", lines[line - 1].strip(),
               ast.unparse(tree))


def _copy_tree(dest: str):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _passes(tree: str, module: str) -> bool:
    """Whether the module's tests pass on tree within TIMEOUT seconds."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-m", "not known_red", *(os.path.join("tests", t) for t in TESTS[module])]
    try:
        proc = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def probe(module: str, tree: str) -> tuple[int, int, int]:
    """Run every mutant of module on tree; print the survivors and return
    (mutants, killed, equivalent)."""
    path = os.path.join(tree, PACKAGE, module)
    total = killed = equivalent = 0
    try:
        # the unmutated module, unparsed as the mutants are, must pass first
        with open(path, "w", encoding="utf-8") as f:
            f.write(ast.unparse(ast.parse(_source(module))))
        if not _passes(tree, module):
            raise SystemExit(f"{module}: the mapped tests fail on the unparsed module")
        for line, mutation, source, mutated in mutants(module):
            total += 1
            with open(path, "w", encoding="utf-8") as f:
                f.write(mutated)
            if not _passes(tree, module):
                killed += 1
                continue
            reason = EQUIVALENT.get((module, source, mutation))
            equivalent += bool(reason)
            print(f"{'equivalent' if reason else 'survived  '} {module}:{line}: "
                  f"{mutation}  | {source}" + (f"  ({reason})" if reason else ""), flush=True)
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(_source(module))
    return total, killed, equivalent


def main(modules) -> int:
    for module in modules:
        if module not in TESTS:
            raise SystemExit(f"no test map for {module}; known: {', '.join(sorted(TESTS))}")
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as tree:
        _copy_tree(tree)
        for module in modules:
            total, killed, equivalent = probe(module, tree)
            left = total - killed - equivalent
            survived += left
            print(f"{module}: killed {killed} of {total} "
                  f"({100.0 * killed / total:.0f}%), {equivalent} equivalent, "
                  f"{left} survived", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(TESTS)))
