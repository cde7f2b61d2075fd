"""The command line reads argv, and prints usage, help and errors, as the
argparse parser it replaced did: pinned texts, an argparse oracle, the
exit code of a failed write to standard output, and a process that ends as
main() returns."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import renewcast
from renewcast import cli
from renewcast.cli import main
from renewcast.config import FIGURE_IDS, THRESHOLD_NAMES

_TECHS = ("pv", "wind", "offshore_wind", "hydro")
_COMMANDS = ("fit", "project", "cross", "mix", "learn", "budget", "report", "figures")

# (exit code, stdout, stderr) of main(argv), as argparse printed them at 80
# columns with COLUMNS unset; the same bytes on Python 3.10.13, 3.11.7 and
# 3.12.1 (3.13.0 wraps the cross usage otherwise, and reads -hx and -h=hydro
# otherwise)
_PINNED = json.loads((Path(__file__).parent / "golden_cli_text.json")
                     .read_text(encoding="utf-8"))


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _pinned(*argv):
    (case,) = (c for c in _PINNED if c["argv"] == list(argv))
    return case["code"], case["stdout"], case["stderr"]


@pytest.mark.parametrize("case", _PINNED, ids=lambda case: repr(case["argv"]))
def test_usage_help_and_errors_are_those_argparse_printed(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "40")  # the text is fixed at 80 columns
    assert _call(case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def _error(prog, usage_of, message):
    usage = _pinned(*usage_of)[2].partition(f"{prog}: error:")[0]
    return 2, "", f"{usage}{prog}: error: {message}\n"


# the two cases the parser reads otherwise than argparse 3.10-3.12.1
@pytest.mark.parametrize("argv, expected", [
    # a prefix of a global option after the subcommand is the subcommand's:
    # --h is its --help (argparse 3.10.13-3.13.0 exit 2 on an ambiguous --h
    # wherever it stands)
    (["fit", "--h"], _pinned("fit", "-h")),
    (["fit", "pv", "--h"], _pinned("fit", "-h")),
    (["cross", "--h", "--threshold", "x"], _pinned("cross", "-h")),
    # ... and the ambiguity is met in argv order
    (["--horizon", "abc", "--h", "fit"],
     _error("renewcast", ["--horizon", "abc", "fit", "pv"],
            "argument --horizon: invalid float value: 'abc'")),
    # --opt=-- gives "--", as in argparse 3.13.0 (3.10-3.12.1 gave [], and
    # --horizon=-- ended in a TypeError traceback)
    (["--horizon=--", "fit", "pv"],
     _error("renewcast", ["--horizon", "abc", "fit", "pv"],
            "argument --horizon: invalid float value: '--'")),
    (["project", "pv", "--year=--"],
     _error("renewcast project", ["project", "pv"],
            "argument --year: invalid float value: '--'")),
    (["figures", "--id=--"],
     _error("renewcast figures", ["figures", "--id"],
            "argument --id: invalid choice: '--' (choose from "
            + ", ".join(map(repr, FIGURE_IDS)) + ")")),
], ids=repr)
def test_where_argparse_releases_differ(argv, expected):
    assert _call(argv) == expected


def test_values_given_with_equals_prefixes_and_dashes():
    ns = SimpleNamespace()
    cli._parse(["--hor=2060", "--out=--", "--con", "-5", "project", "--ye", "-.5",
                "--year= 1_000 ", "--", "pv"], None, ns)
    assert vars(ns) == {"config": "-5", "out": "--", "horizon": 2060.0, "command": "project",
                        "technology": "pv", "year": 1000.0}


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line had, kept as the oracle."""
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


def _outcome(parse, argv):
    """(exit code or None, the parsed fields, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields = {k: repr(v) for k, v in vars(parse(argv)).items()}
            code = None
        except SystemExit as exc:
            code, fields = exc.code, None
    return code, fields, out.getvalue(), err.getvalue()


def _ours(argv):
    cli._parse(list(argv), None, ns := SimpleNamespace())
    return ns


_ORACLE = _build_parser()


def _oracle(argv):
    return _ORACLE.parse_args(argv)


_LONG = ("--help", "--config", "--out", "--horizon", "--year", "--threshold", "--id")
# every flag and every prefix of one, unique or ambiguous (--h: --help or --horizon)
_NAMES = ("-h", *sorted({flag[:k] for flag in _LONG for k in range(3, len(flag) + 1)}))
_NUMBERS = ("2030", "-5", "-.5", "-1e3", "nan", "inf", "1_000", " 7 ")
_WORDS = (*_COMMANDS, *_TECHS, *THRESHOLD_NAMES, *FIGURE_IDS, "solar")
_ODD = ("--", "-", "", "--bogus", "-x")
_TOKENS = st.one_of(
    *map(st.sampled_from, (_NAMES, _NUMBERS, _WORDS, _ODD)),
    st.tuples(st.sampled_from(_NAMES), st.sampled_from(_NUMBERS + _WORDS + _ODD)).map("=".join),
)
_CALLS = (["fit", "pv"], ["project", "hydro", "--year=2030"], ["mix", "--year", "-5"],
          ["cross", "--threshold", "primary_fig5"], ["figures", "--id", "fig1"], ["learn"])
_ARGVS = st.one_of(
    st.lists(_TOKENS, max_size=6),
    # a subcommand or a whole call among them, so that more argvs reach the
    # subcommand's parser and get past its positional
    st.tuples(st.lists(_TOKENS, max_size=2), st.sampled_from(_COMMANDS).map(lambda c: [c]),
              st.lists(_TOKENS, max_size=3)).map(lambda t: [*t[0], *t[1], *t[2]]),
    st.tuples(st.lists(_TOKENS, max_size=1), st.sampled_from(_CALLS),
              st.lists(st.one_of(st.sampled_from(_ODD), _TOKENS), max_size=2)).map(
                  lambda t: [*t[0], *t[1], *t[2]]),
)


def _ambiguous_global(argv):
    # --h, alone or with "=", before any "--": a prefix of --help and --horizon
    head = argv[:argv.index("--")] if "--" in argv else argv
    return any(token.partition("=")[0] == "--h" for token in head)


# Where argparse releases read this grammar differently, the parser follows one
# of them. Per difference: a probe argv, and a test of the argvs it can reach,
# given them and the parser's outcome. The oracle leaves out those argvs on an
# interpreter whose argparse reads the probe otherwise than the parser; the
# pinned tables above hold what the parser does with them.
_RELEASE_DIFFERENCES = (
    # the two cases above
    (["fit", "--h"], lambda argv, ours: _ambiguous_global(argv)),
    (["--out=--", "fit", "pv"], lambda argv, ours: any(t.endswith("=--") for t in argv)),
    # 3.13.0 wraps the cross usage before --threshold, and reads -h=h... as
    # an error that names all the text after "="
    (["cross", "-h"], lambda argv, ours: "usage: renewcast cross" in ours[2] + ours[3]),
    (["-h=hydro"], lambda argv, ours: any(t.startswith("-h=h") for t in argv)),
    # 3.10.13-3.13.0 all read these as the parser does; a release that reads
    # -1e3 as a number, drops a "--" before the subcommand or quotes choices
    # otherwise would not
    (["project", "pv", "--year", "-1e3"], lambda argv, ours: "-1e3" in argv),
    (["--", "fit", "pv"], lambda argv, ours: "command: invalid choice: '--'" in ours[3]),
    (["frob"], lambda argv, ours: "invalid choice" in ours[3]),
)
_DIFFERENT_HERE = [reaches for probe, reaches in _RELEASE_DIFFERENCES
                   if _outcome(_ours, probe) != _outcome(_oracle, probe)]


def test_release_differences_here_are_known():
    # an argparse that prints the pinned text differs from the parser only in
    # the two cases pinned in test_where_argparse_releases_differ
    pinned = [(c["code"], None, c["stdout"], c["stderr"]) for c in _PINNED]
    if [_outcome(_oracle, c["argv"]) for c in _PINNED] == pinned:
        assert _DIFFERENT_HERE == [reaches for _, reaches in _RELEASE_DIFFERENCES[:2]]


# 2,000 derandomized examples; about 5 s of the Tier-1 run
@settings(max_examples=2000, deadline=None, derandomize=True)
@given(argv=_ARGVS)
def test_parse_matches_argparse(argv):
    ours = _outcome(_ours, argv)
    assume(not any(reaches(argv, ours) for reaches in _DIFFERENT_HERE))
    assert ours == _outcome(_oracle, argv)


def _src_env(**env):
    """This environment without PYTHONUNBUFFERED, with env, importing renewcast
    from this source tree."""
    src = Path(renewcast.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    return {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, **env,
            "PYTHONPATH": path}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["full", "closed pipe"])
@pytest.mark.parametrize("argv", [["fit", "pv"], ["learn"], ["-h"]], ids=" ".join)
def test_a_failed_write_to_stdout_is_a_config_error(tmp_path, argv, target, unbuffered):
    if target == "full":
        stdout = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "renewcast.cli", "--out", str(tmp_path),
                               *argv], stdout=stdout, stderr=subprocess.PIPE, text=True,
                              env=_src_env(**unbuffered), timeout=60)
    finally:
        os.close(stdout)
    assert done.returncode == 2
    (line,) = done.stderr.splitlines()
    assert line.startswith("config error: cannot write to standard output: [Errno ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, stdout_full, code", [
    (["fit", "bogus"], False, 2),
    (["--config", "missing.conf", "fit", "pv"], False, 2),
    (["--config", "empty_data_dir.conf", "fit", "pv"], False, 3),
    (["project", "pv", "--year", "1990"], False, 4),
    (["fit", "pv"], True, 2),
], ids=["usage", "config", "data", "model", "stdout"])
def test_an_error_exit_keeps_its_code_when_stderr_cannot_be_written(tmp_path, argv,
                                                                     stdout_full, code,
                                                                     unbuffered):
    # the message is lost; the exit code is not
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty_data_dir.conf").write_text(f"data_dir = {tmp_path / 'empty'}\n",
                                                  encoding="utf-8")
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "renewcast.cli", *argv],
                              stdout=full if stdout_full else subprocess.PIPE, stderr=full,
                              cwd=tmp_path, env=_src_env(**unbuffered), timeout=60)
    assert done.returncode == code


def _run_process(args, tmp_path):
    """(exit code, stdout, stderr) of a python process with args, stdout and
    stderr to pipes, PYTHONUNBUFFERED unset."""
    done = subprocess.run([sys.executable, *args], capture_output=True, cwd=tmp_path,
                          env=_src_env(), timeout=60)
    return done.returncode, done.stdout.decode(), done.stderr.decode()


@pytest.mark.parametrize("argv", [
    ["fit", "pv"], ["project", "wind", "--year", "2030"],
    ["cross", "--threshold", "electric_fig5"], ["mix", "--year", "2025"], ["learn"],
    ["budget"], ["report"], ["figures", "--id", "fig1"], ["-h"], ["fit", "bogus"],
], ids=" ".join)
def test_a_process_prints_and_exits_as_main_does(tmp_path, argv):
    # the process ends with os._exit once its output is flushed, so nothing
    # buffered may be lost on the way
    argv = ["--out", str(tmp_path / "out"), *argv]
    assert _run_process(["-m", "renewcast.cli", *argv], tmp_path) == _call(argv)


@pytest.mark.parametrize("argv", [["fit", "pv"], ["fit", "bogus"]], ids=" ".join)
def test_atexit_hooks_run_before_the_process_ends(tmp_path, argv):
    # the hook writes to a block-buffered pipe after main() has flushed it
    hooked = ("import atexit, runpy; atexit.register(print, 'hook ran'); "
              "runpy.run_module('renewcast.cli', run_name='__main__')")
    argv = ["--out", str(tmp_path / "out"), *argv]
    code, stdout, stderr = _call(argv)
    assert _run_process(["-c", hooked, *argv], tmp_path) == (code, stdout + "hook ran\n",
                                                             stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_flush_that_fails_after_the_hooks_exits_120_as_python_does(tmp_path):
    hooked = "import atexit, runpy; atexit.register(print, 'hook ran'); "
    codes = []
    for ending in ("runpy.run_module('renewcast.cli', run_name='__main__')",
                   "raise SystemExit(2)"):
        with open("/dev/full", "w") as full:
            codes.append(subprocess.run([sys.executable, "-c", hooked + ending, "fit", "bogus"],
                                        stdout=full, stderr=subprocess.DEVNULL,
                                        env=_src_env(), timeout=60).returncode)
    assert codes == [120, 120]
