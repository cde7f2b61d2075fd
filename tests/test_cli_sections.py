"""Each CLI subcommand computes only the report sections it prints, and every
input ends in one of the documented exit codes."""

import ast
import builtins
import contextlib
import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import renewcast
from renewcast import (artifacts, corpus, errors, genconvert, growthfit, learncurve, report,
                       resourcebudget, scenario)
from renewcast.cli import main
from renewcast.report import FIGURE_IDS, MAX_HYDRO_DEGREE, THRESHOLD_NAMES, WIND_TREATMENTS

_TECHS = ("pv", "wind", "offshore_wind", "hydro")


@pytest.mark.parametrize("argv", [
    ["fit", "pv"],
    ["fit", "wind"],
    ["project", "hydro", "--year", "2040"],
    ["learn"],
    ["mix", "--year", "2030"],
    ["budget"],
    ["figures", "--id", "fig1"],
])
def test_subcommands_that_print_no_crossing_solve_none(tmp_path, monkeypatch, capsys,
                                                       argv):
    def no_crossing(*args, **kwargs):
        raise AssertionError("a crossing was solved")

    monkeypatch.setattr(scenario, "crossing_year", no_crossing)
    assert main(["--out", str(tmp_path), *argv]) == 0


@pytest.mark.parametrize("argv, calls", [
    (["cross", "--threshold", "electric_fig5"], 7),
    (["report"], 28),
    # fig6 marks the headline treatment's two electric_fig5 crossings
    (["figures", "--id", "fig6"], 2),
    # the configured threshold's 7, plus fig6's 2 whatever is configured
    (["--config", "electric_2030.conf", "report"], 9),
    (["--config", "electric_2030.conf", "figures", "--id", "fig6"], 2),
])
def test_crossings_solved_per_subcommand(tmp_path, monkeypatch, capsys, argv, calls):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "electric_2030.conf").write_text("thresholds = electric_2030\n",
                                                 encoding="utf-8")
    solved = []
    crossing_year = scenario.crossing_year

    def counting(projection, level, horizon):
        solved.append(level)
        return crossing_year(projection, level, horizon)

    monkeypatch.setattr(scenario, "crossing_year", counting)
    assert main(["--out", str(tmp_path), *argv]) == 0
    assert len(solved) == calls


def _count_value_calls(monkeypatch, argv, out):
    calls = []
    value = scenario.CombinedProjection.value

    def counting(self, year):
        calls.append(year)
        return value(self, year)

    monkeypatch.setattr(scenario.CombinedProjection, "value", counting)
    assert main(["--out", str(out), *argv]) == 0
    return len(calls)


def test_report_samples_each_projection_once(tmp_path, monkeypatch, capsys):
    # 28 crossings of about 40 samples each (the bracket's binary search and
    # the bisection) and fig6's lines; one full 0.1-year lattice per
    # projection would need about 4,200, and one per crossing about 14,000
    assert _count_value_calls(monkeypatch, ["report"], tmp_path) <= 1300


def test_cross_samples_no_full_lattice(tmp_path, monkeypatch, capsys):
    # 7 crossings; one full 0.1-year lattice per projection would need 3,500
    argv = ["cross", "--threshold", "electric_fig5"]
    assert _count_value_calls(monkeypatch, argv, tmp_path) <= 300


@pytest.mark.parametrize("argv, calls", [
    (["fit", "pv"], 0),
    (["project", "pv", "--year", "2030"], 0),
    (["fit", "hydro"], 0),
    (["fit", "wind"], 1),
    (["project", "wind", "--year", "2030"], 0),
    (["mix", "--year", "2030"], 0),
    (["budget"], 0),
    (["cross", "--threshold", "electric_fig5"], 1),
])
def test_changepoint_scanned_only_where_printed(tmp_path, monkeypatch, capsys, argv,
                                                calls):
    scans = []
    detect_changepoint = growthfit.detect_changepoint

    def counting(*args, **kwargs):
        scans.append(args)
        return detect_changepoint(*args, **kwargs)

    monkeypatch.setattr(growthfit, "detect_changepoint", counting)
    assert main(["--out", str(tmp_path), *argv]) == 0
    assert len(scans) == calls


_PV_WIND_HYDRO = [("fit_exponential", "pv"), ("fit_exponential", "wind"),
                  ("fit_polynomial", "hydro")]


@pytest.mark.parametrize("figure_id, fits", [
    *[(figure_id, []) for figure_id in ("fig4", "fig7", "fig8", "appfig1", "appfig6")],
    ("fig1", [("fit_exponential", "pv")]),
    ("fig3", [("fit_exponential", "offshore_wind")]),
    # the rebound fit and the changepoint scan
    ("fig2", [("detect_changepoint", "wind"), ("fit_exponential", "wind")]),
    ("fig5", _PV_WIND_HYDRO),
    ("fig6", _PV_WIND_HYDRO),
])
def test_each_figure_fits_only_what_it_draws(tmp_path, monkeypatch, capsys, figure_id,
                                             fits):
    made = []

    def counting(name, fit):
        def wrapper(series, *args, **kwargs):
            made.append((name, series.technology))
            return fit(series, *args, **kwargs)
        return wrapper

    for name in ("fit_exponential", "fit_polynomial", "detect_changepoint"):
        monkeypatch.setattr(growthfit, name, counting(name, getattr(growthfit, name)))
    assert main(["--out", str(tmp_path), "figures", "--id", figure_id]) == 0
    assert sorted(made) == fits


_CURVES = [("fit_learning_curve", "pv"), ("fit_learning_curve", "wind"),
           ("join_cost_to_generation", "pv"), ("join_cost_to_generation", "wind")]
_DECAYS = [("fit_time_decay", "battery"), ("fit_time_decay", "pv"),
           ("fit_time_decay", "wind")]


@pytest.mark.parametrize("argv, fits", [
    (["figures", "--id", "fig1"], []),
    (["figures", "--id", "fig7"], _DECAYS[1:]),
    (["figures", "--id", "appfig6"], _DECAYS[:1]),
    (["budget"], _DECAYS[:1]),
    (["figures", "--id", "fig8"], _CURVES),
    (["learn"], _CURVES + _DECAYS),
])
def test_each_call_fits_only_the_learning_records_it_reads(tmp_path, monkeypatch, capsys,
                                                           argv, fits):
    made = []

    def counting(name, fit):
        def wrapper(series, *args):
            made.append((name, series.technology))
            return fit(series, *args)
        return wrapper

    for name in ("join_cost_to_generation", "fit_learning_curve", "fit_time_decay"):
        monkeypatch.setattr(learncurve, name, counting(name, getattr(learncurve, name)))
    assert main(["--out", str(tmp_path), *argv]) == 0
    assert sorted(made) == sorted(fits)


def test_report_is_freed_without_the_cycle_collector(tmp_path):
    # lazy sections must not reach back to the report, or every run's series
    # and fits would wait for the cycle collector
    gc.disable()
    try:
        rep = report.run_scenario(report.ScenarioConfig())
        report.write_outputs(rep, tmp_path)
        ref = weakref.ref(rep)
        del rep
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("degree, code", [(MAX_HYDRO_DEGREE, 0),
                                          (MAX_HYDRO_DEGREE + 1, 2), (0, 2)])
def test_hydro_degree_is_bounded(tmp_path, capsys, degree, code):
    conf = tmp_path / "degree.conf"
    conf.write_text(f"hydro_degree = {degree}\n", encoding="utf-8")
    assert main(["--config", str(conf), "fit", "hydro"]) == code
    if code == 2:
        assert f"hydro_degree must be in 1..{MAX_HYDRO_DEGREE}" in capsys.readouterr().err


def _files(out):
    """name -> bytes of each file in out (None for a directory)."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in out.iterdir()}


def test_failed_figures_leave_no_partial_output(tmp_path, capsys):
    conf = tmp_path / "quartic.conf"
    conf.write_text("hydro_degree = 4\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("kept\n", encoding="utf-8")
    assert main(["--out", str(out), "figures"]) == 0
    before = _files(out)
    assert len(before) == len(FIGURE_IDS) + 1
    # fig1-fig5 draw fine (fig5 differently from the earlier set); fig6 meets
    # the negative hydro projection
    assert main(["--config", str(conf), "--out", str(out), "figures"]) == 4
    assert _files(out) == before


@pytest.mark.parametrize("failure, command", [("fifth write", "figures"),
                                              ("directory", "report")])
def test_unwritable_artifact_leaves_earlier_output(tmp_path, monkeypatch, capsys,
                                                   failure, command):
    out = tmp_path / "out"
    assert main(["--out", str(out), command]) == 0
    if failure == "directory":
        # a directory takes the place of the last artifact written
        (out / "appfig6.svg").unlink()
        (out / "appfig6.svg").mkdir()
    else:
        calls = []

        def failing(file, *args, **kwargs):
            # the fifth sibling is created, then the disk is full
            f = open(file, *args, **kwargs)
            calls.append(file)
            if len(calls) == 5:
                f.close()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return f

        # the writer opens each sibling with the builtin open
        monkeypatch.setattr(artifacts, "open", failing, raising=False)
    before = _files(out)
    assert main(["--horizon", "2060", "--out", str(out), command]) == 2
    assert "cannot write to" in capsys.readouterr().err
    assert _files(out) == before


def test_negative_hydro_generation_fails_only_what_reads_it(tmp_path, capsys):
    # a quartic hydro fit turns negative inside the default horizon
    conf = tmp_path / "quartic.conf"
    conf.write_text("hydro_degree = 4\n", encoding="utf-8")
    assert main(["--config", str(conf), "cross", "--threshold", "electric_fig5"]) == 4
    assert "installed power must be >= 0" in capsys.readouterr().err
    assert main(["--config", str(conf), "fit", "hydro"]) == 0
    assert "[hydro]" in capsys.readouterr().out



def _copy_bundled_data(data):
    data.mkdir()
    for name, fname in corpus.BUNDLED_DATASETS.items():
        (data / fname).write_text(corpus.read_dataset(name), encoding="utf-8")


@pytest.mark.parametrize("unreadable", ["not utf-8", "a directory"])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, unreadable):
    conf = tmp_path / "run.conf"
    if unreadable == "a directory":
        conf.mkdir()
    else:
        conf.write_bytes(b"horizon = 2050\n# caf\xe9 latin-1 comment\n")
    assert main(["--config", str(conf), "--out", str(tmp_path / "out"), "fit", "pv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {conf}")
    assert "Traceback" not in err


@pytest.mark.parametrize("unreadable", ["not utf-8", "a directory"])
def test_unreadable_dataset_is_data_error(tmp_path, capsys, unreadable):
    data = tmp_path / "data"
    _copy_bundled_data(data)
    pv = data / corpus.BUNDLED_DATASETS["pv"]
    if unreadable == "a directory":
        pv.unlink()
        pv.mkdir()
    else:
        pv.write_bytes(pv.read_bytes().replace(b"# ", b"# \xff", 1))
    conf = tmp_path / "run.conf"
    conf.write_text(f"data_dir = {data}\n", encoding="utf-8")
    assert main(["--config", str(conf), "--out", str(tmp_path / "out"), "fit", "pv"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(pv) in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def extreme_data(tmp_path_factory):
    """dataset label -> a config file for the bundled data with the PV values
    times 1e300, or the wind values times 1e-300."""
    configs = {}
    for label, name, factor in (("pv_x1e300", "pv", 1e300), ("wind_x1e-300", "wind", 1e-300)):
        data = tmp_path_factory.mktemp(label) / "data"
        _copy_bundled_data(data)
        path = data / corpus.BUNDLED_DATASETS[name]
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(
            line if line.startswith("#") or not line.strip()
            else f"{line.split(',')[0]},{float(line.split(',')[1]) * factor!r}"
            for line in lines) + "\n", encoding="utf-8")
        configs[label] = data.parent / "run.conf"
        configs[label].write_text(f"data_dir = {data}\n", encoding="utf-8")
    return configs


_LINES_MEET = "the lines meet at x = 10**"


@pytest.mark.parametrize("dataset, argv, code, error", [
    # the learning curves meet at an x that underflows to 0.0
    *[(dataset, argv, 4, _LINES_MEET) for dataset in ("pv_x1e300", "wind_x1e-300")
      for argv in (["learn"], ["report"], ["figures"], ["figures", "--id", "fig8"])],
    # the PV generation overflows to inf, or the PV power itself
    ("pv_x1e300", ["project", "pv", "--year", "2050"], 4, "is not finite"),
    ("pv_x1e300", ["mix", "--year", "2050"], 4, "the shares are not finite"),
    ("pv_x1e300", ["project", "pv", "--year", "2100"], 4, "exceeds the float range"),
    ("pv_x1e300", ["mix", "--year", "2100"], 4, "exceeds the float range"),
    *[(dataset, argv, 0, "") for dataset in ("pv_x1e300", "wind_x1e-300")
      for argv in (["fit", "pv"], ["fit", "wind"], ["project", "wind", "--year", "2050"],
                   ["cross", "--threshold", "primary_fig5"], ["mix", "--year", "2030"],
                   ["budget"], ["figures", "--id", "fig5"])],
])
def test_extreme_dataset_exits_with_a_contract_code(extreme_data, tmp_path, capsys,
                                                    dataset, argv, code, error):
    out = tmp_path / "out"
    assert main(["--config", str(extreme_data[dataset]), "--out", str(out), *argv]) == code
    stdout, err = capsys.readouterr()
    assert error in err and "Traceback" not in err
    _assert_all_finite(stdout, out)


def _assert_all_finite(stdout, out):
    """No nan or inf in stdout or in any file written to out."""
    for text in (stdout, *(p.read_text(encoding="utf-8") for p in out.glob("*"))):
        assert not re.search(r"\b(inf|nan|Infinity|NaN)\b", text)


_SERIES = ("pv", "wind", "offshore_wind", "hydro", "pv_lcoe", "wind_lcoe", "battery")


def _bundled_text(name):
    return corpus.read_dataset(name)


def _bundled_rows(name):
    return tuple(tuple(map(float, line.split(","))) for line in _bundled_text(name).splitlines()
                 if line.strip() and not line.startswith("#"))


def _write_data_dir(root, rows):
    """A data_dir under root and a config file that reads it: each series
    file keeps its bundled header, with rows[name] as its (year, value) rows."""
    data = root / "data"
    data.mkdir()
    for name in _SERIES:
        header = [l for l in _bundled_text(name).splitlines() if l.startswith("#")]
        (data / corpus.BUNDLED_DATASETS[name]).write_text(
            "\n".join([*header, *(f"{y!r},{v!r}" for y, v in rows[name])]) + "\n",
            encoding="utf-8")
    conf = root / "run.conf"
    conf.write_text(f"data_dir = {data}\n", encoding="utf-8")
    return conf


def _bundled_with(**edits):
    """The bundled rows of every series; edits[name](year, value) gives a new value."""
    return {name: tuple((y, edits[name](y, v) if name in edits else v)
                        for y, v in _bundled_rows(name)) for name in _SERIES}


# PV capacity x 1e146 and the 2009-2010 PV costs x 1e5: the PV learning curve
# overflows the float range inside the drawn and printed x range
_COST_OVERFLOW = _bundled_with(pv=lambda y, v: v * 1e146,
                               pv_lcoe=lambda y, v: v * 1e5 if y in (2009, 2010) else v)
# every offshore value 2.09: the offshore fit does not grow
_CONSTANT_OFFSHORE = _bundled_with(offshore_wind=lambda y, v: 2.09)


@pytest.mark.parametrize("name, directives, needs", [
    # the PV LCOE file copied over the PV capacity file
    ("pv", ("# kind: unit_cost", "# unit: USD_per_MWh"), "installed_power/GW"),
    ("hydro", ("# kind: annual_generation", "# unit: TWh_per_year"), "installed_power/GW"),
    ("battery", ("# kind: unit_cost", "# unit: USD_per_MWh"), "unit_cost/USD_per_kWh"),
])
def test_declared_kind_and_unit_must_match_the_dataset(tmp_path, capsys, name, directives,
                                                       needs):
    conf = _write_data_dir(tmp_path, _bundled_with())
    path = conf.parent / "data" / corpus.BUNDLED_DATASETS[name]
    text = _bundled_text("pv_lcoe") if name == "pv" else path.read_text(encoding="utf-8")
    text = "\n".join(l for l in text.splitlines() if not l.startswith(("# kind:", "# unit:")))
    path.write_text("\n".join((*directives, text)) + "\n", encoding="utf-8")
    assert main(["--config", str(conf), "--out", str(tmp_path / "out"), "fit", "pv"]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and "Traceback" not in err
    kind, unit = (d.split(": ")[1] for d in directives)
    assert err == f"data error: dataset file {path.name} declares {kind}/{unit}, not {needs}\n"


@pytest.mark.parametrize("argv", [["learn"], ["report"], ["figures", "--id", "fig8"]])
def test_learning_curve_cost_overflow_is_a_model_error(tmp_path, capsys, argv):
    conf = _write_data_dir(tmp_path, _COST_OVERFLOW)
    assert main(["--config", str(conf), "--out", str(tmp_path / "out"), *argv]) == 4
    err = capsys.readouterr().err
    assert "the pv learning curve overflows at x = " in err
    assert "Traceback" not in err


# a PV cost year before the first PV capacity sample: the join fails
_COST_YEAR_WITHOUT_CAPACITY = {**_bundled_with(),
                               "pv_lcoe": ((1950.0, 500.0), *_bundled_rows("pv_lcoe"))}


@pytest.mark.parametrize("rows, code, error", [
    (_COST_YEAR_WITHOUT_CAPACITY, 3, "pv: no pv capacity sample for cost year 1950"),
    # constant PV capacity: every PV cost sits at one x, so the curve fit fails
    (_bundled_with(pv=lambda y, v: 100.0), 4,
     "a least-squares line needs >= 2 distinct x values"),
])
def test_a_failing_learning_curve_spares_calls_that_print_none(tmp_path, capsys, rows, code,
                                                              error):
    conf = _write_data_dir(tmp_path, rows)
    for argv in (["figures", "--id", "fig7"], ["figures", "--id", "appfig6"], ["budget"]):
        assert main(["--config", str(conf), "--out", str(tmp_path / "out"), *argv]) == 0
    assert main(["--config", str(conf), "--out", str(tmp_path / "out"), "learn"]) == code
    assert error in capsys.readouterr().err


def test_offshore_fit_that_does_not_grow_leaves_the_1tw_claim_empty(tmp_path, capsys):
    conf = _write_data_dir(tmp_path, _CONSTANT_OFFSHORE)
    out = tmp_path / "out"
    assert main(["--config", str(conf), "--out", str(out), "report"]) == 0
    claims = json.loads((out / "report.json").read_text(encoding="utf-8"))["claims"]
    (claim,) = [c for c in claims if c["name"] == "offshore_reaches_1tw"]
    assert claim["computed_year"] is None and claim["delta_years"] is None
    assert claim["stated_year"] == 2032.0


_BUNDLED_PV, _BUNDLED_WIND = dict(_bundled_rows("pv")), dict(_bundled_rows("wind"))
_BATTERY_2030_UNDERFLOWS = {"battery": lambda y, v: 1e-200 * 10.0 ** (-10 * (y - 2010))}
_BATTERY_2030 = "battery cost decay at 2030 leaves the float range"


@pytest.mark.parametrize("edits, argv, code, error", [
    # a constant series at a power of ten, and PV and wind below 1 GW: each
    # log axis spans at least a decade
    ({"pv": lambda y, v: 100.0}, ["figures", "--id", "fig1"], 0, ""),
    ({"pv": lambda y, v: v / 1e3, "wind": lambda y, v: v / 1e3},
     ["figures", "--id", "fig4"], 0, ""),
    # battery costs x 1e40 a year: the decay over a decade overflows
    ({"battery": lambda y, v: 10.0 ** (40 * (y - 2012))}, ["learn"], 4,
     "battery: the decay fit overflows"),
    # the 2030 battery cost overflows, or underflows to 0
    ({"battery": lambda y, v: 1e200 * 10.0 ** (10 * (y - 2010))}, ["learn"], 4,
     _BATTERY_2030),
    (_BATTERY_2030_UNDERFLOWS, ["budget"], 4, _BATTERY_2030),
    (_BATTERY_2030_UNDERFLOWS, ["figures", "--id", "appfig6"], 4,
     "battery cost decay at 2022.5 leaves the float range"),
    # the PV generation of 2025 underflows to 0: no relative deviation
    ({"pv": lambda y, v: 10.0 ** (-10 * (y - 1990))}, ["budget"], 4,
     "mix_2025_pv_twh is computed as 0: its relative deviation is undefined"),
    # cost = 10**150 / x**2 for PV and 10**-100 / x for wind: the lines meet
    # at x = 10**250, where the cost underflows to 0
    ({"pv_lcoe": lambda y, v: 10.0 ** (150 - 2 * math.log10(_BUNDLED_PV[y])),
      "wind_lcoe": lambda y, v: 10.0 ** (-100 - math.log10(_BUNDLED_WIND[y]))},
     ["figures", "--id", "fig8"], 4, "the lines meet at x = 10**250.21"),
], ids=["pv_constant_100", "pv_wind_below_1gw", "battery_decade_overflows",
        "battery_2030_overflows", "battery_2030_underflows_budget",
        "battery_2030_underflows_appfig6", "pv_2025_underflows", "curves_meet_at_cost_0"])
def test_fuzzed_data_dir_findings(tmp_path, capsys, edits, argv, code, error):
    conf = _write_data_dir(tmp_path, _bundled_with(**edits))
    out = tmp_path / "out"
    assert main(["--config", str(conf), "--out", str(out), *argv]) == code
    stdout, err = capsys.readouterr()
    assert error in err and "Traceback" not in err
    _assert_all_finite(stdout, out)


_MAGNITUDES = st.integers(-300, 300).map(lambda e: 10.0 ** e)


@st.composite
def _series_rows(draw, name):
    """(year, value) rows of one series file. The years are the bundled ones
    (so that cost years still find their capacity samples) or 0-40 evenly
    spaced, possibly fractional, years. The values are the bundled ones
    rescaled, or a constant, growing, decreasing or scattered run, at
    magnitudes from about 1e-300 to 1e300."""
    bundled = _bundled_rows(name)
    if draw(st.integers(0, 3)) > 0:         # three draws in four
        years = [y for y, _ in bundled]
        shape = draw(st.sampled_from(("rescaled",) * 4 + ("constant", "growing",
                                                          "decreasing", "scattered")))
    else:
        start = draw(st.integers(1980, 2015) | st.floats(1980.0, 2015.0))
        step = draw(st.sampled_from((1.0, 0.5, 0.25)) | st.floats(0.01, 1.0))
        years = [start + i * step for i in range(draw(st.integers(0, 40)))]
        shape = draw(st.sampled_from(("constant", "growing", "decreasing", "scattered")))
    top = draw(_MAGNITUDES)
    if shape == "rescaled":
        factor = top / max(v for _, v in bundled)
        values = [v * factor for _, v in bundled]
    elif shape == "scattered":
        values = draw(st.lists(st.floats(1e-300, 1e300), min_size=len(years),
                               max_size=len(years)))
    else:
        g = draw({"constant": st.just(1.0), "growing": st.floats(1.0, 2.0),
                  "decreasing": st.floats(0.5, 1.0)}[shape])
        values = [min(max(top * g ** i, 1e-300), 1e300) for i in range(len(years))]
    return tuple(zip(years, values))


_DATA_DIRS = st.fixed_dictionaries({name: _series_rows(name) for name in _SERIES})
_PICKS = st.tuples(st.sampled_from(_TECHS), st.sampled_from(THRESHOLD_NAMES),
                   st.floats(2021.0, 2100.0), st.sampled_from(FIGURE_IDS))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=_DATA_DIRS, picks=_PICKS)
@example(rows=_COST_OVERFLOW, picks=("pv", "electric_fig5", 2050.0, "fig8"))
@example(rows=_CONSTANT_OFFSHORE, picks=("offshore_wind", "primary_fig5", 2040.0, "fig3"))
def test_fuzzed_data_dir_exits_with_a_contract_code(rows, picks):
    tech, threshold, year, figure = picks
    argvs = (["fit", tech], ["project", tech, "--year", repr(year)],
             ["cross", "--threshold", threshold], ["mix", "--year", repr(year)],
             ["learn"], ["budget"], ["report"], ["figures", "--id", figure])
    with tempfile.TemporaryDirectory() as tmp:
        conf = _write_data_dir(Path(tmp), rows)
        for i, argv in enumerate(argvs):
            out = Path(tmp) / f"out{i}"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["--config", str(conf), "--out", str(out), *argv])
            assert code in (0, 2, 3, 4), argv
            assert "Traceback" not in stderr.getvalue()
            _assert_all_finite(stdout.getvalue(), out)


_EXIT_CODE_CLASSES = {"ConfigError", "DataError", "ModelError"}
# (module, builtin exception) of each raise that is no input fault: a
# programming error, or a failure its caller catches or turns into one of
# _EXIT_CODE_CLASSES
_BUILTIN_RAISES = {
    ("__init__", "AttributeError"),         # __getattr__ of an unknown name
    ("artifacts", "IsADirectoryError"),     # write_artifacts: OSError, so ConfigError
    ("artifacts", "TypeError"),             # json_text: a value that is no JSON
    ("artifacts", "ValueError"),
    ("cli", "AssertionError"),              # a subcommand with no branch
    ("cli", "SystemExit"),                  # argparse's exits: 2 on bad usage, 0 after -h
    ("corpus", "KeyError"),                 # CapacitySeries.value_at, caught by the join
    ("svgchart", "ValueError"),             # a line whose columns differ in length
}


def _names_an_exception(name):
    cls = getattr(errors, name, None) or getattr(builtins, name, None)
    return isinstance(cls, type) and issubclass(cls, BaseException)


def test_every_raise_names_an_exit_code_class():
    # cli.main maps ConfigError to 2, DataError to 3 and ModelError to 4, so
    # each raise of an input fault must name one of them, and only errors.py
    # may declare an exception class
    builtin, declared = set(), {}
    for path in sorted(Path(renewcast.__file__).parent.glob("*.py")):
        module = path.stem
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                assert isinstance(node.exc, ast.Call), f"{module}:{node.lineno}"
                name = node.exc.func.id
                if name not in _EXIT_CODE_CLASSES:
                    builtin.add((module, name))
            elif isinstance(node, ast.ClassDef) and any(
                    _names_an_exception(ast.unparse(base).rsplit(".", 1)[-1])
                    for base in node.bases):
                declared.setdefault(module, []).append(node.name)
    assert builtin == _BUILTIN_RAISES
    assert declared == {"errors": ["RenewcastError", *sorted(_EXIT_CODE_CLASSES)]}


_NAN, _INF = math.nan, math.inf
_LEARNING_FIT = learncurve.LearningCurveFit("toy", 2.0, -0.5, 1.0, (1.0, 10.0), "USD_per_MWh")
_DEPTH_POINTS = [(1.0, 10.0), (2.0, 20.0)]
_LINE = growthfit.PolynomialFit(2000.0, (1.0, 2.0), 1, 0.0, (2000.0, 2010.0))
# helpers that keep their checks but are no public name of renewcast
_MODULE_HELPERS = {"reduced_primary": corpus.reduced_primary,
                   "power_required": genconvert.power_required,
                   "desert_fraction": resourcebudget.desert_fraction}


# arguments no public function can compute with: each is refused with the
# class of its exit code, never turned into a nan, inf or negative result
@pytest.mark.parametrize("name, args, cls, message", [
    ("pv_area_required", (_NAN, 42.8, 0.2), errors.ModelError, "demand must be >= 0, got nan"),
    ("pv_area_required", (1.0, _NAN, 0.2), errors.ModelError, "density must be > 0, got nan"),
    ("potential_fraction", (_NAN, 1.0), errors.ModelError,
     "demand must be finite and >= 0, got nan"),
    ("reduced_primary", (_NAN,), errors.ModelError, "demand must be >= 0, got nan"),
    ("power_required", (_NAN, 0.2), errors.ModelError, "generation must be >= 0, got nan"),
    ("cost_at", (_LEARNING_FIT, _NAN), errors.ModelError,
     "cumulative generation must be > 0, got nan"),
    ("desert_fraction", (-1.0,), errors.ModelError, "area must be >= 0, got -1.0"),
    ("desert_fraction", (_NAN,), errors.ModelError, "area must be >= 0, got nan"),
    ("offshore_depth_extrapolation", (_DEPTH_POINTS, _NAN), errors.DataError,
     "target area must be finite and >= 0, got nan"),
    ("offshore_depth_extrapolation", (_DEPTH_POINTS, _INF), errors.DataError,
     "target area must be finite and >= 0, got inf"),
    ("offshore_depth_extrapolation", (_DEPTH_POINTS, -_INF), errors.DataError,
     "target area must be finite and >= 0, got -inf"),
    ("pv_area_required", (1000.0, 5e-324, 0.2), errors.ModelError,
     "the area of 1000.0 TWh/yr at 0.0 MWh/km2 overflows"),
    ("pv_area_required", (_INF, 42.8, 0.2), errors.ModelError,
     "the area of inf TWh/yr at 74985.6 MWh/km2 overflows"),
    ("potential_fraction", (_INF, 1.0), errors.ModelError,
     "demand must be finite and >= 0, got inf"),
    ("potential_fraction", (5e-324, 1.0), errors.ModelError,
     "demand 5e-324 against potential 1.0 overflows"),
    ("offshore_depth_extrapolation", (_DEPTH_POINTS, 1e308), errors.ModelError,
     "the extrapolation to area 1e+308 exceeds the float range"),
    ("extrapolate", (_LINE, 1e308), errors.ModelError,
     "the fit at 1e+308 exceeds the float range"),
    ("cost_at", (_LEARNING_FIT._replace(log10_slope=0.5), _INF), errors.ModelError,
     "the toy learning curve overflows at x = inf"),
    ("cost_at", (_LEARNING_FIT._replace(log10_slope=0.0), _INF), errors.ModelError,
     "the toy learning curve overflows at x = inf"),
    ("offshore_depth_extrapolation", (_DEPTH_POINTS, -1.0), errors.DataError,
     "target area must be finite and >= 0, got -1.0"),
])
def test_library_refuses_what_it_cannot_compute(name, args, cls, message):
    with pytest.raises(cls) as got:
        (_MODULE_HELPERS.get(name) or getattr(renewcast, name))(*args)
    assert (type(got.value), str(got.value)) == (cls, message)


_PROBES = (_NAN, _INF, -_INF, 0.0, -0.0, -1.0, 1e308, 5e-324)


def _probed(value, path=""):
    """(path, probe, copy) for each float in value, those in tuples, lists
    and the fields of records (NamedTuples, nested ones included) too, with
    that float set in turn to each probe; other objects are passed whole."""
    if isinstance(value, float):
        for probe in _PROBES:
            yield path, probe, probe
    elif hasattr(value, "_fields"):
        for field in value._fields:
            for where, probe, copy in _probed(getattr(value, field), f"{path}.{field}"):
                yield where, probe, value._replace(**{field: copy})
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            for where, probe, copy in _probed(item, f"{path}[{i}]"):
                yield where, probe, type(value)((*value[:i], copy, *value[i + 1:]))


def _finite(value) -> bool:
    """Whether every float in value, or in its tuples and lists, is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    return True


def test_every_public_name_keeps_the_exit_code_contract(
        tmp_path, pv_series, hydro_series, pv_profile, wind_profile, hydro_profile,
        default_report):
    # a library call keeps the command line's contract: it returns finite
    # floats or no floats, or raises the class of an exit code. One valid
    # call per public callable is replayed with each float argument set in
    # turn to each probe. A record class returns its arguments as given, so
    # only what the functions compute is checked
    config_file = tmp_path / "run.cfg"
    config_file.write_text("horizon = 2050\n", encoding="utf-8")
    pv_lcoe = corpus.load_series("pv_lcoe")
    exp_fit, poly_fit = pv_profile.model, hydro_profile.model
    window = (2000.0, 2019.0)
    other_curve = learncurve.LearningCurveFit("b", 1.0, -0.2, 1.0, (1.0, 10.0), "USD_per_MWh")
    projection = scenario.CombinedProjection((pv_profile, wind_profile, hydro_profile))
    calls = {
        "CapacitySeries": ("toy", "installed_power", "GW", (2000.0, 2001.0), (1.0, 2.0)),
        "Constant": (1.0, "GW", "a note"),
        "constant": ("cf_pv",),
        "dump_series": (pv_series,),
        "get_constant": ("cf_pv",),
        "load_capacity_series": (renewcast.dump_series(pv_series),),
        "make_series": ("pv", "installed_power", "GW", [(2000.0, 1.0), (2001.0, 2.0)]),
        "TechnologyProfile": ("pv", 0.2, exp_fit),
        "generation_capability": (100.0, 0.2),
        "ExponentialFit": (2000.0, 0.0, 0.3, 1.0, 0.0, window),
        "PiecewiseExponentialFit": (2010.0, exp_fit, exp_fit, 0.0, 1.0, 1.0, window),
        "PolynomialFit": (2000.0, (1.0, 2.0), 1, 0.0, window),
        "detect_changepoint": (pv_series, 3, window),
        "doubling_time": (exp_fit,),
        "extrapolate": (poly_fit, 2030.0),
        "fit_exponential": (pv_series, window),
        "fit_polynomial": (hydro_series, 2, (1990.0, 2019.0)),
        "past_horizon": (exp_fit, 2030.0),
        "CostSeries": ("toy", (1.0, 2.0), (3.0, 2.0), "USD_per_MWh"),
        "LearningCurveFit": ("toy", 2.0, -0.5, 1.0, (1.0, 10.0), "USD_per_MWh"),
        "TimeDecayFit": ("toy", 2010.0, 100.0, 0.9, 1.0, (2010.0, 2019.0), "USD_per_MWh"),
        "cost_at": (_LEARNING_FIT, 5.0),
        "cost_series": (pv_lcoe,),
        "curve_crossing": (_LEARNING_FIT, other_curve),
        "fit_learning_curve": (learncurve.CostSeries("toy", (1.0, 2.0), (3.0, 2.0), "USD_per_MWh"),),
        "fit_time_decay": (pv_lcoe,),
        "join_cost_to_generation": (pv_lcoe, pv_series, 0.256),
        "learning_rate": (_LEARNING_FIT,),
        "ScenarioConfig": (None, str(tmp_path), 2050.0),
        "parse_config": (str(config_file),),
        "ScenarioReport": (default_report.config, default_report.series),
        "run_scenario": (renewcast.ScenarioConfig(),),
        "emit_discrepancies": (renewcast.appendix_discrepancies(),),
        "write_outputs": (default_report, str(tmp_path / "out")),
        "emit_figure": (default_report, "fig1"),
        "AreaBudget": (1.0, 2.0, 3.0),
        "appendix_discrepancies": (),
        "offshore_depth_extrapolation": (_DEPTH_POINTS, 3.0),
        "potential_fraction": (35000.0, 690000.0),
        "pv_area_required": (35000.0, 42.8, 0.256),
        "CombinedProjection": ((pv_profile,),),
        "combine": ([pv_profile, wind_profile],),
        "crossing_year": (projection, 33000.0, 2050.0),
        "mix_at_year": (projection, 2030.0),
        "pv_wind_generation_crossover": (pv_profile, wind_profile),
    }
    assert set(calls) == set(renewcast.__all__) - {"__version__"}
    broken = []
    for name, args in calls.items():
        call = getattr(renewcast, name)
        assert _finite(call(*args)), name
        for where, probe, probed in _probed(args):
            try:
                result = call(*probed)
            except (errors.ConfigError, errors.DataError, errors.ModelError):
                continue
            except Exception as exc:
                broken.append(f"{name}: args{where} = {probe!r} raises {exc!r}")
                continue
            if name == "potential_fraction" and probed[0] == 0:
                result = result.fraction     # times_over is inf at zero demand, as documented
            if not (isinstance(call, type) or _finite(result)):
                broken.append(f"{name}: args{where} = {probe!r} returns {result!r}")
    assert broken == []


# the classes that are neither a NamedTuple nor an exception: objects with
# derived or mutable state, and the one validating record
_PLAIN_CLASSES = {"CombinedProjection", "Chart", "ScenarioReport", "_LazyMap",
                  "TechnologyProfile"}


def test_every_class_is_a_named_tuple_an_error_or_listed():
    # a value that is only checked and passed on is a NamedTuple field or a
    # plain argument, not a class of its own
    plain = set()
    for path in sorted(Path(renewcast.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and not (
                    [ast.unparse(base) for base in node.bases] == ["NamedTuple"]
                    or path.stem == "errors"):
                plain.add(node.name)
    assert plain == _PLAIN_CLASSES


def _run_python(*args):
    """A fresh interpreter that imports renewcast from this source tree."""
    src = Path(renewcast.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(src),
                                                       os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True)


def test_cli_import_leaves_out_xml_and_urllib():
    probe = ("import sys, renewcast.cli; "
             "print(sorted(m for m in ('urllib.request', 'xml.sax') if m in sys.modules))")
    assert _run_python("-c", probe).stdout.strip() == "[]"



def _loaded_after(*argv):
    """The renewcast modules and the named standard-library modules that
    ``import renewcast`` and, given argv, one CLI call add to the modules of
    a fresh interpreter with site loaded, as a user's call runs."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import renewcast\n"
             "if sys.argv[1:]:\n"
             "    from renewcast.cli import main\n"
             "    assert main(sys.argv[1:]) == 0\n"
             "print(' '.join(sorted(m for m in set(sys.modules) - before\n"
             "                      if m.startswith('renewcast')\n"
             "                      or m in ('json', 'html', 'argparse'))))")
    return set(_run_python("-c", probe, *argv).stdout.splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    assert _loaded_after() == {"renewcast"}


_UNUSED_STDLIB = {"importlib.resources", "pathlib", "zipfile", "tempfile", "urllib.parse",
                  "dataclasses", "inspect", "argparse", "gettext", "locale", "shutil", "fnmatch"}


@pytest.mark.parametrize("argv", [
    ["fit", "pv"], ["project", "pv", "--year", "2030"],
    ["cross", "--threshold", "electric_fig5"], ["mix", "--year", "2030"], ["learn"],
    ["budget"], ["figures", "--id", "fig1"], ["report"],
], ids=lambda argv: argv[0])
def test_cli_call_in_a_fresh_interpreter_loads_no_path_library(tmp_path, argv):
    # without site, which may preload any of these, so that the difference
    # from what the interpreter held at start-up (that of python -S -c pass)
    # is what the call itself imports
    probe = ("import sys\n"
             "bare = set(sys.modules)\n"
             "from renewcast.cli import main\n"
             "assert main(sys.argv[1:]) == 0\n"
             "print(' '.join(sorted(set(sys.modules) - bare)))")
    stdout = _run_python("-S", "-c", probe, "--out", str(tmp_path), *argv).stdout
    loaded = set(stdout.splitlines()[-1].split())
    assert "renewcast.cli" in loaded
    assert not loaded & _UNUSED_STDLIB


_LATER_LAYERS = {f"renewcast.{m}" for m in (
    "svgchart", "figures", "artifacts", "scenario", "learncurve", "resourcebudget")}


@pytest.mark.parametrize("argv, allowed", [
    (["fit", "pv"], set()),
    (["project", "pv", "--year", "2030"], {"renewcast.genconvert"}),
])
def test_fit_and_project_load_only_their_layers(tmp_path, argv, allowed):
    loaded = _loaded_after("--out", str(tmp_path), *argv)
    assert {"renewcast.cli", "renewcast.config", "renewcast.reportmodel"} <= loaded
    forbidden = _LATER_LAYERS | {"renewcast.genconvert", "json", "html", "argparse"}
    assert not loaded & (forbidden - allowed)


def test_learn_loads_no_chart_and_no_scenario(tmp_path):
    loaded = _loaded_after("--out", str(tmp_path), "learn")
    assert "renewcast.learncurve" in loaded
    assert not loaded & {"renewcast.svgchart", "renewcast.scenario"}


def test_figures_load_no_html(tmp_path):
    loaded = _loaded_after("--out", str(tmp_path), "figures", "--id", "fig1")
    assert "renewcast.svgchart" in loaded
    assert "html" not in loaded


def test_no_class_is_a_dataclass():
    # records are NamedTuples or plain classes
    probe = ("import importlib, pkgutil, sys, renewcast\n"
             "for info in pkgutil.iter_modules(renewcast.__path__):\n"
             "    importlib.import_module(f'renewcast.{info.name}')\n"
             "import dataclasses\n"
             "print(sorted({f'{v.__module__}.{v.__qualname__}'\n"
             "              for name, mod in list(sys.modules.items())\n"
             "              if name.startswith('renewcast')\n"
             "              for v in vars(mod).values()\n"
             "              if isinstance(v, type) and dataclasses.is_dataclass(v)}))")
    assert _run_python("-c", probe).stdout.strip() == "[]"


# every name renewcast exports
_PUBLIC_NAMES = """
    AreaBudget CapacitySeries CombinedProjection Constant CostSeries ExponentialFit
    LearningCurveFit PiecewiseExponentialFit PolynomialFit ScenarioConfig ScenarioReport
    TechnologyProfile TimeDecayFit appendix_discrepancies combine constant
    cost_at cost_series crossing_year curve_crossing detect_changepoint
    doubling_time dump_series emit_discrepancies emit_figure extrapolate fit_exponential
    fit_learning_curve fit_polynomial fit_time_decay generation_capability get_constant
    join_cost_to_generation learning_rate load_capacity_series make_series
    mix_at_year offshore_depth_extrapolation parse_config past_horizon potential_fraction
    pv_area_required pv_wind_generation_crossover
    run_scenario write_outputs __version__
""".split()


def test_package_exports_unchanged():
    assert sorted(renewcast.__all__) == sorted(_PUBLIC_NAMES)
    listed = dir(renewcast)
    for name in _PUBLIC_NAMES:
        assert name in listed
        value = getattr(renewcast, name)
        if name != "__version__":
            assert value is getattr(sys.modules[value.__module__], name)
    for name in ("ScenarioConfig", "run_scenario", "write_outputs", "emit_figure",
                 "emit_discrepancies", "parse_config", "ScenarioReport"):
        assert getattr(renewcast, name) is getattr(report, name)
    for module in ("corpus", "errors", "genconvert", "growthfit", "learncurve", "report",
                   "resourcebudget", "scenario", "svgchart"):
        assert getattr(renewcast, module) is sys.modules[f"renewcast.{module}"]
    with pytest.raises(AttributeError):
        renewcast.no_such_name
    # renewcast.report keeps every public name it defined or imported as a
    # module when it held the whole pipeline
    for name in """COMBINATIONS ClaimRow CrossingEntry FIGURE_IDS MAX_HORIZON
                   MAX_HYDRO_DEGREE SCHEMA_VERSION ScenarioConfig ScenarioReport
                   THRESHOLD_NAMES WIND_TREATMENTS budget_csv check_year claims_csv
                   crossings_csv discrepancies_csv emit_discrepancies emit_figure
                   load_series mixes_csv parse_config report_json run_scenario
                   write_artifacts write_outputs corpus growthfit learncurve
                   resourcebudget scenario""".split():
        assert hasattr(report, name), name

def test_no_subcommand_imports_numpy(tmp_path):
    # every subcommand, all figures included, in one process; the last
    # stdout line reports the exit codes and the modules the calls added to
    # sys.modules. Each must be renewcast's own or the standard library's,
    # so numpy is refused whether or not it is installed. Taking the
    # difference leaves out what site imported before the probe ran, such
    # as the imports of a .pth file.
    argvs = [*(["fit", tech] for tech in _TECHS), ["project", "hydro", "--year", "2040"],
             ["cross", "--threshold", "electric_fig5"], ["mix", "--year", "2030"],
             ["learn"], ["budget"], ["report"], ["figures"]]
    probe = ("import json, sys; before = set(sys.modules); from renewcast.cli import main; "
             "codes = [main(['--out', sys.argv[1], *a]) for a in json.loads(sys.argv[2])]; "
             "print(json.dumps([codes, sorted(set(sys.modules) - before)]))")
    done = _run_python("-c", probe, str(tmp_path), json.dumps(argvs))
    codes, added = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs)
    assert "renewcast.figures" in added
    allowed = {"renewcast", *sys.stdlib_module_names}
    assert [name for name in added if name.partition(".")[0] not in allowed] == []


_YEARS = st.floats(2021.0, 2200.0)
_CONFIGS = st.fixed_dictionaries({}, optional={
    "horizon": _YEARS.map(repr),
    "wind_treatment": st.sampled_from(WIND_TREATMENTS + ("linear",)),
    "hydro_degree": st.integers(1, 5).map(str),
    "changepoint_min_segment": st.integers(1, 8).map(str),
    "wind_regime_window": st.sampled_from(("1996:2009", "2015:2016", "2019:", ":")),
    "cf_pv": st.floats(0.0, 1.2).map(repr),
    "mix_years": st.lists(_YEARS.map(repr), min_size=1, max_size=3).map(", ".join),
    "thresholds": st.lists(st.sampled_from(THRESHOLD_NAMES), min_size=1, max_size=4,
                           unique=True).map(", ".join),
})
_ARGVS = st.one_of(
    st.sampled_from(_TECHS).map(lambda tech: ["fit", tech]),
    st.tuples(st.sampled_from(_TECHS), _YEARS).map(
        lambda a: ["project", a[0], "--year", repr(a[1])]),
    st.sampled_from(THRESHOLD_NAMES).map(lambda t: ["cross", "--threshold", t]),
    _YEARS.map(lambda year: ["mix", "--year", repr(year)]),
    st.sampled_from(FIGURE_IDS).map(lambda fig: ["figures", "--id", fig]),
    st.sampled_from((["learn"], ["budget"], ["report"])),
)


@settings(max_examples=40, deadline=None)
@given(fields=_CONFIGS, argv=_ARGVS)
# the learning curves would meet beyond the float range
@example(fields={"cf_pv": "1e-133"}, argv=["learn"])
@example(fields={"hydro_degree": "4"}, argv=["report"])
def test_fuzzed_configs_exit_with_a_contract_code(fields, argv):
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "fuzz.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()),
                        encoding="utf-8")
        code = main(["--config", str(conf), "--out", str(Path(tmp) / "out"), *argv])
    assert code in (0, 2, 3, 4)
