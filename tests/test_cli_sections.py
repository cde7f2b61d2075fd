"""Each CLI subcommand computes only the report sections it prints, and every
input ends in one of the documented exit codes."""

import errno
import gc
import json
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import renewcast
from renewcast import corpus, growthfit, report, scenario
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
])
def test_crossings_solved_per_subcommand(tmp_path, monkeypatch, capsys, argv, calls):
    solved = []
    crossing_year = scenario.crossing_year

    def counting(projection, threshold, horizon):
        solved.append(threshold.name)
        return crossing_year(projection, threshold, horizon)

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
        write_text, calls = Path.write_text, []

        def failing(self, *args, **kwargs):
            calls.append(self)
            if len(calls) == 5:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing)
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
        if name != "offshore_depth":
            (data / fname).write_bytes(corpus.bundled_path(name).read_bytes())


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
    """The renewcast modules and the named standard-library modules a fresh
    interpreter holds after ``import renewcast`` and, given argv, one CLI call."""
    probe = ("import sys, renewcast\n"
             "if sys.argv[1:]:\n"
             "    from renewcast.cli import main\n"
             "    assert main(sys.argv[1:]) == 0\n"
             "print(' '.join(sorted(m for m in sys.modules\n"
             "                      if m.startswith('renewcast') or m in ('json', 'html'))))")
    return set(_run_python("-c", probe, *argv).stdout.splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    assert _loaded_after() == {"renewcast"}


_LATER_LAYERS = {f"renewcast.{m}" for m in (
    "svgchart", "figures", "artifacts", "scenario", "learncurve", "resourcebudget")}


@pytest.mark.parametrize("argv, allowed", [
    (["fit", "pv"], set()),
    (["project", "pv", "--year", "2030"], {"renewcast.genconvert"}),
])
def test_fit_and_project_load_only_their_layers(tmp_path, argv, allowed):
    loaded = _loaded_after("--out", str(tmp_path), *argv)
    assert {"renewcast.cli", "renewcast.config", "renewcast.reportmodel"} <= loaded
    forbidden = _LATER_LAYERS | {"renewcast.genconvert", "json", "html"}
    assert not loaded & (forbidden - allowed)


def test_learn_loads_no_chart_and_no_scenario(tmp_path):
    loaded = _loaded_after("--out", str(tmp_path), "learn")
    assert "renewcast.learncurve" in loaded
    assert not loaded & {"renewcast.svgchart", "renewcast.scenario"}


# every name renewcast exported when its __init__ imported all modules eagerly
_PUBLIC_NAMES = """
    AreaBudget CapacitySeries CombinedProjection Constant CostSeries CrossingResult
    DemandThreshold ExponentialFit GenerationSeries LearningCurveFit
    PiecewiseExponentialFit PolynomialFit ResourcePotential ScenarioConfig ScenarioReport
    TechnologyProfile TimeDecayFit appendix_discrepancies combine constant constant_names
    cost_at cost_series crossing_year curve_crossing desert_fraction detect_changepoint
    doubling_time dump_series emit_discrepancies emit_figure extrapolate fit_exponential
    fit_learning_curve fit_polynomial fit_time_decay generation_capability get_constant
    join_cost_to_generation learning_rate load_bundled load_capacity_series make_series
    mix_at_year offshore_depth_extrapolation parse_config past_horizon potential_fraction
    power_required pv_area_required pv_wind_generation_crossover reduced_primary
    run_scenario series_to_generation write_outputs __version__
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
    # stdout line reports the exit codes and whether numpy was imported
    argvs = [*(["fit", tech] for tech in _TECHS), ["project", "hydro", "--year", "2040"],
             ["cross", "--threshold", "electric_fig5"], ["mix", "--year", "2030"],
             ["learn"], ["budget"], ["report"], ["figures"]]
    probe = ("import json, sys; from renewcast.cli import main; "
             "codes = [main(['--out', sys.argv[1], *a]) for a in json.loads(sys.argv[2])]; "
             "print(json.dumps([codes, 'numpy' in sys.modules]))")
    done = _run_python("-c", probe, str(tmp_path), json.dumps(argvs))
    codes, numpy_loaded = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs)
    assert not numpy_loaded


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
