"""End-to-end report assembly, artifact determinism, figures and the CLI."""

import itertools
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewcast as rc
from renewcast import corpus, learncurve
from renewcast import report as report_mod
from renewcast import reportmodel
from renewcast.artifacts import json_text
from renewcast.cli import main
from renewcast.config import THRESHOLD_NAMES, WIND_TREATMENTS
from renewcast.errors import ConfigError, ModelError
from renewcast.report import ClaimRow, CrossingEntry
from renewcast.resourcebudget import (AreaBudget, DepthExtrapolation, DiscrepancyRow,
                                     PotentialFraction, ReferenceBudget)
from renewcast.scenario import MixEntry


# -- report shape ----------------------------------------------------------------

def test_crossing_entries_for_all_four_thresholds(default_report):
    names = {c.threshold for c in default_report.crossings}
    assert names == {"electric_fig5", "electric_2030", "reduced_primary_2030",
                     "primary_fig5"}
    # pv alone + 2 combos x 3 wind treatments, per threshold
    for name in names:
        entries = [c for c in default_report.crossings if c.threshold == name]
        assert len(entries) == 7


def test_both_demand_variants_labelled(default_report):
    levels = {c.threshold: c.level_twh_per_year for c in default_report.crossings}
    assert levels["electric_fig5"] == 33000.0
    assert levels["electric_2030"] == 35000.0


def test_wind_treatment_ordering(default_report):
    # the rebound projection continues the steep early regime, so it crosses
    # first; the post-changepoint segment crosses last
    def year(treatment):
        return default_report.crossing_for("electric_fig5", "wind_pv",
                                           treatment).year
    assert year("rebound") < year("trend") < year("piecewise")


def test_report_json_schema(default_report):
    doc = json.loads(report_mod.report_json(default_report))
    assert doc["schema_version"] == 1
    for key in ("config", "fits", "crossings", "mixes", "learning", "budget",
                "discrepancies", "claims", "warnings"):
        assert key in doc
    assert doc["config"]["wind_treatment"] == "trend"
    assert doc["fits"]["wind_piecewise"]["regime_change"] is True
    assert set(doc["mixes"]) == {"2025", "2030"}

    # every published row is named by its type's fields, in JSON and CSV alike
    def names(row_type):
        return list(row_type._fields)

    published = [
        (CrossingEntry, doc["crossings"]),
        (MixEntry, [e for entries in doc["mixes"].values() for e in entries]),
        (DiscrepancyRow, doc["discrepancies"]),
        (ClaimRow, doc["claims"]),
        (ReferenceBudget, [doc["budget"]]),
        (AreaBudget, list(doc["budget"]["areas"].values())),
        (PotentialFraction, list(doc["budget"]["potential_fractions"].values())),
        (DepthExtrapolation, [doc["budget"]["offshore_depth_extrapolation"]]),
    ]
    for row_type, rows in published:
        assert rows
        for row in rows:
            assert list(row) == names(row_type)
    for table, header in ((report_mod.crossings_csv, names(CrossingEntry)),
                          (report_mod.mixes_csv, ["year", *names(MixEntry)]),
                          (report_mod.discrepancies_csv, names(DiscrepancyRow)),
                          (report_mod.claims_csv, names(ClaimRow))):
        assert table(default_report).split("\n", 1)[0].split(",") == header

    # editing to_dict's rows leaves the report's rows as they are
    crossing, mix = default_report.crossings[0], default_report.mixes["2030"][0]
    year, share = crossing.year, mix.share_pct
    fraction = default_report.budget.potential_fractions["primary_2030_vs_onshore"]
    edited = default_report.to_dict()
    edited["crossings"][0]["year"] = -1.0
    edited["crossings"][0].pop("status")
    edited["mixes"]["2030"][0]["share_pct"] = -1.0
    edited["budget"]["areas"]["electric_2030"].clear()
    edited["budget"]["potential_fractions"]["primary_2030_vs_onshore"]["fraction"] = -1.0
    assert default_report.crossings[0] is crossing
    assert (crossing.year, crossing.status) == (year, doc["crossings"][0]["status"])
    assert mix.share_pct == share
    assert default_report.budget.potential_fractions["primary_2030_vs_onshore"] == fraction
    assert json.loads(report_mod.report_json(default_report)) == doc


@pytest.mark.parametrize("config", [
    rc.ScenarioConfig(),
    rc.ScenarioConfig(wind_treatment="piecewise", mix_years=(2024.0, 2031.5, 2040.0)),
    rc.ScenarioConfig(wind_treatment="rebound", horizon=2080.0, mix_years=(2035.0,),
                      thresholds=("electric_fig5", "primary_fig5"), hydro_degree=1,
                      cf_pv=0.2),
])
def test_to_dict_is_plain_json(config):
    # a record or any other tuple left in to_dict would come back as a list
    rep = rc.run_scenario(config)
    assert json.loads(report_mod.report_json(rep)) == rep.to_dict()


_JSON_TEXT = st.one_of(st.text(), st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f é€😀\u2028')))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from((2 ** 64, -(10 ** 30))),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((-0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308)), _JSON_TEXT)
# what ScenarioReport.to_dict holds: str keys and lists, no tuple
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.dictionaries(_JSON_TEXT, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(obj=_JSON_VALUES)
def test_json_text_equals_indented_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, allow_nan=False)


@pytest.mark.parametrize("obj", [math.nan, [math.inf], {"a": -math.inf}])
def test_json_text_refuses_what_dumps_refuses(obj):
    with pytest.raises(ValueError):
        json.dumps(obj, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        json_text(obj)


@pytest.mark.parametrize("obj", [{math.nan: 1}, ({1.0: [0.5, (math.inf,)]},), {1: "a"},
                                 ["a", (1,)], {"a": (1.0,)}])
def test_json_text_refuses_a_tuple_and_a_key_that_is_no_str(obj):
    # json.dumps writes these, but no report holds them
    with pytest.raises(TypeError):
        json_text(obj)


@pytest.mark.parametrize("obj", [{1, 2}, [b"bytes"], {(1, 2): 3}])
def test_json_text_refuses_unwritable_types(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        json_text(obj)


def test_editing_to_dict_leaves_the_report_as_it_was(tmp_path):
    # a report of its own, so that a failure cannot leak into the shared one
    rep = rc.run_scenario(rc.ScenarioConfig())
    rc.write_outputs(rep, tmp_path / "before")
    edited = []

    def edit(node):
        """Change every dict and list under node, and every value in them."""
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            if isinstance(node[key], (dict, list)):
                edit(node[key])
            else:
                node[key] = -1.0
        if isinstance(node, dict):
            node["edited"] = True
        else:
            node.append("edited")
        edited.append(node)

    edit(rep.to_dict())
    assert len(edited) > 100
    rc.write_outputs(rep, tmp_path / "after")
    before = sorted((tmp_path / "before").iterdir())
    assert [p.name for p in before] == sorted(p.name for p in (tmp_path / "after").iterdir())
    for path in before:
        assert (tmp_path / "after" / path.name).read_bytes() == path.read_bytes(), path.name


def test_report_claims_table(default_report):
    claims = {c.name: c for c in default_report.claims}
    assert claims["pv_overtakes_wind"].stated_year == 2024.0
    assert claims["offshore_reaches_1tw"].computed_year == pytest.approx(
        2032.5, abs=0.5)
    both = {claims["pv_alone_meets_electric_fig5"].computed_year,
            claims["pv_alone_meets_electric_fig5_alt"].computed_year}
    assert len(both) == 1  # same computed year confronted with both stated years


def test_rebound_far_extrapolations_flagged(default_report):
    # the rebound line's window ends in 2009, so crossings beyond 2024
    # extrapolate more than 15 years past it
    flagged = [c for c in default_report.crossings
               if c.wind_treatment == "rebound" and c.year is not None
               and c.year > 2024.0]
    assert flagged and all(c.horizon_warning for c in flagged)
    trend_near = [c for c in default_report.crossings
                  if c.wind_treatment == "trend" and c.year is not None
                  and c.year < 2034.0]
    assert trend_near and not any(c.horizon_warning for c in trend_near)
    assert any("past its window" in w for w in default_report.warnings)


def test_below_floor_cost_warning(tmp_path):
    # steeper fictional PV cost decline pushes the modelled cost at the
    # stated 2030 generation under the 1 USD/MWh floor and must be flagged
    data = tmp_path / "data"
    data.mkdir()
    for name, fname in corpus.BUNDLED_DATASETS.items():
        (data / fname).write_text(corpus.read_dataset(name), encoding="utf-8")
    (data / "pv_lcoe_usd_mwh.csv").write_text(
        "# fictional steep decline\n"
        "# technology: pv\n# kind: unit_cost\n# unit: USD_per_MWh\n"
        "2009,359.0\n2011,120.0\n2013,40.0\n2015,14.0\n2017,7.0\n2019,4.0\n",
        encoding="utf-8",
    )
    rep = rc.run_scenario(rc.ScenarioConfig()._replace(data_dir=str(data)))
    assert rep.to_dict()["learning"]["pv_cost_at_stated_2030_generation_usd_per_mwh"] < 1.0
    assert any("below the stated" in w for w in rep.warnings)


def test_horizon_2024_not_reached():
    config = rc.ScenarioConfig()._replace(horizon=2024.0)
    rep = rc.run_scenario(config)
    entries = [c for c in rep.crossings if c.threshold == "primary_fig5"]
    assert entries and all(c.status == "not_reached" for c in entries)


def test_invalid_horizon_rejected():
    with pytest.raises(ConfigError, match=r"^horizon 2015 must exceed the last data year "):
        rc.run_scenario(rc.ScenarioConfig()._replace(horizon=2015.0))


def test_unknown_threshold_rejected():
    with pytest.raises(ConfigError, match=r"^unknown threshold 'nope'; known: "):
        rc.ScenarioConfig(thresholds=("electric_fig5", "nope")).validate()


def test_config_is_an_immutable_record(default_report):
    config = rc.ScenarioConfig()
    with pytest.raises(AttributeError):
        config.horizon = 2060.0
    with pytest.raises(TypeError):
        rc.ScenarioConfig(horizon_year=2060.0)
    changed = config._replace(horizon=2060.0)
    assert type(changed) is rc.ScenarioConfig
    assert (changed.horizon, config.horizon) == (2060.0, 2050.0)
    # report.json echoes the config in field order, the capacity factors
    # folded into one key and out_dir left out
    assert list(default_report.to_dict()["config"]) == [
        "data_dir", "horizon", "wind_treatment", "changepoint_min_segment",
        "changepoint_threshold", "pv_window", "wind_window", "wind_regime_window",
        "offshore_window", "hydro_window", "hydro_degree", "capacity_factors",
        "mix_years", "thresholds"]


# claim -> the threshold whose crossing gives its computed year
_CLAIM_THRESHOLDS = {
    "wind_pv_meet_electric_fig5": "electric_fig5",
    "three_tech_meet_electric_fig5": "electric_fig5",
    "three_tech_meet_reduced_primary": "reduced_primary_2030",
    "pv_alone_meets_electric_fig5": "electric_fig5",
    "pv_alone_meets_electric_fig5_alt": "electric_fig5",
    "pv_alone_meets_primary_fig5": "primary_fig5",
}


@pytest.mark.parametrize("treatment", WIND_TREATMENTS)
def test_outputs_without_electric_fig5(tmp_path, treatment):
    # Every threshold subset, the empty one included, draws the figures and
    # writes the mix, budget and discrepancy tables of all four thresholds;
    # the thresholds choose only the crossing rows and the claims' years.
    def outputs(thresholds):
        config = rc.ScenarioConfig()._replace(wind_treatment=treatment,
                                              thresholds=thresholds)
        out = tmp_path / ("-".join(thresholds) or "none")
        rc.write_outputs(rc.run_scenario(config), out)
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def claims(files):
        return {c["name"]: c["computed_year"]
                for c in json.loads(files["report.json"])["claims"]}

    full = outputs(THRESHOLD_NAMES)
    shared = [name for name in full if name.endswith(".svg")] + [
        "mixes.csv", "budget.csv", "discrepancies.csv", "discrepancies.txt"]
    crossing_lines = full["crossings.csv"].decode().splitlines(keepends=True)
    full_claims = claims(full)
    assert all(full_claims[name] is not None for name in _CLAIM_THRESHOLDS)
    for size in range(len(THRESHOLD_NAMES) + 1):
        for subset in itertools.combinations(THRESHOLD_NAMES, size):
            files = outputs(subset)
            for name in shared:
                assert files[name] == full[name], (subset, name)
            assert files["crossings.csv"].decode() == "".join(
                crossing_lines[:1] + [line for line in crossing_lines[1:]
                                      if line.split(",")[0] in subset]), subset
            for name, year in claims(files).items():
                unconfigured = (name in _CLAIM_THRESHOLDS
                                and _CLAIM_THRESHOLDS[name] not in subset)
                assert year == (None if unconfigured else full_claims[name]), (subset, name)


# -- determinism ------------------------------------------------------------------

def test_outputs_byte_identical_across_runs(tmp_path, default_report):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    rc.write_outputs(default_report, first)
    rc.write_outputs(rc.run_scenario(rc.ScenarioConfig()), second)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_every_report_value_is_computed_once(tmp_path, monkeypatch):
    # every section is kept once computed: one write_outputs of a fresh
    # report reads the learning-curve crossing in learning_dict, a warning
    # and fig8, and the PV cost at the stated 2030 generation in two places,
    # yet solves each once
    calls = []
    for name in ("curve_crossing", "cost_at"):
        real = getattr(learncurve, name)
        monkeypatch.setattr(learncurve, name,
                            lambda *args, _real=real, _name=name: calls.append(_name)
                            or _real(*args))
    rep = rc.run_scenario(rc.ScenarioConfig())
    rc.write_outputs(rep, tmp_path)
    assert sorted(calls) == ["cost_at", "curve_crossing"]
    assert {"curve_crossing", "pv_cost_at_stated_2030", "battery_cost_2030",
            "regime_change"} <= vars(rep).keys()


def test_path_objects_give_what_their_strings_give(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    for name, fname in corpus.BUNDLED_DATASETS.items():
        (data / fname).write_text(corpus.read_dataset(name), encoding="utf-8")
    conf = tmp_path / "run.conf"
    conf.write_text("horizon = 2060\n", encoding="utf-8")
    runs = []
    for form in (str, Path):
        config = rc.parse_config(form(conf))._replace(data_dir=form(data))
        written = rc.write_outputs(rc.run_scenario(config), form(out))
        runs.append((written, {p.name: p.read_bytes() for p in out.iterdir()}))
    assert runs[0] == runs[1]
    assert b'"horizon": 2060.0' in runs[1][1]["report.json"]


def test_every_csv_number_exists_in_json(tmp_path, default_report):
    out = tmp_path / "run"
    rc.write_outputs(default_report, out)
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))

    reprs = set()

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            reprs.add(repr(node))
        elif isinstance(node, (int, bool)):
            reprs.add(repr(float(node)))

    walk(doc)

    numeric_columns = {
        "crossings.csv": ("level_twh_per_year", "year"),
        "mixes.csv": ("generation_twh_per_year", "share_pct"),
        "discrepancies.csv": ("stated", "computed", "relative_deviation"),
        "claims.csv": ("stated_year", "computed_year", "delta_years"),
        "budget.csv": ("value",),
    }
    for fname, columns in numeric_columns.items():
        lines = (out / fname).read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        idx = [header.index(c) for c in columns]
        for line in lines[1:]:
            cells = line.split(",")
            for i in idx:
                cell = cells[i]
                if cell == "":
                    continue
                assert repr(float(cell)) in reprs, (fname, header[i], cell)


def test_discrepancy_text_table(default_report):
    text = rc.emit_discrepancies(default_report.discrepancies)
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert len(lines) == len(default_report.discrepancies) + 1
    # sorted by |relative deviation| descending
    devs = [abs(float(line.split()[3])) for line in lines[1:]]
    assert devs == sorted(devs, reverse=True)


def test_discrepancy_table_empty_is_header_only():
    assert rc.emit_discrepancies([]).splitlines() == [
        rc.emit_discrepancies([]).splitlines()[0]]


def test_discrepancy_rows_keep_full_precision(default_report):
    text = rc.emit_discrepancies(default_report.discrepancies)
    row = next(r for r in default_report.discrepancies
               if r.name == "pv_area_electric_2030_km2")
    assert repr(row.computed) in text


# -- figures ----------------------------------------------------------------------

def test_all_figures_well_formed(default_report):
    for fig_id in report_mod.FIGURE_IDS:
        svg = rc.emit_figure(default_report, fig_id)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")


def test_fig5_log_ordinate_and_three_thresholds(default_report):
    svg = rc.emit_figure(default_report, "fig5")
    assert svg.count('stroke-dasharray="3 3"') == 3
    for label in ("electricity demand (33000 TWh/yr)",
                  "reduced primary demand (106950 TWh/yr)",
                  "primary demand (198000 TWh/yr)"):
        assert label in svg
    # decade ticks of a log ordinate
    for tick in (">10<", ">1000<", ">1e5<"):
        assert tick in svg


def test_fig8_bilog_with_crossing(default_report):
    svg = rc.emit_figure(default_report, "fig8")
    assert "crossing at" in svg
    assert svg.count("stroke-dasharray") >= 4  # two fitted lines + two vlines
    assert ">100<" in svg and ">10000<" in svg  # decade ticks on the abscissa


def test_unknown_figure_id(default_report):
    with pytest.raises(ModelError, match=r"^unknown figure id 'fig99'; valid ids: ") as err:
        rc.emit_figure(default_report, "fig99")
    assert "fig5" in str(err.value) and "appfig6" in str(err.value)


# -- config file -------------------------------------------------------------------

def test_parse_config_roundtrip(tmp_path):
    path = tmp_path / "scenario.conf"
    path.write_text(
        "# comment line\n"
        "horizon = 2045\n"
        "wind_treatment = piecewise\n"
        "pv_window = 2005:2019\n"
        "hydro_window = :\n"
        "mix_years = 2024, 2031\n"
        "cf_pv = 0.22\n"
        "thresholds = electric_fig5, primary_fig5\n",
        encoding="utf-8",
    )
    config = rc.parse_config(path)
    assert config.horizon == 2045.0
    assert config.wind_treatment == "piecewise"
    assert config.pv_window == (2005.0, 2019.0)
    assert config.hydro_window == (None, None)
    assert config.mix_years == (2024.0, 2031.0)
    assert config.cf_pv == 0.22
    assert config.thresholds == ("electric_fig5", "primary_fig5")


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("fuzz = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"bad\.conf:1: unknown key 'fuzz'$"):
        rc.parse_config(path)


def test_parse_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("horizon = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"bad\.conf:1: bad value for horizon: "):
        rc.parse_config(path)


@pytest.mark.parametrize("line, message", [
    ("horizon 2045", r"bad\.conf:1: expected 'key = value', got 'horizon 2045'$"),
    ("pv_window = 2005", r"^window must look like 'start:end', got '2005'$"),
    ("wind_treatment = gusty", r"^wind_treatment must be one of "
                               r"\('trend', 'piecewise', 'rebound'\), got 'gusty'$"),
])
def test_parse_config_rejects_malformed_lines(tmp_path, line, message):
    path = tmp_path / "bad.conf"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        rc.parse_config(path)


def test_missing_config_file():
    with pytest.raises(ConfigError,
                       match=r"^cannot read config file /nonexistent/scenario\.conf: "):
        rc.parse_config("/nonexistent/scenario.conf")


# -- CLI ----------------------------------------------------------------------------

def test_cli_report_writes_artifacts(tmp_path, capsys):
    code = main(["--out", str(tmp_path / "out"), "report"])
    assert code == 0
    out = tmp_path / "out"
    for name in ("report.json", "crossings.csv", "mixes.csv", "budget.csv",
                 "discrepancies.csv", "claims.csv", "fig5.svg", "appfig6.svg"):
        assert (out / name).is_file(), name
    assert "wrote" in capsys.readouterr().out


def test_cli_fit_prints_parameters(capsys):
    assert main(["fit", "pv"]) == 0
    captured = capsys.readouterr().out
    assert "ln_slope" in captured and "doubling_time_years" in captured


def test_cli_cross_lists_all_variants(capsys):
    assert main(["cross", "--threshold", "electric_fig5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert any(line.startswith("electric_fig5,wind_pv,trend,crossed,")
               for line in lines)


def test_cli_mix_shares(capsys):
    assert main(["mix", "--year", "2030"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    shares = [float(line.split(",")[2]) for line in lines]
    assert sum(shares) == pytest.approx(100.0, abs=1e-9)


def test_cli_budget_prints_discrepancies(capsys):
    assert main(["budget"]) == 0
    captured = capsys.readouterr().out
    assert "relative_deviation" in captured
    assert "area_electric_2030_km2" in captured


def test_cli_figures_single(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "figures", "--id", "fig8"]) == 0
    assert (tmp_path / "fig8.svg").is_file()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("nope = 1\n", encoding="utf-8")
    assert main(["--config", str(bad), "report"]) == 2

    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    conf = tmp_path / "data.conf"
    conf.write_text(f"data_dir = {empty_dir}\n", encoding="utf-8")
    assert main(["--config", str(conf), "report"]) == 3

    assert main(["project", "hydro", "--year", "1900"]) == 4
    capsys.readouterr()


def test_cli_unknown_figure_id_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out), "figures", "--id", "fig99"])
    assert exc.value.code == 2
    assert "invalid choice: 'fig99'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config_text, argv", [
    (None, ["--horizon", "nan", "cross", "--threshold", "electric_fig5"]),
    (None, ["--horizon", "inf", "report"]),
    (None, ["--horizon=-inf", "report"]),
    (None, ["--horizon", "1e300", "report"]),
    (None, ["--horizon", "2200.5", "report"]),
    (None, ["project", "pv", "--year", "nan"]),
    (None, ["project", "hydro", "--year", "inf"]),
    (None, ["mix", "--year", "nan"]),
    (None, ["mix", "--year", "1e300"]),
    ("horizon = nan", ["report"]),
    ("mix_years = 2025, nan", ["report"]),
    ("mix_years = 2025, 1e300", ["mix", "--year", "2030"]),
    ("changepoint_threshold = nan", ["fit", "wind"]),
    ("changepoint_threshold = inf", ["fit", "wind"]),
])
def test_cli_rejects_nonfinite_and_unbounded_numbers(tmp_path, monkeypatch, capsys,
                                                     config_text, argv):
    def no_load(config):
        raise AssertionError("the scenario ran although the input is invalid")

    # rejected while the config is checked, before any series is loaded and
    # so before any fit or crossing grid
    monkeypatch.setattr(reportmodel, "load_series", no_load)
    if config_text is not None:
        conf = tmp_path / "run.conf"
        conf.write_text(config_text + "\n", encoding="utf-8")
        argv = ["--config", str(conf), *argv]
    assert main(["--out", str(tmp_path / "out"), *argv]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key", report_mod._WINDOW_KEYS)
@pytest.mark.parametrize("window", ["nan:", "inf:", ":1e400", "2010:2000"])
def test_cli_rejects_bad_windows(tmp_path, monkeypatch, capsys, key, window):
    def no_run(config):
        raise AssertionError("the scenario ran although the window is invalid")

    monkeypatch.setattr(reportmodel, "run_scenario", no_run)
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {window}\n", encoding="utf-8")
    assert main(["--config", str(conf), "--out", str(tmp_path / "out"), "report"]) == 2
    assert f"config error: {key}" in capsys.readouterr().err


def test_cli_window_with_too_few_points_is_model_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("wind_window = 2015:2016\n", encoding="utf-8")
    assert main(["--config", str(conf), "fit", "wind"]) == 4
    assert "changepoint scan needs >= 6 points, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["report"], ["figures", "--id", "fig1"]])
def test_cli_unwritable_out_is_config_error(tmp_path, capsys, argv):
    a_file = tmp_path / "a_file"
    a_file.write_text("a regular file, not a directory\n", encoding="utf-8")
    assert main(["--out", str(a_file / "sub"), *argv]) == 2
    assert "cannot write to" in capsys.readouterr().err


def test_cli_horizon_override(capsys):
    assert main(["--horizon", "2024", "cross", "--threshold", "primary_fig5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(",not_reached," in line for line in lines)


def test_crossing_for_missing_entry(default_report):
    with pytest.raises(ModelError, match=r"^no crossing entry for electric_fig5/wind_pv/bogus$"):
        default_report.crossing_for("electric_fig5", "wind_pv", "bogus")
    with pytest.raises(ModelError, match=r"^no crossing entry for no_such_threshold/pv/None$"):
        default_report.crossing_for("no_such_threshold", "pv")


def test_appendix_rows_keep_the_registered_capacity_factor(default_report):
    # the appendix recomputes the stated figures at the registered cf_pv;
    # only the scenario's own budget follows its capacity factor
    report = rc.run_scenario(rc.ScenarioConfig()._replace(cf_pv=0.2))
    names = {row.name for row in rc.appendix_discrepancies()}
    rows = [[repr(row) for row in rep.discrepancies if row.name in names]
            for rep in (report, default_report)]
    assert len(rows[0]) == 16 and rows[0] == rows[1]
    assert report.budget.areas != default_report.budget.areas


def test_discrepancy_row_type():
    row = DiscrepancyRow("x", 1.0, 2.0, -0.5, "someone 2020")
    assert row.relative_deviation == -0.5
