"""Figure helpers, and figures of weekly capacity series pinned byte for byte.

The golden report draws bundled series of at most 40 rows; this pins the
large-figure path instead. A deterministic data_dir resamples each bundled
installed-power history at 52 points per year, log-linear between whole
years and times a seeded log-normal factor, and keeps the cost series
annual. fig1-fig5 of its report, report.json, its five CSV tables and
discrepancies.txt are pinned by sha256, so that fits and crossings on dense
data are pinned too.
"""

import hashlib
import math
import pathlib
import random

import renewcast as rc
from renewcast import cli, corpus, growthfit
from renewcast.figures import _half_years

WEEKS_PER_YEAR = 52
CAPACITY = ("pv", "wind", "offshore_wind", "hydro")
COSTS = ("pv_lcoe", "wind_lcoe", "battery")

# sha256 of emit_figure(report, id) for the weekly data_dir below
PINNED_SHA256 = {
    "fig1": "7169622b27711f1d686e942ff6c87d7e6f1a0a9438a4465f57b9eb11889c7bc7",
    "fig2": "8f83db4f8a84ff2ff392bc746ca88c1515fa5b110026151f754b063cc3aa7453",
    "fig3": "2cb29be2e6ee6c90e1408b42ee022d90127cf2417bd612926d286367e416d181",
    "fig4": "31306d1180c00f0020a8ebc014a9ce2894455fd3f00f3108229eb14af18bcd89",
    "fig5": "d558200b48753e191d8148343fc180c8e945118bdf4e6d7b75a895fd84099aec",
}

# sha256 of the non-figure artifacts write_outputs makes of the same report,
# run from its parent directory so that report.json records data_dir as "data"
PINNED_ARTIFACT_SHA256 = {
    "budget.csv": "60ef97fdd65b18585ceaab34db44a0ac201bf241612b37981debd53abe451780",
    "claims.csv": "9741f4b726d293e9bc0a86c5cf283e8f5f83f128ecb1221225a911c3c641bc7d",
    "crossings.csv": "4d468e13d982072982592539a473e13e8eefa1e50e99acfe9d61e30e05c6a27d",
    "discrepancies.csv": "28c1c664674a84e9ee74daf015d665f54cc0c603fd2c2c83696ff50d926ed896",
    "discrepancies.txt": "33b0faf30a0f6382fbbee28c852e854fd65f8d103c34bbf32f2ebfee88982527",
    "mixes.csv": "2a514e94719d72a2390f59f7192902f20b968830bc92e0441dbfca8ed7cb91ce",
    "report.json": "63c51f2c716b688de7f8169805229b292f1e9ab4c18e234b10e80b997a112137",
}


def _weekly(text, rng):
    """The series file text resampled weekly: header kept, whole years on the grid."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    rows = [tuple(map(float, line.split(","))) for line in lines
            if line.strip() and not line.startswith("#")]
    out = list(header)
    for (y0, v0), (y1, v1) in zip(rows, rows[1:]):
        weeks = WEEKS_PER_YEAR if y1 - y0 == 1.0 else 1
        for w in range(weeks):
            f = w / weeks
            value = math.exp((1 - f) * math.log(v0) + f * math.log(v1))
            out.append(f"{y0 + f * (y1 - y0)!r},{value * math.exp(rng.gauss(0.0, 0.03))!r}")
    out.append(f"{rows[-1][0]!r},{rows[-1][1]!r}")
    return "\n".join(out) + "\n"


def _weekly_report(root):
    data = root / "data"
    data.mkdir()
    rng = random.Random("dense-pin")
    for name in CAPACITY + COSTS:
        text = corpus.read_dataset(name)
        (data / corpus.BUNDLED_DATASETS[name]).write_text(
            _weekly(text, rng) if name in CAPACITY else text, encoding="utf-8")
    return rc.run_scenario(rc.ScenarioConfig(data_dir=str(data)))


def test_weekly_figures_pinned(tmp_path):
    report = _weekly_report(tmp_path)
    assert len(report.series["wind"].years) > 1000
    got = {fid: hashlib.sha256(rc.emit_figure(report, fid).encode("utf-8")).hexdigest()
           for fid in PINNED_SHA256}
    assert got == PINNED_SHA256


def test_weekly_artifacts_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc.write_outputs(_weekly_report(pathlib.Path(".")), tmp_path / "out")
    got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
           for name in PINNED_ARTIFACT_SHA256}
    assert got == PINNED_ARTIFACT_SHA256


def test_reports_read_columns_not_samples(tmp_path, monkeypatch):
    # CapacitySeries.samples is kept for the benchmark's tracer alone
    def refuse(series):
        raise AssertionError(f"{series.technology}: samples read")

    monkeypatch.setattr(corpus.CapacitySeries, "samples", property(refuse))
    assert cli.main(["--out", str(tmp_path / "default"), "report"]) == 0
    rc.write_outputs(_weekly_report(tmp_path), tmp_path / "weekly")


def test_weekly_wind_changepoint_refits_two_splits(tmp_path, monkeypatch):
    # the single line, then both ols lines of the two splits whose scores
    # lie within the rounding bound of the least
    report = _weekly_report(tmp_path)
    calls = []
    ols = growthfit.ols
    monkeypatch.setattr(growthfit, "ols", lambda x, y: calls.append(1) or ols(x, y))
    config = report.config
    rc.detect_changepoint(report.series["wind"], config.changepoint_min_segment,
                          config.wind_window)
    assert len(calls) == 5


def test_half_years_end_at_hi():
    assert _half_years(2039.0, 2040) == [2039.0, 2039.5, 2040.0]
    assert _half_years(2039.25, 2040) == [2039.25, 2039.75]
    assert _half_years(2040.0, 2040) == [2040.0]
    assert _half_years(2040.25, 2040) == []
    assert _half_years(2041.0, 2040) == []
