"""Figure helpers, and figures of weekly capacity series pinned byte for byte.

The golden report draws bundled series of at most 40 rows; this pins the
large-figure path instead. A deterministic data_dir resamples each bundled
installed-power history at 52 points per year, log-linear between whole
years and times a seeded log-normal factor, and keeps the cost series
annual. fig1-fig5 of its report are pinned by sha256.
"""

import hashlib
import math
import random

import renewcast as rc
from renewcast import corpus
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
        text = corpus.bundled_path(name).read_text(encoding="utf-8")
        (data / corpus.BUNDLED_DATASETS[name]).write_text(
            _weekly(text, rng) if name in CAPACITY else text, encoding="utf-8")
    return rc.run_scenario(rc.ScenarioConfig(data_dir=str(data)))


def test_weekly_figures_pinned(tmp_path):
    report = _weekly_report(tmp_path)
    assert len(report.series["wind"].years) > 1000
    got = {fid: hashlib.sha256(rc.emit_figure(report, fid).encode("utf-8")).hexdigest()
           for fid in PINNED_SHA256}
    assert got == PINNED_SHA256


def test_half_years_end_at_hi():
    assert _half_years(2039.0, 2040) == [2039.0, 2039.5, 2040.0]
    assert _half_years(2039.25, 2040) == [2039.25, 2039.75]
    assert _half_years(2040.0, 2040) == [2040.0]
    assert _half_years(2040.25, 2040) == []
    assert _half_years(2041.0, 2040) == []
