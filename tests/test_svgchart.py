"""SVG chart output is pinned byte for byte."""

import hashlib

from renewcast.svgchart import Axis, Chart, render

# sha256 of _pinned_svg(): any change to a coordinate, its formatting or
# the element order moves it
PINNED_SHA256 = "1055f2197ecd3a0528836f1c5e3c0e7106c8388983b5a8584c6c9920934058e1"


def _pinned_svg() -> str:
    log = Chart("log & <ordinate>", Axis("year", "linear", 1996, 2040),
                Axis("generation [TWh/yr]", "log", 1.0, 1e6))
    years = [1996 + 0.37 * i for i in range(120)]
    log.add_points(years, [1.7 ** (0.3 * i) for i in range(120)], "#1f77b4",
                   label="observed", radius=2.5)
    log.add_line(years, [3.0 * 1.25 ** (y - 1996) for y in years], "#ff7f0e",
                 label="fit", dashed=True)
    log.add_hline(26000.0, "demand")
    log.add_vline(2030.5, "2030")
    log.add_marker(2027.3, 26000.0, "crossing 2027.3")
    lin = Chart("linear", Axis("year", "linear", 2008, 2021),
                Axis("LCOE [USD/MWh]", "linear", 0.0, 410.0))
    lin.add_points([2008 + i for i in range(14)], [400.0 * 0.8 ** i for i in range(14)],
                   "#2ca02c", label="pv")
    lin.add_line([2008 + 0.5 * i for i in range(27)],
                 [350.0 - 11.1 * i for i in range(27)], "#d62728", width=2.0)
    lin.add_hline(57.5, "floor")
    lin.add_vline(2015.25, "mid")
    lin.add_marker(2019.0, 80.0, "point")
    return render([log, lin], title="pinned pair")


def test_render_bytes_pinned():
    svg = _pinned_svg()
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == PINNED_SHA256
