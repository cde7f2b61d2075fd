"""SVG chart output is pinned byte for byte."""

import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renewcast.svgchart import Axis, Chart, _nice_ticks, render

# sha256 of _pinned_svg(): any change to a coordinate, its formatting or
# the element order moves it
PINNED_SHA256 = "5760818c343043ab297385314222ae03d4566e9f5ceb79210fa0a4873116fcea"


def _pinned_svg() -> str:
    log = Chart("log & <ordinate>", Axis("year", "linear", 1996, 2040),
                Axis("generation [TWh/yr]", "log", 1.0, 1e6))
    years = [1996 + 0.37 * i for i in range(120)]
    log.add_points(years, [1.7 ** (0.3 * i) for i in range(120)], "#1f77b4",
                   label="observed")
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
                 [350.0 - 11.1 * i for i in range(27)], "#d62728")
    lin.add_hline(57.5, "floor")
    lin.add_vline(2015.25, "mid")
    lin.add_marker(2019.0, 80.0, "point")
    return render([log, lin], title="pinned pair")


def test_render_bytes_pinned():
    svg = _pinned_svg()
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == PINNED_SHA256


_NAN, _INF = math.nan, math.inf
# (x, y) pairs of a linear [2000, 2020] x [0, 100] chart and of a log
# [2000, 2020] x [1, 1e4] chart that must not be drawn: non-finite, or
# left of, right of, above or below the axes, and y <= 0 on the log axis
_DROPPED = [(_NAN, 50.0), (2010.0, _NAN), (_INF, 50.0), (-_INF, 50.0), (2010.0, _INF),
            (2010.0, -_INF), (_NAN, _NAN), (1999.99, 50.0), (2020.01, 50.0)]
_DROPPED_LINEAR = _DROPPED + [(2010.0, 100.01), (2010.0, -0.01)]
_DROPPED_LOG = _DROPPED + [(2010.0, 1.0001e4), (2010.0, 0.999), (2010.0, 0.0),
                           (2010.0, -5.0)]
_KEPT_LINEAR = [(2000.0, 0.0), (2004.5, 12.5), (2011.25, 61.0), (2020.0, 100.0)]
_KEPT_LOG = [(2000.0, 1.0), (2004.5, 12.5), (2011.25, 610.0), (2020.0, 1e4)]


def _columns(pairs):
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _chart_of(kind, hi, pairs):
    lo = 0.0 if kind == "linear" else 1.0
    chart = Chart(kind, Axis("year", "linear", 2000, 2020), Axis("value", kind, lo, hi))
    chart.add_points(*_columns(pairs), "#111111", label="points")
    chart.add_line(*_columns(pairs[::-1]), "#222222", label="line", dashed=True)
    chart.add_points([], [], "#333333", label="no points")
    chart.add_line([], [], "#444444", label="no line")
    return chart


def test_dropped_points_stay_dropped():
    for kind, hi, kept, dropped in (("linear", 100.0, _KEPT_LINEAR, _DROPPED_LINEAR),
                                    ("log", 1e4, _KEPT_LOG, _DROPPED_LOG)):
        clean = render([_chart_of(kind, hi, kept)], kind)
        assert clean.count("<circle") == len(kept)
        # each dropped pair alone among in-range ones, where min and max of
        # the columns can still lie inside the axes, then all of them at once
        for pair in dropped:
            assert render([_chart_of(kind, hi, kept[:2] + [pair] + kept[2:])], kind) == clean
        mixed = dropped[:4] + kept[:2] + dropped[4:] + kept[2:] + dropped[::-1]
        assert render([_chart_of(kind, hi, mixed)], kind) == clean
        empty = render([_chart_of(kind, hi, [])], kind)
        assert render([_chart_of(kind, hi, dropped)], kind) == empty


def test_columns_of_unequal_length_are_refused():
    chart = Chart("c", Axis(), Axis())
    with pytest.raises(ValueError, match="2 x values but 1 y values"):
        chart.add_points([0.1, 0.2], [0.5], "#000000")
    with pytest.raises(ValueError, match="1 x values but 2 y values"):
        chart.add_line([0.1], [0.5, 0.6], "#000000")
    assert chart.elements == []


def _scale_reference(axis, values, a, b):
    """Axis.scale's expression with the axis constants and pixel ends left
    in the types they were given."""
    width = b - a
    if axis.kind == "log":
        lo = math.log10(axis.lo)
        span = math.log10(axis.hi) - lo
        return [a + ((math.log10(v) - lo) / span) * width for v in values]
    lo = axis.lo
    span = axis.hi - lo
    return [a + ((v - lo) / span) * width for v in values]


@st.composite
def _scale_cases(draw):
    kind = draw(st.sampled_from(("linear", "log")))
    if kind == "log":
        ends = st.one_of(st.integers(1, 10 ** 6), st.floats(1e-6, 1e12))
        values = st.floats(1e-9, 1e15)      # positive, inside the axis and out
    else:
        ends = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.floats(-1e9, 1e9))
        values = st.one_of(st.integers(-10 ** 9, 10 ** 9), st.floats(-1e12, 1e12))
    lo, hi = draw(ends), draw(ends)
    if not lo < hi:
        lo, hi = min(lo, hi), max(lo, hi) + 1
    inside = st.floats(float(lo), float(hi))
    pixels = st.integers(0, 2000)
    return (Axis("v", kind, lo, hi), draw(st.lists(st.one_of(values, inside), max_size=8)),
            draw(pixels), draw(pixels))


def _outcome(scale, *args):
    """The bits of each pixel, or the type of the exception raised."""
    try:
        return [v.hex() for v in scale(*args)]
    except ArithmeticError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(case=_scale_cases())
# log10 of the two ends is the same float: both divide by a zero span
@example(case=(Axis("v", "log", 1e-06, 1.0000000000000002e-06), [1e-06], 0, 1))
def test_scale_equals_the_mixed_type_expression(case):
    # int bounds and int pixel ends were converted inside every operation;
    # converting them once first must keep every pixel's bits
    axis, values, a, b = case
    assert _outcome(axis.scale, values, a, b) == _outcome(_scale_reference, axis, values, a, b)


@pytest.mark.parametrize("lo, hi", [(3.0, 3.0), (5.0, 1.0)])
def test_an_empty_tick_range_gets_its_low_end(lo, hi):
    assert _nice_ticks(lo, hi) == [lo]
