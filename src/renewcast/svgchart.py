"""Small deterministic SVG chart writer (linear and log10 axes).

Hand-rolled on purpose: output must be byte-identical across runs, so no
plotting library with embedded ids or timestamps. Coordinates are formatted
to fixed precision; text is XML-escaped.
"""

from __future__ import annotations

import html
import math
from typing import NamedTuple


def escape(text: str) -> str:
    """Escape &, < and > for SVG text content."""
    return html.escape(text, quote=False)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, max_ticks: int = 6):
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(1, max_ticks - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _decade_ticks(lo: float, hi: float):
    lo_k = math.floor(math.log10(lo))
    hi_k = math.ceil(math.log10(hi))
    return [10.0 ** k for k in range(lo_k, hi_k + 1)]


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.0e}".replace("e+0", "e").replace("e+", "e").replace("e-0", "e-")
    return f"{v:g}"


class Axis(NamedTuple):
    label: str = ""
    kind: str = "linear"          # linear | log
    lo: float = 0.0
    hi: float = 1.0

    def scale(self, values, a: float, b: float) -> list:
        """Map data values onto pixel range [a, b] in one list pass.

        The axis constants are computed once; each value takes
        a + ((v - lo) / span) * (b - a), in log10 space for a log axis.
        """
        width = b - a
        if self.kind == "log":
            lo = math.log10(self.lo)
            span = math.log10(self.hi) - lo
            log10 = math.log10
            return [a + ((log10(v) - lo) / span) * width for v in values]
        lo = self.lo
        span = self.hi - lo
        return [a + ((v - lo) / span) * width for v in values]

    def ticks(self):
        return _decade_ticks(self.lo, self.hi) if self.kind == "log" \
            else _nice_ticks(self.lo, self.hi)


class Chart:
    def __init__(self, title: str, x: Axis, y: Axis, width: int = 560, height: int = 420,
                 margin: tuple = (46, 16, 40, 78), elements: list | None = None):
        self.title = title
        self.x = x
        self.y = y
        self.width = width
        self.height = height
        self.margin = margin    # top, right, bottom, left
        self.elements = [] if elements is None else elements

    def add_points(self, xs, ys, color, label="", radius=3.0):
        self.elements.append(("points", list(zip(xs, ys)), color, label, radius))

    def add_line(self, xs, ys, color, label="", dashed=False, width=1.6):
        self.elements.append(("line", list(zip(xs, ys)), color, label, dashed, width))

    def add_hline(self, value, label, color="#777777"):
        self.elements.append(("hline", value, label, color))

    def add_vline(self, value, label, color="#777777"):
        self.elements.append(("vline", value, label, color))

    def add_marker(self, vx, vy, label, color="#c53030"):
        self.elements.append(("marker", vx, vy, label, color))

    def _clip(self, pairs, x0, x1, y0, y1):
        """Pixel (x, y) pairs of the data pairs inside both axis ranges."""
        xlo, xhi, ylo, yhi = self.x.lo, self.x.hi, self.y.lo, self.y.hi
        kept = [p for p in pairs if xlo <= p[0] <= xhi and ylo <= p[1] <= yhi]
        return zip(self.x.scale([p[0] for p in kept], x0, x1),
                   self.y.scale([p[1] for p in kept], y0, y1))

    def render_group(self, dx=0.0) -> str:
        top, right, bottom, left = self.margin
        x0, x1, y0, y1 = left, self.width - right, self.height - bottom, top  # y0 is the bottom
        parts = [f'<g transform="translate({_fmt(dx)},0)" font-family="sans-serif">']
        parts.append(
            f'<text x="{_fmt((x0 + x1) / 2)}" y="20" text-anchor="middle" '
            f'font-size="13" font-weight="bold">{escape(self.title)}</text>'
        )
        # frame
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y0 - y1)}" fill="none" stroke="#222222" stroke-width="1"/>'
        )
        # ticks + grid
        ticks = [t for t in self.x.ticks() if self.x.lo <= t <= self.x.hi]
        for t, px in zip(ticks, self.x.scale(ticks, x0, x1)):
            parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" '
                         f'y2="{_fmt(y0 + 4)}" stroke="#222222" stroke-width="1"/>')
            parts.append(f'<text x="{_fmt(px)}" y="{_fmt(y0 + 16)}" text-anchor="middle" '
                         f'font-size="10">{escape(_tick_label(t))}</text>')
        ticks = [t for t in self.y.ticks() if self.y.lo <= t <= self.y.hi]
        for t, py in zip(ticks, self.y.scale(ticks, y0, y1)):
            parts.append(f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" '
                         f'y2="{_fmt(py)}" stroke="#222222" stroke-width="1"/>')
            parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(py)}" x2="{_fmt(x1)}" '
                         f'y2="{_fmt(py)}" stroke="#eeeeee" stroke-width="1"/>')
            parts.append(f'<text x="{_fmt(x0 - 7)}" y="{_fmt(py + 3)}" text-anchor="end" '
                         f'font-size="10">{escape(_tick_label(t))}</text>')
        # axis labels
        parts.append(f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(self.height - 8)}" '
                     f'text-anchor="middle" font-size="11">{escape(self.x.label)}</text>')
        parts.append(f'<text x="14" y="{_fmt((y0 + y1) / 2)}" text-anchor="middle" '
                     f'font-size="11" transform="rotate(-90 14 {_fmt((y0 + y1) / 2)})">'
                     f'{escape(self.y.label)}</text>')

        legend_y = y1 + 12
        for el in self.elements:
            kind = el[0]
            if kind == "points":
                _, pairs, color, label, radius = el
                # the hottest loop: one %-format per point, _fmt's spec inlined
                circle = f'<circle cx="%.2f" cy="%.2f" r="{_fmt(radius)}" fill="{color}"/>'
                parts.extend(map(circle.__mod__, self._clip(pairs, x0, x1, y0, y1)))
            elif kind == "line":
                _, pairs, color, label, dashed, width = el
                pts = " ".join(map("%.2f,%.2f".__mod__,
                                   self._clip(pairs, x0, x1, y0, y1)))
                dash = ' stroke-dasharray="6 4"' if dashed else ""
                parts.append(f'<polyline points="{pts}" fill="none" '
                             f'stroke="{color}" stroke-width="{_fmt(width)}"{dash}/>')
            elif kind == "hline":
                _, value, label, color = el
                (py,) = self.y.scale((value,), y0, y1)
                parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(py)}" x2="{_fmt(x1)}" '
                             f'y2="{_fmt(py)}" stroke="{color}" stroke-width="1.2" '
                             f'stroke-dasharray="3 3"/>')
                parts.append(f'<text x="{_fmt(x0 + 5)}" y="{_fmt(py - 4)}" '
                             f'font-size="10" fill="{color}">{escape(label)}</text>')
            elif kind == "vline":
                _, value, label, color = el
                (px,) = self.x.scale((value,), x0, x1)
                parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" '
                             f'y2="{_fmt(y1)}" stroke="{color}" stroke-width="1.2" '
                             f'stroke-dasharray="3 3"/>')
                parts.append(f'<text x="{_fmt(px + 4)}" y="{_fmt(y1 + 12)}" '
                             f'font-size="10" fill="{color}">{escape(label)}</text>')
            elif kind == "marker":
                _, vx, vy, label, color = el
                (px,), (py,) = self.x.scale((vx,), x0, x1), self.y.scale((vy,), y0, y1)
                parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="5" '
                             f'fill="none" stroke="{color}" stroke-width="2"/>')
                parts.append(f'<text x="{_fmt(px + 8)}" y="{_fmt(py - 6)}" '
                             f'font-size="10" fill="{color}">{escape(label)}</text>')
        # legend for labelled series
        for el in self.elements:
            if el[0] in ("points", "line") and el[3]:
                color = el[2]
                parts.append(f'<rect x="{_fmt(x1 - 150)}" y="{_fmt(legend_y - 8)}" '
                             f'width="10" height="10" fill="{color}"/>')
                parts.append(f'<text x="{_fmt(x1 - 136)}" y="{_fmt(legend_y + 1)}" '
                             f'font-size="10">{escape(el[3])}</text>')
                legend_y += 14
        parts.append("</g>")
        return "\n".join(parts)


def render(charts, title="") -> str:
    """Compose one or more charts side by side into a standalone SVG."""
    charts = list(charts)
    width = sum(c.width for c in charts)
    height = max(c.height for c in charts)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<desc>{escape(title)}</desc>' if title else "<desc/>",
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    dx = 0.0
    for c in charts:
        parts.append(c.render_group(dx))
        dx += c.width
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
