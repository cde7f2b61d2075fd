"""Small deterministic SVG chart writer (linear and log10 axes).

Hand-rolled on purpose: output must be byte-identical across runs, so no
plotting library with embedded ids or timestamps. Every element is one
%-template filled from one tuple: %.2f for each coordinate, %s for
XML-escaped text and for colours.
"""

from __future__ import annotations

import math
from typing import NamedTuple


def escape(text: str) -> str:
    """Escape &, < and > for SVG text content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float):
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5         # at most six ticks
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


def _columns(xs, ys):
    """The x and y columns of a plotted series as lists of equal length."""
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x values but {len(ys)} y values")
    return xs, ys


class Axis(NamedTuple):
    label: str = ""
    kind: str = "linear"          # linear | log
    lo: float = 0.0
    hi: float = 1.0

    def scale(self, values, a: float, b: float) -> list:
        """Map data values onto pixel range [a, b] in one list pass.

        The axis constants are computed and made float once; each value
        takes a + ((v - lo) / span) * (b - a), in log10 space for a log
        axis. Python would make int constants float inside every operation
        anyway, so the pixels are the same.
        """
        a, width = float(a), float(b - a)
        if self.kind == "log":
            lo = math.log10(self.lo)
            span = math.log10(self.hi) - lo
            log10 = math.log10
            return [a + ((log10(v) - lo) / span) * width for v in values]
        lo, span = float(self.lo), float(self.hi - self.lo)
        return [a + ((v - lo) / span) * width for v in values]

    def ticks(self) -> list:
        """The decade or nice ticks that lie inside [lo, hi]."""
        ticks = _decade_ticks(self.lo, self.hi) if self.kind == "log" \
            else _nice_ticks(self.lo, self.hi)
        return [t for t in ticks if self.lo <= t <= self.hi]


class Chart:
    def __init__(self, title: str, x: Axis, y: Axis, width: int = 560, height: int = 420):
        self.title, self.x, self.y = title, x, y
        self.width, self.height = width, height
        self.elements = []      # (kind, x column or value, ...) in drawing order

    def add_points(self, xs, ys, color, label=""):
        self.elements.append(("points", *_columns(xs, ys), color, label))

    def add_line(self, xs, ys, color, label="", dashed=False):
        self.elements.append(("line", *_columns(xs, ys), color, label, dashed))

    def add_hline(self, value, label):
        self.elements.append(("hline", value, label))

    def add_vline(self, value, label):
        self.elements.append(("vline", value, label))

    def add_marker(self, vx, vy, label):
        self.elements.append(("marker", vx, vy, label))

    def _clip(self, xs, ys, x0, x1, y0, y1):
        """Pixel coordinates x, y, x, y, ... of the points inside both axis ranges.

        A series that lies wholly inside (min and max within the axes and a
        finite sum, so no nan or inf) is scaled as it is; any other is
        filtered point by point first.
        """
        xlo, xhi, ylo, yhi = self.x.lo, self.x.hi, self.y.lo, self.y.hi
        if not (xs and xlo <= min(xs) and max(xs) <= xhi and ylo <= min(ys)
                and max(ys) <= yhi and math.isfinite(sum(xs) + sum(ys))):
            kept = [p for p in zip(xs, ys) if xlo <= p[0] <= xhi and ylo <= p[1] <= yhi]
            xs, ys = [p[0] for p in kept], [p[1] for p in kept]
        flat = [0.0] * (2 * len(xs))
        flat[::2] = self.x.scale(xs, x0, x1)
        flat[1::2] = self.y.scale(ys, y0, y1)
        return tuple(flat)

    def render_group(self, dx) -> list:
        """The SVG element strings of this chart, shifted right by dx pixels."""
        top, right, bottom, left = 46, 16, 40, 78       # margins
        x0, x1, y0, y1 = left, self.width - right, self.height - bottom, top  # y0 is the bottom
        x_mid, y_mid = (x0 + x1) / 2, (y0 + y1) / 2
        parts = ['<g transform="translate(%.2f,0)" font-family="sans-serif">' % (dx,),
                 '<text x="%.2f" y="20" text-anchor="middle" font-size="13" '
                 'font-weight="bold">%s</text>' % (x_mid, escape(self.title)),
                 # frame
                 '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="none" '
                 'stroke="#222222" stroke-width="1"/>' % (x0, y1, x1 - x0, y0 - y1)]
        # ticks + grid
        tick = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="1"/>'
        ticks = self.x.ticks()
        for t, px in zip(ticks, self.x.scale(ticks, x0, x1)):
            parts.append(tick % (px, y0, px, y0 + 4, "#222222"))
            parts.append('<text x="%.2f" y="%.2f" text-anchor="middle" font-size="10">%s</text>'
                         % (px, y0 + 16, escape(_tick_label(t))))
        ticks = self.y.ticks()
        for t, py in zip(ticks, self.y.scale(ticks, y0, y1)):
            parts.append(tick % (x0 - 4, py, x0, py, "#222222"))
            parts.append(tick % (x0, py, x1, py, "#eeeeee"))
            parts.append('<text x="%.2f" y="%.2f" text-anchor="end" font-size="10">%s</text>'
                         % (x0 - 7, py + 3, escape(_tick_label(t))))
        # axis labels
        parts.append('<text x="%.2f" y="%.2f" text-anchor="middle" font-size="11">%s</text>'
                     % (x_mid, self.height - 8, escape(self.x.label)))
        parts.append('<text x="14" y="%.2f" text-anchor="middle" font-size="11" '
                     'transform="rotate(-90 14 %.2f)">%s</text>'
                     % (y_mid, y_mid, escape(self.y.label)))

        legend_y = y1 + 12
        for el in self.elements:
            kind = el[0]
            if kind == "points":
                _, xs, ys, color, label = el
                # the hottest path: the template of one circle, repeated,
                # takes the whole flat coordinate tuple in one call
                circle = '<circle cx="%%.2f" cy="%%.2f" r="3.00" fill="%s"/>' % (color,)
                flat = self._clip(xs, ys, x0, x1, y0, y1)
                if flat:
                    parts.append("\n".join([circle] * (len(flat) // 2)) % flat)
            elif kind == "line":
                _, xs, ys, color, label, dashed = el
                flat = self._clip(xs, ys, x0, x1, y0, y1)
                points = " ".join(["%.2f,%.2f"] * (len(flat) // 2)) % flat
                parts.append('<polyline points="%s" fill="none" stroke="%s" '
                             'stroke-width="1.60"%s/>'
                             % (points, color, ' stroke-dasharray="6 4"' if dashed else ""))
            elif kind in ("hline", "vline"):
                _, value, label = el
                if kind == "hline":
                    (py,) = self.y.scale((value,), y0, y1)
                    ends, at = (x0, py, x1, py), (x0 + 5, py - 4)
                else:
                    (px,) = self.x.scale((value,), x0, x1)
                    ends, at = (px, y0, px, y1), (px + 4, y1 + 12)
                parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#777777" '
                             'stroke-width="1.2" stroke-dasharray="3 3"/>' % ends)
                parts.append('<text x="%.2f" y="%.2f" font-size="10" fill="#777777">%s</text>'
                             % (*at, escape(label)))
            elif kind == "marker":
                _, vx, vy, label = el
                (px,), (py,) = self.x.scale((vx,), x0, x1), self.y.scale((vy,), y0, y1)
                parts.append('<circle cx="%.2f" cy="%.2f" r="5" fill="none" stroke="#c53030" '
                             'stroke-width="2"/>' % (px, py))
                parts.append('<text x="%.2f" y="%.2f" font-size="10" fill="#c53030">%s</text>'
                             % (px + 8, py - 6, escape(label)))
        # legend for labelled series
        for el in self.elements:
            if el[0] in ("points", "line") and el[4]:
                parts.append('<rect x="%.2f" y="%.2f" width="10" height="10" fill="%s"/>'
                             % (x1 - 150, legend_y - 8, el[3]))
                parts.append('<text x="%.2f" y="%.2f" font-size="10">%s</text>'
                             % (x1 - 136, legend_y + 1, escape(el[4])))
                legend_y += 14
        parts.append("</g>")
        return parts


def render(charts, title) -> str:
    """Compose one or more charts side by side into a standalone SVG."""
    charts = list(charts)
    width = sum(c.width for c in charts)
    height = max(c.height for c in charts)
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
             'viewBox="0 0 %s %s">' % (width, height, width, height),
             '<desc>%s</desc>' % (escape(title),),
             '<rect width="100%" height="100%" fill="#ffffff"/>']
    dx = 0.0
    for c in charts:
        parts += c.render_group(dx)
        dx += c.width
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
