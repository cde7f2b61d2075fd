"""Spans and counters recorded from outside the program.

The benchmark wraps public functions of the renewcast modules for the
duration of a traced op and restores them afterwards; the program itself
is not edited. Two separate passes keep the timings honest:

* the span pass wraps the layer boundaries (tens of calls per op) and
  records (name, start, end, parent span, op id) in memory;
* the counter pass wraps the hot path as well (``CombinedProjection.value``,
  ``extrapolate``, ``generation_capability``: tens of thousands of calls
  per op) with counting wrappers whose cost would distort the span times.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# layer -> (module, public function) pairs whose calls become spans
SPAN_LAYERS = {
    "corpus.load": (("report", "load_series"), ("corpus", "load_bundled"),
                    ("corpus", "load_capacity_series")),
    "growthfit.fit": (("growthfit", "fit_exponential"), ("growthfit", "fit_polynomial"),
                      ("growthfit", "residual_signs")),
    "growthfit.changepoint": (("growthfit", "detect_changepoint"),),
    "scenario.crossing": (("scenario", "crossing_year"), ("scenario", "combine"),
                          ("scenario", "pv_wind_generation_crossover")),
    "scenario.mix": (("scenario", "mix_at_year"),),
    "learncurve.fit": tuple(("learncurve", f) for f in (
        "cost_series", "join_cost_to_generation", "fit_learning_curve",
        "learning_rate", "cost_at", "curve_crossing", "fit_time_decay")),
    "resourcebudget.budget": tuple(("resourcebudget", f) for f in (
        "area_budget", "pv_area_required", "desert_fraction", "potential_fraction",
        "offshore_depth_extrapolation", "load_offshore_depth_fixture",
        "appendix_discrepancies")),
    "report.pipeline": (("report", "run_scenario"), ("report", "parse_config")),
    "report.tables": tuple(("report", f) for f in (
        "report_json", "crossings_csv", "mixes_csv", "budget_csv",
        "discrepancies_csv", "claims_csv", "emit_discrepancies")),
    "report.figures": (("report", "emit_figure"),),
    "report.write": (("report", "write_outputs"),),
    "svgchart.render": (("svgchart", "render"),),
}
LAYER_OF = {f"{owner}.{attr}": layer
            for layer, targets in SPAN_LAYERS.items() for owner, attr in targets}
OP_SPAN = "op"


def _module(name: str):
    return sys.modules[f"renewcast.{name}"]


class Patch:
    """Replace functions by wrappers in every renewcast module that holds
    them (``from .x import f`` copies the reference), and undo it."""

    def __init__(self):
        self._undo = []

    def function(self, owner: str, attr: str, make_wrapper):
        original = getattr(_module(owner), attr)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name != "renewcast" and not name.startswith("renewcast."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def method(self, cls, attr: str, make_wrapper):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()


class SpanRecorder:
    """In-memory spans: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span, start, end):
        self._stack.pop()
        span[1], span[2] = start, end

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span, start, perf_counter())
        return wrapper

    def op(self, op_id, fn, *args):
        """Run one op as a root span; returns (result, wall seconds)."""
        self.op_id = op_id
        span = self._open(OP_SPAN)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            self._close(span, start, end)
        return result, end - start

    def install(self) -> Patch:
        patch = Patch()
        for name in LAYER_OF:
            owner, attr = name.split(".")
            patch.function(owner, attr, lambda fn, name=name: self.wrap(name, fn))
        return patch

    def self_times(self) -> dict:
        """op id -> {layer: summed self seconds}, root op span under OP_SPAN."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, op_id) in enumerate(self.spans):
            layer = OP_SPAN if name == OP_SPAN else LAYER_OF[name]
            per_op = out.setdefault(op_id, {})
            per_op[layer] = per_op.get(layer, 0.0) + (end - start) - child[i]
        return out


class Counters:
    """Call and size counts for one op, from counting wrappers."""

    NAMES = ("scenario.crossings", "scenario.value_calls", "scenario.extrapolate_calls",
             "genconvert.calls", "corpus.rows", "growthfit.points", "svgchart.points")

    def __init__(self):
        self.counts = dict.fromkeys(self.NAMES, 0)

    def _counting(self, key, size=None):
        def make(fn):
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if size is None:
                    self.counts[key] += 1
                    return fn(*args, **kwargs)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                result = fn(*bound.args, **bound.kwargs)
                self.counts[key] += size(bound.arguments, result)
                return result
            return wrapper
        return make

    def install(self) -> Patch:
        from renewcast import scenario

        patch = Patch()
        patch.function("scenario", "crossing_year", self._counting("scenario.crossings"))
        patch.method(scenario.CombinedProjection, "value",
                     self._counting("scenario.value_calls"))
        patch.function("growthfit", "extrapolate",
                       self._counting("scenario.extrapolate_calls"))
        for attr in ("generation_capability", "power_required", "series_to_generation"):
            patch.function("genconvert", attr, self._counting("genconvert.calls"))
        patch.function("corpus", "load_capacity_series", self._counting(
            "corpus.rows", lambda args, series: len(series.samples)))
        for attr in ("fit_exponential", "fit_polynomial", "detect_changepoint"):
            patch.function("growthfit", attr, self._counting(
                "growthfit.points", _window_points))
        patch.function("svgchart", "render", self._counting(
            "svgchart.points", _plotted_points))
        return patch


def _window_points(args, _result) -> int:
    lo, hi = args["window"] if args["window"] is not None else (None, None)
    return sum(1 for year, _ in args["series"].samples
               if (lo is None or year >= lo) and (hi is None or year <= hi))


def _plotted_points(args, _result) -> int:
    # render() has already drawn the charts; their elements are still there
    return sum(len(el[1]) for chart in args["charts"] for el in chart.elements
               if el[0] in ("points", "line"))
