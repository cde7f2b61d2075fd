"""The benchmark's tracer (perfbench/tracing.py) wraps renewcast functions by
module and name, and its counters read some of their parameters by name.
Renaming or deleting any of them must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import renewcast
from renewcast import report

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _full_run(out):
    report.write_outputs(report.run_scenario(report.ScenarioConfig()), out)


def test_tracing_hooks_resolve(tmp_path):
    for info in pkgutil.iter_modules(renewcast.__path__):
        importlib.import_module(f"renewcast.{info.name}")
    tracing = _load_tracing()
    run_scenario = report.run_scenario

    spans = tracing.SpanRecorder()
    with spans.install():
        assert report.run_scenario is not run_scenario
        _full_run(tmp_path / "spans")
    assert {tracing.LAYER_OF[span[0]] for span in spans.spans} == set(tracing.SPAN_LAYERS)

    counters = tracing.Counters()
    with counters.install():
        _full_run(tmp_path / "counters")
    assert report.run_scenario is run_scenario
    assert counters.counts["scenario.crossings"] == 28
    for sized in ("corpus.rows", "growthfit.points", "svgchart.points"):
        assert counters.counts[sized] > 0
