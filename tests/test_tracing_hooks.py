"""The benchmark's tracer (perfbench/tracing.py) wraps renewcast functions by
module and name, and its counters read some of their parameters by name.
Renaming or deleting any of them must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
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
    # exact sizes of the default report: a miscount (say, of a series
    # stored as a pair of columns) shows here, not only in a benchmark run
    exact = {"scenario.crossings": 28, "corpus.rows": 128, "growthfit.points": 134,
             "svgchart.points": 1250, "genconvert.calls": 22}
    assert {name: counters.counts[name] for name in exact} == exact


# The traced cli_mix run imports only these before it installs the tracer,
# then runs a warm-up op; every module the tracer patches must be loaded by
# then, and nothing may be imported while the patches are in place.
_BENCHMARK_IMPORTS = '''
import importlib.util, sys
import renewcast
from renewcast import cli, report
out = sys.argv[1]
assert cli.main(["--out", out, "fit", "pv"]) == 0
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


def program_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "renewcast" or name.startswith("renewcast.")}


loaded = set(program_modules())
spans = tracing.SpanRecorder()
with spans.install():
    assert cli.main(["--out", out, "report"]) == 0
assert {tracing.LAYER_OF[span[0]] for span in spans.spans} == set(tracing.SPAN_LAYERS)
counters = tracing.Counters()
with counters.install():
    assert cli.main(["--out", out, "report"]) == 0
assert counters.counts["scenario.crossings"] == 28
assert set(program_modules()) == loaded
left = [f"{name}.{key}" for name, mod in program_modules().items()
        for key, value in vars(mod).items() if hasattr(value, "__wrapped__")]
assert not left, left
print("ok")
'''


def test_tracer_installs_under_the_benchmark_imports(tmp_path):
    src = Path(renewcast.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", _BENCHMARK_IMPORTS, str(tmp_path), str(TRACING)],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
