"""The default scenario pinned to captured bytes.

`golden_default.json` holds the 28 default crossings as exact float reprs and
the sha256 of every default artifact. Any change that moves a crossing year
or an artifact byte fails here. Regenerate the fixture, only for a change
that is meant to move them, with:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import renewcast as rc

GOLDEN = pathlib.Path(__file__).with_name("golden_default.json")


def _snapshot(report, out_dir):
    rc.write_outputs(report, out_dir)
    out = pathlib.Path(out_dir)
    return {
        "crossings": [[e.threshold, e.combination, e.wind_treatment, e.status,
                       repr(e.year)] for e in report.crossings],
        "artifacts": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(out.iterdir())},
    }


def test_default_crossings_and_artifacts_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    snap = _snapshot(rc.run_scenario(rc.ScenarioConfig()), tmp_path)
    assert len(golden["crossings"]) == 28
    assert len(golden["artifacts"]) == 17
    assert snap["crossings"] == golden["crossings"]
    assert snap["artifacts"] == golden["artifacts"]


# Two configs away from the defaults: A moves every capacity factor, the
# wind treatment, the hydro degree, the mix years and the thresholds; B's
# cubic hydro sends every projection with hydro to the lattice scan.
_CONFIG_A = """wind_treatment = piecewise
cf_pv = 0.2
cf_wind = 0.3
cf_hydro = 0.4
hydro_degree = 1
mix_years = 2024, 2031.5
thresholds = primary_fig5, electric_2030
"""
_CONFIG_B = """wind_treatment = rebound
horizon = 2100
hydro_degree = 3
"""
# sha256 of the sorted 'config/name  sha256' lines of both configs' artifacts
_NON_DEFAULT_SHA256 = "e1dd252336f69cc286c6b7588f20cc4f1d1e0e77d4e6254e65c6770ad3aafaeb"


def test_non_default_configs_match_pinned_bytes(tmp_path):
    lines = []
    for label, text in (("a", _CONFIG_A), ("b", _CONFIG_B)):
        path = tmp_path / f"{label}.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / label
        rc.write_outputs(rc.run_scenario(rc.parse_config(path)), out)
        files = sorted(out.iterdir())
        assert len(files) == 17
        lines += [f"{label}/{p.name}  {hashlib.sha256(p.read_bytes()).hexdigest()}"
                  for p in files]
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    assert digest == _NON_DEFAULT_SHA256


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        snap = _snapshot(rc.run_scenario(rc.ScenarioConfig()), tmp)
    rows = ",\n  ".join(json.dumps(row) for row in snap["crossings"])
    digests = ",\n  ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                            for k, v in snap["artifacts"].items())
    GOLDEN.write_text(f'{{"crossings": [\n  {rows}\n ],\n "artifacts": {{\n  {digests}\n }}\n}}\n',
                      encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
