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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        snap = _snapshot(rc.run_scenario(rc.ScenarioConfig()), tmp)
    rows = ",\n  ".join(json.dumps(row) for row in snap["crossings"])
    digests = ",\n  ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                            for k, v in snap["artifacts"].items())
    GOLDEN.write_text(f'{{"crossings": [\n  {rows}\n ],\n "artifacts": {{\n  {digests}\n }}\n}}\n',
                      encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
