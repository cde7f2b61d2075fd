"""Report artifacts: the CSV tables, report.json, the plain-text discrepancy
table, and the writer that puts a set of them in place together."""

from __future__ import annotations

import os
from contextlib import suppress

from .config import FIGURE_IDS
from .errors import ConfigError
from .reportmodel import ClaimRow, CrossingEntry, ScenarioReport


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    text = str(v)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv(header, rows) -> str:
    return "\n".join(",".join(_csv_cell(c) for c in row)
                     for row in (header, *rows)) + "\n"


def crossings_csv(report: ScenarioReport) -> str:
    return _csv(CrossingEntry._fields, report.crossings)


def mixes_csv(report: ScenarioReport) -> str:
    from .scenario import MixEntry
    return _csv(("year", *MixEntry._fields),
                [(year, *e) for year, entries in report.mixes.items() for e in entries])


def budget_csv(report: ScenarioReport) -> str:
    rows = []
    for name, area in report.budget.areas.items():
        rows.append((f"area_{name}", area.required_area_km2, "km2"))
        rows.append((f"desert_fraction_{name}", area.desert_fraction, "fraction"))
    for name, entry in report.budget.potential_fractions.items():
        rows.append((f"fraction_{name}", entry.fraction, "fraction"))
        rows.append((f"times_over_{name}", entry.times_over, "ratio"))
    ode = report.budget.offshore_depth_extrapolation
    rows.append(("offshore_depth_extrapolated_potential",
                 ode.extrapolated_potential_twh_per_year, "TWh_per_year"))
    return _csv(("name", "value", "unit"), rows)


def discrepancies_csv(report: ScenarioReport) -> str:
    from .resourcebudget import DiscrepancyRow
    return _csv(DiscrepancyRow._fields, report.discrepancies)


def claims_csv(report: ScenarioReport) -> str:
    return _csv(ClaimRow._fields, report.claims)


def emit_discrepancies(rows) -> str:
    """Plain-text discrepancy table, one row per stated literal, in the order
    given (the report sorts them by |relative deviation| descending). Values
    keep full precision so every number shown also exists in the
    machine-readable output."""
    from .resourcebudget import DiscrepancyRow
    header = DiscrepancyRow._fields[:4]     # all but the citation
    widths = [44, 24, 24, 24]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for d in rows:
        cells = (d.name, repr(d.stated), repr(d.computed),
                 repr(d.relative_deviation))
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"


def report_json(report: ScenarioReport) -> str:
    return json_text(report.to_dict()) + "\n"


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, allow_nan=False), byte for byte, for what
    ScenarioReport.to_dict holds: dicts with str keys, lists, str, finite
    float, int, bool and None. A tuple, a key that is no str or any other
    type raises TypeError, and a nan or infinite float ValueError. One join
    per container instead of json's pure-Python indenting encoder; json is
    imported on the first call only."""
    from json.encoder import encode_basestring_ascii as quote     # TypeError on a non-str

    def text(obj, indent):
        inner = indent + "  "
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            items = [quote(k) + ": "
                     + (float.__repr__(v) if type(v) is float and v - v == 0.0
                        else quote(v) if type(v) is str else text(v, inner))
                     for k, v in obj.items()]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
        if isinstance(obj, list):
            if not obj:
                return "[]"
            items = [float.__repr__(v) if type(v) is float and v - v == 0.0
                     else text(v, inner) for v in obj]
            return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
        if isinstance(obj, str):
            return quote(obj)
        if isinstance(obj, float):
            if obj - obj == 0.0:
                return float.__repr__(obj)
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        if obj is None or obj is True or obj is False:      # bools before ints
            return "null" if obj is None else "true" if obj else "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    return text(obj, "")


def write_artifacts(out_dir, artifacts) -> list:
    """Write (file name, text) pairs into out_dir; returns the written paths as str.

    Each text goes to a hidden sibling of its file as the iterable yields
    it, and the siblings replace their files only once every text is
    written. If anything fails first, the siblings are removed and out_dir
    keeps exactly the files it held before the call.

    Raises ConfigError when the directory or a file cannot be written.
    """
    staged = []     # (sibling, file) pairs
    try:
        os.makedirs(out_dir or ".", exist_ok=True)     # "" names the working directory
        for name, text in artifacts:
            path = os.path.join(out_dir, name)
            if os.path.isdir(path):
                # os.replace cannot put a file there, and would fail only
                # after the earlier files had been replaced
                raise IsADirectoryError(f"{path} is a directory")
            sibling = os.path.join(out_dir, f".{name}.tmp")
            staged.append((sibling, path))
            with open(sibling, "w", encoding="utf-8") as f:
                f.write(text)
        for sibling, path in staged:
            os.replace(sibling, path)
    except BaseException as exc:
        for sibling, _ in staged:
            with suppress(FileNotFoundError):
                os.unlink(sibling)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write to {out_dir}: {exc}") from None
        raise
    return [path for _, path in staged]


def write_outputs(report: ScenarioReport, out_dir) -> list:
    """Write every artifact; returns the written paths."""
    from .figures import emit_figure

    def artifacts():
        yield "report.json", report_json(report)
        yield "crossings.csv", crossings_csv(report)
        yield "mixes.csv", mixes_csv(report)
        yield "budget.csv", budget_csv(report)
        yield "discrepancies.csv", discrepancies_csv(report)
        yield "claims.csv", claims_csv(report)
        yield "discrepancies.txt", emit_discrepancies(report.discrepancies)
        for fig_id in FIGURE_IDS:
            yield f"{fig_id}.svg", emit_figure(report, fig_id)

    return write_artifacts(out_dir, artifacts())

