"""Report artifacts: the CSV tables, report.json, the plain-text discrepancy
table, and the writer that puts a set of them in place together."""

from __future__ import annotations

import os
from pathlib import Path

from .config import FIGURE_IDS
from .errors import OutputUnwritable
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


def _rows_csv(row_type, rows) -> str:
    """One column per field of row_type, headed by the field's name."""
    return _csv(row_type._fields, rows)


def crossings_csv(report: ScenarioReport) -> str:
    return _rows_csv(CrossingEntry, report.crossings)


def mixes_csv(report: ScenarioReport) -> str:
    from .scenario import MixEntry
    return _csv(("year", *MixEntry._fields),
                [(year, *e) for year, entries in report.mixes.items() for e in entries])


def budget_csv(report: ScenarioReport) -> str:
    rows = []
    for name, area in report.budget["areas"].items():
        rows.append((f"area_{name}", area.required_area_km2, "km2"))
        rows.append((f"desert_fraction_{name}", area.desert_fraction, "fraction"))
    for name, entry in report.budget["potential_fractions"].items():
        rows.append((f"fraction_{name}", entry["fraction"], "fraction"))
        rows.append((f"times_over_{name}", entry["times_over"], "ratio"))
    ode = report.budget["offshore_depth_extrapolation"]
    rows.append(("offshore_depth_extrapolated_potential",
                 ode["extrapolated_potential_twh_per_year"], "TWh_per_year"))
    return _csv(("name", "value", "unit"), rows)


def discrepancies_csv(report: ScenarioReport) -> str:
    from .resourcebudget import DiscrepancyRow
    return _rows_csv(DiscrepancyRow, report.discrepancies)


def claims_csv(report: ScenarioReport) -> str:
    return _rows_csv(ClaimRow, report.claims)


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
    import json
    return json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"


def write_artifacts(out_dir, artifacts) -> list:
    """Write (file name, text) pairs into out_dir; returns the written paths.

    Each text goes to a hidden sibling of its file as the iterable yields
    it, and the siblings replace their files only once every text is
    written. If anything fails first, the siblings are removed and out_dir
    keeps exactly the files it held before the call.

    Raises OutputUnwritable when the directory or a file cannot be written.
    """
    out = Path(out_dir)
    staged = []     # (sibling, file) pairs
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts:
            path = out / name
            if path.is_dir():
                # os.replace cannot put a file there, and would fail only
                # after the earlier files had been replaced
                raise IsADirectoryError(f"{path} is a directory")
            sibling = out / f".{name}.tmp"
            staged.append((sibling, path))
            sibling.write_text(text, encoding="utf-8")
        for sibling, path in staged:
            os.replace(sibling, path)
    except BaseException as exc:
        for sibling, _ in staged:
            sibling.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OutputUnwritable(f"cannot write to {out_dir}: {exc}") from None
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

