"""Suite output: per-scenario report files, a manifest, and one
human-readable ``results_summary.md``.

Layout under the output directory::

    manifest.json                 run-level index (axes, ids, skips)
    reports/<scenario id>.json    one validated ScenarioReport per cell
    results_summary.md            tables + ASCII plots across all cells

Scenario ids use ``/`` as the axis separator, which becomes ``__`` in
file names so reports stay flat under ``reports/``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

from repro.eval.plots import bar_chart, line_plot
from repro.eval.reporting import render_markdown_table
from repro.suite.grid import SkippedScenario
from repro.suite.schema import SCHEMA_VERSION, validate_report

__all__ = ["report_filename", "write_reports"]


def report_filename(scenario_id: str) -> str:
    return scenario_id.replace("/", "__") + ".json"


def write_reports(
    output_dir,
    reports: Sequence[Dict],
    skipped: Sequence[SkippedScenario] = (),
    axes: Dict[str, Sequence[str]] = None,
) -> Path:
    """Write the full suite output tree; returns the manifest path.

    Every report is re-validated before anything touches disk — a
    schema-invalid report aborts the whole write rather than leaving a
    partially trustworthy results directory.
    """
    output_dir = Path(output_dir)
    errors: List[str] = []
    for report in reports:
        for error in validate_report(report):
            errors.append(f"{report.get('scenario_id', '<unknown>')}: {error}")
    if errors:
        raise RuntimeError(
            "refusing to write schema-invalid reports:\n  "
            + "\n  ".join(errors)
        )

    reports_dir = output_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "axes": {axis: list(values) for axis, values in (axes or {}).items()},
        "scenarios": [r["scenario_id"] for r in reports],
        "reports": {},
        "skipped": [
            {"scenario_id": s.scenario_id, "reason": s.reason}
            for s in skipped
        ],
    }
    for report in reports:
        name = report_filename(report["scenario_id"])
        (reports_dir / name).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        manifest["reports"][report["scenario_id"]] = f"reports/{name}"

    manifest_path = output_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    (output_dir / "results_summary.md").write_text(
        render_summary(reports, skipped)
    )
    return manifest_path


def render_summary(
    reports: Sequence[Dict],
    skipped: Sequence[SkippedScenario] = (),
) -> str:
    """The combined ``results_summary.md`` body."""
    lines = ["# Scenario suite results", ""]
    if not reports:
        lines.append("No scenarios ran.")
        return "\n".join(lines) + "\n"

    by_workload: Dict[str, List[Dict]] = {}
    for report in reports:
        by_workload.setdefault(report["config"]["workload"], []).append(report)

    for workload, group in sorted(by_workload.items()):
        lines.append(f"## {workload}")
        lines.append("")
        rows = []
        for report in group:
            config = report["config"]
            metrics = report["metrics"]
            rows.append([
                config["attack"], config["defense"], config["corruption"],
                metrics["auc"], metrics["tpr_at_fpr"],
                metrics["accuracy"],
                float(report["timing"]["samples_per_sec"]),
            ])
        lines.append(render_markdown_table(
            ["attack", "defense", "corruption", "AUC",
             f"TPR@{group[0]['metrics']['target_fpr']:g}FPR", "accuracy",
             "samples/s"],
            rows,
        ))
        lines.append("")

        labels = [
            "/".join((r["config"]["attack"], r["config"]["defense"],
                      r["config"]["corruption"]))
            for r in group
        ]
        lines.append("```")
        lines.append(bar_chart(
            f"{workload}: detection AUC by scenario",
            labels, [r["metrics"]["auc"] for r in group],
        ))
        lines.append("```")
        lines.append("")

        # operating curves: the sweep rows of up to 4 scenarios on one
        # shared accuracy-vs-sweep-position plot
        curves = [
            (label, [row["accuracy"] for row in r["threshold_sweep"]])
            for label, r in list(zip(labels, group))[:4]
        ]
        width = max(len(ys) for _, ys in curves)
        curves = [
            (label, ys + [ys[-1]] * (width - len(ys))) for label, ys in curves
        ]
        lines.append("```")
        lines.append(line_plot(
            f"{workload}: accuracy across the threshold sweep",
            list(range(width)), curves,
        ))
        lines.append("```")
        lines.append("")

    if skipped:
        lines.append("## Skipped scenarios")
        lines.append("")
        lines.append(render_markdown_table(
            ["scenario", "reason"],
            [[s.scenario_id, s.reason] for s in skipped],
        ))
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
