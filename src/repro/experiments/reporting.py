"""Aggregate report generation: everything EXPERIMENTS.md records.

``generate_report`` runs the complete reproduction -- Table 2, Figures
2-4, the case studies, the Section 6 principles, the coherence / beta /
sensitivity / ablation studies and the model-speed claim -- and renders
one markdown document comparing paper-reported and measured results.
``python -m repro.experiments.reporting [output-dir]`` writes it to
stdout and, when a directory is given, drops machine-readable CSVs of
every figure next to it.
"""

from __future__ import annotations

import sys
import time

from repro.obs.log import get_logger
from repro.obs.spans import span

from repro.experiments.casestudies import run_case_studies
from repro.experiments.figures import run_figure2, run_figure3, run_figure4
from repro.experiments.recommendations import run_recommendations
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sensitivity import run_sensitivity
from repro.experiments.beta_scaling import run_beta_scaling
from repro.experiments.ablations import run_ablations
from repro.experiments.coherence import run_coherence_traffic
from repro.experiments.speed import run_speed_comparison
from repro.experiments.table2 import run_table2

__all__ = ["generate_report"]

_log = get_logger("repro.report")


def generate_report(
    runner: ExperimentRunner | None = None,
    verbose: bool = True,
    data_dir: str | None = None,
) -> str:
    """Run every experiment and render the paper-vs-measured report.

    ``data_dir`` additionally writes per-figure CSVs (and a Table 2 CSV)
    for replotting.  Progress goes through the structured logger
    (:mod:`repro.obs.log`) at ``info`` when ``verbose`` else ``debug``,
    and every phase runs inside a wall-clock span, so ``--metrics-out``
    captures where report time went.
    """
    runner = runner or ExperimentRunner()
    sections: list[str] = []
    exports: dict[str, object] = {}
    level = "info" if verbose else "debug"

    def log(msg: str, **fields) -> None:
        _log.log(level, msg, **fields)

    t0 = time.perf_counter()
    with span("report"):
        log("running Table 2 ...", phase="table2")
        with span("table2"):
            t2 = run_table2(runner)
        exports["table2"] = t2
        sections.append("## Table 2 -- program characteristics\n\n```\n" + t2.describe() + "\n```")
        log("running Figure 2 (SMPs) ...", phase="figure2")
        with span("figure2"):
            f2 = run_figure2(runner)
        exports["figure2"] = f2
        sections.append("## Figure 2 -- SMP validation\n\n```\n" + f2.describe() + "\n```")
        log("running Figure 3 (COWs) ...", phase="figure3")
        with span("figure3"):
            f3 = run_figure3(runner)
        exports["figure3"] = f3
        sections.append("## Figure 3 -- cluster-of-workstations validation\n\n```\n" + f3.describe() + "\n```")
        log("running Figure 4 (CLUMPs) ...", phase="figure4")
        with span("figure4"):
            f4 = run_figure4(runner)
        exports["figure4"] = f4
        sections.append("## Figure 4 -- cluster-of-SMPs validation\n\n```\n" + f4.describe() + "\n```")
        log("running case studies ...", phase="casestudies")
        with span("casestudies"):
            sections.append("## Section 6 -- case studies\n\n```\n" + run_case_studies().describe() + "\n```")
        log("running recommendations ...", phase="recommendations")
        with span("recommendations"):
            sections.append("## Section 6 -- principles\n\n```\n" + run_recommendations().describe() + "\n```")
        log("running sensitivity study ...", phase="sensitivity")
        with span("sensitivity"):
            sens = "\n\n".join(r.describe() for r in run_sensitivity())
        sections.append("## Central claim -- hierarchy-length sensitivity\n\n```\n" + sens + "\n```")
        log("running coherence-traffic measurement ...", phase="coherence")
        with span("coherence"):
            sections.append(
                "## Section 5.3.1 -- coherence share of bus traffic\n\n```\n"
                + run_coherence_traffic(runner).describe() + "\n```"
            )
        log("running beta-scaling study ...", phase="beta_scaling")
        with span("beta_scaling"):
            beta = "\n\n".join(r.describe() for r in run_beta_scaling())
        sections.append("## Section 5.2 -- locality scale vs data-set size\n\n```\n" + beta + "\n```")
        log("running ablations ...", phase="ablations")
        with span("ablations"):
            sections.append("## Design-choice ablations\n\n```\n" + run_ablations(runner).describe() + "\n```")
        log("running speed comparison ...", phase="speed")
        with span("speed"):
            sections.append("## Section 5.3 -- model vs simulation cost\n\n```\n" + run_speed_comparison(runner).describe() + "\n```")
        if data_dir is not None:
            from pathlib import Path

            from repro.experiments.export import figure_to_csv, table2_to_csv, write_text

            with span("csv_export"):
                base = Path(data_dir)
                write_text(base / "table2.csv", table2_to_csv(exports["table2"]))
                for key in ("figure2", "figure3", "figure4"):
                    write_text(base / f"{key}.csv", figure_to_csv(exports[key]))
            log(f"wrote CSV exports to {base}", phase="csv_export")
        prof_section = _profile_section(runner)
        if prof_section:
            sections.append(prof_section)
    log(f"report complete in {time.perf_counter() - t0:.0f}s")

    header = (
        "# Experiment report (auto-generated)\n\n"
        "Regenerate with `python -m repro.experiments.reporting > report.md`.\n"
        + _lane_summary(runner)
    )
    return header + "\n\n" + "\n\n".join(sections) + "\n"


def _profile_section(runner) -> str:
    """Cycle-attribution section over every profiled cell of the report.

    Empty unless the runner profiled (``profile=True``) -- and degrades
    to nothing for runner doubles without a :meth:`merged_profile`, so
    report assembly stays testable with stubs.
    """
    merged = getattr(runner, "merged_profile", lambda: None)()
    if merged is None:
        return ""
    return (
        "## Where the cycles went -- exact attribution\n\n```\n"
        + merged.describe()
        + "\n```"
    )


def _lane_summary(runner) -> str:
    """One header line recording which execution lanes the grids used.

    Degrades to nothing for runner doubles without ``jobs`` or
    ``metrics``, so report assembly stays testable with stubs.
    """
    jobs = getattr(runner, "jobs", None)
    metrics = getattr(runner, "metrics", None)
    if jobs is None or metrics is None:
        return ""
    counter = metrics.get("repro_grid_lane_total")
    counts = (
        ", ".join(
            f"{labels['lane']}: {int(series.value)}"
            for labels, series in counter.samples()
        )
        if counter is not None
        else ""
    )
    return (
        f"\nGrid execution lane: `jobs={jobs}`"
        + (f"; grids ran ({counts})" if counts else "; no grid ran")
        + ".\n"
    )


if __name__ == "__main__":
    out_dir = sys.argv[1] if len(sys.argv) > 1 else None
    print(generate_report(data_dir=out_dir))
