"""Figures 2-4 reproduction: modeled vs simulated E(Instr).

One function per figure, all sharing the same shape: take the paper's
configurations (Tables 3-5) at the library's size scale, run the four
benchmarks through both the analytical model and the program-driven
simulator, and tabulate the per-cell relative differences -- the
quantity the paper's figures plot.

The paper reports worst-case differences below 5% (SMPs), 10% (COWs,
after the 12.4% remote-rate adjustment) and 8% (CLUMPs).  Our scaled
reproduction self-calibrates the model's global constants per figure
(the paper's own procedure, see
:meth:`~repro.experiments.runner.ExperimentRunner.calibrate`) into a
:class:`~repro.core.batch.ModelOptions` and reports the achieved bound
next to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.amat import PAPER_REMOTE_RATE_ADJUSTMENT
from repro.core.batch import ModelOptions
from repro.core.validation import ComparisonRow, format_table
from repro.experiments.configs import SCALE, TABLE3_SMPS, TABLE4_COWS, TABLE5_CLUMPS, scaled
from repro.experiments.runner import ExperimentRunner
from repro.experiments.table2 import TABLE2_APPS

__all__ = ["FigureResult", "run_figure2", "run_figure3", "run_figure4"]


@dataclass(frozen=True)
class FigureResult:
    figure: str
    rows: tuple[ComparisonRow, ...]
    calibration: ModelOptions
    paper_bound: float  #: the paper's reported worst-case difference

    @property
    def worst_error(self) -> float:
        return max(r.error for r in self.rows)

    @property
    def mean_error(self) -> float:
        return sum(r.error for r in self.rows) / len(self.rows)

    def ordering_agreement(self) -> float:
        """Fraction of per-app config pairs ranked identically by model
        and simulator -- the figure's qualitative content (which
        configuration is faster for which program)."""
        apps = sorted({r.application for r in self.rows})
        agree = total = 0
        for app in apps:
            cells = [r for r in self.rows if r.application == app]
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    total += 1
                    m = cells[i].modeled - cells[j].modeled
                    s = cells[i].simulated - cells[j].simulated
                    if m * s > 0 or (m == 0 and s == 0):
                        agree += 1
        return agree / total if total else 1.0

    def describe(self) -> str:
        header = (
            f"{self.figure}: modeled vs simulated E(Instr), scale 1/{SCALE} "
            f"(paper reports < {100 * self.paper_bound:.0f}%)\n"
            f"calibration: {self.calibration.describe()}\n"
        )
        footer = (
            f"\nmean difference {100 * self.mean_error:.1f}%, "
            f"worst {100 * self.worst_error:.1f}%, "
            f"config-ordering agreement {100 * self.ordering_agreement():.0f}%"
        )
        return header + format_table(self.rows) + footer


def _run_figure(
    figure: str,
    specs,
    paper_bound: float,
    runner: ExperimentRunner | None,
    calibration: ModelOptions | None,
    adjustments,
) -> FigureResult:
    runner = runner or ExperimentRunner()
    scaled_specs = [scaled(s) for s in specs]
    if calibration is None:
        calibration, _ = runner.calibrate(
            TABLE2_APPS, scaled_specs, adjustments=adjustments
        )
    rows = runner.compare(TABLE2_APPS, scaled_specs, calibration)
    return FigureResult(
        figure=figure,
        rows=tuple(rows),
        calibration=calibration,
        paper_bound=paper_bound,
    )


def run_figure2(
    runner: ExperimentRunner | None = None, calibration: ModelOptions | None = None
) -> FigureResult:
    """Figure 2: the six SMPs of Table 3 (paper: differences < 5%)."""
    return _run_figure(
        "Figure 2 (SMPs C1-C6)", TABLE3_SMPS, 0.05, runner, calibration, (0.0,)
    )


def run_figure3(
    runner: ExperimentRunner | None = None, calibration: ModelOptions | None = None
) -> FigureResult:
    """Figure 3: the five COWs of Table 4 (paper: < 10% after a 12.4%
    remote-rate adjustment; our adjustment is part of the calibration)."""
    return _run_figure(
        "Figure 3 (clusters of workstations C7-C11)",
        TABLE4_COWS,
        0.10,
        runner,
        calibration,
        (0.0, PAPER_REMOTE_RATE_ADJUSTMENT, 0.3, 0.6),
    )


def run_figure4(
    runner: ExperimentRunner | None = None, calibration: ModelOptions | None = None
) -> FigureResult:
    """Figure 4: the four CLUMPs of Table 5 (paper: < 8%)."""
    return _run_figure(
        "Figure 4 (clusters of SMPs C12-C15)",
        TABLE5_CLUMPS,
        0.08,
        runner,
        calibration,
        (0.0, PAPER_REMOTE_RATE_ADJUSTMENT, 0.3, 0.6),
    )
