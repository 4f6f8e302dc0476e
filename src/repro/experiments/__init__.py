"""Reproduction harness: one module per table/figure of the paper.

Each experiment module exposes ``run(runner) -> <Result>`` with a
``describe()`` that prints the same rows or series the paper reports.
The :class:`~repro.experiments.runner.ExperimentRunner` caches
application runs, trace characterizations and simulations so a full
sweep executes each expensive piece exactly once.
"""

from repro.experiments.configs import (
    SCALE,
    TABLE3_SMPS,
    TABLE4_COWS,
    TABLE5_CLUMPS,
    paper_config,
    scaled,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.figures import FigureResult, run_figure2, run_figure3, run_figure4
from repro.experiments.casestudies import CaseStudyResult, run_case_studies
from repro.experiments.recommendations import run_recommendations
from repro.experiments.speed import SpeedResult, run_speed_comparison
from repro.experiments.sensitivity import AxisSensitivity, SensitivityResult, run_sensitivity
from repro.experiments.beta_scaling import BetaScalingResult, run_beta_scaling
from repro.experiments.ablations import AblationResult, run_ablations
from repro.experiments.coherence import CoherenceResult, run_coherence_traffic
from repro.experiments.faults import (
    DelayPropagationPoint,
    DelayPropagationResult,
    run_delay_propagation,
)
from repro.experiments.export import figure_to_csv, result_to_json, table2_to_csv

__all__ = [
    "AblationResult",
    "AxisSensitivity",
    "BetaScalingResult",
    "CaseStudyResult",
    "CoherenceResult",
    "DelayPropagationPoint",
    "DelayPropagationResult",
    "ExperimentRunner",
    "FigureResult",
    "SCALE",
    "SensitivityResult",
    "SpeedResult",
    "TABLE3_SMPS",
    "TABLE4_COWS",
    "TABLE5_CLUMPS",
    "Table2Result",
    "figure_to_csv",
    "paper_config",
    "result_to_json",
    "run_ablations",
    "run_beta_scaling",
    "run_case_studies",
    "run_coherence_traffic",
    "run_delay_propagation",
    "run_figure2",
    "run_figure3",
    "run_figure4",
    "run_recommendations",
    "run_sensitivity",
    "run_speed_comparison",
    "run_table2",
    "scaled",
    "table2_to_csv",
]
