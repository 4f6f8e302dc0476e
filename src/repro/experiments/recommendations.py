"""Section 6 principles: classification of the paper's example programs.

Checks that the rule engine assigns every one of the paper's named
examples (LU, FFT, EDGE, Radix, TPC-C) to the class the paper lists it
under, and renders the six principles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost.recommend import (
    Recommendation,
    WorkloadClass,
    classify_workload,
    recommend,
    upgrade_advice,
)
from repro.workloads.params import NAMED_WORKLOADS

__all__ = ["RecommendationsResult", "run_recommendations", "PAPER_EXAMPLES"]

#: The paper's example program for each Section 6 class.
PAPER_EXAMPLES: dict[str, WorkloadClass] = {
    "LU": WorkloadClass.CPU_BOUND_GOOD_LOCALITY,
    "FFT": WorkloadClass.CPU_BOUND_POOR_LOCALITY,
    "EDGE": WorkloadClass.MEMORY_BOUND_GOOD_LOCALITY,
    "Radix": WorkloadClass.MEMORY_BOUND_POOR_LOCALITY,
    "TPC-C": WorkloadClass.MEMORY_AND_IO_BOUND,
}

@dataclass(frozen=True)
class RecommendationsResult:
    assignments: dict[str, WorkloadClass]
    recommendations: dict[str, Recommendation]

    @property
    def all_match_paper(self) -> bool:
        return self.assignments == PAPER_EXAMPLES

    def describe(self) -> str:
        lines = ["Section 6 principles (rule engine vs the paper's examples):"]
        for name, cls in self.assignments.items():
            expected = PAPER_EXAMPLES[name]
            ok = "OK" if cls == expected else f"MISMATCH (paper: {expected.value})"
            lines.append(f"  {name:<6s} -> {cls.value:<28s} [{ok}]")
        lines.append("")
        for rec in self.recommendations.values():
            lines.append(rec.describe())
        lines.append("")
        lines.append("upgrade heuristics:")
        lines.append(f"  capacity-bound traffic: {upgrade_advice(network_bound=False)}")
        lines.append(f"  network-bound traffic:  {upgrade_advice(network_bound=True)}")
        return "\n".join(lines)


def run_recommendations() -> RecommendationsResult:
    """Classify the paper's five example workloads."""
    workloads = {name: NAMED_WORKLOADS[name] for name in PAPER_EXAMPLES}
    assignments = {name: classify_workload(w) for name, w in workloads.items()}
    recommendations = {name: recommend(w) for name, w in workloads.items()}
    return RecommendationsResult(assignments=assignments, recommendations=recommendations)
