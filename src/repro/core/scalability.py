"""Scalability analysis: speedup curves over a platform family.

The paper opens with the cluster promise of scaling "from desktop to
teraflop"; its model makes the scaling *curve* computable in closed
form.  This module sweeps a platform family over processor counts,
computes speedup and parallel efficiency against the one-processor...
strictly, against the smallest member (the paper's platforms are
parallel by definition), and locates the knee -- the point past which
adding processors stops paying -- which is where the memory hierarchy
and the network stop the scaling, the paper's whole subject.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal, Sequence

from repro.core.amat import PAPER_REMOTE_RATE_ADJUSTMENT
from repro.core.execution import evaluate
from repro.core.platform import PlatformSpec
from repro.workloads.params import WorkloadParams

__all__ = ["ScalePoint", "ScalabilityResult", "speedup_curve"]


@dataclass(frozen=True)
class ScalePoint:
    """One processor count of the sweep."""

    processors: int
    spec: PlatformSpec
    e_instr_seconds: float
    speedup: float  #: relative to the smallest member's per-instruction time
    efficiency: float  #: speedup / (processors / base processors)


@dataclass(frozen=True)
class ScalabilityResult:
    workload: WorkloadParams
    points: tuple[ScalePoint, ...]

    @property
    def knee(self) -> ScalePoint:
        """The largest point whose marginal efficiency is still >= 50%:
        past it, doubling the machine buys less than half its cost."""
        best = self.points[0]
        for prev, cur in zip(self.points, self.points[1:]):
            marginal = (cur.speedup / prev.speedup) / (cur.processors / prev.processors)
            if marginal >= 0.5:
                best = cur
            else:
                break
        return best

    @property
    def peak(self) -> ScalePoint:
        """The fastest point (speedup can regress past saturation)."""
        return max(self.points, key=lambda p: p.speedup)

    def describe(self) -> str:
        lines = [
            f"scalability of {self.workload.name} "
            f"({self.points[0].spec.kind.value} family):",
            f"{'P':>4s} {'E(Instr)':>12s} {'speedup':>8s} {'efficiency':>11s}",
        ]
        for p in self.points:
            marker = ""
            if p is self.knee:
                marker += "  <== knee"
            if p is self.peak and p is not self.knee:
                marker += "  <== peak"
            lines.append(
                f"{p.processors:>4d} {p.e_instr_seconds:>12.3e} "
                f"{p.speedup:>8.2f} {100 * p.efficiency:>10.1f}%{marker}"
            )
        return "\n".join(lines)


def speedup_curve(
    workload: WorkloadParams,
    base: PlatformSpec,
    processor_counts: Sequence[int],
    scale_axis: Literal["machines", "processors"] = "machines",
    remote_rate_adjustment: float = PAPER_REMOTE_RATE_ADJUSTMENT,
) -> ScalabilityResult:
    """Sweep a platform family over processor counts with the model.

    ``scale_axis="machines"`` grows ``N`` (cluster scaling, network
    population grows); ``"processors"`` grows ``n`` (SMP scaling, bus
    population grows).  The base spec supplies every other parameter.
    """
    counts = sorted(set(int(c) for c in processor_counts))
    if not counts:
        raise ValueError("need at least one processor count")
    if any(c < 1 for c in counts):
        raise ValueError("processor counts must be positive")

    points: list[ScalePoint] = []
    base_time: float | None = None
    base_procs: int | None = None
    for c in counts:
        if scale_axis == "machines":
            spec = replace(base, name=f"{base.name} N={c}", N=c,
                           network=base.network if c > 1 else None)
        elif scale_axis == "processors":
            spec = replace(base, name=f"{base.name} n={c}", n=c)
        else:
            raise ValueError(f"unknown scale_axis {scale_axis!r}")
        est = evaluate(
            spec,
            workload.locality,
            workload.gamma,
            remote_rate_adjustment=remote_rate_adjustment,
            mode="throttled",
            sharing_fraction=workload.sharing_at(spec.N),
            sharing_fresh_fraction=workload.sharing_fresh_fraction,
        )
        t = est.e_instr_seconds
        if base_time is None:
            base_time, base_procs = t, spec.total_processors
        assert base_time is not None and base_procs is not None
        speedup = base_time / t
        efficiency = speedup / (spec.total_processors / base_procs)
        points.append(
            ScalePoint(
                processors=spec.total_processors,
                spec=spec,
                e_instr_seconds=t,
                speedup=speedup,
                efficiency=efficiency,
            )
        )
    return ScalabilityResult(workload=workload, points=tuple(points))
