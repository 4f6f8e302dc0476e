"""Execution-time model: the paper's Eqs. 3-4 on top of the AMAT model.

With ``gamma = M / (m + M)`` the memory-referencing instruction fraction
and ``T`` the average memory access time, the paper models

    E(App)   = ((m + M) / (n N)) * (1 / S + gamma * T)      (Eq. 3)
    E(Instr) = (1 / (n N)) * (1 / S + gamma * T)            (Eq. 4)

i.e. perfectly load-balanced SPMD work divided over all ``n * N``
processors, each instruction paying its expected memory time.  This
module evaluates those forms in cycles (S = 1 instruction/cycle) and in
seconds (via the platform clock), and offers :func:`evaluate` as the
single-call entry point combining a :class:`~repro.core.platform.PlatformSpec`
with workload parameters: one platform folded and priced as a batch of
one of the model's kernel (:class:`repro.core.amat.AmatKernel`), the
same kernel :mod:`repro.core.batch` runs over many platforms at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from repro.core.amat import AmatBreakdown, average_memory_access_time
from repro.core.locality import StackDistanceModel
from repro.core.platform import PlatformSpec

__all__ = [
    "MODES",
    "ExecutionEstimate",
    "e_instr_cycles",
    "e_instr_seconds",
    "e_app_seconds",
    "evaluate",
]

#: The evaluation modes :func:`evaluate` accepts.
MODES = ("open", "throttled", "mva")


def e_instr_cycles(total_processors: int, gamma: float, amat_cycles: float) -> float:
    """E(Instr) in cycles per instruction: (1 + gamma*T) / (n*N).

    ``1`` is the single-cycle instruction execution (1/S with S = 1
    instruction per cycle).
    """
    if total_processors < 1:
        raise ValueError("total_processors must be >= 1")
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
    if amat_cycles < 0:
        raise ValueError("AMAT must be non-negative")
    return (1.0 + gamma * amat_cycles) / total_processors


def e_instr_seconds(total_processors: int, gamma: float, amat_cycles: float, cpu_hz: float) -> float:
    """E(Instr) in seconds per instruction."""
    if cpu_hz <= 0:
        raise ValueError("cpu_hz must be positive")
    return e_instr_cycles(total_processors, gamma, amat_cycles) / cpu_hz


def e_app_seconds(
    total_instructions: int,
    total_processors: int,
    gamma: float,
    amat_cycles: float,
    cpu_hz: float,
) -> float:
    """E(App) in seconds: Eq. 3, i.e. E(Instr) times the instruction count."""
    if total_instructions < 0:
        raise ValueError("instruction count must be non-negative")
    return total_instructions * e_instr_seconds(total_processors, gamma, amat_cycles, cpu_hz)


@dataclass(frozen=True)
class ExecutionEstimate:
    """Full model output for one (platform, workload) pair."""

    platform_name: str
    amat: AmatBreakdown
    e_instr_cycles: float  #: cycles per instruction (per Eq. 4)
    e_instr_seconds: float
    total_processors: int
    cpu_hz: float

    @property
    def feasible(self) -> bool:
        """False when some modeled queue saturates (infinite time)."""
        return math.isfinite(self.e_instr_seconds)

    def e_app_seconds(self, total_instructions: int) -> float:
        """Predicted wall time of a run issuing ``total_instructions``."""
        return total_instructions * self.e_instr_seconds

    def speedup_over(self, other: "ExecutionEstimate") -> float:
        """How much faster this platform is than ``other`` (>1 = faster)."""
        return other.e_instr_seconds / self.e_instr_seconds


def evaluate(
    spec: PlatformSpec,
    locality: StackDistanceModel,
    gamma: float,
    remote_rate_adjustment: float = 0.0,
    barrier_scale: float = 1.0,
    include_peer_cache: bool = False,
    mode: Literal["open", "throttled", "mva"] = "open",
    sharing_fraction: float = 0.0,
    sharing_fresh_fraction: float = 1.0,
    cache_capacity_factor: float = 1.0,
    contention_boost: float = 1.0,
) -> ExecutionEstimate:
    """Predict E(Instr) for a workload on a platform (the model's API).

    This is the function the paper's whole methodology funnels into:
    everything else (trace analysis, cost optimization, case studies)
    either produces its inputs or consumes its output.  ``mode="open"``
    is the paper's formula; ``mode="throttled"`` is the self-limiting
    closed-system variant (see
    :func:`repro.core.amat.average_memory_access_time`); ``mode="mva"``
    uses the exact closed-network Mean Value Analysis for single SMPs
    (:func:`repro.core.mva.mva_smp_amat`) and the ``"throttled"`` fixed
    point on clusters, whose cross-machine coupling is outside the exact
    single-class recursion.

    A saturated queue yields an infinite E(Instr), and the estimate
    reports itself infeasible (:attr:`ExecutionEstimate.feasible`).
    """
    hierarchy = spec.hierarchy(
        include_peer_cache=include_peer_cache,
        cache_capacity_factor=cache_capacity_factor,
    )
    if mode == "mva":
        from repro.core.hierarchy import PlatformKind
        from repro.core.mva import mva_smp_amat

        if spec.kind is PlatformKind.SMP:
            total = mva_smp_amat(hierarchy, locality, gamma, barrier_scale=barrier_scale)
            from repro.core.contention import barrier_term

            amat = AmatBreakdown(
                total_cycles=total,
                base_cycles=hierarchy.base_cycles,
                barrier_cycles=barrier_scale * barrier_term(hierarchy.barrier_population) / gamma,
                levels=(),  # MVA reports the aggregate, not per-level shares
                total_processes=hierarchy.total_processes,
                gamma=gamma,
            )
            cycles = e_instr_cycles(spec.total_processors, gamma, total)
            return ExecutionEstimate(
                platform_name=spec.name,
                amat=amat,
                e_instr_cycles=cycles,
                e_instr_seconds=cycles / spec.cpu_hz,
                total_processors=spec.total_processors,
                cpu_hz=spec.cpu_hz,
            )
        mode = "throttled"
    amat = average_memory_access_time(
        hierarchy,
        locality,
        gamma,
        remote_rate_adjustment=remote_rate_adjustment,
        barrier_scale=barrier_scale,
        mode=mode,
        sharing_fraction=sharing_fraction,
        sharing_fresh_fraction=sharing_fresh_fraction,
        contention_boost=contention_boost,
    )
    cycles = (
        e_instr_cycles(spec.total_processors, gamma, amat.total_cycles)
        if math.isfinite(amat.total_cycles)
        else math.inf
    )
    return ExecutionEstimate(
        platform_name=spec.name,
        amat=amat,
        e_instr_cycles=cycles,
        e_instr_seconds=cycles / spec.cpu_hz if math.isfinite(cycles) else math.inf,
        total_processors=spec.total_processors,
        cpu_hz=spec.cpu_hz,
    )
