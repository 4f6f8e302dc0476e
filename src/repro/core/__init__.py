"""Core analytical model from Du & Zhang (IPPS 1999).

This package implements the paper's primary contribution: a closed-form
model of the average execution time per instruction of an SPMD program on
a single SMP, a cluster of workstations (COW), or a cluster of SMPs
(CLUMP), derived from a stack-distance locality characterization of the
workload and an M/D/1 + order-statistics characterization of contention
on shared resources.  A platform whose modeled queue saturates gets an
infinite time (``ExecutionEstimate.feasible`` is False); the model never
raises for it.  :class:`QueueSaturationError` is raised only by the
scalar M/D/1 helpers of :mod:`repro.core.contention`; the AMAT kernel
(:class:`repro.core.amat.AmatKernel`) evaluates the same formulas on
arrays and marks a saturated level with an infinite response instead.
"""

from repro.core.locality import StackDistanceModel
from repro.core.contention import (
    QueueSaturationError,
    barrier_cycle_time,
    barrier_wait_time,
    harmonic_number,
    mg1_response_time,
    mg1_utilization,
    mg1_waiting_time,
    queued_contribution,
)
from repro.core.hierarchy import (
    LevelKind,
    MemoryHierarchy,
    MemoryLevel,
    PlatformKind,
    additional_levels,
)
from repro.core.platform import PlatformSpec
from repro.core.amat import (
    PAPER_REMOTE_RATE_ADJUSTMENT,
    AmatBreakdown,
    LevelContribution,
    average_memory_access_time,
)
from repro.core.execution import ExecutionEstimate, e_app_seconds, e_instr_cycles, e_instr_seconds, evaluate
from repro.core.validation import ComparisonRow, compare, max_relative_error, mean_relative_error, relative_error
from repro.core.scalability import ScalabilityResult, ScalePoint, speedup_curve
from repro.core.mva import MvaCenter, MvaSolution, mva_smp_amat, solve_mva

__all__ = [
    "AmatBreakdown",
    "ComparisonRow",
    "ExecutionEstimate",
    "LevelContribution",
    "LevelKind",
    "MemoryHierarchy",
    "MemoryLevel",
    "MvaCenter",
    "MvaSolution",
    "PAPER_REMOTE_RATE_ADJUSTMENT",
    "PlatformKind",
    "PlatformSpec",
    "QueueSaturationError",
    "ScalabilityResult",
    "ScalePoint",
    "StackDistanceModel",
    "additional_levels",
    "average_memory_access_time",
    "barrier_cycle_time",
    "barrier_wait_time",
    "compare",
    "e_app_seconds",
    "e_instr_cycles",
    "e_instr_seconds",
    "evaluate",
    "harmonic_number",
    "max_relative_error",
    "mean_relative_error",
    "mg1_response_time",
    "mg1_utilization",
    "mg1_waiting_time",
    "mva_smp_amat",
    "queued_contribution",
    "relative_error",
    "solve_mva",
    "speedup_curve",
]
