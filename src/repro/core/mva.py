"""Exact Mean Value Analysis for the SMP's closed queueing network.

The paper models contention with *open* M/G/1 queues, which is why its
formulas can saturate: the open model lets processors offer traffic they
could never sustain while stalled.  The textbook-correct treatment of
``n`` processors sharing a memory bus and an I/O bus is a *closed*
queueing network -- exactly ``n`` customers circulating between a think
stage (executing instructions) and the shared service centers -- solved
exactly by the Mean Value Analysis recursion (Reiser & Lavenberg 1980;
the queueing texts the paper cites, Ross and Trivedi, both derive it):

    R_i(k) = s_i * (1 + Q_i(k-1))            (FCFS queueing center)
    X(k)   = k / (Z + sum_i v_i * R_i(k))
    Q_i(k) = X(k) * v_i * R_i(k)

for population k = 1..n, think time Z, per-visit service s_i and visit
ratio v_i.  This module builds the network from the same hierarchy/
locality inputs as :func:`repro.core.amat.average_memory_access_time`
and returns the same ``T`` (cycles per memory reference), making the
three contention treatments -- open (the paper), throttled (our fixed
point), and MVA (exact) -- directly comparable; the ablation benchmark
prints all three.

Scope: platforms whose shared resources are all machine-local (single
SMPs).  Cluster networks couple customers across machines into a
multi-class network, which is beyond the exact single-class recursion;
``mva_smp_amat`` refuses them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.contention import barrier_term
from repro.core.hierarchy import MemoryHierarchy, PlatformKind
from repro.core.locality import StackDistanceModel

__all__ = ["MvaCenter", "MvaSolution", "solve_mva", "mva_smp_amat"]


@dataclass(frozen=True)
class MvaCenter:
    """One FCFS service center of the closed network."""

    name: str
    service: float  #: per-visit service time (cycles)
    visit_ratio: float  #: visits per think-cycle interaction

    def __post_init__(self) -> None:
        if self.service < 0 or self.visit_ratio < 0:
            raise ValueError("service and visit ratio must be non-negative")


@dataclass(frozen=True)
class MvaSolution:
    """Exact MVA outputs at the requested population."""

    population: int
    think_time: float
    throughput: float  #: interactions per cycle (X)
    response_times: tuple[float, ...]  #: per-center R_i
    queue_lengths: tuple[float, ...]  #: per-center Q_i
    centers: tuple[MvaCenter, ...]

    def utilization(self, i: int) -> float:
        """rho_i = X * v_i * s_i (Little's law at the server)."""
        c = self.centers[i]
        return self.throughput * c.visit_ratio * c.service


def solve_mva(
    centers: list[MvaCenter] | tuple[MvaCenter, ...],
    population: int,
    think_time: float,
) -> MvaSolution:
    """Exact single-class MVA recursion over population 1..n."""
    if population < 1:
        raise ValueError("population must be >= 1")
    if think_time < 0:
        raise ValueError("think time must be non-negative")
    centers = tuple(centers)
    q = [0.0] * len(centers)
    x = 0.0
    r = [0.0] * len(centers)
    for k in range(1, population + 1):
        r = [c.service * (1.0 + q[i]) for i, c in enumerate(centers)]
        denom = think_time + sum(c.visit_ratio * r[i] for i, c in enumerate(centers))
        x = k / denom if denom > 0 else float("inf")
        q = [x * c.visit_ratio * r[i] for i, c in enumerate(centers)]
    return MvaSolution(
        population=population,
        think_time=think_time,
        throughput=x,
        response_times=tuple(r),
        queue_lengths=tuple(q),
        centers=centers,
    )


def mva_smp_amat(
    hierarchy: MemoryHierarchy,
    locality: StackDistanceModel,
    gamma: float,
    barrier_scale: float = 1.0,
) -> float:
    """T (cycles per memory reference) from the exact closed network.

    The interaction unit is one memory reference: a customer thinks for
    ``1/gamma`` instruction cycles plus the ``tau_1`` cache access, then
    visits each level ``i`` with probability ``tail(s_i)``.  The network
    response converts back to the model's per-reference ``T`` via

        T = tau_1 + sum_i v_i * R_i + barriers,

    so the number is directly comparable to
    :func:`repro.core.amat.average_memory_access_time`'s total.
    """
    if hierarchy.platform is not PlatformKind.SMP:
        raise ValueError(
            "exact single-class MVA covers machine-local resources only; "
            f"got {hierarchy.platform.value} (use mode='throttled' instead)"
        )
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")

    dist = locality.rescaled(hierarchy.total_processes)
    centers = [
        MvaCenter(
            name=level.name,
            service=level.tau_cycles,
            visit_ratio=float(dist.tail(level.boundary_items)) * level.rate_fraction,
        )
        for level in hierarchy.levels
    ]
    think = 1.0 / gamma + hierarchy.base_cycles
    sol = solve_mva(centers, hierarchy.total_processes, think)
    per_ref = sum(
        c.visit_ratio * r for c, r in zip(sol.centers, sol.response_times)
    )
    barrier = barrier_scale * barrier_term(hierarchy.barrier_population) / gamma
    return hierarchy.base_cycles + per_ref + barrier
