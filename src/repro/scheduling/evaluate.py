"""Heterogeneous E(Instr): the paper's Eq. 4 with unequal processes.

The homogeneous model folds the whole cluster into one memory
hierarchy, prices an instruction at ``1 + gamma * T`` cycles and
divides by ``n * N``.  Here each *machine* keeps its own hierarchy
(:func:`repro.topology.build.leaf_hierarchies`) and each *process* gets
its own cost:

* ``T_nb[p]`` -- the barrier-free AMAT of p's machine (``barrier_scale=0``),
* ``c~[p] = 1/speed[p] + gamma * T_nb[p]`` -- p's cycles per
  instruction between barriers (the 1/S term of Eq. 4 with S = speed),
* barrier arrival rates ``lambda[p] = 1 / (phi[p] * c~[p])`` where
  ``phi[p]`` is p's work fraction -- a process arrives late in
  proportion to how much work it got and how slowly it runs it,
* per-process barrier terms from the generalized order statistic
  :func:`repro.core.contention.generalized_barrier_terms` (which
  reduces to the paper's ``H_P - 1`` when all rates are equal),
* ``E(Instr) = max_p(w[p] * c[p]) / sum(w)`` -- the straggler's wall
  time per total instruction.

The first two items do not depend on the work share.
:func:`process_costs` computes them with one fold of the platform;
:func:`evaluate_hetero` prices a share on those costs, so a policy
that tries many shares folds the platform once.

On a homogeneous tree with even shares every expression collapses
bit-for-bit to :func:`repro.core.execution.evaluate` with
``mode="open"``: the reduction is property-tested, not approximate
(see docs/SCHEDULING.md for the expression-shape bookkeeping).

The model is always the open one, so there is no ``mode`` argument:
the throttled fixed point folds the barrier term inside its bisection,
so per-process barrier terms cannot be grafted on afterwards without
changing the homogeneous answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.amat import AmatKernel
from repro.core.contention import generalized_barrier_terms
from repro.core.locality import StackDistanceModel
from repro.scheduling.platform import HeteroPlatform
from repro.scheduling.shares import WorkShare

__all__ = [
    "ProcessCosts",
    "ProcessEstimate",
    "HeteroEstimate",
    "process_costs",
    "evaluate_hetero",
]


@dataclass(frozen=True)
class ProcessEstimate:
    """One process's cost under a given work share."""

    process: int
    machine: int  #: leaf index of the hosting machine
    speed: float
    weight: float
    fraction: float  #: normalized work share
    amat_cycles: float  #: T including this process's barrier wait
    barrier_term: float  #: expected barrier wait, in memory-reference units
    cycles_per_instruction: float  #: 1/speed + gamma * amat_cycles

    def as_dict(self) -> dict:
        return {
            "process": self.process,
            "machine": self.machine,
            "speed": self.speed,
            "weight": self.weight,
            "fraction": self.fraction,
            "amat_cycles": self.amat_cycles,
            "barrier_term": self.barrier_term,
            "cycles_per_instruction": self.cycles_per_instruction,
        }


@dataclass(frozen=True)
class HeteroEstimate:
    """Model output for one (platform, workload, share) triple."""

    platform_name: str
    policy: str
    e_instr_cycles: float
    e_instr_seconds: float
    total_processors: int
    cpu_hz: float
    gamma: float
    processes: tuple[ProcessEstimate, ...]

    @property
    def feasible(self) -> bool:
        """False when some machine's modeled queue saturates."""
        return math.isfinite(self.e_instr_seconds)

    @property
    def bottleneck(self) -> ProcessEstimate:
        """The straggler: the process whose weighted cost sets E(Instr)."""
        return max(self.processes, key=lambda p: p.weight * p.cycles_per_instruction)

    def speedup_over(self, other: "HeteroEstimate") -> float:
        return other.e_instr_seconds / self.e_instr_seconds

    def as_dict(self) -> dict:
        return {
            "platform": self.platform_name,
            "policy": self.policy,
            "e_instr_cycles": self.e_instr_cycles,
            "e_instr_seconds": self.e_instr_seconds,
            "total_processors": self.total_processors,
            "cpu_hz": self.cpu_hz,
            "gamma": self.gamma,
            "feasible": self.feasible,
            "processes": [p.as_dict() for p in self.processes],
        }

    def describe(self) -> str:
        lines = [
            f"{self.platform_name} under {self.policy}: "
            f"E(Instr) = {self.e_instr_seconds:.3e} s/instruction "
            f"({self.e_instr_cycles:.3f} cycles over {self.total_processors} processes)"
        ]
        for p in self.processes:
            lines.append(
                f"  p{p.process} on machine {p.machine} (speed {p.speed:g}): "
                f"share {p.fraction:.3f}, c = {p.cycles_per_instruction:.3f} cycles/instr, "
                f"barrier {p.barrier_term:.3f}"
            )
        if self.feasible:
            b = self.bottleneck
            lines.append(f"  bottleneck: p{b.process} on machine {b.machine}")
        else:
            lines.append("  infeasible: a modeled queue saturates at this load")
        return "\n".join(lines)


@dataclass(frozen=True)
class ProcessCosts:
    """The share-independent half of the model: one fold of a platform.

    Per process, in rank order: the hosting machine, its relative speed
    and its barrier-free AMAT ``T_nb``.  A process's M/D/1 level rates
    depend on how fast it *issues* references, not on how many
    instructions it was handed, so no work share changes these numbers;
    :func:`evaluate_hetero` prices any number of shares on one fold.
    """

    platform_name: str
    cpu_hz: float
    gamma: float
    machines: tuple[int, ...]  #: leaf index of each process's machine
    speeds: tuple[float, ...]
    amat_cycles: tuple[float, ...]  #: barrier-free ``T_nb`` per process

    @property
    def total_processors(self) -> int:
        return len(self.speeds)

    @property
    def cycles_per_instruction(self) -> tuple[float, ...]:
        """``c~[p] = 1/speed + gamma * T_nb``: the cost memory-aware equalizes."""
        return tuple(
            1.0 / s + self.gamma * t for s, t in zip(self.speeds, self.amat_cycles)
        )


def process_costs(
    platform: HeteroPlatform,
    locality: StackDistanceModel,
    gamma: float,
    *,
    remote_rate_adjustment: float = 0.0,
    sharing_fraction: float = 0.0,
    sharing_fresh_fraction: float = 1.0,
) -> ProcessCosts:
    """Fold every machine of ``platform`` once and price its AMAT.

    The only place the scheduling layer folds a tree.  The distinct
    machines are priced in one call of the model's kernel, one lane
    each; the keyword arguments mirror
    :func:`repro.core.execution.evaluate` with ``mode="open"``.  A
    machine whose queue saturates costs ``inf``.
    """
    hierarchies = platform.hierarchies()
    distinct = list(dict.fromkeys(hierarchies))
    totals = AmatKernel(
        distinct,
        locality,
        gamma,
        remote_rate_adjustment=remote_rate_adjustment,
        sharing_fraction=sharing_fraction,
        sharing_fresh_fraction=sharing_fresh_fraction,
        barrier_scale=0.0,
    ).solve("open").total
    amat_of = dict(zip(distinct, totals.tolist()))
    per_machine = [amat_of[h] for h in hierarchies]
    machines = platform.machine_of_process
    return ProcessCosts(
        platform_name=platform.name,
        cpu_hz=platform.cpu_hz,
        gamma=gamma,
        machines=machines,
        speeds=platform.speeds,
        amat_cycles=tuple(per_machine[m] for m in machines),
    )


def evaluate_hetero(costs: ProcessCosts, share: WorkShare | None = None) -> HeteroEstimate:
    """Predict E(Instr) for a work share on one folded platform.

    With ``share=None`` the paper's even split is used; on a
    homogeneous tree that path is bit-identical to
    ``evaluate(spec, ..., mode="open")``.
    """
    num = costs.total_processors
    if share is None:
        share = WorkShare.even(num, policy="even")
    if share.num_processes != num:
        raise ValueError(
            f"work share has {share.num_processes} weights but platform "
            f"{costs.platform_name!r} runs {num} processes"
        )

    gamma = costs.gamma
    speeds = costs.speeds
    t_nb = costs.amat_cycles
    weights = share.weights
    total_weight = math.fsum(weights)
    tilde = costs.cycles_per_instruction

    if all(math.isfinite(c) for c in tilde):
        # Arrival rate of p at the barrier, per unit of total work: the
        # exponential-phase model behind the paper's H_P order statistic,
        # with the mean interval stretched by p's share and slowness.
        fractions = [w / total_weight for w in weights]
        rates = [1.0 / (phi * c) for phi, c in zip(fractions, tilde)]
        groups: dict[float, int] = {}
        for rate in rates:
            groups[rate] = groups.get(rate, 0) + 1
        terms = generalized_barrier_terms(tuple(groups), tuple(groups.values()))
        term_of = dict(zip(groups, terms))
        barrier = [term_of[rate] for rate in rates]
        # T and c keep evaluate()'s expression shapes so the homogeneous
        # reduction is bitwise, not approximate: T_nb + b/gamma matches
        # (base + sum) + barrier_scale*term/gamma because b == 1.0*term.
        amat_total = [t + b / gamma for t, b in zip(t_nb, barrier)]
        cycles_pp = [1.0 / s + gamma * t for s, t in zip(speeds, amat_total)]
        e_cycles = max(w * c for w, c in zip(weights, cycles_pp)) / total_weight
        e_seconds = e_cycles / costs.cpu_hz
    else:
        barrier = [0.0] * num
        amat_total = list(t_nb)
        cycles_pp = tilde
        e_cycles = math.inf
        e_seconds = math.inf

    processes = tuple(
        ProcessEstimate(
            process=p,
            machine=costs.machines[p],
            speed=speeds[p],
            weight=weights[p],
            fraction=weights[p] / total_weight,
            amat_cycles=amat_total[p],
            barrier_term=barrier[p],
            cycles_per_instruction=cycles_pp[p],
        )
        for p in range(num)
    )
    return HeteroEstimate(
        platform_name=costs.platform_name,
        policy=share.policy,
        e_instr_cycles=e_cycles,
        e_instr_seconds=e_seconds,
        total_processors=num,
        cpu_hz=costs.cpu_hz,
        gamma=gamma,
        processes=processes,
    )
