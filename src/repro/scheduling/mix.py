"""Machine-mix design: which *combination* of unlike machines to buy.

The paper's Section 6 optimizer answers "which homogeneous cluster
under budget B"; this module asks the heterogeneous version.  A
:class:`MachineVariant` is one purchasable node shape (processors,
cache, memory, relative CPU speed); :func:`enumerate_mixed_configurations`
crosses two variants' counts into mixed topology trees priced by
:func:`repro.cost.model.hetero_cluster_cost`; :func:`design_mix` ranks
the affordable mixes by modeled E(Instr) under a scheduling policy
(memory-aware by default -- an uneven cluster is only worth buying if
it is also scheduled like one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterator

from repro.core.locality import StackDistanceModel
from repro.cost.catalog import DEFAULT_CATALOG, PriceCatalog
from repro.cost.configspace import CandidateSpace
from repro.cost.model import hetero_cluster_cost
from repro.scheduling.evaluate import evaluate_hetero, process_costs
from repro.scheduling.platform import HeteroPlatform
from repro.scheduling.policies import resolve_policy
from repro.sim.latencies import (
    CPU_HZ,
    ITEM_BYTES,
    LatencyTable,
    NetworkKind,
    PAPER_LATENCIES,
)
from repro.topology.canned import _machine, interconnect_for
from repro.topology.ir import ClusterNode

__all__ = [
    "MachineVariant",
    "MixCandidate",
    "variants_from_space",
    "enumerate_mixed_configurations",
    "design_mix",
]


@dataclass(frozen=True)
class MachineVariant:
    """One purchasable node shape for the mix market."""

    processors: int
    cache_kb: int
    memory_mb: int
    speed: float = 1.0
    l2_kb: int | None = None

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ValueError("a variant needs >= 1 processor")
        if self.speed <= 0:
            raise ValueError("variant speed must be positive")

    @property
    def label(self) -> str:
        l2 = f"+{self.l2_kb}KB L2" if self.l2_kb is not None else ""
        return f"n{self.processors}/{self.cache_kb}KB{l2}/{self.memory_mb}MB@{self.speed:g}x"

    def node(self, latencies: LatencyTable = PAPER_LATENCIES, size_scale: int = 1):
        """The machine leaf, capacities in items (optionally scaled down)."""
        scale = max(1, size_scale)
        return _machine(
            self.processors,
            max(2.0, self.cache_kb * 1024 / ITEM_BYTES / scale),
            max(4.0, self.memory_mb * 1024 * 1024 / ITEM_BYTES / scale),
            latencies,
            l2_items=(
                max(3.0, self.l2_kb * 1024 / ITEM_BYTES / scale)
                if self.l2_kb is not None
                else None
            ),
            speed=self.speed,
        )


@dataclass(frozen=True)
class MixCandidate:
    """One affordable mixed cluster, optionally scored by the model."""

    name: str
    topology: ClusterNode
    counts: tuple[tuple[str, int], ...]  #: (variant label, machines) pairs
    network: NetworkKind
    cost: float
    policy: str | None = None
    e_instr_seconds: float | None = None

    @property
    def feasible(self) -> bool:
        return self.e_instr_seconds is not None and math.isfinite(self.e_instr_seconds)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "counts": [list(pair) for pair in self.counts],
            "network": self.network.value,
            "cost": self.cost,
            "policy": self.policy,
            "e_instr_seconds": self.e_instr_seconds,
        }


def variants_from_space(space: CandidateSpace) -> tuple[MachineVariant, ...]:
    """The mix market implied by a candidate space.

    Workstation-grade nodes only (the smallest processor count the
    space offers): the mix cross-product is already the expensive axis,
    and the paper's SMP-vs-COW trade is covered by the homogeneous
    enumeration.  Speed grades come from ``space.machine_speeds``.
    """
    n = min(space.processor_counts)
    seen: dict[MachineVariant, None] = {}
    for cache_kb in space.cache_kb_options:
        for memory_mb in space.memory_mb_options:
            for speed in space.machine_speeds:
                seen[MachineVariant(n, cache_kb, memory_mb, float(speed))] = None
    return tuple(seen)


def enumerate_mixed_configurations(
    budget: float,
    catalog: PriceCatalog | None = None,
    space: CandidateSpace | None = None,
    latencies: LatencyTable = PAPER_LATENCIES,
) -> Iterator[MixCandidate]:
    """Yield every affordable genuinely-mixed cluster (two unlike variants).

    Pure (single-variant) clusters are the homogeneous optimizer's job;
    here both variants appear at least once, so every yielded topology
    is heterogeneous.  Prices always use full-size parts even when the
    space's ``size_scale`` shrinks the modeled capacities.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    catalog = catalog or DEFAULT_CATALOG
    space = space or CandidateSpace()
    variants = variants_from_space(space)
    for first, second in combinations(variants, 2):
        for count_first in range(1, space.mix_max_machines):
            for count_second in range(1, space.mix_max_machines + 1 - count_first):
                for network in space.networks:
                    interconnect = interconnect_for(network)
                    full = ClusterNode(
                        children=(first.node(latencies),) * count_first
                        + (second.node(latencies),) * count_second,
                        interconnect=interconnect,
                    )
                    if not isinstance(full, ClusterNode) or full.is_homogeneous:
                        continue  # equal variants collapse; not a mix
                    price = hetero_cluster_cost(catalog, full)
                    if price > budget:
                        continue
                    scaled = (
                        ClusterNode(
                            children=(first.node(latencies, space.size_scale),)
                            * count_first
                            + (second.node(latencies, space.size_scale),) * count_second,
                            interconnect=interconnect,
                        )
                        if space.size_scale > 1
                        else full
                    )
                    yield MixCandidate(
                        name=(
                            f"{count_first}x[{first.label}] + "
                            f"{count_second}x[{second.label}], {network.value}"
                        ),
                        topology=scaled,
                        counts=((first.label, count_first), (second.label, count_second)),
                        network=network,
                        cost=price,
                    )


def design_mix(
    locality: StackDistanceModel,
    gamma: float,
    budget: float,
    catalog: PriceCatalog | None = None,
    space: CandidateSpace | None = None,
    *,
    top: int = 5,
    policy: str = "memory-aware",
    latencies: LatencyTable = PAPER_LATENCIES,
    cpu_hz: float = CPU_HZ,
    **model_kwargs,
) -> tuple[MixCandidate, ...]:
    """Rank affordable machine mixes by modeled E(Instr) under a policy.

    The answer to "which mix of machines should I buy under budget B":
    every two-variant mix within budget is folded once
    (:func:`~repro.scheduling.evaluate.process_costs`, taking
    ``model_kwargs``), scheduled by ``policy`` and scored through the
    heterogeneous model; the ``top`` feasible mixes come back
    cheapest-first among ties.
    """
    if top < 1:
        raise ValueError("top must be >= 1")
    space = space or CandidateSpace()
    place = resolve_policy(policy)
    scored: list[MixCandidate] = []
    for candidate in enumerate_mixed_configurations(budget, catalog, space, latencies):
        platform = HeteroPlatform(candidate.name, candidate.topology, cpu_hz=cpu_hz)
        costs = process_costs(platform, locality, gamma, **model_kwargs)
        estimate = evaluate_hetero(costs, place(costs))
        if not estimate.feasible:
            continue
        scored.append(
            replace(candidate, policy=policy, e_instr_seconds=estimate.e_instr_seconds)
        )
    scored.sort(key=lambda c: (c.e_instr_seconds, c.cost, c.name))
    return tuple(scored[:top])
