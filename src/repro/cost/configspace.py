"""Configuration-space generation (the paper's supporting tool (3)).

"A tool to support the generation of all possible cluster
configurations meeting the budget requirements."  The space is the
cross product of machine counts, processors per machine, cache options,
memory sizes and networks; the paper notes the integer domain is small
in practice (n <= 4, modest N), so plain enumeration is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.platform import PlatformSpec
from repro.cost.catalog import PriceCatalog
from repro.cost.model import assert_priceable, cluster_cost
from repro.sim.latencies import CPU_HZ, NetworkKind
from repro.topology.canned import deepen_spec

__all__ = ["CandidateSpace", "enumerate_configurations"]


@dataclass(frozen=True)
class CandidateSpace:
    """Bounds of the enumeration (defaults follow the paper's market)."""

    max_machines: int = 16
    processor_counts: tuple[int, ...] = (1, 2, 4)
    cache_kb_options: tuple[int, ...] = (256, 512)
    memory_mb_options: tuple[int, ...] = (32, 64, 128)
    networks: tuple[NetworkKind, ...] = (
        NetworkKind.ETHERNET_10,
        NetworkKind.ETHERNET_100,
        NetworkKind.ATM_155,
    )
    #: Shared-L2 options in KB; ``None`` entries mean "no L2".  Empty
    #: default keeps the paper's 1999 space (no L2 hardware).
    l2_kb_options: tuple = (None,)
    cpu_hz: float = CPU_HZ
    #: Divide cache/memory capacities by this when building the specs --
    #: lets the cost study run against scaled-down workloads (prices are
    #: still quoted for the full-size parts).
    size_scale: int = 1
    #: Topology mutations: for every flat cluster of N >= 4 machines,
    #: additionally offer it re-wired as racks of each of these sizes
    #: (an intra-rack network level is inserted; the flat network moves
    #: to the inter-rack level).  Empty default keeps the paper's flat
    #: space.
    rack_sizes: tuple[int, ...] = ()
    #: Intra-rack networks tried for each rack size.
    rack_networks: tuple[NetworkKind, ...] = (NetworkKind.ATM_155,)
    #: Hand-picked platforms (e.g. a topology file or a built-in deep
    #: platform) competing alongside the enumerated grid.  They must be
    #: priceable by the catalog.
    extra_platforms: tuple[PlatformSpec, ...] = ()
    #: Relative CPU speed grades offered by the market.  More than one
    #: grade turns on *machine-mix* enumeration: ``repro design --mix``
    #: (:func:`repro.scheduling.mix.enumerate_mixed_configurations`)
    #: combines unlike machines -- per-variant cache/memory/speed -- in
    #: one cluster and prices the faster CPUs via the catalog's
    #: ``speed_premium_per_unit``.
    machine_speeds: tuple[float, ...] = (1.0, 2.0)
    #: Machine-count ceiling for mixed clusters (the mix space is the
    #: cross product of two variants' counts, so it gets its own bound).
    mix_max_machines: int = 6

    def __post_init__(self) -> None:
        if self.max_machines < 1:
            raise ValueError("max_machines must be >= 1")
        if not self.processor_counts or min(self.processor_counts) < 1:
            raise ValueError("processor_counts must be positive")
        if self.size_scale < 1:
            raise ValueError("size_scale must be >= 1")
        if self.rack_sizes and min(self.rack_sizes) < 2:
            raise ValueError("rack sizes must be >= 2 machines")
        if not self.machine_speeds or min(self.machine_speeds) <= 0:
            raise ValueError("machine_speeds must be positive")
        if self.mix_max_machines < 2:
            raise ValueError("mix_max_machines must be >= 2")


def enumerate_configurations(
    budget: float,
    catalog: PriceCatalog | None = None,
    space: CandidateSpace | None = None,
) -> Iterator[tuple[PlatformSpec, float]]:
    """Yield every (platform, price) with price <= budget.

    Every candidate of the space is built and priced whatever the
    budget, which only filters the yield, so the enumeration at budget B
    is the unbounded one (``math.inf``) restricted to price <= B, in the
    same order.  Parallel platforms only (n*N >= 2), matching the
    paper's setting.
    """
    from repro.cost.catalog import DEFAULT_CATALOG

    catalog = catalog or DEFAULT_CATALOG
    space = space or CandidateSpace()
    if budget <= 0:
        raise ValueError("budget must be positive")

    for n in space.processor_counts:
        for cache_kb in space.cache_kb_options:
            for memory_mb in space.memory_mb_options:
                for l2_kb in space.l2_kb_options:
                    for N in range(1, space.max_machines + 1):
                        if n * N < 2:
                            continue
                        networks: tuple[NetworkKind | None, ...]
                        networks = (None,) if N == 1 else space.networks
                        for net in networks:
                            spec = PlatformSpec(
                                name=_config_name(n, N, cache_kb, memory_mb, net, l2_kb),
                                n=n,
                                N=N,
                                cache_bytes=cache_kb * 1024 // space.size_scale,
                                memory_bytes=memory_mb * 1024 * 1024 // space.size_scale,
                                network=net,
                                cpu_hz=space.cpu_hz,
                                l2_bytes=(
                                    l2_kb * 1024 // space.size_scale
                                    if l2_kb is not None
                                    else None
                                ),
                            )
                            # Price the full-size parts regardless of scaling
                            # (unscaled, the spec is its own full-size twin).
                            full = spec if space.size_scale == 1 else PlatformSpec(
                                name=spec.name,
                                n=n,
                                N=N,
                                cache_bytes=cache_kb * 1024,
                                memory_bytes=memory_mb * 1024 * 1024,
                                network=net,
                                cpu_hz=space.cpu_hz,
                                l2_bytes=l2_kb * 1024 if l2_kb is not None else None,
                            )
                            price = cluster_cost(catalog, full)
                            if price <= budget:
                                yield spec, price
                            if net is None:
                                continue
                            yield from _deepened(budget, catalog, space, spec, full)
    for extra in space.extra_platforms:
        assert_priceable(catalog, extra)
        price = cluster_cost(catalog, extra)
        if price <= budget:
            candidate = (
                extra.scaled(space.size_scale) if space.size_scale > 1 else extra
            )
            yield candidate, price


def _deepened(
    budget: float,
    catalog: PriceCatalog,
    space: CandidateSpace,
    spec: PlatformSpec,
    full: PlatformSpec,
) -> Iterator[tuple[PlatformSpec, float]]:
    """The "deepen the tree" mutations of one flat cluster candidate.

    Each valid rack size re-wires the N machines into switched racks
    behind the candidate's network; the price re-derives from the
    deepened full-size spec (per-level attachments), so a deep variant
    within budget competes on exactly the same footing.
    """
    for rack_size in space.rack_sizes:
        if spec.N < 4 or rack_size < 2 or spec.N % rack_size or spec.N // rack_size < 2:
            continue
        for rack_net in space.rack_networks:
            deep = deepen_spec(spec, rack_size, intra_network=rack_net)
            deep_full = (
                deep if full is spec
                else deepen_spec(full, rack_size, intra_network=rack_net)
            )
            deep_price = cluster_cost(catalog, deep_full)
            if deep_price <= budget:
                yield deep, deep_price


def _config_name(
    n: int, N: int, cache_kb: int, memory_mb: int, net: NetworkKind | None, l2_kb=None
) -> str:
    netpart = f", {net.value}" if net else ""
    l2part = f"+{l2_kb}KB L2" if l2_kb is not None else ""
    return f"{N}x(n={n}, {cache_kb}KB{l2part}, {memory_mb}MB{netpart})"
