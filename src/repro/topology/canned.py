"""Canned topologies: the paper's three shapes and new compositions.

The SMP/COW/CLUMP builders here produce trees whose folded hierarchy
(:func:`repro.topology.build.build_hierarchy`) and composed simulator
back-end are bit-identical to the pre-refactor bespoke code paths.
:func:`clump_of_smps_topology` is the first shape the old three-kind
enum could not express: racks of SMPs on an intra-rack switch, racks
joined by an inter-rack bus -- two interconnect levels in one platform.
"""

from __future__ import annotations

from repro.sim.latencies import (
    CPU_HZ,
    ITEM_BYTES,
    LatencyTable,
    NETWORK_LATENCIES,
    NetworkKind,
    PAPER_LATENCIES,
)
from repro.topology.ir import (
    CacheLevel,
    ClusterNode,
    Contention,
    DiskLevel,
    InterconnectLevel,
    MachineNode,
    MemoryLevel,
    Topology,
)

__all__ = [
    "interconnect_for",
    "smp_topology",
    "cow_topology",
    "clump_topology",
    "clump_of_smps_topology",
    "clump_of_smps_spec",
    "deepen_spec",
    "topology_for_spec",
    "scaled_topology",
    "builtin_platform",
    "BUILTIN_PLATFORMS",
    "mixed_cow_topology",
    "mixed_clump_topology",
    "builtin_mixed_topology",
    "BUILTIN_MIXED_TOPOLOGIES",
]

KB = 1024


def interconnect_for(
    network: NetworkKind, smp_nodes: bool = False, label: str | None = None
) -> InterconnectLevel:
    """Resolve a Section 5.1 network row into an interconnect level.

    ``smp_nodes=True`` selects the paper's CLUMP rows: +3 cycles on both
    remote costs for the extra intra-SMP bus hop at each endpoint.
    """
    remote_node, remote_cached = NETWORK_LATENCIES[network]
    if smp_nodes:
        remote_node += 3
        remote_cached += 3
    return InterconnectLevel(
        network=network,
        contention=Contention.BUS if network.is_bus else Contention.SWITCH,
        remote_node_cycles=float(remote_node),
        remote_cached_cycles=float(remote_cached),
        remote_disk_extra_cycles=float(remote_node),
        label=label or network.value,
    )


def _machine(
    processors: int,
    cache_items: float,
    memory_items: float,
    latencies: LatencyTable,
    ways: int = 2,
    l2_items: float | None = None,
    speed: float = 1.0,
) -> MachineNode:
    return MachineNode(
        processors=processors,
        cache=CacheLevel(
            capacity_items=cache_items,
            tau_cycles=float(latencies.cache_hit),
            ways=ways,
            peer_tau_cycles=float(latencies.remote_cache_smp),
        ),
        memory=MemoryLevel(
            capacity_items=memory_items,
            tau_cycles=float(latencies.cache_to_memory),
        ),
        disk=DiskLevel(tau_cycles=float(latencies.memory_to_disk)),
        l2=(
            CacheLevel(capacity_items=l2_items, tau_cycles=float(latencies.l2_hit), ways=8)
            if l2_items is not None
            else None
        ),
        speed=speed,
    )


def smp_topology(
    n: int,
    cache_items: float,
    memory_items: float,
    latencies: LatencyTable = PAPER_LATENCIES,
    ways: int = 2,
    l2_items: float | None = None,
) -> MachineNode:
    """A single bus-based SMP (paper Table 1 row A)."""
    return _machine(n, cache_items, memory_items, latencies, ways, l2_items)


def cow_topology(
    N: int,
    cache_items: float,
    memory_items: float,
    network: NetworkKind,
    latencies: LatencyTable = PAPER_LATENCIES,
    ways: int = 2,
    l2_items: float | None = None,
) -> ClusterNode:
    """A cluster of N uniprocessor workstations (rows B, C)."""
    return ClusterNode(
        count=N,
        child=_machine(1, cache_items, memory_items, latencies, ways, l2_items),
        interconnect=interconnect_for(network, smp_nodes=False),
    )


def clump_topology(
    n: int,
    N: int,
    cache_items: float,
    memory_items: float,
    network: NetworkKind,
    latencies: LatencyTable = PAPER_LATENCIES,
    ways: int = 2,
    l2_items: float | None = None,
) -> ClusterNode:
    """A cluster of N SMPs with n processors each (rows A, B, C)."""
    return ClusterNode(
        count=N,
        child=_machine(n, cache_items, memory_items, latencies, ways, l2_items),
        interconnect=interconnect_for(network, smp_nodes=True),
    )


def clump_of_smps_topology(
    racks: int,
    machines_per_rack: int,
    procs_per_machine: int,
    cache_items: float,
    memory_items: float,
    intra_network: NetworkKind = NetworkKind.ATM_155,
    inter_network: NetworkKind = NetworkKind.ETHERNET_100,
    latencies: LatencyTable = PAPER_LATENCIES,
    ways: int = 2,
    l2_items: float | None = None,
) -> ClusterNode:
    """A two-level cluster: racks of SMPs on a switch, racks on a bus.

    This is the scenario the pre-refactor three-kind enum cannot
    express: two interconnect levels with different contention classes
    in one platform.  The default pairs the paper's 155 Mb ATM switch
    inside a rack with a 100 Mb Ethernet bus between racks.
    """
    smp_nodes = procs_per_machine > 1
    return ClusterNode(
        count=racks,
        child=ClusterNode(
            count=machines_per_rack,
            child=_machine(
                procs_per_machine, cache_items, memory_items, latencies, ways, l2_items
            ),
            interconnect=interconnect_for(
                intra_network, smp_nodes, label=f"intra-rack {intra_network.value}"
            ),
        ),
        interconnect=interconnect_for(
            inter_network, smp_nodes, label=f"inter-rack {inter_network.value}"
        ),
    )


def topology_for_spec(spec) -> Topology:
    """The tree a spec folds: its own, or the canned tree of a flat spec."""
    if spec.topology is not None:
        return spec.topology
    if spec.N == 1:
        return smp_topology(
            spec.n, spec.cache_items, spec.memory_items, spec.latencies,
            ways=spec.cache_ways, l2_items=spec.l2_items,
        )
    if spec.n == 1:
        return cow_topology(
            spec.N, spec.cache_items, spec.memory_items, spec.network,
            spec.latencies, ways=spec.cache_ways, l2_items=spec.l2_items,
        )
    return clump_topology(
        spec.n, spec.N, spec.cache_items, spec.memory_items, spec.network,
        spec.latencies, ways=spec.cache_ways, l2_items=spec.l2_items,
    )


def scaled_topology(topology: Topology, size_divisor: int) -> Topology:
    """Shrink every capacity by ``size_divisor``, in whole items.

    The rule behind :meth:`~repro.core.platform.PlatformSpec.scaled`:
    a cache keeps at least one item, memory at least ``max(2, cache +
    1)`` items, and an L2 that no longer sits strictly between the two
    is dropped.
    """
    if size_divisor < 1:
        raise ValueError("size_divisor must be >= 1")
    if isinstance(topology, ClusterNode):
        if topology.children:
            return ClusterNode(
                children=tuple(
                    scaled_topology(kid, size_divisor) for kid in topology.children
                ),
                interconnect=topology.interconnect,
            )
        return ClusterNode(
            count=topology.count,
            child=scaled_topology(topology.child, size_divisor),
            interconnect=topology.interconnect,
        )
    m = topology
    cache_items = max(1, int(m.cache.capacity_items) // size_divisor)
    memory_items = max(2, cache_items + 1, int(m.memory.capacity_items) // size_divisor)
    l2 = None
    if m.l2 is not None:
        l2_items = int(m.l2.capacity_items) // size_divisor
        if cache_items < l2_items < memory_items:
            l2 = CacheLevel(
                capacity_items=l2_items, tau_cycles=m.l2.tau_cycles,
                ways=m.l2.ways, peer_tau_cycles=m.l2.peer_tau_cycles,
            )
    return MachineNode(
        processors=m.processors,
        cache=CacheLevel(
            capacity_items=cache_items, tau_cycles=m.cache.tau_cycles,
            ways=m.cache.ways, peer_tau_cycles=m.cache.peer_tau_cycles,
        ),
        memory=MemoryLevel(capacity_items=memory_items, tau_cycles=m.memory.tau_cycles),
        disk=m.disk,
        l2=l2,
        speed=m.speed,
    )


# -- CLI-facing built-in platforms -------------------------------------
def clump_of_smps_spec(
    name: str = "clump-of-smps",
    racks: int = 2,
    machines_per_rack: int = 2,
    procs_per_machine: int = 2,
    cache_bytes: int = 2 * KB,
    memory_bytes: int = 256 * KB,
    intra_network: NetworkKind = NetworkKind.ATM_155,
    inter_network: NetworkKind = NetworkKind.ETHERNET_100,
    cpu_hz: float = CPU_HZ,
):
    """The shipped two-level demo platform as a PlatformSpec."""
    from repro.core.platform import PlatformSpec

    topo = clump_of_smps_topology(
        racks=racks,
        machines_per_rack=machines_per_rack,
        procs_per_machine=procs_per_machine,
        cache_items=cache_bytes // ITEM_BYTES,
        memory_items=memory_bytes // ITEM_BYTES,
        intra_network=intra_network,
        inter_network=inter_network,
    )
    return PlatformSpec.from_topology(name, topo, cpu_hz=cpu_hz)


def deepen_spec(spec, rack_size: int, intra_network: NetworkKind = NetworkKind.ATM_155):
    """Topology mutation: split a flat cluster into switched racks.

    Takes a flat N-machine cluster and inserts an intra-rack switch
    level of ``rack_size`` machines; the spec's own network becomes the
    inter-rack level.  Requires ``rack_size`` to divide ``N`` with at
    least two racks of at least two machines.  Used by the design
    search to enumerate "deepen the tree" moves.
    """
    from repro.core.platform import PlatformSpec

    if spec.N < 4 or spec.network is None or spec.topology is not None:
        raise ValueError(f"cannot deepen {spec.name!r}: need a flat cluster of >= 4 machines")
    if rack_size < 2 or spec.N % rack_size or spec.N // rack_size < 2:
        raise ValueError(
            f"rack_size {rack_size} must divide N={spec.N} into >= 2 racks of >= 2 machines"
        )
    topo = clump_of_smps_topology(
        racks=spec.N // rack_size,
        machines_per_rack=rack_size,
        procs_per_machine=spec.n,
        cache_items=spec.cache_items,
        memory_items=spec.memory_items,
        intra_network=intra_network,
        inter_network=spec.network,
        latencies=spec.latencies,
        ways=spec.cache_ways,
        l2_items=spec.l2_items,
    )
    name = f"{spec.N // rack_size}rack[{intra_network.value}]x{rack_size}x({spec.name})"
    return PlatformSpec.from_topology(
        name, topo, cpu_hz=spec.cpu_hz, latencies=spec.latencies
    )


# -- canned heterogeneous (mixed) trees --------------------------------
def mixed_cow_topology(
    fast_machines: int = 2,
    large_machines: int = 2,
    network: NetworkKind = NetworkKind.ETHERNET_100,
    latencies: LatencyTable = PAPER_LATENCIES,
) -> ClusterNode:
    """A mixed cluster of workstations: fast-small vs. slow-large nodes.

    The canonical scheduling testbed (docs/SCHEDULING.md): half the
    machines have 2x CPUs but small caches/memories, half are baseline
    CPUs with 8x the cache and 4x the memory.  Speed-proportional
    placement overloads the fast machines' small hierarchies;
    memory-aware placement sees both effects.
    """
    if fast_machines < 1 or large_machines < 1:
        raise ValueError("the mixed COW needs >= 1 machine of each kind")
    fast = _machine(1, 64 * KB / ITEM_BYTES, 8 * KB * KB / ITEM_BYTES, latencies, speed=2.0)
    large = _machine(1, 512 * KB / ITEM_BYTES, 32 * KB * KB / ITEM_BYTES, latencies, speed=1.0)
    return ClusterNode(
        children=(fast,) * fast_machines + (large,) * large_machines,
        interconnect=interconnect_for(network, smp_nodes=False),
    )


def mixed_clump_topology(
    wide_machines: int = 2,
    fast_machines: int = 2,
    network: NetworkKind = NetworkKind.ATM_155,
    latencies: LatencyTable = PAPER_LATENCIES,
) -> ClusterNode:
    """A mixed cluster of SMPs: wide-slow vs. narrow-fast nodes.

    Half the nodes are 4-way SMPs at baseline speed with mid-size
    hierarchies; half are 2-way SMPs at 2.5x speed with small ones.
    The per-process memory pressure differs *within* the tree, which is
    exactly what the memory-aware policy exploits.
    """
    if wide_machines < 1 or fast_machines < 1:
        raise ValueError("the mixed CLUMP needs >= 1 machine of each kind")
    wide = _machine(4, 512 * KB / ITEM_BYTES, 32 * KB * KB / ITEM_BYTES, latencies, speed=1.0)
    fast = _machine(2, 256 * KB / ITEM_BYTES, 16 * KB * KB / ITEM_BYTES, latencies, speed=2.5)
    return ClusterNode(
        children=(wide,) * wide_machines + (fast,) * fast_machines,
        interconnect=interconnect_for(network, smp_nodes=True),
    )


#: Built-in heterogeneous trees accepted by ``repro schedule --platform``
#: (and anywhere a mixed tree is useful as a fixture).  These are raw
#: :class:`~repro.topology.ir.Topology` factories, not PlatformSpecs --
#: a heterogeneous tree cannot be a PlatformSpec by construction.
BUILTIN_MIXED_TOPOLOGIES = {
    "mixed-cow": lambda: mixed_cow_topology(),
    "mixed-clump": lambda: mixed_clump_topology(),
}


def builtin_mixed_topology(name: str) -> ClusterNode:
    """Look up a built-in mixed tree by name; ValueError when unknown."""
    try:
        factory = BUILTIN_MIXED_TOPOLOGIES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_MIXED_TOPOLOGIES))
        raise ValueError(
            f"unknown built-in mixed topology {name!r}; known: {known}"
        ) from None
    return factory()


#: Built-in ``--platform`` names accepted by the CLI, sized to run in
#: seconds against demo problem sizes (like the CI smoke platforms).
BUILTIN_PLATFORMS = {
    "clump-of-smps": lambda: clump_of_smps_spec(),
    "cow-of-racks": lambda: clump_of_smps_spec(
        name="cow-of-racks", procs_per_machine=1, machines_per_rack=2, racks=2
    ),
}


def builtin_platform(name: str):
    """Look up a built-in platform by name; raise ValueError when unknown."""
    try:
        factory = BUILTIN_PLATFORMS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_PLATFORMS))
        raise ValueError(f"unknown built-in platform {name!r}; known: {known}") from None
    return factory()
