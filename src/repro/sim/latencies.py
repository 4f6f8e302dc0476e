"""The paper's Section 5.1 architecture constants, in CPU cycles.

All timings below are quoted verbatim from the paper (consistent, per the
authors, with the Stanford FLASH numbers and Hennessy & Patterson).  The
CPU executes one instruction per cycle at 200 MHz, so a cycle is 5 ns.

Stack distances and cache capacities are measured in *items* of one
64-byte cache line throughout the library; the directory protocol used on
clusters manages 256-byte blocks (4 lines), also per the paper.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace
from enum import Enum

__all__ = [
    "ITEM_BYTES",
    "CACHE_LINE_BYTES",
    "DIRECTORY_BLOCK_BYTES",
    "CPU_HZ",
    "NetworkKind",
    "NAMED_NETWORKS",
    "LatencyTable",
    "PAPER_LATENCIES",
    "NETWORK_LATENCIES",
    "REMOTE_CACHED_LATENCIES",
]

#: Granularity of one stack-distance "item": a 64-byte cache line.
ITEM_BYTES = 64

#: SMP / workstation cache line size (bytes), paper Section 5.1.
CACHE_LINE_BYTES = 64

#: Directory-protocol block size on clusters (bytes), paper Section 5.1.
DIRECTORY_BLOCK_BYTES = 256

#: Paper's CPU clock: 200 MHz, one instruction per cycle.
CPU_HZ = 200_000_000


class NetworkKind(str, Enum):
    """The cluster interconnects evaluated by the paper."""

    ETHERNET_10 = "10Mb bus"
    ETHERNET_100 = "100Mb bus"
    ATM_155 = "155Mb switch"

    @property
    def is_bus(self) -> bool:
        """True for shared-medium (Ethernet) networks."""
        return self in (NetworkKind.ETHERNET_10, NetworkKind.ETHERNET_100)

    @property
    def is_switch(self) -> bool:
        """True for switched point-to-point (ATM) networks."""
        return self is NetworkKind.ATM_155

    @property
    def bandwidth_mbps(self) -> int:
        return {"10Mb bus": 10, "100Mb bus": 100, "155Mb switch": 155}[self.value]


#: The interconnects by the name a CLI flag or service request uses.
NAMED_NETWORKS: dict[str, NetworkKind] = {
    "ethernet10": NetworkKind.ETHERNET_10,
    "ethernet100": NetworkKind.ETHERNET_100,
    "atm": NetworkKind.ATM_155,
}


@dataclass(frozen=True)
class LatencyTable:
    """Uncontended access costs (cycles) of every memory-hierarchy edge.

    Field names follow the paper's wording; each value is the *additional*
    cost an access pays on top of the faster levels it already traversed,
    which is exactly how the additive AMAT model (Eq. 7/11) and the
    simulators consume them.
    """

    instruction: int = 1  #: one instruction execution
    cache_hit: int = 1  #: access satisfied by the local cache
    l2_hit: int = 10  #: L1 miss served by a shared L2 (extension; the
    #: paper's 1999 platforms have no L2 -- used only when a platform
    #: declares one)
    cache_to_memory: int = 50  #: cache miss served by local / SMP memory
    memory_to_disk: int = 2000  #: memory miss served by the local disk
    remote_cache_smp: int = 15  #: miss served by a peer cache inside an SMP
    remote_node: int = 0  #: miss served by another node's memory, via the network
    remote_cached: int = 0  #: miss served by data cached on a remote node
    remote_disk_extra: int = 0  #: surcharge of a remote over a local disk access

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0 <= value <= sys.float_info.max
            ):
                raise ValueError(
                    f"latency {f.name} must be a finite non-negative number "
                    f"of cycles, got {value!r}"
                )

    def with_network(self, network: "NetworkKind", clump: bool = False) -> "LatencyTable":
        """Return a copy with the paper's network-dependent costs filled in.

        ``clump=True`` selects the cluster-of-SMPs rows (3 cycles higher,
        reflecting the extra intra-SMP bus hop the paper charges).
        """
        remote_node, remote_cached = NETWORK_LATENCIES[network]
        if clump:
            remote_node += 3
            remote_cached += 3
        return replace(
            self,
            remote_node=remote_node,
            remote_cached=remote_cached,
            remote_disk_extra=remote_node,
        )


#: (cache miss to a remote node, cache miss to remotely cached data) in
#: cycles, for a cluster of workstations -- paper Section 5.1.
NETWORK_LATENCIES: dict[NetworkKind, tuple[int, int]] = {
    NetworkKind.ETHERNET_10: (45_075, 90_150),
    NetworkKind.ETHERNET_100: (4_575, 9_150),
    NetworkKind.ATM_155: (3_275, 6_550),
}

#: Convenience view of just the remotely-cached column.
REMOTE_CACHED_LATENCIES: dict[NetworkKind, int] = {
    k: v[1] for k, v in NETWORK_LATENCIES.items()
}

#: The paper's base table (network-independent rows).
PAPER_LATENCIES = LatencyTable()
