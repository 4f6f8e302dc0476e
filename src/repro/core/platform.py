"""Platform specification: the architecture-parameter bundle of the model.

A :class:`PlatformSpec` captures everything the paper calls "architecture
parameters": machine count ``N``, processors per machine ``n``, CPU
speed, per-level capacities, and the cluster network.  It knows how to
build its :class:`~repro.core.hierarchy.MemoryHierarchy` and its own
classification (Table 1), and is the unit the cost optimizer enumerates.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields, replace

from repro.core.hierarchy import MemoryHierarchy, PlatformKind
from repro.sim.latencies import CPU_HZ, ITEM_BYTES, LatencyTable, NetworkKind, PAPER_LATENCIES
from repro.topology.build import build_hierarchy, classify
from repro.topology.canned import scaled_topology, topology_for_spec
from repro.topology.ir import ClusterNode, MachineNode, Topology, topology_from_dict

__all__ = ["PlatformSpec"]

#: The fields that must be ints.
_INT_FIELDS = ("n", "N", "cache_bytes", "memory_bytes", "cache_ways")
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class PlatformSpec:
    """A concrete parallel platform (one row of the paper's Tables 3-5).

    Parameters
    ----------
    name:
        Label, e.g. ``"C7"``.
    n:
        Processors per machine (1 for a workstation).
    N:
        Machines in the cluster (1 for a single SMP).
    cache_bytes:
        Per-processor cache capacity.
    memory_bytes:
        Per-machine main-memory capacity.
    network:
        Cluster interconnect; required when ``N > 1``, must be ``None``
        for a single machine.
    cpu_hz:
        Clock rate; instructions execute at one per cycle (paper 5.1).
    latencies:
        Uncontended per-edge costs; defaults to the paper's Section 5.1
        table.
    """

    name: str
    n: int
    N: int
    cache_bytes: int
    memory_bytes: int
    network: NetworkKind | None = None
    cpu_hz: float = CPU_HZ
    latencies: LatencyTable = field(default=PAPER_LATENCIES)
    #: Cache associativity used by the simulator (the paper's caches are
    #: two-way); the analytical model is associativity-blind and exposes
    #: ``cache_capacity_factor`` instead.
    cache_ways: int = 2
    #: Optional per-machine shared L2 capacity (extension: lengthens the
    #: hierarchy by one level; the paper's 1999 platforms have none).
    l2_bytes: int | None = None
    #: Optional declarative topology tree (:mod:`repro.topology`).  When
    #: set, the interconnects live in the tree (``network`` must stay
    #: ``None``) and the scalar shape fields (n, N, capacities) must
    #: agree with it -- build via :meth:`from_topology` so they cannot
    #: drift.  Enables shapes the flat fields cannot express, e.g. a
    #: two-level intra-rack-switch / inter-rack-bus cluster.
    topology: Topology | None = None

    def __post_init__(self) -> None:
        # Counts and byte sizes are ints, not bools (a bool is an int
        # subclass), so every size below compares as a number.
        if not (
            type(self.n) is int
            and type(self.N) is int
            and type(self.cache_bytes) is int
            and type(self.memory_bytes) is int
            and type(self.cache_ways) is int
        ):
            key = next(k for k in _INT_FIELDS if type(getattr(self, k)) is not int)
            raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if self.N > _FLOAT_MAX or self.memory_bytes > _FLOAT_MAX:
            raise ValueError("N and memory_bytes must be finite as floats")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.n == 1 and self.N == 1:
            raise ValueError("a 1x1 platform is a plain uniprocessor; the paper's platforms are parallel (use n>1 or N>1)")
        # The model folds capacities in whole items, so they are compared in items.
        if self.cache_bytes < ITEM_BYTES:
            raise ValueError(f"cache must hold at least one {ITEM_BYTES}-byte line")
        if self.memory_bytes // ITEM_BYTES <= self.cache_bytes // ITEM_BYTES:
            raise ValueError("memory must be larger than the cache")
        if self.topology is None and self.N > 1 and self.network is None:
            raise ValueError("a multi-machine cluster needs a network")
        if self.N == 1 and self.network is not None:
            raise ValueError("a single SMP has no cluster network")
        hz = self.cpu_hz
        if not (isinstance(hz, (int, float)) and type(hz) is not bool and 0 < hz <= _FLOAT_MAX):
            raise ValueError(f"cpu_hz must be positive and finite, got {hz!r}")
        if self.cache_ways < 1:
            raise ValueError("cache_ways must be >= 1")
        if self.l2_bytes is not None:
            if type(self.l2_bytes) is not int:
                raise ValueError(f"l2_bytes must be an integer, got {self.l2_bytes!r}")
            if not (
                self.cache_bytes // ITEM_BYTES
                < self.l2_bytes // ITEM_BYTES
                < self.memory_bytes // ITEM_BYTES
            ):
                raise ValueError("l2_bytes must sit strictly between cache and memory")
        if self.topology is not None:
            self._check_topology_consistency()

    def _check_topology_consistency(self) -> None:
        t = self.topology
        if not isinstance(t, (MachineNode, ClusterNode)):
            raise ValueError(
                f"topology must be a MachineNode or ClusterNode, got {type(t).__name__}"
            )
        if self.network is not None:
            raise ValueError(
                "a topology-defined platform carries its interconnects in the "
                "tree; leave network=None"
            )
        if not t.is_homogeneous:
            raise ValueError(
                "PlatformSpec is homogeneous by construction (one n, one "
                "cache/memory shape, one speed); this topology holds unlike "
                "machines -- wrap it in repro.scheduling.HeteroPlatform and "
                "evaluate it through the scheduling layer instead"
            )
        m = t.machine
        if m.speed != 1.0:
            raise ValueError(
                "per-machine speed is a scheduling-layer concept; "
                f"machine speed {m.speed!r} != 1.0 -- wrap the tree in "
                "repro.scheduling.HeteroPlatform instead of a PlatformSpec"
            )
        if self.n != m.processors or self.N != t.total_machines:
            raise ValueError(
                f"spec shape (n={self.n}, N={self.N}) disagrees with its topology "
                f"(n={m.processors}, N={t.total_machines}); build via from_topology()"
            )
        pairs = (
            ("cache_bytes", self.cache_bytes, m.cache.capacity_items),
            ("memory_bytes", self.memory_bytes, m.memory.capacity_items),
        )
        for field_name, byte_value, items in pairs:
            if byte_value != int(items * ITEM_BYTES):
                raise ValueError(f"spec {field_name} disagrees with its topology tree")
        l2b = int(m.l2.capacity_items * ITEM_BYTES) if m.l2 is not None else None
        if self.l2_bytes != l2b:
            raise ValueError("spec l2_bytes disagrees with its topology tree")
        if self.cache_ways != m.cache.ways:
            raise ValueError("spec cache_ways disagrees with its topology tree")

    # ------------------------------------------------------------------
    @classmethod
    def from_topology(
        cls,
        name: str,
        topology: Topology,
        cpu_hz: float = CPU_HZ,
        latencies: LatencyTable = PAPER_LATENCIES,
    ) -> "PlatformSpec":
        """Build a spec from a topology tree, deriving the flat shape
        fields (n, N, capacities, associativity) from the tree so the
        two representations can never disagree."""
        if not isinstance(topology, (MachineNode, ClusterNode)):
            raise ValueError(
                f"topology must be a MachineNode or ClusterNode, got {type(topology).__name__}"
            )
        m = topology.machine
        return cls(
            name=name,
            n=m.processors,
            N=topology.total_machines,
            cache_bytes=int(m.cache.capacity_items * ITEM_BYTES),
            memory_bytes=int(m.memory.capacity_items * ITEM_BYTES),
            network=None,
            cpu_hz=cpu_hz,
            latencies=latencies,
            cache_ways=m.cache.ways,
            l2_bytes=int(m.l2.capacity_items * ITEM_BYTES) if m.l2 is not None else None,
            topology=topology,
        )

    @property
    def kind(self) -> PlatformKind:
        """Table 1 classification from the (n, N) shape (or the tree)."""
        if self.topology is not None:
            return classify(self.topology)
        if self.N == 1:
            return PlatformKind.SMP
        return PlatformKind.COW if self.n == 1 else PlatformKind.CLUMP

    @property
    def total_processors(self) -> int:
        return self.n * self.N

    @property
    def cache_items(self) -> int:
        """Cache capacity in 64-byte stack-distance items."""
        return self.cache_bytes // ITEM_BYTES

    @property
    def memory_items(self) -> int:
        """Per-machine memory capacity in items."""
        return self.memory_bytes // ITEM_BYTES

    @property
    def l2_items(self) -> int | None:
        """Shared-L2 capacity in items, if the platform has one."""
        return self.l2_bytes // ITEM_BYTES if self.l2_bytes is not None else None

    @property
    def cycle_seconds(self) -> float:
        return 1.0 / self.cpu_hz

    # ------------------------------------------------------------------
    def hierarchy(
        self,
        include_peer_cache: bool = False,
        cache_capacity_factor: float = 1.0,
    ) -> MemoryHierarchy:
        """Build the modeled memory hierarchy: one fold of the spec's tree."""
        return build_hierarchy(
            topology_for_spec(self),
            include_peer_cache=include_peer_cache,
            cache_capacity_factor=cache_capacity_factor,
        )

    def scaled(self, size_divisor: int) -> "PlatformSpec":
        """Return a copy with cache, L2 and memory shrunk by ``size_divisor``.

        Used to run the paper's configurations against laptop-scale
        application problem sizes while preserving all capacity ratios
        (DESIGN.md substitution 2).  The spec's tree is scaled by
        :func:`~repro.topology.canned.scaled_topology`, so sizes come out
        in whole 64-byte items with that rule's floors; a flat spec stays
        flat (``topology=None``).
        """
        topo = scaled_topology(topology_for_spec(self), size_divisor)
        m = topo.machine
        return replace(
            self,
            name=f"{self.name}/{size_divisor}" if size_divisor > 1 else self.name,
            cache_bytes=int(m.cache.capacity_items) * ITEM_BYTES,
            memory_bytes=int(m.memory.capacity_items) * ITEM_BYTES,
            l2_bytes=int(m.l2.capacity_items) * ITEM_BYTES if m.l2 is not None else None,
            topology=topo if self.topology is not None else None,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-safe form; the canonical simulation cache-key
        material (see :mod:`repro.diskcache`)."""
        return {
            "name": self.name,
            "n": self.n,
            "N": self.N,
            "cache_bytes": self.cache_bytes,
            "memory_bytes": self.memory_bytes,
            "network": self.network.value if self.network is not None else None,
            "cpu_hz": self.cpu_hz,
            "latencies": {
                f.name: getattr(self.latencies, f.name)
                for f in fields(self.latencies)
            },
            "cache_ways": self.cache_ways,
            "l2_bytes": self.l2_bytes,
            "topology": self.topology.to_dict() if self.topology is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PlatformSpec":
        """Inverse of :meth:`to_dict`; raises ValueError on bad payloads."""
        if not isinstance(payload, dict):
            raise ValueError(f"platform spec must be a mapping, got {type(payload).__name__}")
        known = {
            "name", "n", "N", "cache_bytes", "memory_bytes", "network",
            "cpu_hz", "latencies", "cache_ways", "l2_bytes", "topology",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown platform spec keys: {', '.join(sorted(unknown))}")
        try:
            name = payload["name"]
            n = payload["n"]
            N = payload["N"]
            cache_bytes = payload["cache_bytes"]
            memory_bytes = payload["memory_bytes"]
        except KeyError as exc:
            raise ValueError(f"platform spec is missing required key {exc.args[0]!r}") from None
        network = payload.get("network")
        if network is not None:
            try:
                network = NetworkKind(network)
            except ValueError:
                known_nets = ", ".join(repr(k.value) for k in NetworkKind)
                raise ValueError(f"unknown network {network!r}; known: {known_nets}") from None
        latencies = payload.get("latencies")
        if latencies is None:
            latencies = PAPER_LATENCIES
        elif isinstance(latencies, dict):
            try:
                latencies = LatencyTable(**latencies)
            except TypeError as exc:
                raise ValueError(f"bad latencies table: {exc}") from None
        else:
            raise ValueError("latencies must be a mapping of cost names to cycles")
        topology = payload.get("topology")
        if topology is not None:
            topology = topology_from_dict(topology)
        try:
            return cls(
                name=name,
                n=n,
                N=N,
                cache_bytes=cache_bytes,
                memory_bytes=memory_bytes,
                network=network,
                cpu_hz=payload.get("cpu_hz", CPU_HZ),
                latencies=latencies,
                cache_ways=payload.get("cache_ways", 2),
                l2_bytes=payload.get("l2_bytes"),
                topology=topology,
            )
        except TypeError as exc:
            raise ValueError(f"bad platform spec: {exc}") from None

    def describe(self) -> str:
        """One-line summary in the style of the paper's config tables."""
        if self.topology is not None and self.topology.depth > 0:
            nets = " + ".join(ic.label for ic, _ in self.topology.interconnects)
            net = f", {nets}"
        else:
            net = f", {self.network.value}" if self.network else ""
        return (
            f"{self.name}: {self.kind.value}, n={self.n}, N={self.N}, "
            f"cache {self.cache_bytes // 1024}KB, memory {self.memory_bytes // 1024}KB"
            f"{net}, {self.cpu_hz / 1e6:.0f} MHz"
        )
