"""The topology IR: composable levels and the platform tree.

A platform is a tree.  Leaves are :class:`MachineNode`\\ s -- a group of
processors behind one cache/L2/memory/disk stack.  Interior nodes are
:class:`ClusterNode`\\ s joined by an :class:`InterconnectLevel` (bus or
switch).  A cluster node comes in two forms: the homogeneous sugar
``count`` x ``child`` (one subtree replicated), and an explicit
``children`` tuple of *unlike* subtrees (schema v2).  Trees whose every
cluster node uses the sugar -- or whose ``children`` all compare equal,
which is canonicalized to the sugar on construction -- are homogeneous:
``procs_per_machine`` is well defined and the simulator's ``machine =
proc // n`` arithmetic stays valid at any depth.  Heterogeneous trees
additionally carry a per-machine relative CPU ``speed`` and are folded
per leaf by :func:`repro.topology.build.leaf_hierarchies` and scheduled
by :mod:`repro.scheduling`.

Sizes are measured in 64-byte *items* (the library's stack-distance
unit, :data:`repro.sim.latencies.ITEM_BYTES`) and every ``tau`` is an
uncontended cost in CPU cycles, exactly the (s_i, tau_i) pairs of the
paper's Eq. 7.  All classes are frozen dataclasses: topologies hash
stably, compare by value, and round-trip losslessly through
``to_dict``/``from_dict`` (the canonical cache-key material).  Every
count (processors, cluster ``count``, ``ways``) is an ``int``, never a
``bool``, and every other number a finite ``int`` or ``float``, so a
tree that constructs folds and round-trips.  The
canonicalization of all-equal ``children`` to the sugar form means a
homogeneous tree has exactly one in-memory representation -- and hence
one hash -- no matter which constructor form built it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Union

from repro.sim.latencies import ITEM_BYTES, NetworkKind

__all__ = [
    "CacheLevel",
    "MemoryLevel",
    "DiskLevel",
    "Contention",
    "InterconnectLevel",
    "MachineNode",
    "ClusterNode",
    "Topology",
    "topology_from_dict",
]


#: The least positive float: the minimum of a quantity that must be > 0.
_POSITIVE = math.ulp(0.0)
#: Capacities stay finite in bytes, not only in items.
_MAX_ITEMS = sys.float_info.max / ITEM_BYTES


def _check_count(value, rule: str, minimum: int = 1) -> None:
    """Raise ``ValueError(rule)`` unless ``value`` is an ``int``, not a
    ``bool``, of at least ``minimum``."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{rule}, got {value!r}")


def _check_number(
    value, rule: str, minimum: float = 0.0, maximum: float = sys.float_info.max
) -> None:
    """Raise ``ValueError(rule)`` unless ``value`` is an ``int`` or
    ``float``, not a ``bool``, in ``[minimum, maximum]``: finite, never
    NaN."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not minimum <= value <= maximum
    ):
        raise ValueError(f"{rule}, got {value!r}")


class Contention(str, Enum):
    """How an interconnect serializes traffic (its M/D/1 shape)."""

    BUS = "bus"  #: one shared medium; every message under the level queues
    SWITCH = "switch"  #: pairwise paths; queueing only at the destination


@dataclass(frozen=True)
class CacheLevel:
    """A per-processor cache: capacity, hit cost, peer-transfer cost."""

    capacity_items: float
    tau_cycles: float = 1.0  #: hit cost (the hierarchy's base access time)
    ways: int = 2
    peer_tau_cycles: float = 15.0  #: cache-to-cache cost within a snoop group

    def __post_init__(self) -> None:
        _check_number(
            self.capacity_items, "cache must hold at least one item (finite)", 1.0, _MAX_ITEMS
        )
        for cost in (self.tau_cycles, self.peer_tau_cycles):
            _check_number(cost, "cache costs must be finite and non-negative")
        _check_count(self.ways, "ways must be an integer >= 1")

    def to_dict(self) -> dict:
        return {
            "capacity_items": self.capacity_items,
            "tau_cycles": self.tau_cycles,
            "ways": self.ways,
            "peer_tau_cycles": self.peer_tau_cycles,
        }


@dataclass(frozen=True)
class MemoryLevel:
    """A machine's main memory: capacity and miss-to-memory cost."""

    capacity_items: float
    tau_cycles: float = 50.0

    def __post_init__(self) -> None:
        _check_number(
            self.capacity_items, "memory must hold at least one item (finite)", 1.0, _MAX_ITEMS
        )
        _check_number(self.tau_cycles, "memory cost must be finite and non-negative")

    def to_dict(self) -> dict:
        return {"capacity_items": self.capacity_items, "tau_cycles": self.tau_cycles}


@dataclass(frozen=True)
class DiskLevel:
    """A machine's disk behind its I/O bus: memory-miss cost."""

    tau_cycles: float = 2000.0

    def __post_init__(self) -> None:
        _check_number(self.tau_cycles, "disk cost must be finite and non-negative")

    def to_dict(self) -> dict:
        return {"tau_cycles": self.tau_cycles}


@dataclass(frozen=True)
class InterconnectLevel:
    """One network level joining the subtrees of a :class:`ClusterNode`.

    Carries fully resolved cycle costs: ``remote_node_cycles`` (a miss
    served by another subtree's memory across this level),
    ``remote_cached_cycles`` (served by remotely cached dirty data) and
    ``remote_disk_extra_cycles`` (surcharge of a remote over a local
    disk access).  The canned builders derive these from the paper's
    Section 5.1 network table (including the +3-cycle intra-SMP hop);
    custom topologies may state any costs directly.
    """

    network: NetworkKind  #: base hardware (used for pricing and labels)
    contention: Contention
    remote_node_cycles: float
    remote_cached_cycles: float
    remote_disk_extra_cycles: float
    label: str  #: report label, e.g. ``"155Mb switch"`` or ``"inter-rack 100Mb bus"``

    def __post_init__(self) -> None:
        for cost in (
            self.remote_node_cycles, self.remote_cached_cycles, self.remote_disk_extra_cycles
        ):
            _check_number(cost, "interconnect costs must be finite and non-negative")
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"an interconnect level needs a label string, got {self.label!r}")

    def to_dict(self) -> dict:
        return {
            "network": self.network.value,
            "contention": self.contention.value,
            "remote_node_cycles": self.remote_node_cycles,
            "remote_cached_cycles": self.remote_cached_cycles,
            "remote_disk_extra_cycles": self.remote_disk_extra_cycles,
            "label": self.label,
        }


@dataclass(frozen=True)
class MachineNode:
    """A leaf: ``processors`` CPUs behind one cache/memory/disk stack.

    ``speed`` is the machine's relative CPU rate: a ``speed=2.0``
    machine retires non-memory work twice as fast as the baseline (its
    1/S term in the paper's Eq. 4 halves), while memory latencies --
    already stated in this machine's own CPU cycles -- are unchanged.
    The homogeneous model only ever sees ``speed=1.0``.
    """

    processors: int
    cache: CacheLevel
    memory: MemoryLevel
    disk: DiskLevel
    l2: CacheLevel | None = None
    speed: float = 1.0

    def __post_init__(self) -> None:
        _check_count(self.processors, "a machine needs an integer >= 1 of processors")
        if self.memory.capacity_items <= self.cache.capacity_items:
            raise ValueError("memory must be larger than the cache")
        if self.l2 is not None and not (
            self.cache.capacity_items < self.l2.capacity_items < self.memory.capacity_items
        ):
            raise ValueError("L2 must sit strictly between the cache and memory")
        _check_number(self.speed, "machine speed must be positive and finite", _POSITIVE)

    # -- tree queries --------------------------------------------------
    @property
    def machine(self) -> "MachineNode":
        return self

    @property
    def is_homogeneous(self) -> bool:
        return True

    @property
    def procs_per_machine(self) -> int:
        return self.processors

    @property
    def total_machines(self) -> int:
        return 1

    @property
    def total_processors(self) -> int:
        return self.processors

    @property
    def depth(self) -> int:
        """Number of interconnect levels above the machines."""
        return 0

    @property
    def leaves(self) -> tuple["MachineNode", ...]:
        """Every machine in the tree, left to right."""
        return (self,)

    @property
    def interconnects(self) -> tuple[tuple[InterconnectLevel, int], ...]:
        """``(level, machines_below)`` pairs, innermost first.

        ``machines_below`` is the machine count of one subtree joined at
        that level -- the cumulative product of cluster ``count``\\ s.
        """
        return ()

    def to_dict(self) -> dict:
        d = {
            "type": "machine",
            "processors": self.processors,
            "cache": self.cache.to_dict(),
            "memory": self.memory.to_dict(),
            "disk": self.disk.to_dict(),
        }
        if self.l2 is not None:
            d["l2"] = self.l2.to_dict()
        if self.speed != 1.0:
            d["speed"] = self.speed
        return d


@dataclass(frozen=True)
class ClusterNode:
    """An interior node: subtrees joined by one interconnect.

    Two construction forms, one canonical representation:

    - homogeneous sugar -- ``ClusterNode(count, child, interconnect)``
      replicates one subtree ``count`` times (``count >= 2``);
    - explicit children -- ``ClusterNode(children=(a, b, ...),
      interconnect=...)`` joins unlike subtrees (>= 2 of them).

    An explicit ``children`` tuple whose entries all compare equal is
    canonicalized to the sugar form on construction, so a homogeneous
    tree has exactly one representation (and one hash) regardless of
    how it was built.  When both forms are given, ``count`` must match
    ``len(children)``.
    """

    count: int | None = None
    child: "Topology | None" = None
    interconnect: InterconnectLevel | None = None
    children: tuple["Topology", ...] = ()

    def __post_init__(self) -> None:
        if self.interconnect is None:
            raise ValueError("a cluster node needs an interconnect")
        if self.children:
            kids = tuple(self.children)
            if self.child is not None:
                raise ValueError(
                    "a cluster node takes either count+child or children, not both"
                )
            if len(kids) < 2:
                raise ValueError(
                    f"a cluster level joins >= 2 subtrees, got {len(kids)} children"
                )
            if self.count is not None and self.count != len(kids):
                raise ValueError(
                    f"cluster count {self.count!r} does not match its "
                    f"{len(kids)} children"
                )
            for kid in kids:
                if not isinstance(kid, (MachineNode, ClusterNode)):
                    raise ValueError(
                        f"cluster children must be topology nodes, got {type(kid).__name__}"
                    )
            first = kids[0]
            if all(kid == first for kid in kids[1:]):
                # Canonical form: all-equal children collapse to sugar.
                object.__setattr__(self, "count", len(kids))
                object.__setattr__(self, "child", first)
                object.__setattr__(self, "children", ())
            else:
                object.__setattr__(self, "count", len(kids))
                object.__setattr__(self, "children", kids)
        else:
            if self.child is None:
                raise ValueError("a cluster node needs a child (or explicit children)")
            if not isinstance(self.child, (MachineNode, ClusterNode)):
                raise ValueError(
                    f"cluster child must be a topology node, got {type(self.child).__name__}"
                )
            _check_count(self.count, "a cluster level joins an integer >= 2 subtrees", 2)

    # -- tree queries --------------------------------------------------
    @property
    def subtrees(self) -> tuple["Topology", ...]:
        """The node's subtrees, expanded (sugar form repeats ``child``)."""
        if self.children:
            return self.children
        return (self.child,) * self.count

    @property
    def is_homogeneous(self) -> bool:
        """True when every machine in the tree is identical.

        Canonicalization makes this purely structural: any node holding
        an explicit ``children`` tuple kept unlike subtrees.
        """
        return not self.children and self.child.is_homogeneous

    @property
    def machine(self) -> MachineNode:
        """The tree's machine (homogeneous), or its first leaf."""
        return (self.children[0] if self.children else self.child).machine

    @property
    def procs_per_machine(self) -> int:
        if not self.is_homogeneous:
            raise ValueError(
                "procs_per_machine is undefined on a heterogeneous tree: "
                "machines differ; iterate topology.leaves instead"
            )
        return self.machine.processors

    @property
    def total_machines(self) -> int:
        if self.children:
            return sum(kid.total_machines for kid in self.children)
        return self.count * self.child.total_machines

    @property
    def total_processors(self) -> int:
        if self.children:
            return sum(kid.total_processors for kid in self.children)
        return self.count * self.child.total_processors

    @property
    def depth(self) -> int:
        if self.children:
            return 1 + max(kid.depth for kid in self.children)
        return 1 + self.child.depth

    @property
    def leaves(self) -> tuple[MachineNode, ...]:
        """Every machine in the tree, left to right."""
        out: list[MachineNode] = []
        for sub in self.subtrees:
            out.extend(sub.leaves)
        return tuple(out)

    @property
    def interconnects(self) -> tuple[tuple[InterconnectLevel, int], ...]:
        if not self.is_homogeneous:
            raise ValueError(
                "interconnects is only defined on homogeneous trees (one "
                "machine count per level); heterogeneous trees vary by "
                "leaf -- use repro.topology.build.leaf_hierarchies"
            )
        return self.child.interconnects + ((self.interconnect, self.total_machines),)

    def to_dict(self) -> dict:
        if self.children:
            return {
                "type": "cluster",
                "interconnect": self.interconnect.to_dict(),
                "children": [kid.to_dict() for kid in self.children],
            }
        return {
            "type": "cluster",
            "count": self.count,
            "interconnect": self.interconnect.to_dict(),
            "child": self.child.to_dict(),
        }


Topology = Union[MachineNode, ClusterNode]


# -- deserialization ---------------------------------------------------
def _require(d: dict, key: str, context: str):
    if not isinstance(d, dict):
        raise ValueError(f"{context} must be a mapping, got {type(d).__name__}")
    if key not in d:
        raise ValueError(f"{context} is missing required key {key!r}")
    return d[key]


def _reject_unknown(d: dict, allowed: frozenset, context: str) -> None:
    """Strict schema: a key this loader would ignore is an error.

    Silently dropped keys hide typos (``capacity_item``) and mask
    version skew (a v2 document read by a v1 loader) -- the payload
    would load *differently* than its author intended.  Name every
    offending key and the node it sat in.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{context} must be a mapping, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        keys = ", ".join(repr(k) for k in sorted(unknown))
        raise ValueError(
            f"{context}: unknown key(s) {keys}; "
            f"known keys: {', '.join(sorted(allowed))}"
        )


_CACHE_KEYS = frozenset({"capacity_items", "tau_cycles", "ways", "peer_tau_cycles"})
_MEMORY_KEYS = frozenset({"capacity_items", "tau_cycles"})
_DISK_KEYS = frozenset({"tau_cycles"})
_INTERCONNECT_KEYS = frozenset({
    "network", "contention", "remote_node_cycles", "remote_cached_cycles",
    "remote_disk_extra_cycles", "label",
})
_MACHINE_KEYS = frozenset({"type", "processors", "cache", "memory", "disk", "l2", "speed"})
_CLUSTER_KEYS = frozenset({"type", "count", "child", "children", "interconnect"})


def _cache_from_dict(d: dict, context: str) -> CacheLevel:
    _reject_unknown(d, _CACHE_KEYS, context)
    return CacheLevel(
        capacity_items=_require(d, "capacity_items", context),
        tau_cycles=d.get("tau_cycles", 1.0),
        ways=d.get("ways", 2),
        peer_tau_cycles=d.get("peer_tau_cycles", 15.0),
    )


def _interconnect_from_dict(d: dict) -> InterconnectLevel:
    _reject_unknown(d, _INTERCONNECT_KEYS, "interconnect")
    raw_net = _require(d, "network", "interconnect")
    try:
        network = NetworkKind(raw_net)
    except ValueError:
        known = ", ".join(repr(k.value) for k in NetworkKind)
        raise ValueError(f"unknown network {raw_net!r}; known: {known}") from None
    raw_cont = d.get("contention", Contention.BUS.value if network.is_bus else Contention.SWITCH.value)
    try:
        contention = Contention(raw_cont)
    except ValueError:
        raise ValueError(f"contention must be 'bus' or 'switch', got {raw_cont!r}") from None
    remote_node = _require(d, "remote_node_cycles", "interconnect")
    # Checked before the defaults below are derived from it.
    _check_number(remote_node, "interconnect costs must be finite and non-negative")
    return InterconnectLevel(
        network=network,
        contention=contention,
        remote_node_cycles=remote_node,
        remote_cached_cycles=d.get("remote_cached_cycles", 2 * remote_node),
        remote_disk_extra_cycles=d.get("remote_disk_extra_cycles", remote_node),
        label=d.get("label", network.value),
    )


def topology_from_dict(d: dict) -> Topology:
    """Reconstruct a topology tree from its ``to_dict`` form.

    Raises :class:`ValueError` with a pointed message on any malformed
    payload (missing keys, *unknown* keys, unknown node types, bad enum
    values), so the CLI can surface file problems at the argparse layer.
    """
    kind = _require(d, "type", "topology node")
    if kind == "machine":
        _reject_unknown(d, _MACHINE_KEYS, "machine node")
        memory = _require(d, "memory", "machine node")
        _reject_unknown(memory, _MEMORY_KEYS, "memory")
        disk = d.get("disk", {})
        _reject_unknown(disk, _DISK_KEYS, "disk")
        l2 = d.get("l2")
        return MachineNode(
            processors=_require(d, "processors", "machine node"),
            cache=_cache_from_dict(_require(d, "cache", "machine node"), "cache"),
            memory=MemoryLevel(
                capacity_items=_require(memory, "capacity_items", "memory"),
                tau_cycles=memory.get("tau_cycles", 50.0),
            ),
            disk=DiskLevel(tau_cycles=disk.get("tau_cycles", 2000.0)),
            l2=_cache_from_dict(l2, "l2") if l2 is not None else None,
            speed=d.get("speed", 1.0),
        )
    if kind == "cluster":
        _reject_unknown(d, _CLUSTER_KEYS, "cluster node")
        interconnect = _interconnect_from_dict(_require(d, "interconnect", "cluster node"))
        if "children" in d:
            raw = d["children"]
            if not isinstance(raw, (list, tuple)):
                raise ValueError(
                    f"cluster node 'children' must be a list, got {type(raw).__name__}"
                )
            if "child" in d:
                raise ValueError(
                    "cluster node takes either 'count'+'child' or 'children', not both"
                )
            return ClusterNode(
                count=d.get("count"),
                children=tuple(topology_from_dict(kid) for kid in raw),
                interconnect=interconnect,
            )
        return ClusterNode(
            count=_require(d, "count", "cluster node"),
            child=topology_from_dict(_require(d, "child", "cluster node")),
            interconnect=interconnect,
        )
    raise ValueError(f"topology node type must be 'machine' or 'cluster', got {kind!r}")
