"""Heterogeneous platforms: a topology tree plus a clock, no folding.

:class:`~repro.core.platform.PlatformSpec` is homogeneous by
construction -- one machine shape replicated ``N`` times, folded into a
single :class:`~repro.core.hierarchy.MemoryHierarchy`.  A
:class:`HeteroPlatform` drops that assumption: it wraps *any* topology
tree (mixed machine shapes, per-machine ``speed``) and exposes the
per-leaf views the scheduling model needs -- one memory hierarchy per
machine (:meth:`HeteroPlatform.hierarchies`) and per-process speed and
machine maps.  Homogeneous trees are accepted too, which is how the
bit-identity reduction to the paper's model is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.sim.latencies import CPU_HZ
from repro.topology.build import classify, leaf_hierarchies
from repro.topology.canned import (
    BUILTIN_MIXED_TOPOLOGIES,
    builtin_mixed_topology,
    topology_for_spec,
)
from repro.topology.io import load_platform_payload
from repro.topology.ir import ClusterNode, MachineNode, Topology, topology_from_dict

__all__ = [
    "HeteroPlatform",
    "builtin_hetero_platform",
    "load_hetero_platform_file",
]


@dataclass(frozen=True)
class HeteroPlatform:
    """A named topology tree evaluated machine-by-machine.

    Unlike ``PlatformSpec`` there is no single (n, N) shape: capacity
    and speed questions are answered per leaf.  The object is frozen
    and hashable, so it can key caches the same way specs do.
    """

    name: str
    topology: Topology
    cpu_hz: float = field(default=CPU_HZ)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a platform needs a non-empty name")
        if not isinstance(self.topology, (MachineNode, ClusterNode)):
            raise ValueError(
                f"topology must be a MachineNode or ClusterNode, got {type(self.topology).__name__}"
            )
        if self.cpu_hz <= 0:
            raise ValueError(f"cpu_hz must be positive, got {self.cpu_hz!r}")
        if self.topology.total_processors < 2:
            raise ValueError("a scheduled platform needs at least two processors")

    # -- shape ---------------------------------------------------------
    @property
    def machines(self) -> tuple[MachineNode, ...]:
        """Every machine, left to right (process ranks follow this order)."""
        return self.topology.leaves

    @property
    def total_machines(self) -> int:
        return self.topology.total_machines

    @property
    def total_processors(self) -> int:
        return self.topology.total_processors

    @property
    def is_homogeneous(self) -> bool:
        return self.topology.is_homogeneous

    @property
    def kind(self):
        return classify(self.topology)

    @property
    def cycle_seconds(self) -> float:
        return 1.0 / self.cpu_hz

    @property
    def speeds(self) -> tuple[float, ...]:
        """Relative CPU speed of each process, in rank order."""
        out: list[float] = []
        for leaf in self.machines:
            out.extend([leaf.speed] * leaf.processors)
        return tuple(out)

    @property
    def machine_of_process(self) -> tuple[int, ...]:
        """Machine (leaf) index that hosts each process rank."""
        out: list[int] = []
        for index, leaf in enumerate(self.machines):
            out.extend([index] * leaf.processors)
        return tuple(out)

    def hierarchies(self):
        """One analytical :class:`MemoryHierarchy` per machine (leaf order)."""
        return leaf_hierarchies(self.topology)

    # -- conversions ---------------------------------------------------
    @classmethod
    def from_spec(cls, spec) -> "HeteroPlatform":
        """Wrap a homogeneous ``PlatformSpec`` (for reduction tests)."""
        return cls(name=spec.name, topology=topology_for_spec(spec), cpu_hz=spec.cpu_hz)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "topology": self.topology.to_dict(),
            "cpu_hz": self.cpu_hz,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HeteroPlatform":
        if not isinstance(payload, dict):
            raise ValueError(
                f"platform document must be a mapping, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"name", "topology", "cpu_hz"}
        if unknown:
            raise ValueError(f"unknown platform keys: {', '.join(sorted(unknown))}")
        name = payload.get("name")
        if not name or not isinstance(name, str):
            raise ValueError("platform document needs a non-empty string 'name'")
        if "topology" not in payload:
            raise ValueError("platform document needs a 'topology' tree")
        return cls(
            name=name,
            topology=topology_from_dict(payload["topology"]),
            cpu_hz=payload.get("cpu_hz", CPU_HZ),
        )

    def describe(self) -> str:
        lines = [f"{self.name}: {self.kind.value}, {self.total_processors} processors"]
        for index, leaf in enumerate(self.machines):
            l2 = f", L2 {leaf.l2.capacity_items:g} items" if leaf.l2 is not None else ""
            lines.append(
                f"  machine {index}: {leaf.processors} proc x speed {leaf.speed:g}, "
                f"cache {leaf.cache.capacity_items:g} items{l2}, "
                f"memory {leaf.memory.capacity_items:g} items"
            )
        return "\n".join(lines)


def builtin_hetero_platform(name: str) -> HeteroPlatform:
    """Resolve a built-in mixed tree (``mixed-cow``/``mixed-clump``) by name."""
    if name not in BUILTIN_MIXED_TOPOLOGIES:
        known = ", ".join(sorted(BUILTIN_MIXED_TOPOLOGIES))
        raise ValueError(f"unknown mixed platform {name!r}; known mixed platforms: {known}")
    return HeteroPlatform(name=name, topology=builtin_mixed_topology(name))


def load_hetero_platform_file(path: str | Path) -> HeteroPlatform:
    """Load ``{"name", "topology", optional "cpu_hz"}`` as a HeteroPlatform.

    Shares the read/parse layer (and its pointed JSON/PyYAML errors)
    with the homogeneous loader, but never folds the tree, so mixed
    ``children`` topologies and per-machine speeds are accepted.
    """
    path = Path(path)
    payload = load_platform_payload(path)
    try:
        return HeteroPlatform.from_dict(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
