"""Memory-hierarchy abstraction (paper Figure 1 and Table 1).

The paper views every platform through a single five-level hierarchy seen
from one processor: own cache, own/SMP memory, remote memory, own disk,
remote disk.  Each platform *adds* levels to a uniprocessor baseline:

* a single SMP adds peer-memory access over the memory bus (gray block A);
* a cluster of workstations adds remote memory and remote disks over the
  cluster network (gray blocks B and C);
* a cluster of SMPs adds all three (A, B and C).

For the analytical model a hierarchy is a base access cost ``tau_1`` plus
an ordered list of levels, each carrying the *stack-distance boundary*
beyond which a reference reaches it, the additional uncontended cost of
doing so, and the number of agents contending for the resource that
serves it.  :func:`repro.core.amat.average_memory_access_time` folds this
structure with a workload's locality model into the paper's Eq. 7/11.

This module builds no hierarchy.  Every platform's hierarchy comes from
one fold of a topology tree, :func:`repro.topology.build.build_hierarchy`;
:meth:`repro.core.platform.PlatformSpec.hierarchy` folds the spec's tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "LevelKind",
    "MemoryLevel",
    "MemoryHierarchy",
    "PlatformKind",
    "additional_levels",
]


class PlatformKind(str, Enum):
    """The three platform classes the paper models (Table 1), plus the
    heterogeneous extension (unlike machines in one tree, outside the
    paper's taxonomy -- see docs/SCHEDULING.md)."""

    SMP = "a single SMP"
    COW = "a cluster of workstations"
    CLUMP = "a cluster of SMPs"
    HETEROGENEOUS = "a heterogeneous cluster"


def additional_levels(kind: PlatformKind) -> tuple[str, ...]:
    """Paper Table 1: the gray blocks each platform adds to Figure 1.

    A heterogeneous cluster can add any of them depending on the leaf
    (an SMP leaf sees block A, any multi-machine tree sees B and C).
    """
    return {
        PlatformKind.SMP: ("A",),
        PlatformKind.COW: ("B", "C"),
        PlatformKind.CLUMP: ("A", "B", "C"),
        PlatformKind.HETEROGENEOUS: ("A", "B", "C"),
    }[kind]


class LevelKind(str, Enum):
    """Which of Figure 1's five access classes a level belongs to."""

    CACHE = "cache"
    L2_CACHE = "L2 cache"
    PEER_CACHE = "peer cache"
    LOCAL_MEMORY = "local memory"
    REMOTE_MEMORY = "remote memory"
    LOCAL_DISK = "local disk"
    REMOTE_DISK = "remote disk"


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the modeled hierarchy.

    Attributes
    ----------
    name:
        Human-readable label used in reports.
    kind:
        Structural classification (Figure 1 access class).
    boundary_items:
        Stack distance (in 64-byte items) beyond which a reference
        reaches this level.  The additive AMAT model charges this level's
        cost to every reference whose distance exceeds the boundary.
    tau_cycles:
        Additional uncontended access cost in cycles.
    population:
        Number of agents whose traffic contends for the resource serving
        this level (M/D/1 population; 1 means contention-free).
    rate_fraction:
        Fraction of the past-boundary traffic actually served here --
        used to split one boundary between local and remote disks.
    """

    name: str
    kind: LevelKind
    boundary_items: float
    tau_cycles: float
    population: int
    rate_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.boundary_items < 0:
            raise ValueError(f"boundary must be non-negative, got {self.boundary_items!r}")
        if self.tau_cycles < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau_cycles!r}")
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population!r}")
        if not (0.0 <= self.rate_fraction <= 1.0):
            raise ValueError(f"rate_fraction must be in [0, 1], got {self.rate_fraction!r}")


@dataclass(frozen=True)
class MemoryHierarchy:
    """A platform's memory hierarchy as seen by one processor."""

    platform: PlatformKind
    base_cycles: float
    levels: tuple[MemoryLevel, ...]
    barrier_population: int
    total_processes: int

    def __post_init__(self) -> None:
        if self.base_cycles < 0:
            raise ValueError("base access time must be non-negative")
        if self.barrier_population < 1:
            raise ValueError("barrier population must be >= 1")
        if self.total_processes < 1:
            raise ValueError("total process count must be >= 1")
        boundaries = [lv.boundary_items for lv in self.levels]
        if any(b2 < b1 for b1, b2 in zip(boundaries, boundaries[1:])):
            raise ValueError("level boundaries must be non-decreasing")

    @property
    def length(self) -> int:
        """The paper's k: number of distinct access levels incl. the cache."""
        return 1 + len(self.levels)

    def describe(self) -> str:
        """Render the hierarchy as text (the reproducible content of Fig. 1)."""
        lines = [
            f"{self.platform.value} -- {self.total_processes} process(es), "
            f"hierarchy length k={self.length}",
            f"  level 1: cache hit                      tau={self.base_cycles:g} cycles",
        ]
        for i, lv in enumerate(self.levels, start=2):
            frac = "" if lv.rate_fraction == 1.0 else f" x{lv.rate_fraction:.3g} of traffic"
            lines.append(
                f"  level {i}: {lv.name:<28s} beyond {lv.boundary_items:,.0f} items, "
                f"+{lv.tau_cycles:g} cycles, {lv.population} sharer(s){frac}"
            )
        lines.append(f"  barriers: max over {self.barrier_population} process(es)")
        return "\n".join(lines)


def _effective_cache(cache_items: float, factor: float) -> float:
    """Associativity-derated cache capacity the stack model should use.

    The analytical model assumes fully-associative LRU; the simulated
    (and the paper's) caches are two-way set-associative and suffer
    conflict misses a stack model cannot see.  A factor below 1 shrinks
    the modeled cache to its conflict-equivalent capacity (a classic
    rule of thumb is ~0.5 for two-way); 1.0 is the paper's raw model.
    """
    if not (0.0 < factor <= 1.0):
        raise ValueError(f"cache_capacity_factor must be in (0, 1], got {factor!r}")
    return max(1.0, cache_items * factor)
