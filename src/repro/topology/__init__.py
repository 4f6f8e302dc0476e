"""Declarative platform topology IR (clusters as composable trees).

The paper's three platform classes (SMP, COW, CLUMP) are special cases
of one structure: a tree whose leaves are machines (processors behind a
cache/memory/disk stack) and whose interior nodes are interconnects
(bus or switch) joining subtrees -- identical ones via the ``count`` x
``child`` sugar, or *unlike* ones via an explicit ``children`` tuple
(schema v2, the heterogeneous extension).  This package is the single
source of truth for that structure:

* :mod:`repro.topology.ir` -- the frozen level dataclasses
  (:class:`CacheLevel`, :class:`MemoryLevel`, :class:`DiskLevel`,
  :class:`InterconnectLevel`) and tree nodes (:class:`MachineNode`,
  :class:`ClusterNode`), with lossless ``to_dict``/``from_dict`` and a
  strict (unknown keys rejected) schema.
* :mod:`repro.topology.canned` -- builders for the paper's canned
  shapes plus the two-level CLUMP-of-SMPs scenario and the canned
  *mixed* (heterogeneous) trees, and the CLI-facing built-in platform
  registry.
* :mod:`repro.topology.build` -- the one fold from a topology tree to
  the analytical :class:`~repro.core.hierarchy.MemoryHierarchy`, the
  per-leaf heterogeneous fold (:func:`leaf_hierarchies`) and the
  Table-1 classification.
* :mod:`repro.topology.io` -- JSON/YAML platform files for the CLI.

Every layer that used to switch on ``PlatformKind`` -- the hierarchy
builders, the simulator back-ends (:class:`~repro.sim.backends.composed.
ComposedBackend`), the cost enumeration -- now consumes this IR;
heterogeneous trees are evaluated through :mod:`repro.scheduling`.
"""

from repro.topology.build import (
    build_hierarchy,
    classify,
    leaf_hierarchies,
)
from repro.topology.canned import (
    BUILTIN_MIXED_TOPOLOGIES,
    BUILTIN_PLATFORMS,
    builtin_mixed_topology,
    builtin_platform,
    clump_of_smps_spec,
    clump_of_smps_topology,
    clump_topology,
    cow_topology,
    deepen_spec,
    interconnect_for,
    mixed_clump_topology,
    mixed_cow_topology,
    scaled_topology,
    smp_topology,
    topology_for_spec,
)
from repro.topology.io import (
    load_platform_file,
    load_platform_payload,
    platform_from_dict,
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
    topology_from_dict,
)

__all__ = [
    "CacheLevel",
    "MemoryLevel",
    "DiskLevel",
    "InterconnectLevel",
    "Contention",
    "MachineNode",
    "ClusterNode",
    "Topology",
    "topology_from_dict",
    "build_hierarchy",
    "classify",
    "leaf_hierarchies",
    "smp_topology",
    "cow_topology",
    "clump_topology",
    "clump_of_smps_topology",
    "clump_of_smps_spec",
    "deepen_spec",
    "interconnect_for",
    "topology_for_spec",
    "scaled_topology",
    "builtin_platform",
    "BUILTIN_PLATFORMS",
    "mixed_cow_topology",
    "mixed_clump_topology",
    "builtin_mixed_topology",
    "BUILTIN_MIXED_TOPOLOGIES",
    "load_platform_file",
    "load_platform_payload",
    "platform_from_dict",
]
