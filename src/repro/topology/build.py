"""Generic fold: topology tree -> analytical :class:`MemoryHierarchy`.

This walk is the one hierarchy builder:
:meth:`repro.core.platform.PlatformSpec.hierarchy` folds the spec's
tree (:func:`repro.topology.canned.topology_for_spec`), and the
scheduling layer folds each leaf.  For the paper's depth-0/1 shapes it
gives the level names, boundaries, populations and rate fractions of
Eq. 7/11, and it generalizes to arbitrary depth:

* one REMOTE_MEMORY level per interconnect, carrying that level's
  uncontended cost and the share of remote traffic whose lowest common
  ancestor is that level (uniform homes: ``(M_j - M_{j-1}) / (M - 1)``
  for ``M_j`` machines under level j);
* bus levels are contended by every processor underneath them, switch
  levels only at the destination subtree (``procs-per-subtree + 1``);
* the disk boundary aggregates over all machines, split into a local
  share ``1/M`` and one REMOTE_DISK level per interconnect.

Heterogeneous trees have no single hierarchy: each machine sees its own
cache/memory sizes and its own ancestor path.  :func:`leaf_hierarchies`
folds the tree once per leaf -- on a homogeneous tree every leaf fold
is value-identical to :func:`build_hierarchy` (the fold is literally
the same code walking the same integers), which is what lets the
heterogeneous model reduce bit-for-bit to the paper's.
"""

from __future__ import annotations

import itertools
import math

from repro.core.hierarchy import (
    LevelKind,
    MemoryHierarchy,
    MemoryLevel as ModelLevel,
    PlatformKind,
    _effective_cache,
)
from repro.topology.ir import (
    ClusterNode,
    Contention,
    InterconnectLevel,
    MachineNode,
    Topology,
)

__all__ = ["classify", "build_hierarchy", "leaf_hierarchies"]


def classify(topology: Topology) -> PlatformKind:
    """Paper Table 1 classification, generalized to any depth.

    A lone machine is an SMP; a networked tree of uniprocessor machines
    is (a generalization of) a COW; a networked tree of SMP machines is
    (a generalization of) a CLUMP.  A tree holding unlike machines is
    HETEROGENEOUS -- outside the paper's taxonomy (docs/SCHEDULING.md).
    """
    if isinstance(topology, MachineNode):
        return PlatformKind.SMP
    if not topology.is_homogeneous:
        return PlatformKind.HETEROGENEOUS
    return PlatformKind.COW if topology.procs_per_machine == 1 else PlatformKind.CLUMP


def _level_population(contention: Contention, procs_below: int, procs_per_child: int) -> int:
    """M/D/1 population of one interconnect level.

    A bus is one medium shared by every processor underneath the level;
    a switch provides contention-free pairwise paths, so queueing
    happens at the destination subtree -- with uniform traffic the
    aggregate rate arriving at one subtree equals the rate one subtree
    emits, so a request sees ``procs_per_child`` extra streams, i.e.
    population ``procs_per_child + 1``.
    """
    if contention is Contention.BUS:
        return procs_below
    return procs_per_child + 1


#: One ancestor interconnect on a leaf's path to the root, innermost
#: first: (level, machines under the ancestor, processors under the
#: ancestor, machines under the leaf-side subtree joined there,
#: processors under that subtree).
_PathEntry = "tuple[InterconnectLevel, int, int, int, int]"


def _leaf_paths(topology: Topology):
    """``(leaf, ancestor path)`` for every machine, left to right.

    A generator that never expands a ``count`` x ``child`` node into its
    subtrees, so taking the first path costs the tree's depth, not its
    machine count.
    """
    if isinstance(topology, MachineNode):
        yield topology, []
        return
    subtrees = topology.children or itertools.repeat(topology.child, topology.count)
    for sub in subtrees:
        entry = (
            topology.interconnect,
            topology.total_machines,
            topology.total_processors,
            sub.total_machines,
            sub.total_processors,
        )
        for leaf, path in _leaf_paths(sub):
            yield leaf, path + [entry]


def _fold_leaf(
    machine: MachineNode,
    path: list,
    platform: PlatformKind,
    total_machines: int,
    total_processors: int,
    aggregate_memory: float,
    include_peer_cache: bool,
    cache_capacity_factor: float,
) -> MemoryHierarchy:
    """Fold one leaf's view of the tree into the Eq. 7/11 level list.

    On a homogeneous tree every quantity below -- populations, machine
    counts, shares -- equals what the whole-tree fold computed before
    this refactor, so the output is value-identical for every leaf.
    """
    n = machine.processors
    depth = len(path)
    cache_items = _effective_cache(machine.cache.capacity_items, cache_capacity_factor)
    memory_items = machine.memory.capacity_items

    levels: list[ModelLevel] = []
    memory_boundary = cache_items

    # -- intra-machine levels -----------------------------------------
    if include_peer_cache and n > 1:
        levels.append(
            ModelLevel(
                name=("peer caches (bus snoop)" if depth == 0 else "peer caches (SMP snoop)"),
                kind=LevelKind.PEER_CACHE,
                boundary_items=cache_items,
                tau_cycles=machine.cache.peer_tau_cycles,
                population=n,
            )
        )
        memory_boundary = n * cache_items
    if machine.l2 is not None:
        l2_items = machine.l2.capacity_items
        if l2_items <= memory_boundary or l2_items >= memory_items:
            raise ValueError("L2 must sit strictly between the caches and memory")
        levels.append(
            ModelLevel(
                name="shared L2 cache",
                kind=LevelKind.L2_CACHE,
                boundary_items=memory_boundary,
                tau_cycles=machine.l2.tau_cycles,
                population=n,
            )
        )
        memory_boundary = l2_items
    if depth == 0:
        memory_name = "shared memory (memory bus)"
    elif n == 1:
        memory_name = "local memory"
    else:
        memory_name = "SMP shared memory (memory bus)"
    levels.append(
        ModelLevel(
            name=memory_name,
            kind=LevelKind.LOCAL_MEMORY,
            boundary_items=memory_boundary,
            tau_cycles=machine.memory.tau_cycles,
            population=n,
        )
    )

    # -- one remote-memory level per interconnect, innermost first ----
    for ic, machines_below, procs_below, machines_inner, procs_inner in path:
        population = _level_population(ic.contention, procs_below, procs_inner)
        # Share of remote traffic whose lowest common ancestor is this
        # level, under uniform home placement over the other machines.
        share = (machines_below - machines_inner) / (total_machines - 1)
        levels.append(
            ModelLevel(
                name=(f"remote memory ({ic.label})" if n == 1
                      else f"remote SMP memory ({ic.label})"),
                kind=LevelKind.REMOTE_MEMORY,
                boundary_items=memory_items,
                tau_cycles=ic.remote_node_cycles,
                population=population,
                rate_fraction=share,
            )
        )

    # -- disks ---------------------------------------------------------
    if depth == 0:
        levels.append(
            ModelLevel(
                name="local disk (I/O bus)",
                kind=LevelKind.LOCAL_DISK,
                boundary_items=memory_items,
                tau_cycles=machine.disk.tau_cycles,
                population=n,
            )
        )
    else:
        levels.append(
            ModelLevel(
                name=("local disk" if n == 1 else "local disk (I/O bus)"),
                kind=LevelKind.LOCAL_DISK,
                boundary_items=aggregate_memory,
                tau_cycles=machine.disk.tau_cycles,
                population=n,
                rate_fraction=1.0 / total_machines,
            )
        )
        for ic, machines_below, procs_below, machines_inner, procs_inner in path:
            population = _level_population(ic.contention, procs_below, procs_inner)
            levels.append(
                ModelLevel(
                    name=f"remote disks ({ic.label})",
                    kind=LevelKind.REMOTE_DISK,
                    boundary_items=aggregate_memory,
                    tau_cycles=machine.disk.tau_cycles + ic.remote_disk_extra_cycles,
                    population=population,
                    rate_fraction=(machines_below - machines_inner) / total_machines,
                )
            )

    return MemoryHierarchy(
        platform=platform,
        base_cycles=machine.cache.tau_cycles,
        levels=tuple(levels),
        barrier_population=total_processors,
        total_processes=total_processors,
    )


def _aggregate_memory(topology: Topology) -> float:
    """Total memory across all machines (the cluster disk boundary).

    When every leaf holds the same capacity this is computed as the
    exact product the homogeneous fold always used (``M * items``), so
    the boundary is bit-identical; unlike capacities are summed.  A
    homogeneous tree is never expanded into its leaves.
    """
    if topology.is_homogeneous:
        return topology.total_machines * topology.machine.memory.capacity_items
    leaves = topology.leaves
    first = leaves[0].memory.capacity_items
    if all(leaf.memory.capacity_items == first for leaf in leaves[1:]):
        return topology.total_machines * first
    return math.fsum(leaf.memory.capacity_items for leaf in leaves)


def _check_fold_args(topology: Topology) -> None:
    if not isinstance(topology, (MachineNode, ClusterNode)):
        raise ValueError(
            f"cannot build a hierarchy from {type(topology).__name__!r}; "
            "expected a MachineNode or ClusterNode topology"
        )


def build_hierarchy(
    topology: Topology,
    include_peer_cache: bool = False,
    cache_capacity_factor: float = 1.0,
) -> MemoryHierarchy:
    """Fold a homogeneous topology tree into the Eq. 7/11 level structure.

    Every machine in a homogeneous tree sees the same hierarchy, so one
    fold (of the first leaf's path) describes them all.  Heterogeneous
    trees are rejected -- their machines genuinely differ; use
    :func:`leaf_hierarchies` and the scheduling layer
    (:mod:`repro.scheduling`) instead.
    """
    _check_fold_args(topology)
    if not topology.is_homogeneous:
        raise ValueError(
            "cannot fold a heterogeneous topology into a single memory "
            "hierarchy: its machines differ; use "
            "repro.topology.build.leaf_hierarchies (one hierarchy per "
            "machine) with repro.scheduling"
        )
    leaf, path = next(_leaf_paths(topology))
    return _fold_leaf(
        leaf,
        path,
        platform=classify(topology),
        total_machines=topology.total_machines,
        total_processors=topology.total_processors,
        aggregate_memory=_aggregate_memory(topology),
        include_peer_cache=include_peer_cache,
        cache_capacity_factor=cache_capacity_factor,
    )


def leaf_hierarchies(topology: Topology) -> tuple[MemoryHierarchy, ...]:
    """One :class:`MemoryHierarchy` per machine, left to right.

    The heterogeneous generalization of :func:`build_hierarchy`: each
    machine's view folds its *own* cache/L2/memory/disk sizes with its
    *own* ancestor interconnect path (populations and remote shares are
    per-path, so unlike siblings see unlike contention).  It folds the
    paper's raw model, with no peer-cache level and the full cache, so
    on a homogeneous tree every entry is value-identical to
    ``build_hierarchy(topology)``.
    """
    _check_fold_args(topology)
    platform = classify(topology)
    total_machines = topology.total_machines
    total_processors = topology.total_processors
    aggregate = _aggregate_memory(topology)
    return tuple(
        _fold_leaf(
            leaf,
            path,
            platform=platform,
            total_machines=total_machines,
            total_processors=total_processors,
            aggregate_memory=aggregate,
            include_peer_cache=False,
            cache_capacity_factor=1.0,
        )
        for leaf, path in _leaf_paths(topology)
    )
