"""The generic fold: classification and hierarchy equivalence.

A platform spec carrying an explicit topology tree must model exactly
like the equivalent flat ``(n, N, network)`` spec -- same levels, same
rates, same taus, float-for-float.  The paper's Table 3 configurations
are the regression corpus.
"""

from __future__ import annotations

import pytest

from repro.core.hierarchy import LevelKind, PlatformKind
from repro.core.platform import PlatformSpec
from repro.sim.latencies import NetworkKind
from repro.topology import (
    build_hierarchy,
    classify,
    clump_of_smps_spec,
    clump_of_smps_topology,
    clump_topology,
    cow_topology,
    smp_topology,
    topology_for_spec,
)

KB = 1024
MB = 1024 * 1024


class TestClassify:
    def test_flat_shapes(self):
        assert classify(smp_topology(8, 64, 4096)) is PlatformKind.SMP
        assert classify(cow_topology(4, 64, 4096, NetworkKind.ATM_155)) is PlatformKind.COW
        assert (
            classify(clump_topology(2, 4, 64, 4096, NetworkKind.ATM_155))
            is PlatformKind.CLUMP
        )

    def test_deep_trees_classify_by_leaf(self):
        assert classify(clump_of_smps_topology(2, 2, 2, 64, 4096)) is PlatformKind.CLUMP
        assert classify(clump_of_smps_topology(2, 2, 1, 64, 4096)) is PlatformKind.COW


def _flat_specs():
    """One flat spec per paper shape, plus L2 and big-memory variants."""
    return [
        PlatformSpec(name="t-smp", n=8, N=1, cache_bytes=32 * KB, memory_bytes=4 * MB),
        PlatformSpec(
            name="t-smp-l2", n=4, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB,
            l2_bytes=16 * KB,
        ),
        PlatformSpec(
            name="t-cow", n=1, N=8, cache_bytes=32 * KB, memory_bytes=4 * MB,
            network=NetworkKind.ETHERNET_100,
        ),
        PlatformSpec(
            name="t-cow-sw", n=1, N=8, cache_bytes=32 * KB, memory_bytes=4 * MB,
            network=NetworkKind.ATM_155,
        ),
        PlatformSpec(
            name="t-clump", n=4, N=4, cache_bytes=32 * KB, memory_bytes=4 * MB,
            network=NetworkKind.ETHERNET_10,
        ),
    ]


@pytest.mark.parametrize("spec", _flat_specs(), ids=lambda s: s.name)
@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"include_peer_cache": True},
        {"cache_capacity_factor": 0.5},
    ],
    ids=["plain", "peer+dirty", "halved-cache"],
)
def test_topology_spec_models_like_flat_spec(spec, kwargs):
    """from_topology(spec's canned tree) and the flat spec produce
    float-identical hierarchies under every modeling knob."""
    topo_spec = PlatformSpec.from_topology(
        spec.name, topology_for_spec(spec), cpu_hz=spec.cpu_hz, latencies=spec.latencies
    )
    assert topo_spec.kind == spec.kind
    assert topo_spec.hierarchy(**kwargs) == spec.hierarchy(**kwargs)


def test_fold_equals_spec_hierarchy_directly():
    spec = PlatformSpec(
        name="d", n=2, N=4, cache_bytes=2 * KB, memory_bytes=256 * KB,
        network=NetworkKind.ATM_155,
    )
    assert build_hierarchy(topology_for_spec(spec)) == spec.hierarchy()


class TestTwoLevelHierarchy:
    def test_clump_of_smps_has_two_remote_levels(self):
        """The new scenario's hierarchy carries one remote-memory level
        per interconnect -- the structure a flat spec cannot produce."""
        spec = clump_of_smps_spec()
        levels = spec.hierarchy().levels
        remote = [lv for lv in levels if lv.kind is LevelKind.REMOTE_MEMORY]
        assert len(remote) == 2
        intra, inter = remote
        assert "intra-rack" in intra.name and "inter-rack" in inter.name
        # the outer level serves the larger share of misses and costs more
        assert inter.tau_cycles > intra.tau_cycles

    def test_inexpressible_in_flat_enum(self):
        """No flat (n, N, network) spec can state two interconnects: the
        topology-bearing spec leaves its single ``network`` field empty,
        and handing a flat spec a second network has nowhere to go."""
        spec = clump_of_smps_spec()
        assert spec.network is None
        assert len(spec.topology.interconnects) == 2
        # a flat spec reproducing the same machine shape models exactly
        # one remote level, whichever network it picks
        for net in NetworkKind:
            flat = PlatformSpec(
                name="flat", n=spec.n, N=spec.N, cache_bytes=spec.cache_bytes,
                memory_bytes=spec.memory_bytes, network=net,
            )
            remote = [lv for lv in flat.hierarchy().levels if lv.kind is LevelKind.REMOTE_MEMORY]
            assert len(remote) == 1

    def test_scaled_preserves_structure(self):
        spec = clump_of_smps_spec().scaled(4)
        assert spec.topology.depth == 2
        assert spec.cache_items == spec.topology.machine.cache.capacity_items
        remote = [lv for lv in spec.hierarchy().levels if lv.kind is LevelKind.REMOTE_MEMORY]
        assert len(remote) == 2


def test_round_trip_through_spec_dict():
    """PlatformSpec.to_dict/from_dict is lossless for topology specs --
    the property the simulation cache key depends on."""
    spec = clump_of_smps_spec()
    again = PlatformSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.topology == spec.topology
    assert again.hierarchy() == spec.hierarchy()
