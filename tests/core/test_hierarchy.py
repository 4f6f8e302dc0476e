"""Tests for the memory-hierarchy abstraction and the platform folds."""

import pytest

from repro.core.hierarchy import (
    LevelKind,
    MemoryHierarchy,
    MemoryLevel,
    PlatformKind,
    additional_levels,
)
from repro.core.platform import PlatformSpec
from repro.sim.latencies import ITEM_BYTES, NetworkKind
from repro.topology.build import build_hierarchy
from repro.topology.canned import smp_topology


def _spec(n, N, cache_items=64, memory_items=1024, network=None):
    """A flat spec whose capacities are given in 64-byte items."""
    return PlatformSpec(
        "h", n=n, N=N, cache_bytes=cache_items * ITEM_BYTES,
        memory_bytes=memory_items * ITEM_BYTES, network=network,
    )


class TestTable1:
    def test_classification(self):
        """Paper Table 1: gray blocks added by each platform class."""
        assert additional_levels(PlatformKind.SMP) == ("A",)
        assert additional_levels(PlatformKind.COW) == ("B", "C")
        assert additional_levels(PlatformKind.CLUMP) == ("A", "B", "C")


class TestMemoryLevel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryLevel("x", LevelKind.CACHE, -1.0, 1.0, 1)
        with pytest.raises(ValueError):
            MemoryLevel("x", LevelKind.CACHE, 1.0, -1.0, 1)
        with pytest.raises(ValueError):
            MemoryLevel("x", LevelKind.CACHE, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            MemoryLevel("x", LevelKind.CACHE, 1.0, 1.0, 1, rate_fraction=1.5)


class TestSmpHierarchy:
    def test_structure(self):
        h = _spec(n=2, N=1).hierarchy()
        assert h.platform is PlatformKind.SMP
        assert h.length == 3  # cache, memory, disk
        assert h.base_cycles == 1
        mem, disk = h.levels
        assert mem.kind is LevelKind.LOCAL_MEMORY
        assert mem.boundary_items == 64 and mem.tau_cycles == 50 and mem.population == 2
        assert disk.kind is LevelKind.LOCAL_DISK
        assert disk.boundary_items == 1024 and disk.tau_cycles == 2000
        assert h.barrier_population == 2 and h.total_processes == 2

    def test_peer_cache_level(self):
        h = _spec(n=4, N=1).hierarchy(include_peer_cache=True)
        assert h.length == 4
        peer = h.levels[0]
        assert peer.kind is LevelKind.PEER_CACHE and peer.tau_cycles == 15
        # memory boundary moves out to the aggregate cache capacity
        assert h.levels[1].boundary_items == 4 * 64

    def test_peer_cache_skipped_for_uniprocessor(self):
        # A 1x1 shape is not a PlatformSpec: fold the uniprocessor tree.
        h = build_hierarchy(smp_topology(1, 64, 1024), include_peer_cache=True)
        assert all(lv.kind is not LevelKind.PEER_CACHE for lv in h.levels)

    def test_cache_capacity_factor(self):
        h = _spec(n=2, N=1).hierarchy(cache_capacity_factor=0.5)
        assert h.levels[0].boundary_items == 32

    def test_cache_capacity_factor_validation(self):
        spec = _spec(n=2, N=1)
        with pytest.raises(ValueError):
            spec.hierarchy(cache_capacity_factor=0.0)
        with pytest.raises(ValueError):
            spec.hierarchy(cache_capacity_factor=1.5)

    def test_memory_must_exceed_cache(self):
        with pytest.raises(ValueError, match="larger than the cache"):
            _spec(n=2, N=1, cache_items=64, memory_items=64)


class TestCowHierarchy:
    def test_structure(self):
        h = _spec(n=1, N=4, network=NetworkKind.ETHERNET_100).hierarchy()
        assert h.platform is PlatformKind.COW
        kinds = [lv.kind for lv in h.levels]
        assert kinds == [
            LevelKind.LOCAL_MEMORY,
            LevelKind.REMOTE_MEMORY,
            LevelKind.LOCAL_DISK,
            LevelKind.REMOTE_DISK,
        ]
        local, remote, ldisk, rdisk = h.levels
        assert local.population == 1  # own memory, uncontended
        assert remote.tau_cycles == 4575 and remote.population == 4  # shared bus
        assert ldisk.boundary_items == 4 * 1024  # aggregate memory
        assert ldisk.rate_fraction == pytest.approx(0.25)
        assert rdisk.rate_fraction == pytest.approx(0.75)
        assert h.barrier_population == 4

    def test_switch_population(self):
        h = _spec(n=1, N=8, network=NetworkKind.ATM_155).hierarchy()
        remote = h.levels[1]
        assert remote.tau_cycles == 3275
        assert remote.population == 2  # queueing at the destination only


class TestClumpHierarchy:
    def test_structure(self):
        h = _spec(n=2, N=2, network=NetworkKind.ETHERNET_10).hierarchy()
        assert h.platform is PlatformKind.CLUMP
        assert h.total_processes == 4 and h.barrier_population == 4
        mem = h.levels[0]
        assert mem.kind is LevelKind.LOCAL_MEMORY and mem.population == 2
        remote = h.levels[1]
        assert remote.tau_cycles == 45078  # the paper's CLUMP row: +3 cycles
        assert remote.population == 4  # bus shared by all n*N processors

    def test_switch_population_is_node_plus_one(self):
        h = _spec(n=4, N=2, network=NetworkKind.ATM_155).hierarchy()
        remote = [lv for lv in h.levels if lv.kind is LevelKind.REMOTE_MEMORY][0]
        assert remote.tau_cycles == 3278
        assert remote.population == 5


class TestMemoryHierarchy:
    def test_boundaries_must_be_sorted(self):
        levels = (
            MemoryLevel("a", LevelKind.LOCAL_MEMORY, 100.0, 50.0, 1),
            MemoryLevel("b", LevelKind.LOCAL_DISK, 50.0, 2000.0, 1),
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            MemoryHierarchy(
                platform=PlatformKind.SMP, base_cycles=1.0, levels=levels,
                barrier_population=1, total_processes=1,
            )

    def test_describe_mentions_every_level(self, smp_spec):
        text = smp_spec.hierarchy().describe()
        assert "cache hit" in text
        assert "memory bus" in text
        assert "disk" in text
        assert "barriers" in text
