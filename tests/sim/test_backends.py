"""Tests for the platform back-ends' cycle accounting."""

import numpy as np
import pytest

from repro.core.platform import PlatformSpec
from repro.sim.backends import ComposedBackend, make_backend
from repro.sim.latencies import NetworkKind

KB = 1024


def _home_all_zero(items=10_000):
    return np.zeros(items, dtype=np.int64)


def _home_split(machines, items=10_000):
    """Items striped over machines in 4-line (one-block) chunks."""
    return ((np.arange(items) // 4) % machines).astype(np.int64)


def smp_backend(n=2):
    spec = PlatformSpec(name="s", n=n, N=1, cache_bytes=2 * KB, memory_bytes=256 * KB)
    return make_backend(spec, _home_all_zero())


def cow_backend(net=NetworkKind.ETHERNET_100, N=2):
    spec = PlatformSpec(
        name="c", n=1, N=N, cache_bytes=2 * KB, memory_bytes=256 * KB, network=net
    )
    return make_backend(spec, _home_split(N))


def clump_backend(net=NetworkKind.ETHERNET_100):
    spec = PlatformSpec(
        name="k", n=2, N=2, cache_bytes=2 * KB, memory_bytes=256 * KB, network=net
    )
    return make_backend(spec, _home_split(2))


class TestFactory:
    def test_dispatch(self, smp_spec, cow_spec, clump_spec):
        home = _home_all_zero()
        for spec in (smp_spec, cow_spec, clump_spec):
            backend = make_backend(spec, home)
            assert isinstance(backend, ComposedBackend)
            assert backend.topology.total_machines == spec.N
            assert backend.topology.procs_per_machine == spec.n

    def test_unsupported_kind_raises_precisely(self, smp_spec):
        """An unclassifiable platform must fail loudly, naming itself,
        instead of falling through to a wrong back-end."""

        class AlienSpec:
            name = "alien-platform"
            kind = "a hypercube of accelerators"

        with pytest.raises(ValueError) as err:
            make_backend(AlienSpec(), _home_all_zero())
        msg = str(err.value)
        assert "alien-platform" in msg
        assert "a hypercube of accelerators" in msg
        assert "SMP" in msg and "COW" in msg and "CLUMP" in msg


class TestSmpTiming:
    def test_cold_miss_cost(self):
        b = smp_backend()
        # memory page is also cold: 1 (cache) + 50 (memory) + 2000 (disk)
        assert b.access(0, 100, False, 0.0) == pytest.approx(2051.0)
        assert b.stats.disk == 1

    def test_warm_page_miss_cost(self):
        b = smp_backend()
        b.access(0, 100, False, 0.0)  # faults the page in
        t = b.access(0, 101, False, 10_000.0)  # same page, new line
        assert t == pytest.approx(10_000.0 + 1.0 + 50.0)

    def test_cache_hit_cost(self):
        b = smp_backend()
        b.access(0, 100, False, 0.0)
        assert b.access(0, 100, False, 5000.0) == pytest.approx(5001.0)
        assert b.stats.cache_hits == 1

    def test_peer_transfer_cost(self):
        b = smp_backend()
        b.access(0, 100, False, 0.0)
        t = b.access(1, 100, False, 10_000.0)
        assert t == pytest.approx(10_000.0 + 1.0 + 15.0)
        assert b.stats.peer_cache == 1

    def test_bus_contention_serializes(self):
        b = smp_backend()
        b.access(0, 100, False, 0.0)  # warm the page
        b.memory.access(0)  # ensure page 0 resident
        t0 = b.access(0, 8, False, 10_000.0)  # occupies bus 50 cycles
        t1 = b.access(1, 16, False, 10_000.0)  # queued behind it
        assert t1 >= t0 + 49.0

    def test_coherence_traffic_fraction(self):
        b = smp_backend()
        b.access(0, 100, False, 0.0)
        b.access(1, 100, False, 0.0)
        b.access(0, 100, True, 0.0)
        assert 0.0 < b.coherence_traffic_fraction() <= 1.0

    def test_barrier_overhead_positive(self):
        b = smp_backend()
        assert b.barrier_overhead() == pytest.approx(100.0)
        assert b.stats.barrier_count == 1


class TestCowTiming:
    def test_local_home_access(self):
        b = cow_backend()
        b.memories[0].access(0)  # pre-fault the page
        t = b.access(0, 0, False, 0.0)  # line 0 homed on machine 0
        assert t == pytest.approx(1.0 + 50.0)
        assert b.stats.local_memory == 1

    def test_remote_clean_access(self):
        b = cow_backend()
        b.memories[1].access(0)  # pre-fault home page on machine 1
        t = b.access(0, 4, False, 0.0)  # line 4 -> block 1 -> home 1
        assert t == pytest.approx(1.0 + 4575.0)
        assert b.stats.remote_clean == 1

    def test_remote_dirty_costs_double_constant(self):
        b = cow_backend()
        b.memories[1].access(0)
        b.access(1, 4, True, 0.0)  # machine 1 dirties its own block
        t = b.access(0, 4, False, 100_000.0)
        assert t == pytest.approx(100_000.0 + 1.0 + 9150.0)
        assert b.stats.remote_dirty == 1

    def test_cache_hit_is_one_cycle(self):
        b = cow_backend()
        b.access(0, 0, False, 0.0)
        assert b.access(0, 0, False, 50_000.0) == pytest.approx(50_001.0)

    def test_write_hit_to_exclusive_block_is_cheap(self):
        b = cow_backend()
        b.access(0, 0, True, 0.0)
        t = b.access(0, 0, True, 50_000.0)
        assert t == pytest.approx(50_001.0)

    def test_ethernet_bus_serializes_remote_traffic(self):
        b = cow_backend(net=NetworkKind.ETHERNET_100, N=2)
        b.memories[0].access(0)
        b.memories[1].access(0)
        t0 = b.access(0, 4, False, 0.0)  # 0 -> 1
        t1 = b.access(1, 0, False, 0.0)  # 1 -> 0, queued on the bus
        assert t1 >= t0 + 4574.0

    def test_atm_switch_parallel_remote_traffic(self):
        b = cow_backend(net=NetworkKind.ATM_155, N=2)
        b.memories[0].access(0)
        b.memories[1].access(0)
        t0 = b.access(0, 4, False, 0.0)
        t1 = b.access(1, 0, False, 0.0)  # opposite direction: no queueing
        assert t0 == pytest.approx(1.0 + 3275.0)
        assert t1 == pytest.approx(1.0 + 3275.0)


class TestClumpTiming:
    def test_peer_cache_within_node(self):
        b = clump_backend()
        b.memories[0].access(0)
        b.access(0, 0, False, 0.0)  # proc 0 (machine 0)
        t = b.access(1, 0, False, 10_000.0)  # proc 1, same machine
        assert t == pytest.approx(10_000.0 + 1.0 + 15.0)
        assert b.stats.peer_cache == 1

    def test_remote_node_uses_clump_latency(self):
        b = clump_backend()
        b.memories[1].access(0)
        t = b.access(0, 4, False, 0.0)  # block 1 homed on machine 1
        assert t == pytest.approx(1.0 + 4578.0)  # COW value + 3

    def test_cross_machine_write_invalidates(self):
        b = clump_backend()
        b.memories[0].access(0)
        b.access(2, 0, False, 0.0)  # proc 2 = machine 1 reads block 0
        b.access(0, 0, False, 0.0)  # machine 0 reads it too
        b.access(0, 0, True, 0.0)  # machine 0 writes: invalidate machine 1
        assert b.stats.invalidations >= 1
        assert not b.protocol.snoops[1].holds(0)
