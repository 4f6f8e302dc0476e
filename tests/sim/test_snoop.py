"""Tests for the snooping write-invalidate protocol."""

import pytest

from repro.sim.cache import SetAssociativeCache
from repro.sim.directory import LINES_PER_BLOCK, block_of
from repro.sim.snoop import SnoopSource, SnoopingBus


def make_bus(n=2, capacity=8):
    caches = [SetAssociativeCache(capacity) for _ in range(n)]
    return SnoopingBus(caches), caches


class TestReads:
    def test_cold_read_served_by_memory(self):
        bus, _ = make_bus()
        out = bus.access(0, 100, is_write=False)
        assert out.source is SnoopSource.MEMORY
        assert out.invalidated == ()

    def test_second_read_hits_own_cache(self):
        bus, _ = make_bus()
        bus.access(0, 100, False)
        out = bus.access(0, 100, False)
        assert out.source is SnoopSource.OWN_CACHE

    def test_peer_supplies_shared_line(self):
        bus, _ = make_bus()
        bus.access(0, 100, False)
        out = bus.access(1, 100, False)
        assert out.source is SnoopSource.PEER_CACHE
        assert bus.cache_to_cache == 1


class TestWrites:
    def test_write_upgrade_invalidates_peers(self):
        bus, caches = make_bus()
        bus.access(0, 100, False)
        bus.access(1, 100, False)  # both share the line
        out = bus.access(0, 100, True)  # upgrade
        assert out.source is SnoopSource.OWN_CACHE
        assert out.invalidated == (1,)
        assert not caches[1].contains(100)
        assert caches[0].is_dirty(100)

    def test_write_miss_invalidates_and_fills(self):
        bus, caches = make_bus()
        bus.access(1, 100, False)
        out = bus.access(0, 100, True)
        assert out.source is SnoopSource.PEER_CACHE  # data came from peer
        assert out.invalidated == (1,)
        assert caches[0].is_dirty(100)

    def test_exclusive_write_invalidates_nobody(self):
        bus, _ = make_bus()
        bus.access(0, 100, True)
        out = bus.access(0, 100, True)
        assert out.invalidated == ()

    def test_invalidation_counter(self):
        bus, _ = make_bus(n=4)
        for p in range(4):
            bus.access(p, 100, False)
        bus.access(0, 100, True)
        assert bus.invalidations == 3


class TestEvictionsAndExternal:
    def test_dirty_eviction_reports_writeback(self):
        bus, _ = make_bus(n=1, capacity=2)  # 1 set x 2 ways... capacity 2
        bus.access(0, 0, True)
        bus.access(0, 2, True)
        out = bus.access(0, 4, False)  # evicts a dirty line
        assert out.writeback

    def test_external_invalidation(self):
        """A directory invalidation drops every line of the block from
        every cache of the bus, dirty or clean, and nothing else."""
        bus, caches = make_bus(capacity=16)
        block = block_of(100)
        first = block * LINES_PER_BLOCK
        bus.access(0, first, True)
        bus.access(1, first + 1, False)
        bus.access(1, first + LINES_PER_BLOCK, False)  # the next block
        assert bus.holds(first) and bus.holds_dirty(first)
        for cache in caches:
            cache.invalidate_block(block)
        assert not any(bus.holds(first + i) for i in range(LINES_PER_BLOCK))
        assert bus.holds(first + LINES_PER_BLOCK)
        for cache in caches:
            cache.invalidate_block(block)  # nothing left to drop
        assert bus.holds(first + LINES_PER_BLOCK)

    def test_holds_queries(self):
        bus, _ = make_bus()
        assert not bus.holds(5)
        bus.access(1, 5, False)
        assert bus.holds(5) and not bus.holds_dirty(5)

    def test_empty_bus_rejected(self):
        with pytest.raises(ValueError):
            SnoopingBus([])
