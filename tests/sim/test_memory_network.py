"""Tests for FCFS servers, paged memory and the two network topologies."""

import numpy as np
import pytest

from repro.core.platform import PlatformSpec
from repro.sim.backends import make_backend
from repro.sim.latencies import NetworkKind
from repro.sim.memory import PAGE_ITEMS, PagedMemory, Server, page_of
from repro.sim.network import CONTROL_FRACTION, BusNetwork, SwitchNetwork


class TestServer:
    def test_idle_server_serves_immediately(self):
        s = Server()
        assert s.request(10.0, 5.0) == 15.0

    def test_fcfs_queueing(self):
        s = Server()
        assert s.request(0.0, 10.0) == 10.0
        # arrives at t=2 while busy: waits until 10, finishes 20
        assert s.request(2.0, 10.0) == 20.0
        assert s.waiting_time(12.0) == pytest.approx(8.0)

    def test_gap_resets_queue(self):
        s = Server()
        s.request(0.0, 5.0)
        assert s.request(100.0, 5.0) == 105.0

    def test_accounting(self):
        s = Server()
        s.request(0.0, 5.0)
        s.request(0.0, 5.0)
        assert s.busy_cycles == 10.0 and s.requests == 2


class TestPagedMemory:
    def test_hit_after_touch(self):
        m = PagedMemory(capacity_items=4 * PAGE_ITEMS)
        assert not m.access(0)  # cold
        assert m.access(0)

    def test_lru_page_replacement(self):
        m = PagedMemory(capacity_items=2 * PAGE_ITEMS)
        m.access(0)
        m.access(1)
        m.access(0)  # refresh page 0
        m.access(2)  # evicts page 1
        assert m.access(0)
        assert not m.access(1)

    def test_counters(self):
        m = PagedMemory(capacity_items=PAGE_ITEMS)
        m.access(0)
        m.access(0)
        assert (m.hits, m.misses) == (1, 1)
        assert m.resident_pages == 1

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            PagedMemory(capacity_items=PAGE_ITEMS - 1)

    def test_page_of(self):
        assert page_of(0) == 0
        assert page_of(PAGE_ITEMS) == 1


class TestNetworks:
    def test_factory_topologies(self):
        def network(kind):
            spec = PlatformSpec(
                name="c", n=1, N=4, cache_bytes=2048, memory_bytes=256 * 1024,
                network=kind,
            )
            (net,) = make_backend(spec, np.zeros(16, dtype=np.int64)).fabric._instances[0]
            return net

        assert isinstance(network(NetworkKind.ETHERNET_10), BusNetwork)
        assert isinstance(network(NetworkKind.ETHERNET_100), BusNetwork)
        assert isinstance(network(NetworkKind.ATM_155), SwitchNetwork)

    def test_bus_serializes_everything(self):
        net = BusNetwork(NetworkKind.ETHERNET_100, 4)
        assert net.transfer(0.0, 0, 1, 100.0) == 100.0
        # different destination, still the same shared medium
        assert net.transfer(0.0, 2, 3, 100.0) == 200.0

    def test_switch_parallel_destinations(self):
        net = SwitchNetwork(NetworkKind.ATM_155, 4)
        assert net.transfer(0.0, 0, 1, 100.0) == 100.0
        assert net.transfer(0.0, 2, 3, 100.0) == 100.0  # disjoint ports

    def test_switch_queues_per_destination(self):
        net = SwitchNetwork(NetworkKind.ATM_155, 4)
        net.transfer(0.0, 0, 1, 100.0)
        assert net.transfer(0.0, 2, 1, 100.0) == 200.0

    def test_control_message_fraction(self):
        net = BusNetwork(NetworkKind.ETHERNET_10, 2)
        finish = net.control(0.0, 0, 1, 100.0)
        assert finish == pytest.approx(100.0 * CONTROL_FRACTION)
        assert net.control_messages == 1

    def test_busy_cycles_aggregate(self):
        net = SwitchNetwork(NetworkKind.ATM_155, 3)
        net.transfer(0.0, 0, 1, 50.0)
        net.transfer(0.0, 0, 2, 70.0)
        assert net.busy_cycles == pytest.approx(120.0)

    def test_minimum_two_machines(self):
        with pytest.raises(ValueError):
            BusNetwork(NetworkKind.ETHERNET_10, 1)
