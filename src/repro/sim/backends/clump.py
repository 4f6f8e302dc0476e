"""Cluster-of-SMPs back-end: hybrid coherence over SMP nodes.

Combines the SMP back-end's intra-node structure (per-processor caches,
snooping memory bus, shared disk) with the COW back-end's inter-node
structure (home-based directory, cluster network).  Latencies use the
paper's CLUMP rows: the remote-node and remotely-cached costs are three
cycles above the COW values (the extra intra-SMP bus hop).
"""

from __future__ import annotations

import numpy as np

from repro.core.platform import PlatformSpec
from repro.sim.backends.base import (
    MemoryBackend,
    SMP_INVALIDATE_CYCLES,
    _acc,
    eligible_prefix,
    timed_request,
)
from repro.sim.cache import SetAssociativeCache
from repro.sim.directory import LINES_PER_BLOCK, first_unowned_write
from repro.sim.hybrid import HybridProtocol, HybridServe
from repro.sim.memory import PagedMemory, Server, page_of
from repro.sim.network import make_network
from repro.sim.snoop import SnoopingBus

__all__ = ["ClumpBackend"]


class ClumpBackend(MemoryBackend):
    """N SMP nodes of n processors each, on a bus or switch network."""

    def __init__(self, spec: PlatformSpec, home_machine_of_line: np.ndarray) -> None:
        if spec.n < 2 or spec.N < 2 or spec.network is None:
            raise ValueError("ClumpBackend needs n >= 2, N >= 2 and a network")
        super().__init__(spec, home_machine_of_line)
        lat = spec.latencies.with_network(spec.network, clump=True)
        self.t_hit = float(lat.cache_hit)
        self.t_peer = float(lat.remote_cache_smp)
        self.t_mem = float(lat.cache_to_memory)
        self.t_disk = float(lat.memory_to_disk)
        self.t_remote = float(lat.remote_node)
        self.t_remote_dirty = float(lat.remote_cached)

        n, N = spec.n, spec.N
        self.caches = [
            [SetAssociativeCache(spec.cache_items, ways=spec.cache_ways) for _ in range(n)] for _ in range(N)
        ]
        snoops = [SnoopingBus(self.caches[m]) for m in range(N)]
        self.t_l2 = float(lat.l2_hit)
        self.l2s = (
            [SetAssociativeCache(spec.l2_items, ways=8) for _ in range(N)]
            if spec.l2_items is not None
            else None
        )
        self.buses = [Server() for _ in range(N)]  # per-SMP memory bus
        self.memories = [PagedMemory(spec.memory_items) for _ in range(N)]
        self.disks = [Server() for _ in range(N)]
        self.network = make_network(spec.network, N)
        self.protocol = HybridProtocol(snoops, self.home_of_line_block, N)

    def home_of_line_block(self, block: int) -> int:
        return self.home_of_line(block * LINES_PER_BLOCK)

    # ------------------------------------------------------------------
    def _home_memory_time(self, t: float, home: int, line: int) -> float:
        if self.memories[home].access(page_of(line)):
            return t
        self.stats.disk += 1
        return timed_request(
            self.profiler, self.disks[home], t, self.t_disk, "disk", "disk"
        )

    def _net_transfer(
        self, t: float, src: int, dst: int, cycles: float, cause: str
    ) -> float:
        """A profiled foreground network transfer (service + wait split)."""
        prof = self.profiler
        if prof is None:
            return self.network.transfer(t, src, dst, cycles)
        service = self.network.service_of(t, cycles)
        finish = self.network.transfer(t, src, dst, cycles)
        _acc(prof, "network", cause, service)
        _acc(prof, "network", "contention", finish - t - service)
        return finish

    def access(self, proc: int, line: int, is_write: bool, now: float) -> float:
        st = self.stats
        st.references += 1
        machine = proc // self.spec.n
        local_proc = proc % self.spec.n
        bus = self.buses[machine]
        t = now + self.t_hit

        out = self.protocol.access(machine, local_proc, line, is_write)
        if self.l2s is not None and is_write:
            self.l2s[machine].invalidate(line)
            base = (line // LINES_PER_BLOCK) * LINES_PER_BLOCK
            for m in out.invalidated_machines:
                for l in range(base, base + LINES_PER_BLOCK):
                    self.l2s[m].invalidate(l)
        st.invalidations += len(out.invalidated_machines) + out.local_invalidations
        if out.writeback:
            st.writebacks += 1
            bus.request(t, self.t_mem)  # background write-back on the SMP bus

        prof = self.profiler
        if out.serve is HybridServe.OWN_CACHE:
            st.cache_hits += 1
            if is_write and out.local_invalidations:
                t = timed_request(
                    prof, bus, t, SMP_INVALIDATE_CYCLES, "memory bus", "coherence"
                )
            if is_write and out.invalidated_machines:
                last = t
                for m in out.invalidated_machines:
                    fin = self.network.control(t, machine, m, self.t_remote)
                    if fin > last:
                        last = fin
                if prof is not None:
                    _acc(prof, "network", "coherence", last - t)
                t = last
            return t
        if out.serve is HybridServe.PEER_CACHE:
            st.peer_cache += 1
            return timed_request(
                prof, bus, t, self.t_peer, "cache", "peer_cache", "memory bus"
            )
        if out.serve is HybridServe.LOCAL_MEMORY:
            if self.l2s is not None and not is_write:
                if self.l2s[machine].lookup(line):
                    st.l2_hits += 1
                    return timed_request(
                        prof, bus, t, self.t_l2, "l2", "l2", "memory bus"
                    )
                self.l2s[machine].fill(line)
            st.local_memory += 1
            t = timed_request(
                prof, bus, t, self.t_mem, "memory", "local_memory", "memory bus"
            )
            return self._home_memory_time(t, machine, line)
        if out.serve is HybridServe.REMOTE_DIRTY:
            st.remote_dirty += 1
            assert out.data_source is not None
            return self._net_transfer(
                t, out.data_source, machine, self.t_remote_dirty, "remote_dirty"
            )
        st.remote_clean += 1
        t = self._net_transfer(t, machine, out.home, self.t_remote, "remote_clean")
        return self._home_memory_time(t, out.home, line)

    def access_batch(
        self, proc: int, lines: np.ndarray, writes: np.ndarray, now: float
    ) -> tuple[int, int]:
        """Vectorized run of pure-local hits (see the base-class contract).

        Both coherence layers must be quiet: a read hit always is; a
        write hit qualifies only when the line is already dirty in the
        issuing cache (within a snoop group, dirty implies no peer copy,
        so no invalidate broadcast and no bus) *and* the node already
        owns the directory block exclusively (silent upgrade), with no
        L2.  The local dirty bit cannot stand in for the directory
        check: a remote read drops exclusivity without touching the
        owner node's L1 flags.
        """
        n = self.spec.n
        machine = proc // n
        cache = self.caches[machine][proc % n]
        ok, slots = cache.residency(lines)
        k, skip = eligible_prefix(ok)
        if k == 0:
            return 0, skip
        w = writes[:k]
        if w.any():
            if self.l2s is not None:
                k = int(w.argmax())  # first write cuts the run
            else:
                bad = w & ~cache.dirty_at(slots[:k])
                if bad.any():
                    k = int(bad.argmax())
                if k:
                    k = first_unowned_write(
                        self.protocol.directory.exclusive_owner,
                        machine,
                        lines,
                        writes,
                        k,
                    )
            if k == 0:
                return 0, 1
        cache.touch_positions(slots[:k])
        st = self.stats
        st.references += k
        st.cache_hits += k
        return k, k + 1 if k < lines.size else k

    def install_network_spikes(self, extra_of_time) -> None:
        self.network.latency_extra = extra_of_time

    def barrier_overhead(self) -> float:
        """Barrier exit: network control round trip + SMP bus release."""
        self.stats.barrier_count += 1
        return 2.0 * self.t_remote * 0.25 + 2.0 * self.t_mem

    def resource_busy_cycles(self) -> dict[str, float]:
        return {
            "network": self.network.busy_cycles,
            "memory buses": sum(b.busy_cycles for b in self.buses),
            "disks": sum(d.busy_cycles for d in self.disks),
        }

    def resource_requests(self) -> dict[str, int]:
        return {
            "network": self.network.messages + self.network.control_messages,
            "memory buses": sum(b.requests for b in self.buses),
            "disks": sum(d.requests for d in self.disks),
        }
