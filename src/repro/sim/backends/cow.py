"""Cluster-of-workstations back-end: home-based DSM over a cluster network.

Each of the ``N`` machines runs one process and contributes its memory
to a software shared-memory image (the paper's Section 5.3.2 setting).
A directory over 256-byte blocks lives with each block's home machine;
caches are per-machine with 64-byte lines.

Latency classes (cycles, paper Section 5.1): cache hit 1; miss served by
the *local* memory 50; miss served by a remote node 45075 / 4575 / 3275
(10 Mb, 100 Mb Ethernet, 155 Mb ATM); miss served by remotely *cached*
(dirty) data costs the doubled constants; memory miss to disk 2000.
Ethernet serializes every message on one shared medium, ATM queues only
at the destination port (:mod:`repro.sim.network`).
"""

from __future__ import annotations

import numpy as np

from repro.core.platform import PlatformSpec
from repro.sim.backends.base import (
    MemoryBackend,
    _acc,
    eligible_prefix,
    timed_request,
)
from repro.sim.cache import SetAssociativeCache
from repro.sim.directory import (
    Directory,
    LINES_PER_BLOCK,
    block_of,
    first_unowned_write,
)
from repro.sim.memory import PagedMemory, Server, page_of
from repro.sim.network import make_network

__all__ = ["CowBackend"]


class CowBackend(MemoryBackend):
    """N uniprocessor workstations on a bus or switch network."""

    def __init__(self, spec: PlatformSpec, home_machine_of_line: np.ndarray) -> None:
        if spec.n != 1:
            raise ValueError("CowBackend models uniprocessor nodes; use ClumpBackend for SMP nodes")
        if spec.N < 2 or spec.network is None:
            raise ValueError("CowBackend needs N >= 2 machines and a network")
        super().__init__(spec, home_machine_of_line)
        lat = spec.latencies.with_network(spec.network, clump=False)
        self.t_hit = float(lat.cache_hit)
        self.t_mem = float(lat.cache_to_memory)
        self.t_disk = float(lat.memory_to_disk)
        self.t_remote = float(lat.remote_node)
        self.t_remote_dirty = float(lat.remote_cached)
        self.t_l2 = float(lat.l2_hit)
        self.caches = [SetAssociativeCache(spec.cache_items, ways=spec.cache_ways) for _ in range(spec.N)]
        self.l2s = (
            [SetAssociativeCache(spec.l2_items, ways=8) for _ in range(spec.N)]
            if spec.l2_items is not None
            else None
        )
        self.memories = [PagedMemory(spec.memory_items) for _ in range(spec.N)]
        self.disks = [Server() for _ in range(spec.N)]
        self.network = make_network(spec.network, spec.N)
        self.directory = Directory(self.home_of_line_block, spec.N)

    def home_of_line_block(self, block: int) -> int:
        return self.home_of_line(block * LINES_PER_BLOCK)

    # ------------------------------------------------------------------
    def _invalidate_block_at(self, machine: int, block: int) -> None:
        """Drop every line of ``block`` from ``machine``'s caches."""
        cache = self.caches[machine]
        base = block * LINES_PER_BLOCK
        for l in range(base, base + LINES_PER_BLOCK):
            cache.invalidate(l)
            if self.l2s is not None:
                self.l2s[machine].invalidate(l)

    def _home_memory_time(self, t: float, home: int, line: int) -> float:
        """Charge the home machine's memory (and disk on a page fault)."""
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
        machine = proc  # one process per machine
        cache = self.caches[machine]
        t = now + self.t_hit
        block = block_of(line)
        hit = cache.lookup(line)

        if hit and not is_write:
            st.cache_hits += 1
            return t
        if hit and is_write:
            st.cache_hits += 1
            out = self.directory.write(machine, line, hit_own_cache=True)
            cache.mark_dirty(line)
            if self.l2s is not None:
                self.l2s[machine].invalidate(line)
            if out.invalidated or out.dirty_owner is not None:
                st.invalidations += len(out.invalidated)
                for m in out.invalidated:
                    self._invalidate_block_at(m, block)
                if out.dirty_owner is not None:
                    st.writebacks += 1
                    self._invalidate_block_at(out.dirty_owner, block)
                    t = self._net_transfer(
                        t, out.dirty_owner, machine, self.t_remote_dirty,
                        "coherence",
                    )
                else:
                    # Invalidation round trips; the writer waits for the
                    # last acknowledgement.  The elapsed wait is profiled
                    # as coherence in one piece (same server call order
                    # with or without a profiler).
                    last = t
                    for m in out.invalidated:
                        fin = self.network.control(t, machine, m, self.t_remote)
                        if fin > last:
                            last = fin
                    prof = self.profiler
                    if prof is not None:
                        _acc(prof, "network", "coherence", last - t)
                    t = last
            return t

        # Cache miss.
        out = (
            self.directory.write(machine, line, hit_own_cache=False)
            if is_write
            else self.directory.read(machine, line)
        )
        st.invalidations += len(out.invalidated)
        for m in out.invalidated:
            self._invalidate_block_at(m, block)
        evicted = cache.fill(line, dirty=is_write)
        if evicted is not None and evicted[1]:
            st.writebacks += 1
            ev_home = self.home_of_line(evicted[0])
            if ev_home != machine:
                # Background write-back over the network.
                self.network.transfer(t, machine, ev_home, self.t_remote)
            self.directory.drop_owner(block_of(evicted[0]), machine)

        prof = self.profiler
        if out.dirty_owner is not None:
            st.remote_dirty += 1
            if is_write:
                self._invalidate_block_at(out.dirty_owner, block)
            return self._net_transfer(
                t, out.dirty_owner, machine, self.t_remote_dirty, "remote_dirty"
            )
        if out.home == machine:
            if self.l2s is not None and not is_write:
                if self.l2s[machine].lookup(line):
                    st.l2_hits += 1
                    if prof is not None:
                        _acc(prof, "l2", "l2", self.t_l2)
                    return t + self.t_l2
                self.l2s[machine].fill(line)
            st.local_memory += 1
            if prof is not None:
                _acc(prof, "memory", "local_memory", self.t_mem)
            t += self.t_mem
            return self._home_memory_time(t, machine, line)
        st.remote_clean += 1
        t = self._net_transfer(t, machine, out.home, self.t_remote, "remote_clean")
        return self._home_memory_time(t, out.home, line)

    def access_batch(
        self, proc: int, lines: np.ndarray, writes: np.ndarray, now: float
    ) -> tuple[int, int]:
        """Vectorized run of pure-local hits (see the base-class contract).

        Eligible references are own-cache read hits, plus write hits to
        blocks this machine already owns exclusively in the directory
        (a silent upgrade: no invalidations, no data movement) when
        there is no L2 to invalidate.  Private, write-back-owned pages
        -- the bulk of an SPMD process's traffic -- ride this path.
        The cache's own dirty bit is *not* a valid shortcut here: a
        remote read drops directory exclusivity without clearing the
        reader-side L1 flag, so the directory must be consulted.
        """
        machine = proc  # one process per machine
        cache = self.caches[machine]
        ok, slots = cache.residency(lines)
        k, skip = eligible_prefix(ok)
        if k == 0:
            return 0, skip
        wr = writes[:k]
        if wr.any():
            if self.l2s is not None:
                k = int(wr.argmax())  # first write cuts the run
            else:
                k = first_unowned_write(
                    self.directory.exclusive_owner, machine, lines, wr, k
                )
            if k == 0:
                return 0, 1
            wr = writes[:k]
        cache.touch_positions(slots[:k], dirty=wr if wr.any() else None)
        st = self.stats
        st.references += k
        st.cache_hits += k
        return k, k + 1 if k < lines.size else k

    def install_network_spikes(self, extra_of_time) -> None:
        self.network.latency_extra = extra_of_time

    def barrier_overhead(self) -> float:
        """Barrier exit: one control round trip across the network."""
        self.stats.barrier_count += 1
        return 2.0 * self.t_remote * 0.25  # address-only messages

    def resource_busy_cycles(self) -> dict[str, float]:
        out = {"network": self.network.busy_cycles}
        out["disks"] = sum(d.busy_cycles for d in self.disks)
        return out

    def resource_requests(self) -> dict[str, int]:
        return {
            "network": self.network.messages + self.network.control_messages,
            "disks": sum(d.requests for d in self.disks),
        }
