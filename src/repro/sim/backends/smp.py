"""SMP back-end: snooping bus, shared memory, shared disk (paper 5.1).

Latency classes (cycles, from the paper):
  cache hit 1 | cache miss to remote cache 15 | cache miss to local
  memory 50 | memory miss to local disk 2000.

The memory bus is one FCFS server shared by the n processors (the M/D/1
resource of the analytical model); cache-to-cache transfers and memory
fills occupy it for their full latency, dirty-eviction write-backs
occupy it without stalling the evicting processor, and write upgrades
post a short address-only invalidate.  The disk sits behind its own
I/O-bus server.
"""

from __future__ import annotations

import numpy as np

from repro.core.platform import PlatformSpec
from repro.sim.backends.base import (
    BackendStats,
    MemoryBackend,
    SMP_INVALIDATE_CYCLES,
    eligible_prefix,
    timed_request,
)
from repro.sim.cache import SetAssociativeCache
from repro.sim.memory import PagedMemory, Server, page_of
from repro.sim.snoop import SnoopSource, SnoopingBus

__all__ = ["SmpBackend"]


class SmpBackend(MemoryBackend):
    """A single bus-based SMP with ``spec.n`` processors."""

    def __init__(self, spec: PlatformSpec, home_machine_of_line: np.ndarray) -> None:
        if spec.N != 1:
            raise ValueError("SmpBackend models a single machine")
        super().__init__(spec, home_machine_of_line)
        lat = spec.latencies
        self.t_hit = float(lat.cache_hit)
        self.t_peer = float(lat.remote_cache_smp)
        self.t_mem = float(lat.cache_to_memory)
        self.t_disk = float(lat.memory_to_disk)
        self.t_l2 = float(lat.l2_hit)
        self.caches = [SetAssociativeCache(spec.cache_items, ways=spec.cache_ways) for _ in range(spec.n)]
        self.snoop = SnoopingBus(self.caches)
        self.l2 = (
            SetAssociativeCache(spec.l2_items, ways=8) if spec.l2_items is not None else None
        )
        self.bus = Server()
        self.memory = PagedMemory(spec.memory_items)
        self.disk = Server()

    # ------------------------------------------------------------------
    def access(self, proc: int, line: int, is_write: bool, now: float) -> float:
        st = self.stats
        st.references += 1
        t = now + self.t_hit
        outcome = self.snoop.access(proc, line, is_write)
        if is_write and self.l2 is not None:
            # a store makes any L2 copy stale; the dirty line lives in L1
            self.l2.invalidate(line)
        if outcome.invalidated:
            st.invalidations += len(outcome.invalidated)
        if outcome.writeback:
            st.writebacks += 1
            self.bus.request(t, self.t_mem)  # background write-back traffic

        prof = self.profiler
        if outcome.source is SnoopSource.OWN_CACHE:
            st.cache_hits += 1
            if is_write and outcome.invalidated:
                t = timed_request(
                    prof, self.bus, t, SMP_INVALIDATE_CYCLES,
                    "memory bus", "coherence",
                )
            return t
        if outcome.source is SnoopSource.PEER_CACHE:
            st.peer_cache += 1
            return timed_request(
                prof, self.bus, t, self.t_peer, "cache", "peer_cache", "memory bus"
            )

        # Served past the L1s: the shared L2 (if any) filters, then the
        # page capacity decides memory vs disk.
        if self.l2 is not None and not is_write:
            if self.l2.lookup(line):
                st.l2_hits += 1
                return timed_request(
                    prof, self.bus, t, self.t_l2, "l2", "l2", "memory bus"
                )
            self.l2.fill(line)
        st.local_memory += 1
        if self.memory.access(page_of(line)):
            return timed_request(
                prof, self.bus, t, self.t_mem, "memory", "local_memory", "memory bus"
            )
        st.disk += 1  # sub-stage: the access also visited memory
        t = timed_request(
            prof, self.bus, t, self.t_mem, "memory", "local_memory", "memory bus"
        )
        return timed_request(prof, self.disk, t, self.t_disk, "disk", "disk")

    def access_batch(
        self, proc: int, lines: np.ndarray, writes: np.ndarray, now: float
    ) -> tuple[int, int]:
        """Vectorized run of pure-local hits (see the base-class contract).

        Eligible references are own-cache read hits, plus -- when there
        is no shared L2 (a store must invalidate its L2 copy, which the
        scalar path handles) -- write hits to lines no peer holds.
        Lines already *dirty* in the issuing cache qualify wholesale:
        write-invalidate keeps dirty lines exclusive (a peer read
        downgrades M->S, a peer write invalidates).  The few write hits
        to *clean* lines per window (typically right after a fill) are
        checked against the peers individually; a peer-free one is a
        silent upgrade and marks the line dirty, exactly as the scalar
        path would.
        """
        cache = self.caches[proc]
        ok, slots = cache.residency(lines)
        k, skip = eligible_prefix(ok)
        if k == 0:
            return 0, skip
        # Write-gate only the resident prefix -- the part that can
        # actually be consumed -- not the whole window.
        dirty_marks = None
        if self.l2 is not None:
            bad = writes[:k]
            if bad.any():
                k = int(bad.argmax())
                if k == 0:
                    return 0, 1
        else:
            bad = writes[:k] & ~cache.dirty_at(slots[:k])
            if bad.any():
                first_bad = -1
                caches = self.caches
                for j in np.flatnonzero(bad).tolist():
                    line = int(lines[j])
                    if any(
                        c.contains(line) for q, c in enumerate(caches) if q != proc
                    ):
                        k = j  # held elsewhere: invalidate needed, go scalar
                        break
                    if first_bad < 0:
                        first_bad = j
                if k == 0:
                    return 0, 1
                if 0 <= first_bad < k:
                    # consumed clean-line upgrades: set their dirty bits
                    dirty_marks = writes[:k]
        cache.touch_positions(slots[:k], dirty=dirty_marks)
        st = self.stats
        st.references += k
        st.cache_hits += k
        return k, k + 1 if k < lines.size else k

    def barrier_overhead(self) -> float:
        """Barrier exit: one shared-variable round trip over the bus."""
        self.stats.barrier_count += 1
        return 2.0 * self.t_mem

    def resource_busy_cycles(self) -> dict[str, float]:
        return {"memory bus": self.bus.busy_cycles, "disk": self.disk.busy_cycles}

    def resource_requests(self) -> dict[str, int]:
        return {"memory bus": self.bus.requests, "disk": self.disk.requests}

    # ------------------------------------------------------------------
    def coherence_traffic_fraction(self) -> float:
        """Share of bus transactions that are protocol-induced
        (invalidate broadcasts + cache-to-cache transfers) -- the
        quantity the paper reports as 2.1%-7.2% for its applications.
        Capacity write-backs are excluded: they occur on a uniprocessor
        too and are not coherence traffic."""
        st = self.stats
        coherent = st.invalidations + st.peer_cache
        total = coherent + st.local_memory + st.writebacks
        return coherent / total if total else 0.0
