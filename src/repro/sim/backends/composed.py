"""Topology-driven back-end: one cycle-accounting engine for any tree.

:class:`ComposedBackend` instantiates a platform's memory system from
its declarative topology (:mod:`repro.topology`).  The shape of the
tree selects the coherence machinery -- a snooping bus inside each
multi-processor machine, a home-based directory across machines, both
for SMP nodes (the paper's hybrid protocol) -- and a :class:`Fabric`
routes every inter-machine message through the interconnect level that
is the lowest common ancestor of source and destination.

The paper's five simulators are three shapes of this one back-end: a
single SMP; a flat cluster of uniprocessors (COW); a flat cluster of
SMPs (CLUMP), each cluster over a bus or a switch.  Their answers on
fixed inputs -- results, statistics, resource counters and cycle
profiles -- are pinned by golden digests
(``tests/sim/test_backend_golden.py``), in both execution lanes.
Deeper trees -- e.g. a CLUMP of SMPs with an intra-rack switch and an
inter-rack bus -- take the same access paths, with the fabric routing
each message to its level.
"""

from __future__ import annotations

import numpy as np

from repro.core.platform import PlatformSpec
from repro.sim.backends.base import MemoryBackend, _acc, timed_request
from repro.sim.cache import SetAssociativeCache
from repro.sim.directory import LINES_PER_BLOCK, block_of
from repro.sim.hybrid import HybridProtocol, HybridServe
from repro.sim.memory import PagedMemory, Server, page_of
from repro.sim.network import BusNetwork, SwitchNetwork
from repro.sim.snoop import SnoopSource, SnoopingBus
from repro.topology.canned import topology_for_spec
from repro.topology.ir import ClusterNode, Contention, Topology

__all__ = ["ComposedBackend", "Fabric"]

#: Bus occupancy (cycles) of an address-only invalidate on an SMP bus.
SMP_INVALIDATE_CYCLES = 2.0


class Fabric:
    """The interconnect levels of a topology tree, with LCA routing.

    Level ``j`` (innermost first) joins groups of ``child_size[j]``
    machines into clusters of ``under[j]``; the whole platform holds
    ``total // under[j]`` independent instances of that level.  A
    message between machines ``a`` and ``b`` crosses exactly one level:
    the innermost one whose instance contains both -- and is queued on
    that instance's bus (one server) or destination switch port,
    charged that level's remote cost.  A flat cluster (depth 1) has one
    instance: a single bus, or a switch with one port per machine.
    """

    def __init__(self, topology: Topology) -> None:
        if not isinstance(topology, ClusterNode):
            raise ValueError("a Fabric needs at least one interconnect level")
        total = topology.total_machines
        self.total_machines = total
        self._under: list[int] = []
        self._child_size: list[int] = []
        self._count: list[int] = []
        self._instances: list[list] = []
        self.t_remote: list[float] = []
        self.t_remote_dirty: list[float] = []
        self.labels: list[str] = []
        child_size = 1
        for ic, under in topology.interconnects:
            count = under // child_size
            net_cls = BusNetwork if ic.contention is Contention.BUS else SwitchNetwork
            self._under.append(under)
            self._child_size.append(child_size)
            self._count.append(count)
            self._instances.append(
                [net_cls(ic.network, count) for _ in range(total // under)]
            )
            self.t_remote.append(ic.remote_node_cycles)
            self.t_remote_dirty.append(ic.remote_cached_cycles)
            self.labels.append(ic.label)
            child_size = under
        #: Cycle-attribution sink (shared with the owning back-end).
        self.profiler: dict | None = None
        #: Profile node id per level.  A flat cluster's one level is
        #: plain ``"network"``, the name the docs and the pinned
        #: profiles use; deeper trees name each level by its IR label,
        #: which is how a CLUMP-of-SMPs profile shows the intra-rack
        #: switch separately from the inter-rack bus.
        if len(self._under) == 1:
            self.node_names = ["network"]
        else:
            self.node_names = [f"network[{label}]" for label in self.labels]

    @property
    def depth(self) -> int:
        return len(self._under)

    def _route(self, a: int, b: int):
        """(level, instance, src port, dst port) for a cross-machine pair."""
        for j, under in enumerate(self._under):
            if a // under == b // under:
                child = self._child_size[j]
                count = self._count[j]
                return (
                    j,
                    self._instances[j][a // under],
                    (a // child) % count,
                    (b // child) % count,
                )
        raise AssertionError("machines share the tree root by construction")

    # -- message interface (mirrors ClusterNetwork) ---------------------
    def transfer(
        self, now: float, src: int, dst: int, dirty: bool = False,
        cause: str | None = None,
    ) -> float:
        """Move one block from machine src to dst; return the finish time.

        With a profiler installed and a ``cause`` given, the message's
        service (including any injected spike extra) lands in the
        routing level's ``(node, cause)`` bucket and its queueing wait
        in ``(node, "contention")``.  Background traffic (capacity
        write-backs that never advance a process clock) passes no
        cause and is not attributed -- its queueing effect shows up as
        later foreground contention, which is where the waiting
        actually happens.
        """
        j, net, sp, dp = self._route(src, dst)
        cycles = self.t_remote_dirty[j] if dirty else self.t_remote[j]
        prof = self.profiler
        if prof is None or cause is None:
            return net.transfer(now, sp, dp, cycles)
        service = net.service_of(now, cycles)
        finish = net.transfer(now, sp, dp, cycles)
        node = self.node_names[j]
        _acc(prof, node, cause, service)
        _acc(prof, node, "contention", finish - now - service)
        return finish

    def control(self, now: float, src: int, dst: int) -> float:
        """Send a short address-only message (invalidate / ack)."""
        j, net, sp, dp = self._route(src, dst)
        return net.control(now, sp, dp, self.t_remote[j])

    def node_of(self, a: int, b: int) -> str:
        """Profile node id of the level a ``(a, b)`` message crosses."""
        return self.node_names[self._route(a, b)[0]]

    # -- aggregate bookkeeping ------------------------------------------
    def install_latency_extra(self, extra_of_time) -> None:
        for nets in self._instances:
            for net in nets:
                net.latency_extra = extra_of_time

    @property
    def busy_cycles(self) -> float:
        return sum(net.busy_cycles for nets in self._instances for net in nets)

    @property
    def messages(self) -> int:
        return sum(net.messages for nets in self._instances for net in nets)

    @property
    def control_messages(self) -> int:
        return sum(net.control_messages for nets in self._instances for net in nets)

    def level_busy_cycles(self, j: int) -> float:
        return sum(net.busy_cycles for net in self._instances[j])

    def level_requests(self, j: int) -> int:
        return sum(net.messages + net.control_messages for net in self._instances[j])

    @property
    def outer_t_remote(self) -> float:
        """Uncontended block cost of the outermost (root) level."""
        return self.t_remote[-1]


class ComposedBackend(MemoryBackend):
    """Cycle accounting for any declarative topology tree.

    One class, three access shapes picked by the tree, not by a kind
    enum: a lone machine uses the snooping bus alone; a cluster of
    uniprocessor machines uses the directory through the same hybrid
    protocol (each node's "snoop group" is a single cache); a cluster
    of SMP machines uses both layers.  All cross-machine timing flows
    through the :class:`Fabric`, which works at any depth.
    """

    def __init__(self, spec: PlatformSpec, home_machine_of_line: np.ndarray) -> None:
        super().__init__(spec, home_machine_of_line)
        topo = topology_for_spec(spec)
        self.topology = topo
        machine = topo.machine
        n = machine.processors
        N = topo.total_machines
        self.t_hit = float(machine.cache.tau_cycles)
        self.t_peer = float(machine.cache.peer_tau_cycles)
        self.t_mem = float(machine.memory.tau_cycles)
        self.t_disk = float(machine.disk.tau_cycles)
        self.t_l2 = (
            float(machine.l2.tau_cycles)
            if machine.l2 is not None
            else float(spec.latencies.l2_hit)
        )

        if N == 1:
            # -- one machine: snooping bus, shared memory, shared disk --
            self.caches = [
                SetAssociativeCache(spec.cache_items, ways=spec.cache_ways)
                for _ in range(n)
            ]
            self.snoop = SnoopingBus(self.caches)
            self.l2 = (
                SetAssociativeCache(spec.l2_items, ways=8)
                if spec.l2_items is not None
                else None
            )
            self.bus = Server()
            self.memory = PagedMemory(spec.memory_items)
            self.disk = Server()
            self.fabric = None
            self._access_impl = self._access_smp
            self._pure_write = self._pure_write_smp
            self._own = self.caches
            return

        # -- multi-machine: hybrid protocol over a routed fabric --------
        self.fabric = Fabric(topo)
        self.t_remote = self.fabric.outer_t_remote
        self.l2s = (
            [SetAssociativeCache(spec.l2_items, ways=8) for _ in range(N)]
            if spec.l2_items is not None
            else None
        )
        self.memories = [PagedMemory(spec.memory_items) for _ in range(N)]
        self.disks = [Server() for _ in range(N)]
        if n == 1:
            self.caches = [
                SetAssociativeCache(spec.cache_items, ways=spec.cache_ways)
                for _ in range(N)
            ]
            snoops = [SnoopingBus([c]) for c in self.caches]
            self._access_impl = self._access_cow
            self._pure_write = self._pure_write_cow
        else:
            self.caches = [
                [
                    SetAssociativeCache(spec.cache_items, ways=spec.cache_ways)
                    for _ in range(n)
                ]
                for _ in range(N)
            ]
            snoops = [SnoopingBus(self.caches[m]) for m in range(N)]
            self.buses = [Server() for _ in range(N)]  # per-SMP memory bus
            self._access_impl = self._access_clump
            self._pure_write = self._pure_write_clump
        self.protocol = HybridProtocol(snoops, self.home_of_line_block, N)
        #: Each process's own cache, by global process id.
        self._own = self.caches if n == 1 else [c for m in self.caches for c in m]

    def home_of_line_block(self, block: int) -> int:
        return self.home_of_line(block * LINES_PER_BLOCK)

    def install_profiler(self, sink: dict | None) -> None:
        super().install_profiler(sink)
        if self.fabric is not None:
            self.fabric.profiler = sink

    # ------------------------------------------------------------------
    def access(self, proc: int, line: int, is_write: bool, now: float) -> float:
        return self._access_impl(proc, line, is_write, now)

    def access_batch(
        self, proc, lines, writes, works, start, stop, now, limit, until, times=None
    ) -> tuple[int, float]:
        """Walk a run of pure-local hits (see the base-class contract).

        A read hit in the own cache is pure in every shape; a write hit
        is pure when the shape's ``_pure_write`` predicate says so, and
        then takes the dirty mark the scalar path gives it.  Each hit is
        one slot-index lookup and one LRU stamp, and costs the scalar
        step's two additions; the run's ``references`` and
        ``cache_hits`` are counted once at the end.  The first reference
        that is no pure hit is left untouched for ``access``.
        """
        cache = self._own[proc]
        slot = cache._slot_of.get
        stamps = cache._flat_stamps
        dirty = cache._flat_dirty
        pure_write = self._pure_write
        tick = cache._tick
        t_hit = self.t_hit
        t = now
        j = start
        while j < stop:
            line = lines[j]
            pos = slot(line)
            if pos is None:
                break
            if writes[j]:
                if not pure_write(proc, line, dirty[pos]):
                    break
                dirty[pos] = True
            tick += 1
            stamps[pos] = tick
            t += works[j] + 1.0
            t += t_hit
            j += 1
            if times is not None:
                times.append(t)
            if t > limit or t >= until:
                break
        cache._tick = tick
        k = j - start
        if k:
            st = self.stats
            st.references += k
            st.cache_hits += k
        return k, t

    # ------------------------------------------------------------------
    # one machine (the SMP shape)
    # ------------------------------------------------------------------
    def _access_smp(self, proc: int, line: int, is_write: bool, now: float) -> float:
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

    def _pure_write_smp(self, proc: int, line: int, dirty: bool) -> bool:
        # A write hit is pure with no shared L2 (a store must invalidate
        # its L2 copy) and no peer copy to invalidate.  A line dirty in
        # the issuing cache qualifies at once: write-invalidate keeps
        # dirty lines exclusive (a peer read downgrades M->S, a peer
        # write invalidates).  A clean line no peer holds is a silent
        # upgrade.
        if self.l2 is not None:
            return False
        if dirty:
            return True
        own = self.caches[proc]
        return not any(c.contains(line) for c in self.caches if c is not own)

    # ------------------------------------------------------------------
    # cluster of uniprocessor machines (the COW shape)
    # ------------------------------------------------------------------
    def _home_memory_time(self, t: float, home: int, line: int) -> float:
        """Charge the home machine's memory (and disk on a page fault)."""
        if self.memories[home].access(page_of(line)):
            return t
        self.stats.disk += 1
        return timed_request(
            self.profiler, self.disks[home], t, self.t_disk, "disk", "disk"
        )

    def _access_cow(self, proc: int, line: int, is_write: bool, now: float) -> float:
        st = self.stats
        st.references += 1
        machine = proc  # one process per machine
        t = now + self.t_hit
        block = block_of(line)
        out = self.protocol.access(machine, 0, line, is_write)

        if out.serve is HybridServe.OWN_CACHE:
            st.cache_hits += 1
            if is_write:
                if self.l2s is not None:
                    self.l2s[machine].invalidate(line)
                if out.invalidated_machines or out.data_source is not None:
                    st.invalidations += len(out.invalidated_machines)
                    if self.l2s is not None:
                        for m in out.invalidated_machines:
                            self.l2s[m].invalidate_block(block)
                    if out.data_source is not None:
                        st.writebacks += 1
                        if self.l2s is not None:
                            self.l2s[out.data_source].invalidate_block(block)
                        t = self.fabric.transfer(
                            t, out.data_source, machine, dirty=True,
                            cause="coherence",
                        )
                    else:
                        # Invalidation round trips; the writer waits for
                        # the last acknowledgement.  The whole elapsed
                        # wait is attributed to the level that carried
                        # the last-finishing ack -- same server call
                        # order with or without a profiler.
                        last, slowest = t, None
                        for m in out.invalidated_machines:
                            fin = self.fabric.control(t, machine, m)
                            if fin > last:
                                last, slowest = fin, m
                        prof = self.profiler
                        if prof is not None and slowest is not None:
                            _acc(
                                prof, self.fabric.node_of(machine, slowest),
                                "coherence", last - t,
                            )
                        t = last
            return t

        # Cache miss: the protocol already ran the directory transition
        # and the L1 invalidations; mirror them in the L2s and settle the
        # eviction the fill may have caused.
        st.invalidations += len(out.invalidated_machines)
        if self.l2s is not None:
            for m in out.invalidated_machines:
                self.l2s[m].invalidate_block(block)
        if out.evicted is not None and out.evicted[1]:
            st.writebacks += 1
            ev_home = self.home_of_line(out.evicted[0])
            if ev_home != machine:
                # Background write-back over the network.
                self.fabric.transfer(t, machine, ev_home)
            self.protocol.directory.drop_owner(block_of(out.evicted[0]), machine)

        prof = self.profiler
        if out.serve is HybridServe.REMOTE_DIRTY:
            st.remote_dirty += 1
            if is_write and self.l2s is not None:
                self.l2s[out.data_source].invalidate_block(block)
            return self.fabric.transfer(
                t, out.data_source, machine, dirty=True, cause="remote_dirty"
            )
        if out.serve is HybridServe.LOCAL_MEMORY:
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
        t = self.fabric.transfer(t, machine, out.home, cause="remote_clean")
        return self._home_memory_time(t, out.home, line)

    def _pure_write_cow(self, proc: int, line: int, dirty: bool) -> bool:
        # A write hit is pure with no L2 to invalidate, to a block the
        # machine owns exclusively (a silent upgrade).  The L1 dirty bit
        # is not a valid shortcut: a remote read drops exclusivity
        # without clearing the reader-side flag.
        return (
            self.l2s is None
            and self.protocol.directory.exclusive_owner(block_of(line)) == proc
        )

    # ------------------------------------------------------------------
    # cluster of SMP machines (the CLUMP shape, any depth)
    # ------------------------------------------------------------------
    def _access_clump(self, proc: int, line: int, is_write: bool, now: float) -> float:
        st = self.stats
        st.references += 1
        machine = proc // self.spec.n
        local_proc = proc % self.spec.n
        bus = self.buses[machine]
        t = now + self.t_hit

        out = self.protocol.access(machine, local_proc, line, is_write)
        if self.l2s is not None and is_write:
            self.l2s[machine].invalidate(line)
            block = block_of(line)
            for m in out.invalidated_machines:
                self.l2s[m].invalidate_block(block)
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
                last, slowest = t, None
                for m in out.invalidated_machines:
                    fin = self.fabric.control(t, machine, m)
                    if fin > last:
                        last, slowest = fin, m
                if prof is not None and slowest is not None:
                    _acc(
                        prof, self.fabric.node_of(machine, slowest),
                        "coherence", last - t,
                    )
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
            return self.fabric.transfer(
                t, out.data_source, machine, dirty=True, cause="remote_dirty"
            )
        st.remote_clean += 1
        t = self.fabric.transfer(t, machine, out.home, cause="remote_clean")
        return self._home_memory_time(t, out.home, line)

    def _pure_write_clump(self, proc: int, line: int, dirty: bool) -> bool:
        # Both coherence layers must be quiet: the line dirty in the
        # issuing cache (no snoop broadcast) AND the node
        # directory-exclusive (silent upgrade), with no L2 to invalidate.
        return (
            self.l2s is None
            and dirty
            and self.protocol.directory.exclusive_owner(block_of(line))
            == proc // self.spec.n
        )

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def install_network_spikes(self, extra_of_time) -> None:
        if self.fabric is not None:
            self.fabric.install_latency_extra(extra_of_time)

    def barrier_overhead(self) -> float:
        """Barrier exit cost: the release round trip of the outermost
        shared medium (plus the SMP bus release inside SMP nodes)."""
        self.stats.barrier_count += 1
        if self.fabric is None:
            return 2.0 * self.t_mem
        network_part = 2.0 * self.fabric.outer_t_remote * 0.25  # address-only
        if self.spec.n == 1:
            return network_part
        return network_part + 2.0 * self.t_mem

    def resource_busy_cycles(self) -> dict[str, float]:
        if self.fabric is None:
            return {"memory bus": self.bus.busy_cycles, "disk": self.disk.busy_cycles}
        out = {"network": self.fabric.busy_cycles}
        if self.spec.n > 1:
            out["memory buses"] = sum(b.busy_cycles for b in self.buses)
        out["disks"] = sum(d.busy_cycles for d in self.disks)
        if self.fabric.depth > 1:
            for j, label in enumerate(self.fabric.labels):
                out[f"network[{label}]"] = self.fabric.level_busy_cycles(j)
        return out

    def resource_requests(self) -> dict[str, int]:
        if self.fabric is None:
            return {"memory bus": self.bus.requests, "disk": self.disk.requests}
        out = {"network": self.fabric.messages + self.fabric.control_messages}
        if self.spec.n > 1:
            out["memory buses"] = sum(b.requests for b in self.buses)
        out["disks"] = sum(d.requests for d in self.disks)
        if self.fabric.depth > 1:
            for j, label in enumerate(self.fabric.labels):
                out[f"network[{label}]"] = self.fabric.level_requests(j)
        return out

    # ------------------------------------------------------------------
    def coherence_traffic_fraction(self) -> float:
        """Share of bus transactions that are protocol-induced
        (invalidate broadcasts + cache-to-cache transfers); capacity
        write-backs excluded.  Meaningful for the one-machine shape."""
        st = self.stats
        coherent = st.invalidations + st.peer_cache
        total = coherent + st.local_memory + st.writebacks
        return coherent / total if total else 0.0
