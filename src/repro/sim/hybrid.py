"""Hybrid coherence for clusters of SMPs (paper Section 5.1).

"To maintain the cache coherence in such a system, we applied a hybrid
protocol.  A directory-based protocol is used to maintain coherence
among SMPs, and a snooping protocol is employed to keep the caches in
an SMP coherent.  We extend the directory in each node (SMP) to include
the processor id.  The directory entries are shared by the two
protocols."

:class:`HybridProtocol` composes one :class:`~repro.sim.snoop.SnoopingBus`
per SMP node with one inter-node :class:`~repro.sim.directory.Directory`.
It resolves each access to a latency class and performs all state
updates (local snoop bookkeeping, directory transitions, cross-node
invalidations at directory-block granularity); the CLUMP back-end only
adds cycle accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.sim.directory import Directory, block_of
from repro.sim.snoop import SnoopSource, SnoopingBus

__all__ = ["HybridServe", "HybridOutcome", "HybridProtocol"]


class HybridServe(str, Enum):
    """Latency class of a CLUMP access."""

    OWN_CACHE = "own cache"
    PEER_CACHE = "peer cache (intra-SMP)"
    LOCAL_MEMORY = "SMP memory"
    REMOTE_NODE = "remote node memory"
    REMOTE_DIRTY = "remotely cached data"


@dataclass(slots=True)
class HybridOutcome:
    serve: HybridServe
    #: Home machine of the block; resolved only when the access went to
    #: the directory (None on own-cache and peer-cache hits).
    home: int | None
    data_source: int | None  #: machine that supplied dirty data, if any
    invalidated_machines: tuple[int, ...]
    local_invalidations: int  #: intra-SMP copies killed by a write upgrade
    writeback: bool  #: dirty line evicted while filling
    #: ``(line, was_dirty)`` evicted from the issuing cache by the fill,
    #: or None.  Uniprocessor-node back-ends use the identity to retire
    #: directory ownership and route the write-back over the network.
    evicted: tuple[int, bool] | None = None


class HybridProtocol:
    """Directory across SMPs + snooping inside each SMP."""

    def __init__(self, snoops: Sequence[SnoopingBus], home_of_block, machines: int) -> None:
        if len(snoops) != machines:
            raise ValueError("one snooping bus per machine required")
        self.snoops = list(snoops)
        self.directory = Directory(home_of_block, machines)

    # ------------------------------------------------------------------
    def _invalidate_block_at(self, machine: int, block: int) -> None:
        for cache in self.snoops[machine].caches:
            cache.invalidate_block(block)

    def access(self, machine: int, local_proc: int, line: int, is_write: bool) -> HybridOutcome:
        """Resolve one access by processor ``local_proc`` of ``machine``."""
        snoop = self.snoops[machine]
        block = block_of(line)
        local = snoop.access(local_proc, line, is_write)

        if local.source in (SnoopSource.OWN_CACHE, SnoopSource.PEER_CACHE):
            serve = (
                HybridServe.OWN_CACHE
                if local.source is SnoopSource.OWN_CACHE
                else HybridServe.PEER_CACHE
            )
            invalidated: tuple[int, ...] = ()
            data_source = None
            if is_write:
                # The write still needs inter-node exclusivity.
                out = self.directory.write(machine, line, hit_own_cache=True)
                invalidated = out.invalidated
                data_source = out.dirty_owner
                for m in invalidated:
                    self._invalidate_block_at(m, block)
                if data_source is not None:
                    self._invalidate_block_at(data_source, block)
            return HybridOutcome(
                serve=serve,
                home=None,
                data_source=data_source,
                invalidated_machines=invalidated,
                local_invalidations=len(local.invalidated),
                writeback=local.writeback,
            )

        # Missed the whole SMP: consult the directory.
        out = (
            self.directory.write(machine, line, hit_own_cache=False)
            if is_write
            else self.directory.read(machine, line)
        )
        for m in out.invalidated:
            self._invalidate_block_at(m, block)
        if is_write and out.dirty_owner is not None:
            self._invalidate_block_at(out.dirty_owner, block)
        if out.dirty_owner is not None:
            serve = HybridServe.REMOTE_DIRTY
        elif out.home == machine:
            serve = HybridServe.LOCAL_MEMORY
        else:
            serve = HybridServe.REMOTE_NODE
        return HybridOutcome(
            serve=serve,
            home=out.home,
            data_source=out.dirty_owner,
            invalidated_machines=out.invalidated,
            local_invalidations=len(local.invalidated),
            writeback=local.writeback,
            evicted=local.evicted,
        )
