"""Snooping write-invalidate protocol (the paper's SMP coherence).

Per the paper's Section 5.1: 64-byte lines, two-way set-associative LRU
caches, write-invalidate on a snooping bus.  Because every cache on an
SMP bus observes every transaction, the protocol can answer "is this
line in a peer cache?" by direct inspection of the peer caches, and a
write to a line held elsewhere broadcasts one invalidation.

The class operates on a *group* of caches (the processors of one SMP)
and returns structural outcomes -- where a miss was served from, who
was invalidated -- leaving cycle accounting to the platform back-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.sim.cache import SetAssociativeCache

__all__ = ["SnoopSource", "SnoopOutcome", "SnoopingBus"]


class SnoopSource(str, Enum):
    """Where an SMP access was satisfied."""

    OWN_CACHE = "own cache"
    PEER_CACHE = "peer cache"
    MEMORY = "memory"


@dataclass(slots=True)
class SnoopOutcome:
    source: SnoopSource
    invalidated: tuple[int, ...]  #: local processor ids whose copy died
    writeback: bool  #: a dirty eviction occurred while filling
    #: The line the fill evicted from the issuing cache, as
    #: ``(line, was_dirty)`` -- None on a hit or an eviction-free fill.
    #: Back-ends that track per-line ownership elsewhere (the cluster
    #: directory) need the identity, not just the ``writeback`` bit.
    evicted: tuple[int, bool] | None = None


class SnoopingBus:
    """Coherence logic for the ``caches`` of one SMP node."""

    def __init__(self, caches: Sequence[SetAssociativeCache]) -> None:
        if not caches:
            raise ValueError("an SMP has at least one cache")
        self.caches = list(caches)
        self.invalidations = 0
        self.cache_to_cache = 0

    # ------------------------------------------------------------------
    def access(self, proc: int, line: int, is_write: bool) -> SnoopOutcome:
        """Perform one access by local processor ``proc``.

        Updates cache and sharing state; the returned outcome tells the
        back-end which latency class applies.
        """
        caches = self.caches
        own = caches[proc]
        if own.lookup(line):
            if not is_write:
                return SnoopOutcome(SnoopSource.OWN_CACHE, (), False)
            # Upgrade: kill any other copies, then write locally.
            invalidated = [
                q for q, c in enumerate(caches) if q != proc and c.contains(line)
            ]
            for q in invalidated:
                caches[q].invalidate(line)
            self.invalidations += len(invalidated)
            own.mark_dirty(line)
            return SnoopOutcome(SnoopSource.OWN_CACHE, tuple(invalidated), False)

        # Miss: snoop the peers.
        holders = [q for q, c in enumerate(caches) if q != proc and c.contains(line)]
        writeback = False
        if is_write:
            for q in holders:
                caches[q].invalidate(line)
            self.invalidations += len(holders)
            invalidated = tuple(holders)
        else:
            # A read of a modified peer copy downgrades it M -> S: the
            # owner writes back and both end up with clean copies.
            for q in holders:
                if caches[q].clean(line):
                    writeback = True
            invalidated = ()
        evicted = own.fill(line, dirty=is_write)
        if evicted is not None and evicted[1]:
            writeback = True
        if holders:
            self.cache_to_cache += 1
            return SnoopOutcome(SnoopSource.PEER_CACHE, invalidated, writeback, evicted)
        return SnoopOutcome(SnoopSource.MEMORY, invalidated, writeback, evicted)

    # ------------------------------------------------------------------
    def holds(self, line: int) -> bool:
        """True if any cache of this SMP holds the line."""
        return any(c.contains(line) for c in self.caches)

    def holds_dirty(self, line: int) -> bool:
        return any(c.is_dirty(line) for c in self.caches)
