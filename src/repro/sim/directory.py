"""Directory-based coherence protocol (the paper's cluster DSM).

Per the paper's Section 5.1: clusters maintain a home-based directory
over 256-byte blocks.  Each block is in one of three states -- uncached,
shared, or exclusive -- with explicit invalidate and write-back requests
replacing the bus broadcasts of the snooping protocol.  The directory
entry of a block lives at its *home* machine (the machine whose memory
holds the block, assigned by the shared-address-space layout).

This module tracks directory state and classifies every access; the
platform back-ends translate the classification into cycles using the
paper's latency table (remote node vs remotely-cached data vs local
memory) and the network model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.sim.latencies import DIRECTORY_BLOCK_BYTES, ITEM_BYTES

__all__ = [
    "BlockState",
    "DirectoryOutcome",
    "Directory",
    "LINES_PER_BLOCK",
    "block_of",
]

#: 256-byte directory blocks hold 4 cache lines.
LINES_PER_BLOCK = DIRECTORY_BLOCK_BYTES // ITEM_BYTES


def block_of(line: int) -> int:
    """Directory block containing an item-granular line address."""
    return line // LINES_PER_BLOCK


class BlockState(str, Enum):
    """The paper's three directory states."""

    UNCACHED = "uncached"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class DirServe(str, Enum):
    """Where a cluster access is served from (latency class)."""

    HOME_MEMORY = "home memory"  #: local or remote node's memory, clean
    REMOTE_DIRTY = "remotely cached data"  #: fetched from the dirty owner


@dataclass(slots=True)
class DirectoryOutcome:
    """Classification of one miss-level cluster access."""

    serve: DirServe
    home: int  #: machine whose memory homes the block
    dirty_owner: int | None  #: machine the data came from, if dirty remote
    invalidated: tuple[int, ...]  #: machines whose copies were invalidated
    state: BlockState  #: resulting directory state


class Directory:
    """Directory state for all blocks, homed by a machine-granular map."""

    def __init__(self, home_of_block, machines: int) -> None:
        """``home_of_block``: callable block -> home machine id."""
        if machines < 1:
            raise ValueError("machines must be >= 1")
        self.home_of_block = home_of_block
        self.machines = machines
        self._holders: dict[int, set[int]] = {}
        self._owner: dict[int, int] = {}  # block -> dirty owner machine
        self.invalidations = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    def state(self, block: int) -> BlockState:
        if block in self._owner:
            return BlockState.EXCLUSIVE
        if self._holders.get(block):
            return BlockState.SHARED
        return BlockState.UNCACHED

    def holders(self, block: int) -> frozenset[int]:
        return frozenset(self._holders.get(block, ()))

    def exclusive_owner(self, block: int) -> int | None:
        """Machine holding the block exclusively (dirty), if any.

        While a machine owns a block it is also its only holder (a read
        by anyone else clears ownership), so a write hit by the owner is
        a silent upgrade: no invalidations, no data movement.
        """
        return self._owner.get(block)

    # ------------------------------------------------------------------
    def read(self, machine: int, line: int) -> DirectoryOutcome:
        """A read that missed every cache of ``machine``.

        A dirty remote owner is forced to write back (block becomes
        shared); otherwise the home memory serves the block.
        """
        block = block_of(line)
        home = self.home_of_block(block)
        owner = self._owner.get(block)
        holders = self._holders.setdefault(block, set())
        if owner is not None and owner != machine:
            # Fetch from the dirty owner's cache; owner writes back.
            del self._owner[block]
            self.writebacks += 1
            holders.add(machine)
            holders.add(owner)
            return DirectoryOutcome(
                serve=DirServe.REMOTE_DIRTY,
                home=home,
                dirty_owner=owner,
                invalidated=(),
                state=BlockState.SHARED,
            )
        holders.add(machine)
        state = BlockState.EXCLUSIVE if owner == machine else BlockState.SHARED
        return DirectoryOutcome(
            serve=DirServe.HOME_MEMORY,
            home=home,
            dirty_owner=None,
            invalidated=(),
            state=state,
        )

    def write(self, machine: int, line: int, hit_own_cache: bool) -> DirectoryOutcome:
        """A write by ``machine`` (possibly hitting its own cache).

        Gains exclusive ownership: every other holder is invalidated; a
        dirty remote owner additionally supplies the current data.
        """
        block = block_of(line)
        home = self.home_of_block(block)
        owner = self._owner.get(block)
        holders = self._holders.setdefault(block, set())

        dirty_source: int | None = None
        if owner is not None and owner != machine:
            dirty_source = owner
            self.writebacks += 1
        invalidated = tuple(sorted(h for h in holders if h != machine))
        self.invalidations += len(invalidated)
        holders.clear()
        holders.add(machine)
        self._owner[block] = machine

        if hit_own_cache and dirty_source is None and not invalidated:
            serve = DirServe.HOME_MEMORY  # silent upgrade; no data moved
        elif dirty_source is not None:
            serve = DirServe.REMOTE_DIRTY
        else:
            serve = DirServe.HOME_MEMORY
        return DirectoryOutcome(
            serve=serve,
            home=home,
            dirty_owner=dirty_source,
            invalidated=invalidated,
            state=BlockState.EXCLUSIVE,
        )

    def drop_owner(self, block: int, machine: int) -> None:
        """Dirty data left the owner's caches (eviction write-back)."""
        if self._owner.get(block) == machine:
            del self._owner[block]
            self.writebacks += 1
