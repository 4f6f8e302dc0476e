"""Set-associative LRU cache simulator (paper Section 5.1 parameters).

The paper's simulated caches are two-way set-associative with 64-byte
lines and LRU replacement.  Addresses arriving here are already
line-granular (items), so the set index is simply ``line % num_sets``.

State lives in three flat arrays of ``num_sets * ways`` slots, set by
set -- ``tags`` (the line held by each slot, -1 when empty), ``stamps``
(per-slot LRU ticks from one global counter) and ``dirty`` flags, each
read and written through a memoryview -- plus a ``line -> slot`` dict,
the slot index.  The index holds exactly the resident lines: line ``l``
maps to slot ``s`` if and only if ``tags[s] == l``.  Every method that
changes a tag (``fill``, ``invalidate``, ``invalidate_block``,
``clear``) updates it in the same step, so every query answers with one
dict lookup instead of scanning a set's tags, and a directory
invalidation of a block costs only what the cache holds of it.
Eviction still reads the set's ``ways`` slots (a set never holds more
than ``ways`` entries, so it is a min over ``ways`` stamps).  The
engine's batched lane
(:meth:`repro.sim.backends.composed.ComposedBackend.access_batch`) is
the one caller that reads the index and updates ``stamps``, ``dirty``
and the tick counter directly, a hit at a time, exactly as ``lookup``
and ``mark_dirty`` would; it never changes a tag or the index.
"""

from __future__ import annotations

import numpy as np

from repro.sim.directory import LINES_PER_BLOCK

__all__ = ["SetAssociativeCache"]


class SetAssociativeCache:
    """One processor's cache: LRU, ``ways``-way set-associative."""

    __slots__ = (
        "ways",
        "num_sets",
        "capacity_items",
        "_tags",
        "_stamps",
        "_dirty",
        "_flat_tags",
        "_flat_stamps",
        "_flat_dirty",
        "_slot_of",
        "_tick",
    )

    def __init__(self, capacity_items: int, ways: int = 2) -> None:
        if capacity_items < 1:
            raise ValueError("capacity must be at least one line")
        if ways < 1:
            raise ValueError("ways must be >= 1")
        self.ways = min(ways, capacity_items)
        self.num_sets = max(1, capacity_items // self.ways)
        self.capacity_items = self.num_sets * self.ways
        size = self.capacity_items
        self._tags = np.full(size, -1, dtype=np.int64)
        self._stamps = np.zeros(size, dtype=np.int64)
        self._dirty = np.zeros(size, dtype=bool)
        # Memoryviews over the same buffers: every per-reference read or
        # write goes through these, which yield and take plain Python
        # ints and bools at a fraction of numpy's scalar-indexing cost.
        self._flat_tags = memoryview(self._tags)
        self._flat_stamps = memoryview(self._stamps)
        self._flat_dirty = memoryview(self._dirty)
        #: The slot index: flat slot of every resident line.
        self._slot_of: dict[int, int] = {}
        self._tick = 0

    def lookup(self, line: int, touch: bool = True) -> bool:
        """True if ``line`` is resident; refresh its LRU stamp if asked."""
        pos = self._slot_of.get(line)
        if pos is None:
            return False
        if touch:
            self._tick += 1
            self._flat_stamps[pos] = self._tick
        return True

    def contains(self, line: int) -> bool:
        """Presence check without disturbing LRU order."""
        return line in self._slot_of

    def fill(self, line: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Insert ``line``; return ``(evicted_line, was_dirty)`` if any.

        Filling a line that is already resident just refreshes its LRU
        stamp (and may add the dirty mark); nothing is evicted.
        """
        self._tick += 1
        slot_of = self._slot_of
        stamps = self._flat_stamps
        pos = slot_of.get(line)
        if pos is not None:
            stamps[pos] = self._tick
            if dirty:
                self._flat_dirty[pos] = True
            return None
        base = (line % self.num_sets) * self.ways
        tags = self._flat_tags
        evicted = None
        victim = -1
        for pos in range(base, base + self.ways):
            if tags[pos] < 0:
                break  # the first empty slot
            if victim < 0 or stamps[pos] < stamps[victim]:
                victim = pos
        else:
            pos = victim
            old = tags[pos]
            del slot_of[old]
            evicted = (old, self._flat_dirty[pos])
        tags[pos] = line
        stamps[pos] = self._tick
        self._flat_dirty[pos] = dirty
        slot_of[line] = pos
        return evicted

    def mark_dirty(self, line: int) -> None:
        """Flag a resident line as modified (no-op if absent)."""
        pos = self._slot_of.get(line)
        if pos is not None:
            self._flat_dirty[pos] = True

    def is_dirty(self, line: int) -> bool:
        pos = self._slot_of.get(line)
        return pos is not None and self._flat_dirty[pos]

    def clean(self, line: int) -> bool:
        """Clear a resident line's dirty mark (coherence downgrade M->S).

        Returns whether the line was dirty (a write-back happened).
        """
        pos = self._slot_of.get(line)
        if pos is not None and self._flat_dirty[pos]:
            self._flat_dirty[pos] = False
            return True
        return False

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident; return whether it was dirty."""
        pos = self._slot_of.pop(line, None)
        if pos is None:
            return False
        was_dirty = self._flat_dirty[pos]
        self._flat_tags[pos] = -1
        self._flat_dirty[pos] = False
        return was_dirty

    def invalidate_block(self, block: int) -> None:
        """Drop every resident line of directory block ``block`` (its
        ``LINES_PER_BLOCK`` lines), touching only the slots that hold
        one: the directory's block-granular invalidation."""
        pop = self._slot_of.pop
        first = block * LINES_PER_BLOCK
        for line in range(first, first + LINES_PER_BLOCK):
            pos = pop(line, None)
            if pos is not None:
                self._flat_tags[pos] = -1
                self._flat_dirty[pos] = False

    # ------------------------------------------------------------------
    @property
    def resident_lines(self) -> int:
        return len(self._slot_of)

    def clear(self) -> None:
        self._tags.fill(-1)
        self._dirty.fill(False)
        self._slot_of.clear()
