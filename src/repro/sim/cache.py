"""Set-associative LRU cache simulator (paper Section 5.1 parameters).

The paper's simulated caches are two-way set-associative with 64-byte
lines and LRU replacement.  Addresses arriving here are already
line-granular (items), so the set index is simply ``line % num_sets``.

State lives in three ``(num_sets, ways)`` arrays -- ``tags`` (the line
held by each slot, -1 when empty), ``stamps`` (per-slot LRU ticks from
one global counter) and ``dirty`` flags.  The scalar operations walk one
set's ``ways`` slots directly (a set never holds more than ``ways``
entries, so eviction is a min over ``ways`` stamps); the ``*_batch``
methods evaluate whole address vectors in single array operations, which
is what the execution engine's vectorized fast path is built on.  Both
paths produce bit-identical cache state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SetAssociativeCache"]

#: Shared 1..N ramp for batch LRU stamping; sliced, never mutated.
_STAMP_RAMP = np.arange(1, 4097, dtype=np.int64)


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
        self._tags = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        self._stamps = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self._dirty = np.zeros((self.num_sets, self.ways), dtype=bool)
        # Flat views over the same buffers: scalar ops index these
        # directly, avoiding a row-view allocation per access.
        self._flat_tags = self._tags.ravel()
        self._flat_stamps = self._stamps.ravel()
        self._flat_dirty = self._dirty.ravel()
        self._tick = 0

    # ------------------------------------------------------------------
    # scalar path
    # ------------------------------------------------------------------
    def _slot(self, line: int) -> int:
        """Flat slot index holding ``line``, or -1 when absent."""
        base = (line % self.num_sets) * self.ways
        tags = self._flat_tags
        for pos in range(base, base + self.ways):
            if tags[pos] == line:
                return pos
        return -1

    def lookup(self, line: int, touch: bool = True) -> bool:
        """True if ``line`` is resident; refresh its LRU stamp if asked."""
        pos = self._slot(line)
        if pos < 0:
            return False
        if touch:
            self._tick += 1
            self._flat_stamps[pos] = self._tick
        return True

    def contains(self, line: int) -> bool:
        """Presence check without disturbing LRU order."""
        return self._slot(line) >= 0

    def fill(self, line: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Insert ``line``; return ``(evicted_line, was_dirty)`` if any.

        Filling a line that is already resident just refreshes its LRU
        stamp (and may add the dirty mark); nothing is evicted.
        """
        self._tick += 1
        base = (line % self.num_sets) * self.ways
        tags = self._flat_tags
        stamps = self._flat_stamps
        empty = -1
        victim = -1
        for pos in range(base, base + self.ways):
            tag = tags[pos]
            if tag == line:
                stamps[pos] = self._tick
                if dirty:
                    self._flat_dirty[pos] = True
                return None
            if tag < 0:
                if empty < 0:
                    empty = pos
            elif victim < 0 or stamps[pos] < stamps[victim]:
                victim = pos
        evicted = None
        if empty >= 0:
            pos = empty
        else:
            pos = victim
            evicted = (int(tags[pos]), bool(self._flat_dirty[pos]))
        tags[pos] = line
        stamps[pos] = self._tick
        self._flat_dirty[pos] = dirty
        return evicted

    def mark_dirty(self, line: int) -> None:
        """Flag a resident line as modified (no-op if absent)."""
        pos = self._slot(line)
        if pos >= 0:
            self._flat_dirty[pos] = True

    def is_dirty(self, line: int) -> bool:
        pos = self._slot(line)
        return pos >= 0 and bool(self._flat_dirty[pos])

    def clean(self, line: int) -> bool:
        """Clear a resident line's dirty mark (coherence downgrade M->S).

        Returns whether the line was dirty (a write-back happened).
        """
        pos = self._slot(line)
        if pos >= 0 and self._flat_dirty[pos]:
            self._flat_dirty[pos] = False
            return True
        return False

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident; return whether it was dirty."""
        pos = self._slot(line)
        if pos < 0:
            return False
        was_dirty = bool(self._flat_dirty[pos])
        self._flat_tags[pos] = -1
        self._flat_dirty[pos] = False
        return was_dirty

    # ------------------------------------------------------------------
    # batch path (the engine's vectorized fast lane)
    # ------------------------------------------------------------------
    def residency(self, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(resident, slots)``: per-line residency plus the flat slot
        index of each line (meaningful only where ``resident``)."""
        sets = lines % self.num_sets
        eq = self._tags[sets] == lines[:, None]
        resident = eq.any(axis=1)
        slots = sets * self.ways + eq.argmax(axis=1)
        return resident, slots

    def dirty_at(self, slots: np.ndarray) -> np.ndarray:
        """Dirty flags at flat slot indices (as returned by
        :meth:`residency`; only meaningful where the line was resident)."""
        return self._flat_dirty[slots]

    def touch_positions(self, slots: np.ndarray, dirty: np.ndarray | None = None) -> None:
        """Apply one in-order LRU touch per slot (duplicates allowed:
        later touches win, exactly as sequential ``lookup`` calls would)
        and optionally set dirty marks where ``dirty`` is True."""
        k = slots.size
        if not k:
            return
        base = self._tick
        self._tick = base + k
        ramp = _STAMP_RAMP[:k] if k <= _STAMP_RAMP.size else np.arange(1, k + 1, dtype=np.int64)
        self._flat_stamps[slots] = base + ramp
        if dirty is not None:
            self._flat_dirty[slots[dirty]] = True

    # ------------------------------------------------------------------
    @property
    def resident_lines(self) -> int:
        return int((self._tags >= 0).sum())

    def clear(self) -> None:
        self._tags.fill(-1)
        self._dirty.fill(False)
