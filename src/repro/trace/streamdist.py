"""Streaming LRU stack distances: one chunk at a time, never the full trace.

:func:`repro.trace.stackdist.stack_distances` is exact but offline -- it
holds the whole address stream plus O(M) scratch, which a multi-GB trace
cannot afford.  This engine consumes the stream chunk by chunk and emits
the *same* distances while holding only

* the current chunk (``<= chunk`` records), and
* one **live-item table** -- two parallel arrays, sorted by item, that
  map every distinct item still tracked to a *slot*: a monotonically
  increasing counter whose order encodes recency (higher slot == more
  recently used at chunk entry).

Per chunk the work splits in two.  References whose previous occurrence
lies *inside* the chunk get their exact distance from the offline engine
run on the chunk alone.  Each chunk-*first* reference ``q`` (previous
occurrence before the chunk, at live slot ``p``) counts distinct items
referenced since that occurrence as ``A + B``:

* ``A`` -- live items more recent than ``p`` at chunk entry: one
  ``searchsorted`` into the sorted slot values;
* ``B`` -- items whose first in-chunk occurrence precedes ``q`` and whose
  pre-chunk slot is ``<= p`` (or absent): everything newer than ``p``
  is already in ``A``.  All ``B`` queries are answered together by the
  same counter the offline engine uses
  (:func:`~repro.trace.stackdist.count_greater_before`), over the
  chunk-first subsequence only.

After emitting, the chunk's distinct items are re-slotted above all
existing slots in last-occurrence order (one ``searchsorted`` merge into
the table), preserving the invariant; the items and their last
positions come from the sort that found each reference's previous
occurrence.  Unbounded, the table
holds the trace footprint and every distance is **bit-identical** to
the offline engine (property-tested).
With ``max_live_items`` set, the *least recent* items are evicted when
the table overflows -- eviction removes a recency *prefix* of slots, so
a surviving item's reuse window can never contain an evicted slot and
all finite emitted distances remain exact; a reference to an evicted
item reports :data:`~repro.trace.stackdist.COLD_DISTANCE`, whose true
distance was at least the table bound (and would miss in any cache the
bound models).

>>> import numpy as np
>>> from repro.trace.stackdist import stack_distances
>>> stream = np.array([1, 2, 1, 3, 2, 1, 4, 3])
>>> eng = StreamingStackDistance()
>>> out = np.concatenate([eng.update(stream[:3]), eng.update(stream[3:])])
>>> bool(np.array_equal(out, stack_distances(stream)))
True
>>> eng.finalize().references
8
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.stackdist import _occurrences, _reuse_distances, count_greater_before

__all__ = ["StreamStats", "StreamingStackDistance"]

#: Renumber slots densely once the counter exceeds this multiple of the
#: live count (smaller slot values keep the wavelet matrix shallow).
_RENUMBER_FACTOR = 4


@dataclass(frozen=True)
class StreamStats:
    """Summary of one streaming pass, for metrics and reports."""

    references: int  #: total references processed
    chunks: int  #: number of update() calls
    live_items: int  #: distinct items tracked at finalize time
    peak_live_items: int  #: high-water mark of the live-item table
    peak_chunk_records: int  #: largest single chunk processed
    spill_events: int  #: evictions triggered by max_live_items
    evicted_items: int  #: total items dropped across all spills


class StreamingStackDistance:
    """Incremental exact stack distances over a chunked address stream.

    Parameters
    ----------
    max_live_items:
        Optional bound on the live-item table.  ``None`` (default) keeps
        every item ever seen -- exact and bit-identical to the offline
        engine, with memory proportional to the trace *footprint* (not
        its length).  A bound keeps memory constant; overflow evicts the
        least-recently-used items (see module docstring for the
        exactness contract).
    """

    def __init__(self, max_live_items: int | None = None) -> None:
        if max_live_items is not None and max_live_items <= 0:
            raise ValueError("max_live_items must be positive")
        self.max_live_items = max_live_items
        self._items = np.zeros(0, dtype=np.int64)  # sorted by item
        self._slots = np.zeros(0, dtype=np.int64)  # parallel recency slots
        self._next_slot = 0
        self.references = 0
        self.chunks = 0
        self.spill_events = 0
        self.evicted_items = 0
        self.peak_live_items = 0
        self.peak_chunk_records = 0

    # ------------------------------------------------------------------
    def _lookup(self, queries: np.ndarray) -> np.ndarray:
        """Slot of each queried item, or -1 for untracked items."""
        if self._items.size == 0:
            return np.full(queries.size, -1, dtype=np.int64)
        idx = np.searchsorted(self._items, queries)
        idx = np.minimum(idx, self._items.size - 1)
        hit = self._items[idx] == queries
        return np.where(hit, self._slots[idx], np.int64(-1))

    def update(self, addresses: np.ndarray) -> np.ndarray:
        """Process one chunk; returns its int64 distances (parallel)."""
        chunk = np.ascontiguousarray(addresses, dtype=np.int64).reshape(-1)
        n = chunk.size
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        self.references += n
        self.chunks += 1
        self.peak_chunk_records = max(self.peak_chunk_records, n)

        # Intra-chunk repeats are exact already; chunk-first references
        # (offline-cold within the chunk) need the cross-chunk terms.
        prev, distinct, last = _occurrences(chunk)
        dist = _reuse_distances(prev)
        first = np.flatnonzero(prev < 0)
        pre_slot = self._lookup(chunk[first])
        warm = np.flatnonzero(pre_slot >= 0)
        if warm.size:
            p = pre_slot[warm]
            # A: live items at chunk entry whose slot is above p.
            a_term = self._slots.size - np.searchsorted(
                np.sort(self._slots), p, side="right"
            )
            # B: chunk-first predecessors not already counted in A, i.e.
            # with pre-chunk slot <= p (new items count too): all of them
            # but the warm ones with a greater slot.
            dist[first[warm]] = a_term + (warm - count_greater_before(p))

        self._advance(distinct, last)
        return dist

    # ------------------------------------------------------------------
    def _advance(self, new_items: np.ndarray, last_pos: np.ndarray) -> None:
        """Re-slot the chunk's distinct items above all existing slots.

        ``new_items`` are sorted, matching the table; ``last_pos[i]`` is
        the position of ``new_items[i]``'s last occurrence in the chunk.
        """
        k = new_items.size
        # Slots are handed out in last-occurrence order so that slot
        # order stays recency order (the positions are distinct).
        order = np.argsort(last_pos)
        new_slots = np.empty(k, dtype=np.int64)
        new_slots[order] = np.arange(self._next_slot, self._next_slot + k)
        self._next_slot += k

        # Merge the two sorted, distinct item lists: an item already in
        # the table takes the chunk's slot, the others are inserted at
        # their sorted place.
        at = np.searchsorted(self._items, new_items)
        known = at < self._items.size
        known[known] = self._items[at[known]] == new_items[known]
        self._slots[at[known]] = new_slots[known]
        fresh = ~known
        self._items = np.insert(self._items, at[fresh], new_items[fresh])
        self._slots = np.insert(self._slots, at[fresh], new_slots[fresh])

        live = self._items.size
        self.peak_live_items = max(self.peak_live_items, live)
        if self.max_live_items is not None and live > self.max_live_items:
            self._evict(live - self.max_live_items)
        if self._next_slot > _RENUMBER_FACTOR * max(self._items.size, 1):
            self._renumber()

    def _evict(self, excess: int) -> None:
        """Drop the ``excess`` least-recent items (lowest slots)."""
        cutoff = np.partition(self._slots, excess)[excess]
        keep = self._slots >= cutoff
        self._items = self._items[keep]
        self._slots = self._slots[keep]
        self.spill_events += 1
        self.evicted_items += excess

    def _renumber(self) -> None:
        """Compact slot values to 0..live-1, preserving recency order."""
        order = np.argsort(self._slots)  # slots are distinct
        dense = np.empty(self._slots.size, dtype=np.int64)
        dense[order] = np.arange(self._slots.size)
        self._slots = dense
        self._next_slot = self._slots.size

    # ------------------------------------------------------------------
    @property
    def live_items(self) -> int:
        """Distinct items currently tracked."""
        return int(self._items.size)

    def finalize(self) -> StreamStats:
        """Snapshot the pass statistics (the engine stays usable)."""
        return StreamStats(
            references=self.references,
            chunks=self.chunks,
            live_items=self.live_items,
            peak_live_items=self.peak_live_items,
            peak_chunk_records=self.peak_chunk_records,
            spill_events=self.spill_events,
            evicted_items=self.evicted_items,
        )
