"""Exact LRU stack distances of an address stream, fully vectorized.

The stack distance of a reference (Coffman & Denning, the paper's [2])
is the number of *distinct* items referenced since the previous
reference to the same item; first-touch references are "cold" and get
:data:`COLD_DISTANCE` (encoded as -1, semantically +infinity).  A
fully-associative LRU cache of capacity ``s`` hits a reference iff its
stack distance is strictly below ``s``.

Classic implementations walk the trace with a Fenwick tree -- an
inherently sequential Python loop.  Following the repository's
vectorization discipline we instead reduce the problem to offline 2-D
dominance counting and solve *all* references simultaneously with a
wavelet matrix built from numpy primitives:

1. ``prev[t]``, the previous position of the item at position ``t``,
   is obtained from one sort of the unique key (item, position).
2. The number of distinct items in the window ``(p, t)`` (with
   ``p = prev[t]``) equals ``(t - p - 1)`` minus the number of positions
   ``u`` in the window whose own ``prev[u]`` also lies inside it
   (those are repeats).  Every ``u <= p`` has ``prev[u] < u <= p``, so

       distance(t) = (t - p - 1) - #{u < t : prev[u] > p},

   and cold positions (``prev[u] = -1``) never count.
3. Over the warm positions that count is, for every element at once,
   "how many earlier elements are greater than me":
   :func:`count_greater_before` on ``prev[warm]``.  It descends a
   wavelet matrix one bit level at a time: one cumulative sum and one
   O(M) stable partition by scatter per level.

Total cost is O(M log M) in numpy operations with O(M) peak memory --
millions of references per second, versus microseconds per reference for
the sequential Fenwick walk (kept as :func:`stack_distances_naive` for
cross-validation in the test suite).

>>> import numpy as np
>>> from repro.trace.stackdist import (COLD_DISTANCE, hit_ratio,
...                                    stack_distances, stack_distances_naive)
>>> stream = np.array([1, 2, 1, 2, 3, 1])
>>> stack_distances(stream).tolist()       # -1 marks a cold first touch
[-1, -1, 1, 1, -1, 2]
>>> np.array_equal(stack_distances(stream), stack_distances_naive(stream))
True
>>> hit_ratio(stack_distances(stream), 2)  # hits iff 0 <= distance < 2
0.3333333333333333

(Traces too large for memory stream through
:class:`repro.trace.streamdist.StreamingStackDistance` instead, which
reproduces these distances chunk by chunk -- see ``docs/TRACES.md``.)
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "COLD_DISTANCE",
    "count_greater_before",
    "prev_occurrence",
    "stack_distances",
    "stack_distances_naive",
    "hit_ratio",
    "lru_hit_ratios",
]

#: Sentinel distance of a first-touch (cold) reference; semantically +inf.
COLD_DISTANCE = -1


def prev_occurrence(items: np.ndarray) -> np.ndarray:
    """prev[t]: index of the previous occurrence of items[t], or -1.

    One sort groups equal items in position order; shifting within
    groups yields the predecessor indices.
    """
    return _occurrences(items)[0]


def _occurrences(items: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``prev_occurrence(items)``, the distinct items in sorted order, and
    the position of each one's last occurrence -- all from one sort."""
    items = np.ascontiguousarray(items)
    if items.ndim != 1:
        raise ValueError("items must be a 1-D array")
    order = _grouping_order(items)
    ranked = items[order]
    repeat = ranked[1:] == ranked[:-1]  # same item as its left neighbour
    prev = np.full(items.size, -1, dtype=np.int64)
    prev[order[1:][repeat]] = order[:-1][repeat]
    last = np.ones(items.size, dtype=bool)
    np.logical_not(repeat, out=last[:-1])
    return prev, ranked[last], order[last]


def _grouping_order(items: np.ndarray) -> np.ndarray:
    """``np.argsort(items, kind="stable")``: equal items grouped, each
    group in position order.

    NumPy runs a stable int64 argsort as a timsort.  When every item,
    less the minimum, still fits in int64 beside a position's bits, the
    key ``(item - min) << bits | position`` is unique and orders the
    same way, so the default (unstable, vectorised) sort of the key
    gives the same order, read back from its low bits.  Other inputs
    keep the stable argsort.
    """
    n = items.size
    if n > 1 and np.can_cast(items.dtype, np.int64):
        values = items.astype(np.int64, copy=False)
        lo = values.min()
        bits = (n - 1).bit_length()
        if int(values.max()) - int(lo) < 1 << (63 - bits):
            key = np.subtract(values, lo)
            key <<= bits
            key |= np.arange(n, dtype=np.int64)
            key.sort()
            key &= (1 << bits) - 1
            return key
    return np.argsort(items, kind="stable")


def count_greater_before(values: np.ndarray) -> np.ndarray:
    """``out[i] = #{u < i : values[u] > values[i]}`` for every position ``i``.

    A wavelet matrix, built and queried in the same pass, most
    significant bit first.  At each bit level the elements sit in
    *nodes*: contiguous runs that agree on every higher bit, each in
    original order.  So the 1-bits of a node that precede a 0-bit
    element are exactly the earlier elements that are greater than it
    at this level and equal above it; one cumulative sum counts them
    for every element.  A stable partition by scatter -- 0-bits to the
    front, 1-bits after, order kept -- lays out the next level, whose
    nodes are again contiguous runs.  Each level is O(M) numpy work, on
    int32 arrays whenever the length and the value range fit.

    >>> count_greater_before(np.array([3, 1, 4, 1, 5, 2])).tolist()
    [0, 1, 0, 2, 0, 3]
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("values must be a 1-D array")
    m = values.size
    out = np.zeros(m, dtype=np.int64)
    if m < 2:
        return out
    lo = values.min()
    nbits = (int(values.max()) - int(lo)).bit_length()
    dtype = np.int32 if nbits < 32 and m < 2**31 else np.int64
    v = np.empty(m, dtype=dtype)  # values - lo, in this level's layout
    np.subtract(values, lo, out=v, casting="unsafe")
    acc = np.zeros(m, dtype=dtype)  # counts so far, in this level's layout
    idx = np.arange(m, dtype=dtype)  # original position of each layout slot
    v2, acc2, idx2, bit, tmp, below = np.empty((6, m), dtype=dtype)
    cum = np.zeros(m + 1, dtype=dtype)
    ones = cum[:-1]  # 1-bits strictly before each slot
    start = np.zeros(m, dtype=bool)  # first slot of its node
    start[0] = True
    slot = np.arange(m, dtype=np.intp)
    dest, step = np.empty((2, m), dtype=np.intp)
    cum_tail, start_tail, tmp_hi, tmp_lo = cum[1:], start[1:], tmp[1:], tmp[:-1]
    for shift in range(nbits - 1, -1, -1):
        np.right_shift(v, shift, out=bit)
        np.right_shift(bit, 1, out=tmp)  # node key: every higher bit
        np.not_equal(tmp_hi, tmp_lo, out=start_tail)
        np.bitwise_and(bit, 1, out=bit)
        np.cumsum(bit, out=cum_tail)
        # 1-bits before each slot inside its node; 0-bit slots bank them.
        np.multiply(ones, start, out=tmp)
        np.maximum.accumulate(tmp, out=tmp)
        np.subtract(ones, tmp, out=below)
        np.multiply(below, bit, out=tmp)
        np.subtract(below, tmp, out=below)
        acc += below
        if shift == 0:
            break
        # Stable partition: a 0-bit slot moves to the number of 0-bits
        # before it, a 1-bit slot to all 0-bits plus the 1-bits before it.
        np.subtract(slot, ones, out=dest)
        np.add(ones, m - cum[m], out=step)
        np.subtract(step, dest, out=step)
        np.multiply(step, bit, out=step)
        dest += step
        v2[dest] = v
        acc2[dest] = acc
        idx2[dest] = idx
        v, v2, acc, acc2, idx, idx2 = v2, v, acc2, acc, idx2, idx
    out[idx] = acc
    return out


def stack_distances(items: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every reference in the stream.

    Returns an int64 array parallel to ``items``; cold references get
    :data:`COLD_DISTANCE`.  A fully-associative LRU cache of capacity
    ``s`` hits reference ``t`` iff ``0 <= distance[t] < s``.
    """
    return _reuse_distances(prev_occurrence(items))


def _reuse_distances(prev: np.ndarray) -> np.ndarray:
    """Stack distances from ``prev_occurrence`` (step 2 of the module doc)."""
    distances = np.full(prev.size, COLD_DISTANCE, dtype=np.int64)
    t = np.flatnonzero(prev >= 0)
    p = prev[t]
    distances[t] = (t - p - 1) - count_greater_before(p)
    return distances


def stack_distances_naive(items: np.ndarray) -> np.ndarray:
    """Reference O(M * footprint) implementation for cross-validation.

    Maintains an explicit LRU stack (most recent first).  Only suitable
    for small traces; the test suite uses it to verify
    :func:`stack_distances` on random streams.
    """
    items = np.ascontiguousarray(items)
    stack: list = []
    out = np.empty(items.size, dtype=np.int64)
    for i, a in enumerate(items.tolist()):
        try:
            depth = stack.index(a)
        except ValueError:
            out[i] = COLD_DISTANCE
            stack.insert(0, a)
        else:
            out[i] = depth  # 'depth' distinct items sit above a
            del stack[depth]
            stack.insert(0, a)
    return out


def hit_ratio(distances: np.ndarray, capacity_items: float) -> float:
    """Fraction of references a ``capacity_items`` LRU cache would hit.

    Cold references always miss.  Capacity may be fractional (model
    boundaries); a reference hits iff ``distance < capacity``.
    """
    if capacity_items < 0:
        raise ValueError("capacity must be non-negative")
    d = np.ascontiguousarray(distances)
    if d.size == 0:
        return 0.0
    hits = (d >= 0) & (d < capacity_items)
    return float(hits.mean())


def lru_hit_ratios(distances: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """Vectorized :func:`hit_ratio` over many capacities at once.

    Sorting the warm distances once and binary-searching every capacity
    makes whole miss-ratio curves O(M log M) total.
    """
    d = np.ascontiguousarray(distances)
    caps = np.ascontiguousarray(capacities, dtype=np.float64)
    if np.any(caps < 0):
        raise ValueError("capacities must be non-negative")
    if d.size == 0:
        return np.zeros(caps.shape, dtype=np.float64)
    warm = np.sort(d[d >= 0])
    counts = np.searchsorted(warm, caps, side="left")
    return counts / d.size
