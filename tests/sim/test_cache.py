"""Tests for the set-associative LRU cache simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import SetAssociativeCache
from repro.sim.directory import LINES_PER_BLOCK


class TestBasics:
    def test_miss_then_hit(self):
        c = SetAssociativeCache(capacity_items=8, ways=2)
        assert not c.lookup(5)
        c.fill(5)
        assert c.lookup(5)
        assert c.contains(5)

    def test_lru_eviction_within_set(self):
        c = SetAssociativeCache(capacity_items=8, ways=2)  # 4 sets
        a, b, d = 0, 4, 8  # all map to set 0
        c.fill(a)
        c.fill(b)
        c.lookup(a)  # refresh a; b is now LRU
        evicted = c.fill(d)
        assert evicted == (b, False)
        assert c.contains(a) and c.contains(d) and not c.contains(b)

    def test_dirty_eviction_flag(self):
        c = SetAssociativeCache(capacity_items=4, ways=2)  # 2 sets
        c.fill(0, dirty=True)
        c.fill(2)
        evicted = c.fill(4)  # set 0 again: evicts 0 (LRU), dirty
        assert evicted == (0, True)

    def test_refill_refreshes_without_eviction(self):
        c = SetAssociativeCache(capacity_items=4, ways=2)
        c.fill(0)
        c.fill(2)
        assert c.fill(0) is None  # already resident
        assert c.resident_lines == 2

    def test_invalidate(self):
        c = SetAssociativeCache(capacity_items=8, ways=2)
        c.fill(3, dirty=True)
        assert c.invalidate(3) is True  # was dirty
        assert not c.contains(3)
        assert c.invalidate(3) is False  # absent now

    def test_mark_dirty(self):
        c = SetAssociativeCache(capacity_items=8, ways=2)
        c.fill(1)
        assert not c.is_dirty(1)
        c.mark_dirty(1)
        assert c.is_dirty(1)
        c.mark_dirty(99)  # absent: no-op
        assert not c.is_dirty(99)

    def test_clear(self):
        c = SetAssociativeCache(capacity_items=8)
        c.fill(1, dirty=True)
        c.clear()
        assert c.resident_lines == 0 and not c.is_dirty(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0)
        with pytest.raises(ValueError):
            SetAssociativeCache(8, ways=0)

    def test_tiny_cache_clamps_ways(self):
        c = SetAssociativeCache(capacity_items=1, ways=2)
        assert c.capacity_items == 1
        c.fill(0)
        assert c.fill(1) == (0, False)


class TestAgainstFullyAssociativeReference:
    @given(
        stream=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300),
        capacity=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_set_equals_lru_list(self, stream, capacity):
        """ways == capacity -> one fully-associative set; compare with an
        explicit LRU list."""
        c = SetAssociativeCache(capacity_items=capacity, ways=capacity)
        lru: list[int] = []
        for line in stream:
            expected_hit = line in lru
            got_hit = c.lookup(line)
            if not got_hit:
                c.fill(line)
            assert got_hit == expected_hit
            if line in lru:
                lru.remove(line)
            lru.insert(0, line)
            del lru[capacity:]

    def test_capacity_never_exceeded(self):
        c = SetAssociativeCache(capacity_items=16, ways=2)
        rng = np.random.default_rng(0)
        for line in rng.integers(0, 1000, size=5000):
            if not c.lookup(int(line)):
                c.fill(int(line))
        assert c.resident_lines <= 16


#: Lines the index test draws from: 4 directory blocks over a 2-set,
#: 2-way cache, so fills evict often and each block spans both sets.
_LINES = 4 * LINES_PER_BLOCK
_line = st.integers(min_value=0, max_value=_LINES - 1)
_STEPS = st.one_of(
    st.tuples(st.just("fill"), _line, st.booleans()),
    st.tuples(st.just("lookup"), _line),
    st.tuples(st.just("invalidate"), _line),
    st.tuples(
        st.just("invalidate_block"),
        st.integers(min_value=0, max_value=_LINES // LINES_PER_BLOCK - 1),
    ),
    st.tuples(st.just("mark_dirty"), _line),
    st.tuples(st.just("clean"), _line),
    st.tuples(st.just("clear")),
)


class TestSlotIndex:
    @given(steps=st.lists(_STEPS, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_index_mirrors_arrays(self, steps):
        """The queries read the slot index, the arrays hold the tags and
        dirty flags; after every step of any interleaving of the scalar
        mutators the two agree on every line's residency and dirty
        mark, and no set holds a line twice."""
        c = SetAssociativeCache(capacity_items=4, ways=2)
        for op, *args in steps:
            if op == "fill":
                c.fill(args[0], dirty=args[1])
            else:
                getattr(c, op)(*args)
            tags = c._flat_tags.tolist()
            dirty = c._flat_dirty.tolist()
            held = [line for line in tags if line >= 0]
            assert len(held) == len(set(held)) == c.resident_lines
            for line in range(_LINES):
                resident = line in tags
                assert c.contains(line) == resident
                assert c.is_dirty(line) == (resident and dirty[tags.index(line)])
