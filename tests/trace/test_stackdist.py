"""Tests for the exact stack-distance engine (wavelet batch vs naive)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace.stackdist import (
    COLD_DISTANCE,
    count_greater_before,
    hit_ratio,
    lru_hit_ratios,
    prev_occurrence,
    stack_distances,
    stack_distances_naive,
)
from repro.trace.streamdist import StreamingStackDistance


class TestPrevOccurrence:
    def test_basic(self):
        prev = prev_occurrence(np.array([7, 8, 7, 7, 8]))
        np.testing.assert_array_equal(prev, [-1, -1, 0, 2, 1])

    def test_all_distinct(self):
        prev = prev_occurrence(np.arange(5))
        np.testing.assert_array_equal(prev, [-1] * 5)

    def test_empty(self):
        assert prev_occurrence(np.array([], dtype=np.int64)).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            prev_occurrence(np.zeros((2, 2)))


class TestKnownStreams:
    def test_immediate_reuse_is_zero(self):
        # a a a -> distances: cold, 0, 0
        d = stack_distances(np.array([1, 1, 1]))
        np.testing.assert_array_equal(d, [COLD_DISTANCE, 0, 0])

    def test_textbook_example(self):
        # a b c a: 'a' re-touched after 2 distinct items
        d = stack_distances(np.array([1, 2, 3, 1]))
        np.testing.assert_array_equal(d, [COLD_DISTANCE] * 3 + [2])

    def test_duplicates_between_do_not_double_count(self):
        # a b b a: only one distinct item between the two a's
        d = stack_distances(np.array([1, 2, 2, 1]))
        assert d[-1] == 1

    def test_cyclic_scan(self):
        # 0 1 2 0 1 2: every warm reference at distance 2
        d = stack_distances(np.array([0, 1, 2, 0, 1, 2]))
        np.testing.assert_array_equal(d[3:], [2, 2, 2])


class TestAgainstNaive:
    @given(
        data=st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=300)
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_implementation(self, data):
        items = np.asarray(data, dtype=np.int64)
        np.testing.assert_array_equal(
            stack_distances(items), stack_distances_naive(items)
        )

    def test_large_random_stream(self):
        rng = np.random.default_rng(3)
        items = rng.integers(0, 500, size=5000)
        np.testing.assert_array_equal(
            stack_distances(items), stack_distances_naive(items)
        )

    def test_large_address_values(self):
        """Addresses far above the trace length must not break the tree."""
        items = np.array([10**12, 5, 10**12, 5, 10**12])
        np.testing.assert_array_equal(
            stack_distances(items), stack_distances_naive(items)
        )

    def test_items_too_wide_for_the_sort_key(self):
        """Items near +-2**62 leave no room for a position's bits in an
        int64 ``(item - min, position)`` key, so the grouping falls back
        to the stable argsort; the streaming engine, which sorts each
        chunk the same way, must still agree with the offline one."""
        rng = np.random.default_rng(5)
        items = rng.choice(
            np.array([-(2**62), -(2**62) + 1, 3, 2**62, 2**62 + 7]), size=400
        )
        bits = (items.size - 1).bit_length()
        assert int(items.max()) - int(items.min()) >= 1 << (63 - bits)
        expected = stack_distances_naive(items)
        np.testing.assert_array_equal(stack_distances(items), expected)
        engine = StreamingStackDistance()
        streamed = np.concatenate(
            [engine.update(items[i : i + 64]) for i in range(0, 400, 64)]
        )
        np.testing.assert_array_equal(streamed, expected)

    @pytest.mark.parametrize(
        "items",
        [
            np.array([2**31 - 1, -(2**31), 2**31 - 1, 0, -(2**31)], dtype=np.int32),
            np.array([2**64 - 1, 0, 2**64 - 1, 5], dtype=np.uint64),
            np.array([3, 1, 3, 3, 1], dtype=np.uint8),
            np.array([2.5, 1.0, 2.5, 2.5], dtype=np.float64),
        ],
        ids=["int32-extremes", "uint64", "uint8", "float"],
    )
    def test_prev_occurrence_on_other_dtypes(self, items):
        seen: dict = {}
        expected = []
        for t, item in enumerate(items.tolist()):
            expected.append(seen.get(item, -1))
            seen[item] = t
        np.testing.assert_array_equal(prev_occurrence(items), expected)


class TestHitRatios:
    def test_lru_semantics(self):
        # distances [cold, 0, 2]: capacity 1 hits only the 0-distance ref
        d = np.array([COLD_DISTANCE, 0, 2])
        assert hit_ratio(d, 1) == pytest.approx(1 / 3)
        assert hit_ratio(d, 3) == pytest.approx(2 / 3)
        assert hit_ratio(d, 0) == 0.0

    def test_cold_always_misses(self):
        d = np.array([COLD_DISTANCE] * 4)
        assert hit_ratio(d, 10**9) == 0.0

    def test_vectorized_curve_matches_scalar(self):
        rng = np.random.default_rng(0)
        d = stack_distances(rng.integers(0, 50, size=2000))
        caps = np.array([1, 2, 8, 32, 64])
        curve = lru_hit_ratios(d, caps)
        for c, h in zip(caps, curve):
            assert h == pytest.approx(hit_ratio(d, c))

    def test_curve_monotone_in_capacity(self):
        rng = np.random.default_rng(1)
        d = stack_distances(rng.integers(0, 200, size=5000))
        curve = lru_hit_ratios(d, np.arange(1, 300, 7))
        assert np.all(np.diff(curve) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            hit_ratio(np.array([1]), -1)
        with pytest.raises(ValueError):
            lru_hit_ratios(np.array([1]), np.array([-1.0]))


class TestInclusionProperty:
    @given(
        data=st.lists(st.integers(min_value=0, max_value=40), min_size=10, max_size=200)
    )
    @settings(max_examples=50, deadline=None)
    def test_lru_inclusion(self, data):
        """Hit ratio is non-decreasing in capacity (LRU stack inclusion)."""
        d = stack_distances(np.asarray(data, dtype=np.int64))
        caps = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 64.0])
        curve = lru_hit_ratios(d, caps)
        assert np.all(np.diff(curve) >= -1e-12)


def _greater_before_brute(values):
    """O(n^2) reference: earlier elements greater than each element."""
    return [sum(1 for u in range(i) if values[u] > values[i]) for i in range(len(values))]


#: Lengths that straddle a power of two, where a bit level fills up.
_EDGE_LENGTHS = sorted({2**k + d for k in range(1, 8) for d in (-1, 0, 1)})


@st.composite
def _counted_values(draw):
    n = draw(st.one_of(st.integers(0, 40), st.sampled_from(_EDGE_LENGTHS)))
    top = draw(st.sampled_from([0, 1, 3, 50, 2**20]))  # 0: all zero; small: ties
    low = draw(st.sampled_from([0, -top]))
    return draw(st.lists(st.integers(low, top), min_size=n, max_size=n))


class TestCountGreaterBefore:
    """The counting kernel both stack-distance engines share."""

    @given(_counted_values())
    @example([])
    @example([5])
    @example([0] * 9)
    @example([2] * 16)
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, values):
        out = count_greater_before(np.asarray(values, dtype=np.int64))
        assert out.dtype == np.int64
        assert out.tolist() == _greater_before_brute(values)

    @pytest.mark.parametrize("n", _EDGE_LENGTHS)
    def test_lengths_around_powers_of_two(self, n):
        values = np.random.default_rng(n).integers(0, max(2, n // 3), size=n)
        assert count_greater_before(values).tolist() == _greater_before_brute(values.tolist())

    def test_values_past_int32_are_exact(self):
        """A value range of 2**31 or more cannot use int32 arrays."""
        values = np.array(
            [2**31 + 5, 0, 2**31, 7, 2**40, 2**31 + 5, 1, 2**31 - 1, 0, 2**33]
        )
        assert count_greater_before(values).tolist() == _greater_before_brute(values.tolist())

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            count_greater_before(np.zeros((2, 2), dtype=np.int64))
