"""Tests for the average-memory-access-time model (Eq. 7/11 + modes)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.amat import PAPER_REMOTE_RATE_ADJUSTMENT, average_memory_access_time
from repro.core.contention import barrier_term, mg1_response_time, mg1_utilization
from repro.core.hierarchy import LevelKind, MemoryHierarchy, MemoryLevel, PlatformKind
from repro.core.locality import StackDistanceModel
from repro.core.platform import PlatformSpec
from repro.sim.latencies import ITEM_BYTES, NetworkKind
from repro.topology.build import build_hierarchy
from repro.topology.canned import smp_topology


def _smp(n=1, cache=64, memory=4096):
    # n = 1 is the uniprocessor baseline, which is not a PlatformSpec
    # (a 1x1 shape is rejected), so fold the canned tree directly.
    return build_hierarchy(smp_topology(n, cache, memory))


def _cow(N=4, net=NetworkKind.ETHERNET_100, cache=64, memory=4096):
    return PlatformSpec(
        "cow", n=1, N=N, cache_bytes=cache * ITEM_BYTES,
        memory_bytes=memory * ITEM_BYTES, network=net,
    ).hierarchy()


LOC = StackDistanceModel(alpha=2.5, beta=5.0)


class TestUniprocessorLimit:
    def test_reduces_to_jacob_closed_form(self):
        """n = 1: T = tau1 + tail(s1)*tau2 + tail(s2)*tau3, no contention,
        no barrier -- the paper's consistency check against [6]."""
        h = _smp(n=1)
        out = average_memory_access_time(h, LOC, gamma=0.3)
        expected = 1.0 + LOC.tail(64) * 50.0 + LOC.tail(4096) * 2000.0
        assert out.total_cycles == pytest.approx(expected)
        assert out.barrier_cycles == 0.0

    def test_contention_raises_t_for_multiprocessor(self):
        t1 = average_memory_access_time(_smp(n=1), LOC, gamma=0.3).total_cycles
        out2 = average_memory_access_time(_smp(n=2), LOC, gamma=0.3, barrier_scale=0.0)
        # rescaling shrinks per-process tails, so compare the memory level
        # directly: response time must exceed the uncontended service.
        mem = out2.levels[0]
        assert mem.response_cycles > 50.0
        assert t1 > 0


class TableLocality:
    """A locality given by a table of tails at the levels' boundaries."""

    def __init__(self, tails: dict[float, float]) -> None:
        self.tails = tails

    def tail(self, s):
        return np.vectorize(self.tails.__getitem__, otypes=[float])(s)

    def rescaled(self, n: int) -> "TableLocality":
        assert n == 1, "a one-process table"
        return self


class TestClosedForms:
    @pytest.mark.parametrize("mode", ["open", "throttled"])
    def test_three_level_emat(self, mode):
        """The textbook multi-level EMAT: L1 4 cycles, then L2 12, L3 40
        and memory 200 cycles, reached by 5%, 1% and 0.1% of references
        (95% L1 hits, 80% and 90% of the misses caught by L2 and L3):
        4 + 0.05*12 + 0.01*40 + 0.001*200 = 5.2 cycles.  One process, no
        contention, no barrier."""
        h = MemoryHierarchy(
            platform=PlatformKind.SMP,
            base_cycles=4.0,
            levels=(
                MemoryLevel("L2", LevelKind.L2_CACHE, 100.0, 12.0, 1),
                MemoryLevel("L3", LevelKind.L2_CACHE, 1_000.0, 40.0, 1),
                MemoryLevel("memory", LevelKind.LOCAL_MEMORY, 10_000.0, 200.0, 1),
            ),
            barrier_population=1,
            total_processes=1,
        )
        table = TableLocality({100.0: 0.05, 1_000.0: 0.01, 10_000.0: 0.001})
        out = average_memory_access_time(h, table, gamma=0.3, mode=mode)
        assert out.total_cycles == pytest.approx(5.2)
        assert [lv.contribution_cycles for lv in out.levels] == pytest.approx(
            [0.6, 0.4, 0.2]
        )
        assert out.barrier_cycles == 0.0

    def test_open_response_is_md1(self):
        """In open mode every contended level's response and utilization
        are the M/D/1 closed forms at its burst-boosted request rate."""
        h = _cow(N=8, net=NetworkKind.ATM_155)
        out = average_memory_access_time(
            h, LOC, gamma=0.3, remote_rate_adjustment=0.124, contention_boost=2.0
        )
        contended = [lv for lv in out.levels if lv.population > 1]
        assert contended
        for lv in contended:
            lam = lv.request_rate * 2.0
            assert lv.response_cycles == mg1_response_time(
                lam, lv.tau_cycles, lv.population
            )
            assert lv.utilization == mg1_utilization(lam, lv.tau_cycles, lv.population)


class TestSmpFormula:
    def test_matches_manual_expansion(self):
        """Hand-expand Eq. 11 for n = 2 and compare term by term."""
        gamma, n = 0.25, 2
        h = _smp(n=n)
        dist = LOC.rescaled(n)
        lam2 = gamma * dist.tail(64)
        lam3 = gamma * dist.tail(4096)
        t2 = mg1_response_time(lam2, 50.0, n)
        t3 = mg1_response_time(lam3, 2000.0, n)
        expected = (
            1.0
            + dist.tail(64) * t2
            + dist.tail(4096) * t3
            + barrier_term(n) / gamma
        )
        out = average_memory_access_time(h, LOC, gamma=gamma)
        assert out.total_cycles == pytest.approx(expected)

    def test_barrier_scale(self):
        h = _smp(n=4)
        full = average_memory_access_time(h, LOC, gamma=0.3, barrier_scale=1.0)
        none = average_memory_access_time(h, LOC, gamma=0.3, barrier_scale=0.0)
        assert none.barrier_cycles == 0.0
        assert full.total_cycles - none.total_cycles == pytest.approx(
            barrier_term(4) / 0.3
        )

    def test_level_diagnostics_present(self):
        out = average_memory_access_time(_smp(n=2), LOC, gamma=0.3)
        assert len(out.levels) == 2
        assert all(lv.tail_probability >= 0 for lv in out.levels)
        assert "T =" in out.describe()


class TestSaturation:
    def _saturating(self):
        # 10Mb Ethernet with a fat remote tail saturates the open model.
        heavy = StackDistanceModel(alpha=1.2, beta=500.0)
        return _cow(N=4, net=NetworkKind.ETHERNET_10), heavy

    def test_open_mode_inf(self):
        h, heavy = self._saturating()
        out = average_memory_access_time(h, heavy, gamma=0.3)
        assert out.saturated
        assert math.isinf(out.total_cycles)
        assert any(lv.saturated for lv in out.levels)

    def test_throttled_mode_always_finite(self):
        h, heavy = self._saturating()
        out = average_memory_access_time(h, heavy, gamma=0.3, mode="throttled")
        assert math.isfinite(out.total_cycles)
        assert all(lv.utilization < 1.0 for lv in out.levels)

    def test_throttled_fixed_point_self_consistent(self):
        h, heavy = self._saturating()
        gamma = 0.3
        out = average_memory_access_time(h, heavy, gamma=gamma, mode="throttled")
        # The realized issue scale equals 1/(1 + gamma T): check via the
        # memory level whose lam = gamma * tail * scale.
        scale = out.levels[0].request_rate / (gamma * out.levels[0].tail_probability)
        assert scale == pytest.approx(1.0 / (1.0 + gamma * out.total_cycles), rel=1e-3)

    def test_throttled_equals_open_when_uncontended(self):
        h = _smp(n=1)
        a = average_memory_access_time(h, LOC, gamma=0.3, mode="open")
        b = average_memory_access_time(h, LOC, gamma=0.3, mode="throttled")
        assert b.total_cycles == pytest.approx(a.total_cycles, rel=1e-6)


class TestExtensions:
    def test_paper_remote_rate_adjustment(self):
        """Section 5.3.2's +12.4%, exported once, from ``repro.core`` too."""
        import repro.core

        assert PAPER_REMOTE_RATE_ADJUSTMENT == 0.124
        assert repro.core.PAPER_REMOTE_RATE_ADJUSTMENT is PAPER_REMOTE_RATE_ADJUSTMENT

    def test_remote_rate_adjustment_increases_remote_rate(self):
        h = _cow()
        base = average_memory_access_time(h, LOC, gamma=0.3)
        adj = average_memory_access_time(h, LOC, gamma=0.3, remote_rate_adjustment=0.124)
        remote_base = [lv for lv in base.levels if "remote memory" in lv.name][0]
        remote_adj = [lv for lv in adj.levels if "remote memory" in lv.name][0]
        assert remote_adj.request_rate == pytest.approx(1.124 * remote_base.request_rate)
        assert adj.total_cycles >= base.total_cycles

    def test_adjustment_does_not_touch_local_levels(self):
        h = _cow()
        base = average_memory_access_time(h, LOC, gamma=0.3)
        adj = average_memory_access_time(h, LOC, gamma=0.3, remote_rate_adjustment=0.5)
        assert adj.levels[0].request_rate == pytest.approx(base.levels[0].request_rate)

    def test_sharing_fraction_adds_remote_traffic(self):
        trunc = StackDistanceModel(alpha=2.5, beta=5.0, max_distance=2000.0)
        h = _cow(memory=4096)  # footprint < memory -> zero capacity tail
        base = average_memory_access_time(h, trunc, gamma=0.3)
        shared = average_memory_access_time(
            h, trunc, gamma=0.3, sharing_fraction=0.2, sharing_fresh_fraction=1.0,
        )
        rb = [lv for lv in base.levels if "remote memory" in lv.name][0]
        rs = [lv for lv in shared.levels if "remote memory" in lv.name][0]
        assert rb.tail_probability == 0.0
        assert rs.tail_probability == pytest.approx(0.2)

    def test_sharing_fresh_blend(self):
        h = _cow()
        lo = average_memory_access_time(
            h, LOC, gamma=0.3, sharing_fraction=0.2, sharing_fresh_fraction=0.0,
            mode="throttled",
        )
        hi = average_memory_access_time(
            h, LOC, gamma=0.3, sharing_fraction=0.2, sharing_fresh_fraction=1.0,
            mode="throttled",
        )
        assert hi.total_cycles > lo.total_cycles

    def test_contention_boost_only_raises_queueing(self):
        h = _smp(n=4)
        base = average_memory_access_time(h, LOC, gamma=0.3)
        boosted = average_memory_access_time(h, LOC, gamma=0.3, contention_boost=4.0)
        b0, b4 = base.levels[0], boosted.levels[0]
        assert b4.tail_probability == pytest.approx(b0.tail_probability)
        assert b4.response_cycles > b0.response_cycles
        assert boosted.total_cycles > base.total_cycles

    def test_contention_boost_validation(self):
        with pytest.raises(ValueError):
            average_memory_access_time(_smp(), LOC, gamma=0.3, contention_boost=0.5)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            average_memory_access_time(_smp(), LOC, gamma=0.0)
        with pytest.raises(ValueError):
            average_memory_access_time(_smp(), LOC, gamma=1.5)


class TestProperties:
    @given(
        alpha=st.floats(min_value=1.3, max_value=4.0),
        beta=st.floats(min_value=1.0, max_value=1e4),
        gamma=st.floats(min_value=0.05, max_value=0.9),
        n=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_throttled_t_at_least_base(self, alpha, beta, gamma, n):
        loc = StackDistanceModel(alpha=alpha, beta=beta)
        out = average_memory_access_time(_smp(n=n), loc, gamma=gamma, mode="throttled")
        assert out.total_cycles >= 1.0

    @given(
        cache=st.sampled_from([16, 64, 256, 1024]),
        gamma=st.floats(min_value=0.1, max_value=0.6),
    )
    @settings(max_examples=40, deadline=None)
    def test_bigger_cache_never_slower(self, cache, gamma):
        a = average_memory_access_time(_smp(n=2, cache=cache), LOC, gamma=gamma, mode="throttled")
        b = average_memory_access_time(_smp(n=2, cache=2 * cache), LOC, gamma=gamma, mode="throttled")
        assert b.total_cycles <= a.total_cycles + 1e-9
